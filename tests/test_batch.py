"""``classify_many``: each row as ``classify`` gives it, whatever batch it is in."""

import contextlib
import io

import numpy as np
import pytest

import qset
import qset.cli
import qset.realization
from qset import Behavior, Failure, Verdict, born_point, classify, classify_many
from qset.cli import ScanSpec, main
from qset.realization import born_vector

from conftest import TSIRELSON, fails_necessary_mixture


def mixed_batch() -> np.ndarray:
    """Grid rows through the a0 = b0 face (Local, NonExtremalInQ, both extremal
    verdicts, Indeterminate), a FailsNecessaryQ2Pure mixture, seeded cube
    draws (valid and invalid) and vectors with non-finite or out-of-range
    components."""
    grid = ScanSpec(ranges={"theta": (0.02, 1.5, 12), "a1": (0.3, 2.9, 6), "b0": (0.0, 2.5, 6)},
                    fixed={"a0": 0.0, "b1": 2.7}).grid_points()
    rng = np.random.default_rng(31)
    odd = rng.uniform(-1, 1, (4, 8))
    odd[0, 3], odd[1, 6], odd[2, 0], odd[3, 5] = np.nan, np.inf, 1.5, -1.0 - 1e-7
    return np.vstack([born_vector(*grid.T), fails_necessary_mixture().vector, rng.uniform(-1, 1, (40, 8)), odd])


def outcome(fn):
    """(verdict, details) of a classification, or (exception type, message)."""
    try:
        res = fn()
    except qset.QsetError as exc:
        return type(exc), str(exc)
    return res.verdict, res.details


def assert_same(a, b):
    assert a[0] == b[0]
    if isinstance(a[1], str):
        assert a[1] == b[1]
        return
    assert a[1].keys() == b[1].keys()
    for key, value in a[1].items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, b[1][key], equal_nan=True), key
        else:
            assert value == b[1][key], key


def test_mixed_batch_covers_every_outcome():
    batch = classify_many(mixed_batch())
    labels = set(batch.labels())
    assert {v.value for v in Verdict} <= labels
    assert "Error:InvalidBehaviorError" in labels
    indeterminate = batch.verdict == qset.extremality.VERDICTS.index(Verdict.INDETERMINATE)
    assert np.all(batch.failure[indeterminate] != Failure.NONE)
    assert np.all(batch.failure[~indeterminate] == Failure.NONE)


def test_rows_match_scalar_classify():
    v = mixed_batch()
    batch = classify_many(v)
    for i, row in enumerate(v):
        assert_same(outcome(lambda: batch.classification(i)),
                    outcome(lambda: classify(Behavior.from_vector(row))))


def test_rows_independent_of_order():
    v = mixed_batch()
    perm = np.random.default_rng(5).permutation(len(v))
    batch, shuffled = classify_many(v), classify_many(v[perm])
    for k, i in enumerate(perm):
        assert_same(outcome(lambda: shuffled.classification(k)),
                    outcome(lambda: batch.classification(i)))
    assert np.array_equal(shuffled.residuals, batch.residuals[perm], equal_nan=True)


def scan_csv(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def test_scan_rows_independent_of_block_boundaries(monkeypatch):
    argv = ["scan", "--range", "theta=0.02:1.5:12", "--range", "a1=0.3:2.9:6",
            "--range", "b0=0:2.5:6", "--a0", "0", "--b1", "2.7"]
    whole = scan_csv(argv)
    monkeypatch.setattr(qset.cli, "SCAN_BLOCK", 7)
    monkeypatch.setattr(qset.realization, "CANONICALIZE_CHUNK", 3)
    assert scan_csv(argv) == whole


def test_programming_error_in_a_stage_raises(monkeypatch):
    def broken(c):
        raise TypeError("broken stage")

    monkeypatch.setattr(qset.selftest, "_gauge_placement", broken)
    with pytest.raises(TypeError, match="broken stage"):
        classify(born_point(TSIRELSON))


def test_classify_many_rejects_bad_shape():
    with pytest.raises(ValueError):
        classify_many(np.zeros((3, 7)))

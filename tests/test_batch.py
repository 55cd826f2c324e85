"""``classify_many``: each row as ``classify`` gives it, whatever batch it is in."""

import contextlib
import io

import numpy as np
import pytest

import qset
import qset.cli
import qset.realization
from qset import (Behavior, Failure, Verdict, born_point, classify, classify_many,
                  enumerate_vertices, group_elements, sample_realization)
from qset.cli import ScanSpec, main
from qset.extremality import (VERDICTS, _reference_relabelings, _reference_steered,
                               alternation_margins)
from qset.realization import born_vector
from qset.steering import steered_many
from qset.symmetry import signed_permutation

from conftest import NONALT, PI8_EDGE, TSIRELSON, fails_necessary_mixture, random_valid_behavior

PI = np.pi


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


def orbits(v: np.ndarray) -> np.ndarray:
    """Images of the rows of v under all of ``group_elements()``: (N * 128, 8),
    row-major by (point, element)."""
    perm, sign = (np.array(a) for a in zip(*map(signed_permutation, group_elements())))
    return (sign * v[:, perm]).reshape(-1, 8)


def covariance_points() -> np.ndarray:
    """Seeded points of every verdict but the equality-margin ones: strictly
    alternating and non-alternating canonical realizations, vertex mixtures,
    valid cube and realization draws, and the fixed points of conftest,
    PI8_EDGE being the only non-exposed one."""
    rng = np.random.default_rng(41)
    exposed = [sample_realization(rng, {"strictly-alternating"}).params() for _ in range(40)]
    nonalt = []
    while len(nonalt) < 40:
        r = sample_realization(rng, {"canonical"}, theta_range=(0.1, PI / 4))
        if alternation_margins(np.array([r.params()]))[0].min() < -0.05:
            nonalt.append(r.params())
    vertices = np.array([v.behavior.vector for v in enumerate_vertices()])
    fixed = [born_point(r).vector for r in (PI8_EDGE, TSIRELSON, NONALT)]
    return np.vstack([born_vector(*np.array(exposed + nonalt).T),
                      rng.dirichlet(np.ones(16), 30) @ vertices,
                      [random_valid_behavior(rng).vector for _ in range(40)],
                      fixed, fails_necessary_mixture().vector])


def test_classify_many_covariant_under_every_relabeling():
    v = covariance_points()
    codes = classify_many(orbits(v)).verdict.reshape(len(v), -1)
    assert len(v) >= 150 and codes.shape[1] == 128
    assert np.all(codes == codes[:, :1])
    assert {VERDICTS[k] for k in codes[:, 0]} >= set(Verdict) - {Verdict.INDETERMINATE}


@pytest.mark.xfail(strict=True, reason="equality-margin verdicts follow rounding "
                                       "that differs between relabeled images")
def test_classify_many_covariant_at_seeded_non_exposed_points():
    # a1 = pi/2 with b = (2 theta, pi - 2 theta), PI8_EDGE's family, and the
    # a0 = b0 = 0 face: every point alternates with some margin exactly zero
    rng = np.random.default_rng(43)
    theta = rng.uniform(0.15, 0.75, (2, 30))
    edge = [(t, 0.0, PI / 2, 2 * t, PI - 2 * t) for t in theta[0]]
    face = [(t, 0.0, a1, 0.0, b1) for t, a1, b1 in
            zip(theta[1], rng.uniform(1.0, 2.0, 30), rng.uniform(2.2, 3.0, 30))]
    v = born_vector(*np.array(edge + face).T)
    codes = classify_many(orbits(v)).verdict.reshape(len(v), -1)
    assert np.all(codes == codes[:, :1])


@pytest.mark.parametrize("k", range(8))
def test_reference_steered_table_matches_recomputation_bitwise(k):
    rng = np.random.default_rng(47 + k)
    v = born_vector(*rng.uniform(0.0, PI, (5, 200)))
    c, failures = steered_many(v)
    assert not failures
    _, perms, signs = _reference_relabelings()
    pats = np.full(len(v), k)
    want, _ = steered_many(v[np.arange(len(v))[:, None], perms[pats]] * signs[pats])
    assert np.array_equal(_reference_steered(c, pats).view(np.int64), want.view(np.int64))

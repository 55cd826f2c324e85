"""``qset scan`` against the golden CSVs written by ``tests/data/make_golden.py``.

Verdict cells must be identical, numeric cells within 1e-12 (NaN matches
NaN), and the header and row count unchanged.
"""

import contextlib
import io
import math
import sys
from pathlib import Path

import pytest

from qset.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent / "data"))
from make_golden import GRIDS, path_of, read_golden  # noqa: E402

TOL_CELL = 1e-12


def scan_output(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def cell_mismatches(got: str, want: str) -> list[str]:
    got_rows, want_rows = got.splitlines(), want.splitlines()
    assert got_rows[0] == want_rows[0], "header changed"
    assert len(got_rows) == len(want_rows), "row count changed"
    verdict = want_rows[0].split(",").index("verdict")
    bad = []
    for k, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        gc, wc = g.split(","), w.split(",")
        if len(gc) != len(wc) or gc[verdict] != wc[verdict]:
            bad.append(f"row {k}: {g!r} != {w!r}")
            continue
        for j, (a, b) in enumerate(zip(gc, wc)):
            if j == verdict:
                continue
            x, y = float(a), float(b)
            if not (abs(x - y) <= TOL_CELL or (math.isnan(x) and math.isnan(y))):
                bad.append(f"row {k} column {j}: {a} != {b}")
    return bad


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_scan_matches_golden(name):
    header, want = read_golden(path_of(name))
    assert header["argv"] == GRIDS[name]
    bad = cell_mismatches(scan_output(header["argv"]), want)
    assert not bad, f"{len(bad)} mismatches, first: {bad[:5]}"

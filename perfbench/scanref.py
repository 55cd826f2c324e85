"""Reference scan CSV computed by the frozen seed copy in ``seed_qset``.

``reference_csv`` reproduces what ``qset scan`` printed at commit 0919adf for
a grid: the same grid order, the same per-row stages and the same 17-digit
formatting, so the current library's rows can be compared cell by cell.
"""

from __future__ import annotations

import math

import numpy as np

from seed_qset.errors import QsetError
from seed_qset.extremality import classify, full_alternation_check, selftest_conditions_check
from seed_qset.realization import QubitRealization, born_point

#: Largest difference allowed in a numeric CSV cell.
TOL_CELL = 1e-12

SCAN_PARAMS = ("theta", "a0", "a1", "b0", "b1")
CSV_COLUMNS = SCAN_PARAMS + ("verdict",) + tuple(f"m{k}" for k in range(8)) \
    + tuple(f"r{k}" for k in range(4))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def grid_points(grid) -> list[tuple[float, ...]]:
    axes = []
    for name in SCAN_PARAMS:
        if name in grid.ranges:
            lo, hi, steps = grid.ranges[name]
            axes.append(np.linspace(lo, hi, steps) if steps > 1 else np.array([lo]))
        else:
            axes.append(np.array([grid.fixed[name]]))
    mesh = np.meshgrid(*axes, indexing="ij")
    return [tuple(float(g[idx]) for g in mesh) for idx in np.ndindex(mesh[0].shape)]


def _row(point) -> list[str]:
    r = QubitRealization(theta=point[0], a=(point[1], point[2]), b=(point[3], point[4]))
    p = born_point(r)
    try:
        verdict = classify(p).verdict.value
    except QsetError as exc:
        verdict = f"Error:{type(exc).__name__}"
    try:
        _, margins = full_alternation_check(r, strict=False)
    except (QsetError, ValueError):
        margins = [math.nan] * 8
    try:
        _, residuals = selftest_conditions_check(p)
    except QsetError:
        residuals = [math.nan] * 4
    return [_fmt(x) for x in point] + [verdict] \
        + [_fmt(float(m)) for m in margins] + [_fmt(float(r)) for r in residuals]


def reference_csv(grid) -> str:
    lines = [",".join(CSV_COLUMNS)] + [",".join(_row(pt)) for pt in grid_points(grid)]
    return "\n".join(lines) + "\n"


def row_mismatches(got: str, want: str) -> int:
    """Rows of ``got`` that differ from ``want``: a different verdict cell, a
    numeric cell off by more than ``TOL_CELL``, an ``Error:`` verdict, or a missing
    or extra row (header included)."""
    got_rows, want_rows = got.splitlines(), want.splitlines()
    bad = abs(len(got_rows) - len(want_rows))
    if got_rows[:1] != want_rows[:1]:
        return max(len(got_rows), len(want_rows))
    verdict = CSV_COLUMNS.index("verdict")
    for g, w in zip(got_rows[1:], want_rows[1:]):
        gc, wc = g.split(","), w.split(",")
        if len(gc) != len(wc) or gc[verdict] != wc[verdict] or gc[verdict].startswith("Error:"):
            bad += 1
            continue
        a = np.array([float(x) for k, x in enumerate(gc) if k != verdict])
        b = np.array([float(x) for k, x in enumerate(wc) if k != verdict])
        same = (np.abs(a - b) <= TOL_CELL) | (np.isnan(a) & np.isnan(b))
        if not same.all():
            bad += 1
    return bad

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qset import (
    DegenerateThetaError,
    QubitRealization,
    SamplingError,
    apply_symmetry,
    born_point,
    canonicalize,
    full_alternation_check,
    sample_realization,
)
import qset.selftest
from qset.cli import ScanSpec, _parse_range, main
from qset.extremality import classify_many
from qset.realization import (CANONICALIZE_CHUNK, _GAUGE_MOVES, _canonicalize_many,
                              alternation_margins, apply_relabeling, born_jacobian, born_vector)
from qset.symmetry import group_elements, signed_permutation
from qset.tolerances import TOL_EQ

from conftest import (PI8_EDGE, born_point_matrix, reference_born_jacobian,
                      reference_born_vector)

sys.path.insert(0, str(Path(__file__).resolve().parent / "data"))
from make_golden import GRIDS  # noqa: E402

PI = math.pi
SQ2 = math.sqrt(2.0)


def test_born_point_maximally_entangled():
    r = QubitRealization(PI / 4, (0, PI / 2), (PI / 4, 3 * PI / 4))
    v = born_point(r).vector
    assert np.allclose(v[:4], 0.0, atol=1e-15)
    # corr_xy = cos(a_x - b_y), row-major order (00, 01, 10, 11)
    assert np.allclose(v[4:], [SQ2 / 2, -SQ2 / 2, SQ2 / 2, SQ2 / 2], atol=1e-15)


def test_born_point_product_state():
    r = QubitRealization(0.0, (0.7, 2.1), (1.3, 0.4))
    v = born_point(r).vector
    for x in range(2):
        for y in range(2):
            assert v[4 + 2 * x + y] == pytest.approx(math.cos(r.a[x]) * math.cos(r.b[y]))


def test_born_point_pi8_edge_frozen_values():
    v = born_point(PI8_EDGE).vector
    expected = [SQ2 / 2, 0.0, 0.5, -0.5, SQ2 / 2, -SQ2 / 2, 0.5, 0.5]
    assert np.allclose(v, expected, atol=1e-15)
    assert np.max(np.abs(v - born_point_matrix(PI8_EDGE).vector)) < 1e-14


def test_matrix_oracle_special_cases():
    r = QubitRealization(PI / 4, (0.0, 0.0), (0.0, 0.0))
    v = born_point_matrix(r).vector
    assert np.allclose(v[:4], 0.0, atol=1e-15)
    assert np.allclose(v[4:], 1.0, atol=1e-15)
    r2 = QubitRealization(PI / 2, (0.6, 2.2), (0.1, 1.0))
    v2 = born_point_matrix(r2).vector
    assert v2[0] == pytest.approx(-math.cos(0.6))
    assert v2[1] == pytest.approx(-math.cos(2.2))


def test_born_closed_form_matches_matrix_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10000):
        r = QubitRealization(rng.uniform(0, PI),
                             tuple(rng.uniform(0, 2 * PI, 2)),
                             tuple(rng.uniform(0, 2 * PI, 2)))
        diff = np.max(np.abs(born_point(r).vector - born_point_matrix(r).vector))
        worst = max(worst, diff)
    assert worst < 1e-12


def test_born_vector_bit_identical_to_expanded_form():
    # each sine and cosine is computed once; every product keeps its order
    rng = np.random.default_rng(11)
    theta, a0, a1, b0, b1 = rng.uniform(-2 * PI, 2 * PI, (1000, 5)).T
    c2 = np.cos(2 * theta)
    s2 = np.sin(2 * theta)
    expected = np.stack([
        c2 * np.cos(a0), c2 * np.cos(a1), c2 * np.cos(b0), c2 * np.cos(b1),
        np.cos(a0) * np.cos(b0) + s2 * np.sin(a0) * np.sin(b0),
        np.cos(a0) * np.cos(b1) + s2 * np.sin(a0) * np.sin(b1),
        np.cos(a1) * np.cos(b0) + s2 * np.sin(a1) * np.sin(b0),
        np.cos(a1) * np.cos(b1) + s2 * np.sin(a1) * np.sin(b1),
    ], axis=-1)
    assert np.array_equal(born_vector(theta, a0, a1, b0, b1), expected)


def test_born_vector_returns_float64_for_every_input():
    rng = np.random.default_rng(12)
    params = rng.uniform(-2 * PI, 2 * PI, (5, 100))
    reference = born_vector(*params)
    single = born_vector(*params.astype(np.float32))
    assert single.dtype == np.float64
    assert np.max(np.abs(single - reference)) < 1e-5
    # float32 angles are widened exactly before the map
    assert np.array_equal(single, born_vector(*params.astype(np.float32).astype(np.float64)))
    assert born_vector(*(np.float32(v) for v in params[:, 0])).dtype == np.float64
    # float64 arrays, Python floats, ints and any mix with float32 give float64
    mixed = [params.astype(np.float32)[0], *params[1:]]
    for args in (params, params[:, 0].tolist(), (0, 1, 2, 3, 4), mixed,
                 [*params.astype(np.float32)[:4], 0.5]):
        assert born_vector(*args).dtype == np.float64


def test_born_vector_and_jacobian_match_their_earlier_bodies_bit_for_bit():
    # seeded arrays of several shapes, broadcast mixes and Python floats
    rng = np.random.default_rng(13)
    cases = [tuple(rng.uniform(-2 * PI, 2 * PI, (5, 1000)))]
    cases.append(tuple(rng.uniform(-50.0, 50.0, (5, 3, 7))))
    row = rng.uniform(-PI, PI, (5, 1))
    cases.append((0.4, row[1], row[2], 1.1, row[4]))
    cases += [tuple(rng.uniform(-PI, PI, 5).tolist()) for _ in range(20)]
    cases.append((0.0, 0.0, PI / 2, PI / 4, 3 * PI / 4))
    cases.append((0, 1, 2, 3, 4))
    for args in cases:
        got, want = born_vector(*args), reference_born_vector(*args)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        got, want = born_jacobian(*args), reference_born_jacobian(*args)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def born_jacobian_central_differences(params: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """(..., 8, 5) central differences of born_vector over the last axis of params."""
    cols = []
    for k in range(5):
        step = np.zeros(5)
        step[k] = h
        hi = born_vector(*np.moveaxis(params + step, -1, 0))
        lo = born_vector(*np.moveaxis(params - step, -1, 0))
        cols.append((hi - lo) / (2 * h))
    return np.stack(cols, axis=-1)


def test_born_jacobian_matches_central_differences_scalar():
    rng = np.random.default_rng(12)
    for _ in range(50):
        params = rng.uniform(-PI, PI, 5)
        jac = born_jacobian(*params)
        assert jac.shape == (8, 5)
        assert np.max(np.abs(jac - born_jacobian_central_differences(params))) < 1e-7


def test_born_jacobian_matches_central_differences_batched():
    rng = np.random.default_rng(13)
    params = rng.uniform(-PI, PI, (200, 5))
    jac = born_jacobian(*params.T)
    assert jac.shape == (200, 8, 5)
    assert np.max(np.abs(jac - born_jacobian_central_differences(params))) < 1e-7
    # broadcasting a scalar against a batch agrees with the full batch
    mixed = born_jacobian(0.4, params[:, 1], params[:, 2], 1.1, params[:, 4])
    full = params.copy()
    full[:, 0], full[:, 3] = 0.4, 1.1
    assert np.array_equal(mixed, born_jacobian(*full.T))


def test_born_periodicity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = QubitRealization(rng.uniform(0, PI), tuple(rng.uniform(0, PI, 2)),
                             tuple(rng.uniform(0, PI, 2)))
        shifted = QubitRealization(r.theta + PI, r.a, r.b)
        assert np.allclose(born_point(r).vector, born_point(shifted).vector, atol=1e-12)
        shifted_a = QubitRealization(r.theta, (r.a[0] + 2 * PI, r.a[1]), r.b)
        assert np.allclose(born_point(r).vector, born_point(shifted_a).vector, atol=1e-12)


def test_marginals_strictly_inside_for_entangled_theta():
    rng = np.random.default_rng(4)
    for _ in range(300):
        theta = rng.uniform(0.05, PI / 2 - 0.05)
        r = QubitRealization(theta, tuple(rng.uniform(0, PI, 2)), tuple(rng.uniform(0, PI, 2)))
        assert np.max(np.abs(born_point(r).vector[:4])) < 1.0


def test_apply_relabeling_commutes_with_born():
    rng = np.random.default_rng(6)
    r = QubitRealization(rng.uniform(0, PI), tuple(rng.uniform(0, PI, 2)),
                         tuple(rng.uniform(0, PI, 2)))
    for g in group_elements():
        lhs = born_point(apply_relabeling(g, r)).vector
        rhs = apply_symmetry(g, born_point(r)).vector
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_canonicalize_identity_on_generic_canonical():
    r = QubitRealization(0.31, (0.2, 1.9), (0.9, 2.5))
    rc, g = canonicalize(r)
    assert rc == r
    assert g == type(g)()  # identity element


def test_canonicalize_orders_swapped_inputs():
    r = QubitRealization(0.31, (1.9, 0.2), (0.9, 2.5))
    rc, g = canonicalize(r)
    assert rc.a == (0.2, 1.9)
    assert g.input_swap_a


def test_canonicalize_equivariance_random():
    rng = np.random.default_rng(8)
    for _ in range(200):
        r = QubitRealization(rng.uniform(0, PI), tuple(rng.uniform(0, 2 * PI, 2)),
                             tuple(rng.uniform(0, 2 * PI, 2)))
        rc, g = canonicalize(r)
        assert rc.is_canonical()
        assert 0.0 <= rc.theta <= PI / 4 + 1e-12
        lhs = born_point(rc).vector
        rhs = apply_symmetry(g, born_point(r)).vector
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_canonicalize_sector_from_large_theta():
    r = QubitRealization(3 * PI / 5, (0.3, 2.0), (0.9, 2.6))
    rc, g = canonicalize(r, sector=True)
    assert 0.0 < rc.theta <= PI / 4 + 1e-12
    assert np.allclose(born_point(rc).vector,
                       apply_symmetry(g, born_point(r)).vector, atol=1e-12)


def test_canonicalize_sector_rejects_product_state():
    with pytest.raises(DegenerateThetaError):
        canonicalize(QubitRealization(0.0, (0.3, 1.0), (0.5, 2.0)), sector=True)


#: Generators of the gauge moves (et, kt, ea, ka, eb, kb), each the affine map
#: theta' = et*theta + kt*(pi/2), a' = ea*a + ka*pi, b' = eb*b + kb*pi: the
#: identity, pi - theta with b -> -b, the X (x) X basis flip and the
#: sigma_z (x) sigma_z reflection.
GAUGE_GENERATORS = [
    (1, 0, 1, 0, 1, 0),
    (-1, 2, 1, 0, -1, 0),
    (-1, 1, -1, 1, -1, 1),
    (1, 0, -1, 0, -1, 0),
]


def gauge_compose(m2, m1):
    """The move m2 after m1, offsets mod 2 (theta mod pi, angles mod 2 pi)."""
    et2, kt2, ea2, ka2, eb2, kb2 = m2
    et1, kt1, ea1, ka1, eb1, kb1 = m1
    return (et2 * et1, (et2 * kt1 + kt2) % 2,
            ea2 * ea1, (ea2 * ka1 + ka2) % 2,
            eb2 * eb1, (eb2 * kb1 + kb2) % 2)


def test_gauge_moves_are_the_generated_closure_in_sorted_order():
    moves = {(1, 0, 1, 0, 1, 0)}
    frontier = {gauge_compose(m, (1, 0, 1, 0, 1, 0)) for m in GAUGE_GENERATORS}
    while frontier - moves:
        moves |= frontier
        frontier = {gauge_compose(g, m) for g in GAUGE_GENERATORS for m in moves}
    assert _GAUGE_MOVES == tuple(sorted(moves))
    assert len(_GAUGE_MOVES) == 8


def brute_force_canonicalize(params: np.ndarray, sector: bool, chunk: int = 64):
    """Oracle for ``_canonicalize_many``: every row expands to all 1024
    gauge x relabeling images, and the winner is the first lexicographic
    minimum of (theta, a0, a1, b0, b1) over the admissible ones (lexsort is
    stable).  The images are the same floating-point expressions, so the
    results must agree bit for bit."""
    tsgn, toff, asrc, asgn, aoff = [], [], [], [], []
    for et, kt, ea, ka, eb, kb in _GAUGE_MOVES:
        for g in group_elements():
            perm, sign = signed_permutation(g)
            src = perm[:4].tolist()
            tsgn.append(et)
            toff.append(kt)
            asrc.append(src)
            asgn.append([(ea, ea, eb, eb)[k] for k in src])
            aoff.append([(ka, ka, kb, kb)[k] + (sign[s] < 0) for s, k in enumerate(src)])
    tsgn, toff = np.array(tsgn, float), np.array(toff, float)
    asrc, asgn, aoff = np.array(asrc), np.array(asgn, float), np.array(aoff, float)
    n = len(params)
    out, win, folds = np.full((n, 5), np.nan), np.full(n, -1), np.zeros((n, 4), bool)
    for lo in range(0, n, chunk):
        rows = params[lo:lo + chunk]
        thetas = np.mod(tsgn * rows[:, :1] + toff * (PI / 2), PI)
        images = np.mod(asgn * rows[:, 1 + asrc] + aoff * PI, 2 * PI)  # (rows, 1024, 4)
        fold = images >= PI
        images -= fold * PI
        a0, a1, b0, b1 = np.moveaxis(images, -1, 0)
        ok = (a0 <= a1 + TOL_EQ) & (a0 <= b0 + TOL_EQ) & (b0 <= b1 + TOL_EQ)
        if sector:
            ok &= (thetas > TOL_EQ) & (thetas <= PI / 4 + TOL_EQ)
        hits = np.flatnonzero(ok)
        if hits.size == 0:
            continue
        r_idx, c_idx = np.divmod(hits, ok.shape[1])
        keys = [key.ravel()[hits] for key in (thetas, a0, a1, b0, b1)]
        order = np.lexsort(keys[::-1] + [r_idx])
        r_sorted = r_idx[order]
        first = order[np.concatenate(([True], r_sorted[1:] != r_sorted[:-1]))]
        dest = lo + r_idx[first]
        out[dest] = np.column_stack([key[first] for key in keys])
        win[dest] = c_idx[first]
        folds[dest] = fold[r_idx[first], c_idx[first]]
    return out, win, folds


def assert_canonicalized_bitwise(params: np.ndarray, sector: bool, batch: int | None = None):
    want = brute_force_canonicalize(params, sector)
    batch = batch or len(params)
    parts = [_canonicalize_many(params[lo:lo + batch], sector) for lo in range(0, len(params), batch)]
    got = [np.concatenate(arrays) for arrays in zip(*parts)]
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])


def golden_grid_canonicalize_rows(monkeypatch) -> np.ndarray:
    """The rows the 10,000-row golden scan grid sends to ``_canonicalize_many``."""
    seen = []

    def record(params, sector):
        seen.append(params.copy())
        return _canonicalize_many(params, sector)

    monkeypatch.setattr(qset.selftest, "_canonicalize_many", record)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(GRIDS["grid"]) == 0
    return np.concatenate(seen)


def relabeled_golden_grid_canonicalize_rows(monkeypatch, stride: int) -> np.ndarray:
    """The rows ``classify_many`` sends to ``_canonicalize_many`` from all 128
    relabelings of every stride-th row of the golden scan grid."""
    argv, ranges, fixed = GRIDS["grid"], {}, {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag == "--range":
            name, lo, hi, steps = _parse_range(value)
            ranges[name] = (lo, hi, steps)
        else:
            fixed[flag[2:]] = float(value)
    v = born_vector(*ScanSpec(ranges, fixed).grid_points()[::stride].T)
    perms, signs = (np.array(rows) for rows in zip(*map(signed_permutation, group_elements())))
    seen = []

    def record(params, sector):
        seen.append(params.copy())
        return _canonicalize_many(params, sector)

    monkeypatch.setattr(qset.selftest, "_canonicalize_many", record)
    classify_many((v[:, perms] * signs).reshape(-1, 8))
    return np.concatenate(seen)


def tie_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """theta where theta maps tie (0, pi/8, pi/4, pi/2, 3pi/4, pi), angles
    exactly 0 or pi, and rows with a0 = b0 or a1 = b1."""
    theta = rng.choice([0.0, PI / 8, PI / 4, PI / 2, 3 * PI / 4, PI], n)
    angles = np.where(rng.random((n, 4)) < 0.5, rng.choice([0.0, PI], (n, 4)),
                      rng.uniform(-7, 7, (n, 4)))
    angles[::3, 2] = angles[::3, 0]
    angles[1::3, 3] = angles[1::3, 1]
    return np.column_stack([theta, angles])


def search_sizes(params: np.ndarray, sector: bool) -> np.ndarray:
    """Rows that ``_canonicalize_many`` searches over each theta map's 256
    candidates (entries 0-3) and over all 1024 (entry 4).  A row goes to the
    map with the least admissible theta image (map 0 when none is admissible),
    or to all 1024 when two maps give that image."""
    maps = sorted({(et, kt) for et, kt, *_ in _GAUGE_MOVES})
    thetas = np.column_stack([np.mod(et * params[:, 0] + kt * (PI / 2), PI) for et, kt in maps])
    if sector:
        thetas[(thetas <= TOL_EQ) | (thetas > PI / 4 + TOL_EQ)] = np.nan
    lowest = np.sort(thetas, axis=1)
    group = np.where(lowest[:, 0] >= lowest[:, 1], len(maps), np.argsort(thetas, axis=1)[:, 0])
    return np.bincount(group, minlength=len(maps) + 1)


@pytest.mark.parametrize("sector", [True, False])
def test_canonicalize_many_matches_brute_force_on_golden_grid_rows(sector, monkeypatch):
    params = golden_grid_canonicalize_rows(monkeypatch)
    assert len(params) > 1000
    assert_canonicalized_bitwise(params, sector)


@pytest.mark.parametrize("sector", [True, False])
def test_canonicalize_many_matches_brute_force_on_seeded_rows(sector):
    rng = np.random.default_rng(61)
    params = np.vstack([rng.uniform(-7, 7, (5000, 5)), tie_rows(rng, 2000)])
    assert_canonicalized_bitwise(params, sector)


@pytest.mark.parametrize("sector", [True, False])
@pytest.mark.parametrize("batch", [1, CANONICALIZE_CHUNK, CANONICALIZE_CHUNK + 1,
                                   4 * CANONICALIZE_CHUNK + 1])
def test_canonicalize_many_matches_brute_force_across_batches(sector, batch):
    rng = np.random.default_rng(67)
    params = np.vstack([rng.uniform(-7, 7, (60, 5)), tie_rows(rng, 60),
                        rng.uniform(-7, 7, (120, 5)), tie_rows(rng, 120)])
    rng.shuffle(params)
    assert_canonicalized_bitwise(params, sector, batch)
    # in calls of the largest batch, some theta map's search and the search
    # over all candidates each take more rows than one chunk holds
    largest = 4 * CANONICALIZE_CHUNK + 1
    assert len(params) > largest
    sizes = np.array([search_sizes(params[lo:lo + largest], sector)
                      for lo in range(0, len(params), largest)])
    assert sizes[:, :4].max() > CANONICALIZE_CHUNK
    assert sizes[:, 4].max() > CANONICALIZE_CHUNK * 256 // 1024


@pytest.mark.parametrize("sector", [True, False])
def test_canonicalize_many_large_batch_matches_its_slices(sector):
    # one 20k-row call (past the sizes where its row gathers once copied the
    # whole image array) against 8-row calls
    rng = np.random.default_rng(71)
    params = np.vstack([rng.uniform(-7, 7, (16000, 5)), tie_rows(rng, 4000)])
    rng.shuffle(params)
    got = _canonicalize_many(params, sector)
    parts = [_canonicalize_many(params[lo:lo + 8], sector) for lo in range(0, len(params), 8)]
    want = [np.concatenate(arrays) for arrays in zip(*parts)]
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    assert (got[1] < 0).any() == sector


def test_alternation_margins_accept_every_row_canonicalized_into_the_sector(monkeypatch):
    # a row canonicalized into the sector has theta in (TOL_EQ, pi/4 + TOL_EQ],
    # so |sin 2 theta| >= 2e-8, angles in [0, pi] and the orderings that
    # alternation_margins tests: reconstruct_rows never sees one rejected
    rng = np.random.default_rng(79)
    special = np.array([0.0, -0.0, TOL_EQ, np.nextafter(TOL_EQ, 1), PI / 8, PI / 4,
                        PI / 4 + TOL_EQ, PI / 2, PI - 4e-16, PI, 3 * PI / 2, 2 * PI])
    near = rng.choice(special, (20000, 5)) + rng.uniform(-TOL_EQ, TOL_EQ, (20000, 5))
    half = np.where(rng.random((20000, 5)) < 0.5, rng.choice(special, (20000, 5)),
                    rng.uniform(-10, 10, (20000, 5)))
    params = np.vstack([golden_grid_canonicalize_rows(monkeypatch),
                        relabeled_golden_grid_canonicalize_rows(monkeypatch, 10),
                        rng.uniform(-10, 10, (20000, 5)), tie_rows(rng, 20000),
                        rng.choice(special, (20000, 5)), half, near])
    canon, win, _ = _canonicalize_many(params, sector=True)
    kept = canon[win >= 0]
    assert len(kept) > 60000
    margins, errors = alternation_margins(kept)
    assert errors == {}
    assert not np.isnan(margins).any()


def test_sample_determinism():
    r1 = sample_realization(123, {"canonical"})
    r2 = sample_realization(123, {"canonical"})
    assert r1 == r2
    assert r1.is_canonical()


def test_sample_strictly_alternating():
    for seed in range(30):
        r = sample_realization(seed, {"strictly-alternating"})
        ok, margins = full_alternation_check(r, strict=True)
        assert ok
        assert np.min(margins[:6]) > 0


def test_sample_non_alternating():
    for seed in range(30):
        r = sample_realization(seed, {"non-alternating"})
        ok, _ = full_alternation_check(r, strict=False)
        assert not ok


@pytest.mark.parametrize("constraints", [set(), {"canonical"}, {"fully-alternating"},
                                         {"strictly-alternating"}, {"non-alternating"}])
def test_sample_fields_are_python_floats(constraints):
    for seed in range(5):
        r = sample_realization(seed, constraints)
        # np.float64 subclasses float, so compare the types themselves
        assert [type(x) for x in (r.theta, *r.a, *r.b)] == [float] * 5


def test_sample_draw_prints_plain_floats():
    r = sample_realization(0, {"strictly-alternating"}, theta_range=(0.5, 0.6))
    assert repr(r.a) == "(0.12872212178963477, 0.8475599579967072)"


def test_sample_unknown_constraint():
    with pytest.raises(ValueError):
        sample_realization(0, {"bogus"})


def test_sample_conflicting_constraints():
    with pytest.raises(ValueError):
        sample_realization(0, {"strictly-alternating", "non-alternating"})


def test_sample_exhaustion():
    with pytest.raises(SamplingError, match=r"after 20000 tries$"):
        sample_realization(0, {"strictly-alternating"}, theta_range=(1e-7, 2e-7))


@pytest.mark.parametrize("angles", [(math.nan, 0.0, 1.0, 0.5, 2.0),
                                    (0.3, 0.0, math.inf, 0.5, 2.0),
                                    (0.3, 0.0, 1.0, -math.inf, 2.0)],
                         ids=["theta-nan", "a1-inf", "b0-minus-inf"])
def test_realization_rejects_non_finite_angles(angles):
    theta, a0, a1, b0, b1 = angles
    with pytest.raises(ValueError) as exc:
        QubitRealization(theta, (a0, a1), (b0, b1))
    assert str(exc.value) == "realization angles must be finite"


def test_realization_json_roundtrip():
    r = QubitRealization(0.3, (0.1, 1.2), (0.2, 2.2))
    assert QubitRealization.from_json_dict(r.to_json_dict()) == r


@pytest.mark.parametrize("doc, message", [
    ({"theta": 0.1, "a": [0], "b": [0, 1]}, "a must be 2 numbers, got [0]"),
    ({"theta": 0.1, "a": [0, 1], "b": None}, "b must be 2 numbers, got None"),
    ({"theta": 0.1, "b": [0, 1]}, "realization document is missing 'a'"),
    ({"a": [0, 1]}, "realization document is missing 'theta'"),
    ([0.1, [0, 1], [0, 1]], "a realization must be a JSON object, got [0.1, [0, 1], [0, 1]]"),
    ({"theta": "0.1", "a": [0, 1], "b": [0, 1]}, "theta must be a number, got '0.1'"),
    ({"theta": True, "a": [0, 1], "b": [0, 1]}, "theta must be a number, got True"),
    ({"theta": 0.1, "a": [0, "1"], "b": [0, 1]}, "a must be 2 numbers, got [0, '1']"),
    ({"theta": 0.1, "a": [0, 1], "b": [False, 1]}, "b must be 2 numbers, got [False, 1]"),
    ({"theta": 10 ** 400, "a": [0, 1], "b": [0, 1]}, "realization angles must be finite"),
    ({"theta": 0.1, "a": [0, float("nan")], "b": [0, 1]}, "realization angles must be finite"),
], ids=["short", "null", "no-a", "no-theta-first", "array", "string", "bool", "string-angle",
        "bool-angle", "huge-int", "nan"])
def test_realization_json_rejects_malformed_documents(doc, message):
    with pytest.raises(ValueError) as exc:
        QubitRealization.from_json_dict(doc)
    assert type(exc.value) is ValueError and str(exc.value) == message

import math

import numpy as np
import pytest

from qset import (
    Behavior,
    BellFunctional,
    CHSH,
    InvalidBehaviorError,
    QubitRealization,
    bell_max_q2,
    bell_value,
    born_point,
    canonicalize,
    decomposition_search,
    enumerate_vertices,
    find_witness,
    full_alternation_check,
    is_local,
    local_membership_lp,
    validate,
)

from qset.oracles import (
    FOUND_RESIDUAL,
    FOUND_SEPARATION,
    _coordinate_form,
    _grid_value,
    _residual,
    _residual_jac,
    _structured_seeds,
)
from qset.realization import born_vector

from conftest import NONALT, PI8_EDGE, TSIRELSON, random_valid_behavior

PI = math.pi
SQ2 = math.sqrt(2.0)


def test_vertices_enumeration():
    vertices = enumerate_vertices()
    assert len(vertices) == 16
    assert len({v.behavior.vector.tobytes() for v in vertices}) == 16


def test_lp_vertex_unit_weight():
    v = enumerate_vertices()[5]
    ok, weights = local_membership_lp(v.behavior)
    assert ok
    assert weights.max() == pytest.approx(1.0, abs=1e-12)
    assert np.sum(weights > 1e-9) == 1


def test_lp_tsirelson_separating_functional():
    pt = born_point(TSIRELSON)
    ok, beta = local_membership_lp(pt)
    assert not ok
    assert isinstance(beta, BellFunctional)
    scores = [bell_value(beta, v.behavior) for v in enumerate_vertices()]
    gap = bell_value(beta, pt) - max(scores)
    assert gap > 0.1  # separates decisively (CHSH-like direction)


def test_lp_witness_local_point():
    wit = find_witness(canonicalize(NONALT, sector=True)[0])
    assert wit is not None
    ok, weights = local_membership_lp(wit.local_point)
    assert ok
    recon = np.array([v.behavior.vector for v in enumerate_vertices()]).T @ weights
    assert np.max(np.abs(recon - wit.local_point.vector)) < 1e-9


def test_lp_rejects_invalid():
    with pytest.raises(InvalidBehaviorError):
        local_membership_lp(Behavior.from_vector([0, 0, 0, 0, 1.5, 0, 0, 0]))


def test_lp_agrees_with_fine_criterion():
    rng = np.random.default_rng(40)
    for _ in range(400):
        p = random_valid_behavior(rng)
        assert local_membership_lp(p)[0] == is_local(p)


def test_bell_max_chsh():
    value, arg = bell_max_q2(CHSH)
    assert value == pytest.approx(2 * SQ2, abs=1e-6)
    canon, _ = canonicalize(arg, sector=True)
    assert canon.theta == pytest.approx(PI / 4, abs=1e-3)
    assert full_alternation_check(canon, strict=True)[0]


def test_bell_max_single_correlator():
    beta = BellFunctional(coeffs=(0, 0, 0, 0, 1, 0, 0, 0))
    value, _ = bell_max_q2(beta, refinements=40)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_bell_max_single_marginal():
    beta = BellFunctional(coeffs=(1, 0, 0, 0, 0, 0, 0, 0))
    value, arg = bell_max_q2(beta, refinements=40)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_bell_max_resolution_gate_and_offset():
    with pytest.raises(ValueError):
        bell_max_q2(CHSH, resolution=8)
    shifted = BellFunctional(coeffs=CHSH.coeffs, offset=1.0)
    value, _ = bell_max_q2(shifted)
    assert value == pytest.approx(2 * SQ2 + 1.0, abs=1e-6)


def test_bell_max_monotone_under_refinement():
    values = [bell_max_q2(CHSH, refinements=k)[0] for k in (0, 5, 20, 60)]
    assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(values, values[1:]))


def full_grid_value(beta_vec: np.ndarray, res: int = 16) -> tuple[float, np.ndarray]:
    """Reference: the whole res^5 grid as one array and one argmax."""
    ax = np.linspace(0.0, PI, res, endpoint=False)
    c2 = np.cos(2 * ax)[:, None, None, None, None]
    s2 = np.sin(2 * ax)[:, None, None, None, None]
    ca = [np.cos(ax)[None, :, None, None, None], np.cos(ax)[None, None, :, None, None]]
    sa = [np.sin(ax)[None, :, None, None, None], np.sin(ax)[None, None, :, None, None]]
    cb = [np.cos(ax)[None, None, None, :, None], np.cos(ax)[None, None, None, None, :]]
    sb = [np.sin(ax)[None, None, None, :, None], np.sin(ax)[None, None, None, None, :]]
    val = np.zeros((res,) * 5)
    val += beta_vec[0] * (c2 * ca[0]) + beta_vec[1] * (c2 * ca[1])
    val += beta_vec[2] * (c2 * cb[0]) + beta_vec[3] * (c2 * cb[1])
    for x in range(2):
        for y in range(2):
            w = beta_vec[4 + 2 * x + y]
            if w != 0.0:
                val += w * (ca[x] * cb[y] + s2 * (sa[x] * sb[y]))
    idx = np.unravel_index(int(np.argmax(val)), val.shape)
    return float(val[idx]), np.array([ax[i] for i in idx])


def test_grid_value_matches_full_grid_argmax():
    rng = np.random.default_rng(70)
    functionals = [CHSH.vector, np.array([0, 0, 0, 0, 1, 0, 0, 0], float)]
    # integer coefficients tie within and across theta slices
    functionals += [rng.integers(-2, 3, 8).astype(float) for _ in range(8)]
    functionals += [np.concatenate([np.zeros(4), rng.integers(-2, 3, 4)]) for _ in range(4)]
    functionals += [rng.normal(size=8) for _ in range(4)]
    for beta_vec in functionals:
        value, params = _grid_value(beta_vec, 16)
        ref_value, ref_params = full_grid_value(beta_vec)
        assert value == ref_value
        assert np.array_equal(params, ref_params)


def test_coordinate_form_traces_the_functional():
    rng = np.random.default_rng(71)
    ts = np.linspace(-PI, PI, 9)
    for _ in range(20):
        beta_vec = rng.normal(size=8)
        q = rng.uniform(0.0, PI, 5)
        freq = np.array([2, 1, 1, 1, 1])
        trig = list(zip(np.cos(freq * q), np.sin(freq * q)))
        for k, m in enumerate(freq):
            c, s, rest = _coordinate_form(beta_vec.tolist(), trig, k)
            moved = np.repeat(q[None, :], ts.size, axis=0)
            moved[:, k] = ts
            direct = born_vector(*moved.T) @ beta_vec
            assert np.max(np.abs(c * np.cos(m * ts) + s * np.sin(m * ts) + rest - direct)) < 1e-12


def residual_central_differences(q: np.ndarray, target: np.ndarray, h: float = 1e-7):
    cols = [(_residual(q + h * e, target) - _residual(q - h * e, target)) / (2 * h)
            for e in np.eye(q.size)]
    return np.stack(cols, axis=-1)


def test_residual_jacobian_matches_central_differences():
    rng = np.random.default_rng(72)
    for _ in range(10):
        q = np.concatenate([rng.uniform(0.0, PI, 20), rng.normal(0.0, 1.0, 2)])
        target = born_point(TSIRELSON).vector
        assert _residual(q, target)[8] == 0.0  # parts far apart: guard inactive
        jac = _residual_jac(q, target)
        assert jac.shape == (9, 22)
        assert not np.any(jac[8])
        assert np.max(np.abs(jac - residual_central_differences(q, target))) < 1e-7


def test_residual_jacobian_with_active_separation_guard():
    rng = np.random.default_rng(73)
    checked = 0
    while checked < 10:
        q = np.concatenate([rng.uniform(0.0, PI, 20), rng.normal(0.0, 1.0, 2)])
        q[10:20] = q[0:10] + rng.normal(0.0, 1e-3, 10)  # part 2 just off part 1
        q[21] = q[20]
        target = born_point(NONALT).vector
        if _residual(q, target)[8] <= 0.0:
            continue
        checked += 1
        jac = _residual_jac(q, target)
        assert np.any(jac[8])
        assert np.max(np.abs(jac - residual_central_differences(q, target))) < 1e-7


def test_decomposition_uniform():
    res = decomposition_search(Behavior.from_vector(np.zeros(8)), trials=300, seed=1)
    assert res.found
    assert res.residual <= 1e-8
    assert res.separation >= 1e-3
    assert validate(res.p1) == [] and validate(res.p2) == []
    mix = 0.5 * (res.p1.vector + res.p2.vector)
    assert np.max(np.abs(mix)) <= 1e-8


def test_decomposition_nonalternating_found_with_hint():
    p = born_point(NONALT)
    res = decomposition_search(p, trials=300, seed=1, hint=NONALT)
    assert res.found
    assert np.max(np.abs(0.5 * (res.p1.vector + res.p2.vector) - p.vector)) <= 1e-8
    assert np.max(np.abs(res.p1.vector - res.p2.vector)) >= 1e-3
    assert validate(res.p1) == [] and validate(res.p2) == []


def test_decomposition_not_found_on_extremal():
    for r in (TSIRELSON, PI8_EDGE):
        res = decomposition_search(born_point(r), trials=300, seed=1, hint=r)
        assert not res.found


def test_decomposition_found_at_near_degenerate_non_alternating_point():
    # a1, b0 and b1 lie within 0.1 of each other near pi; the polish needs an
    # exact Jacobian to reach the found threshold here
    r = QubitRealization(0.671953533568655, (0.41641406478734183, 3.0459034798488647),
                         (2.9833928229489652, 3.034202363464429))
    p = born_point(r)
    res = decomposition_search(p, trials=200, seed=6, hint=r)
    assert res.found
    assert res.residual <= FOUND_RESIDUAL
    assert res.separation >= FOUND_SEPARATION
    assert np.max(np.abs(0.5 * (res.p1.vector + res.p2.vector) - p.vector)) <= FOUND_RESIDUAL
    assert validate(res.p1) == [] and validate(res.p2) == []


def test_structured_seeds_raise_programming_errors(monkeypatch):
    def broken(*args):
        raise RuntimeError("bug")

    assert _structured_seeds(NONALT)
    monkeypatch.setattr("qset.witness.solve_sector", broken)
    with pytest.raises(RuntimeError):
        _structured_seeds(NONALT)


def test_decomposition_rejects_invalid():
    with pytest.raises(InvalidBehaviorError):
        decomposition_search(Behavior.from_vector([0, 0, 0, 0, 1.5, 0, 0, 0]), trials=10)


def test_decomposition_deterministic_given_seed():
    p = born_point(NONALT)
    r1 = decomposition_search(p, trials=100, seed=7, hint=NONALT)
    r2 = decomposition_search(p, trials=100, seed=7, hint=NONALT)
    assert r1.residual == r2.residual
    assert r1.separation == r2.separation


def test_polish_looks_up_least_squares_on_every_call(monkeypatch):
    # A wrapper patched onto scipy.optimize after its first import must be
    # the function the polish runs, and must not change its result.
    p = born_point(NONALT)
    plain = decomposition_search(p, trials=100, seed=7, hint=NONALT)

    import scipy.optimize

    real = scipy.optimize.least_squares
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", counting)
    wrapped = decomposition_search(p, trials=100, seed=7, hint=NONALT)
    assert calls
    assert (wrapped.found, wrapped.residual, wrapped.separation) \
        == (plain.found, plain.residual, plain.separation)


def test_exact_simplex_paths_directly():
    # the exact fallback is rarely reached through the public API; drive it directly
    from fractions import Fraction
    from qset.oracles import _VERTEX_MATRIX, _phase1_exact

    a_rows = [[Fraction(int(x)) for x in _VERTEX_MATRIX[i]] for i in range(8)]
    a_rows.append([Fraction(1)] * 16)

    # feasible: the uniform behavior
    b = [Fraction(0)] * 8 + [Fraction(1)]
    obj, z, _ = _phase1_exact(a_rows, b)
    assert obj == 0
    weights = np.array([float(x) for x in z])
    assert np.max(np.abs(_VERTEX_MATRIX @ weights)) < 1e-15
    assert abs(weights.sum() - 1.0) < 1e-15

    # infeasible: the Tsirelson point is outside the polytope
    pt = born_point(TSIRELSON).vector
    b = [Fraction(float(x)) for x in pt] + [Fraction(1)]
    obj, _, y = _phase1_exact(a_rows, b)
    assert obj > 0
    # the dual's behavior part separates the point from every vertex, exactly
    score = sum(y[i] * b[i] for i in range(8))
    vertex_scores = [sum(y[i] * a_rows[i][j] for i in range(8)) for j in range(16)]
    assert score > max(vertex_scores)


def test_decomposition_cross_validates_non_extremal_verdicts():
    # every sampled NonExtremalInQ point admits a constructive decomposition
    from qset import classify, sample_realization, Verdict

    rng = np.random.default_rng(64)
    tried = 0
    while tried < 5:
        r = sample_realization(rng, {"non-alternating"})
        p = born_point(r)
        if is_local(p) or classify(p).verdict is not Verdict.NON_EXTREMAL_IN_Q:
            continue
        tried += 1
        res = decomposition_search(p, trials=200, seed=tried, hint=r)
        assert res.found
        assert np.max(np.abs(0.5 * (res.p1.vector + res.p2.vector) - p.vector)) <= 1e-8


def test_decomposition_sound_on_boundary_extremal_point():
    # equality-margin extremal points admit shallow near-splits; the found
    # threshold must reject them
    from qset import classify, Verdict
    from qset.steering import modified_angles

    theta, a1 = 0.33, 1.9
    at = modified_angles(QubitRealization(theta, (0.0, a1), (0.5, 2.0)))
    r = QubitRealization(theta, (0.0, a1), (float(at[0, 1]), 2.9))
    p = born_point(r)
    assert classify(p).verdict is Verdict.EXTREMAL_NON_EXPOSED
    res = decomposition_search(p, trials=200, seed=9, hint=r)
    assert not res.found

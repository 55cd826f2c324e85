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
    POLISH_MAX_NFEV,
    _LP_MATRIX,
    _boundary_step,
    _coordinate_form,
    _decomp_objective,
    _grid_value,
    _found,
    _mixres,
    _phase1_float,
    _polish,
    _residual_sep,
    _residual_jac,
    _structured_seeds,
)
from qset.realization import born_vector, sample_realization

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


def test_bell_max_rejects_negative_refinements():
    with pytest.raises(ValueError):
        bell_max_q2(CHSH, refinements=-1)


@pytest.mark.parametrize("kwargs, name", [
    ({"resolution": 16.0}, "resolution"),
    ({"refinements": 2.0}, "refinements"),
], ids=["resolution", "refinements"])
def test_bell_max_rejects_non_integer_arguments(kwargs, name):
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        bell_max_q2(CHSH, **kwargs)


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


def mirrored_integer_functionals(rng, count):
    """Integer functionals invariant under swapping Alice's or Bob's inputs:
    mirrored grid points tie in exact arithmetic and differ by rounding."""
    out = []
    for k in range(count):
        m, n, e, f, mb = rng.integers(-2, 3, 5).astype(float)
        if k % 2 == 0:  # Alice's swap: bA0 = bA1, b00 = b10, b01 = b11
            out.append(np.array([m, m, n, mb, e, f, e, f]))
        else:  # Bob's swap: bB0 = bB1, b00 = b01, b10 = b11
            out.append(np.array([mb, m, n, n, e, e, f, f]))
    out.append(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
    out.append(np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0, -1.0, 1.0]))
    return out


def test_grid_value_separable_kernel_on_scaled_tied_and_odd_grids():
    rng = np.random.default_rng(72)
    cases = [(rng.normal(size=8), 17) for _ in range(3)]
    cases += [(rng.normal(size=8), 24) for _ in range(2)]
    cases += [(rng.normal(size=8) * scale, 16) for scale in (1e6, 1e-6) for _ in range(3)]
    # beta = 0 and single coefficients tie on whole sub-grids
    cases += [(np.zeros(8), 16), (np.zeros(8), 17)]
    cases += [(np.eye(8)[k] * w, 16) for k in range(8) for w in (1.0, -0.7)]
    cases += [(beta_vec, 16) for beta_vec in mirrored_integer_functionals(rng, 12)]
    cases += [(beta_vec, 17) for beta_vec in mirrored_integer_functionals(rng, 4)]
    # the first maximum's separable value lies 1.07 to 1.6 eps ||beta||_1 below
    # the separable maximum: the largest gaps among about 14,000 seeded
    # integer, half-integer and normal functionals
    gaps = ([0, 0, 0, 0, 3, -3, 3, 1], [0, 0, 0, 0, -1, 2, -1, -3],
            [0.5, 0, 0, 0, 1.5, 1.5, -1.5, 2], [-1, -2, -3, -3, -2, -2, -1, -1])
    cases += [(np.array(beta, float), 16) for beta in gaps]
    for beta_vec, res in cases:
        value, params = _grid_value(beta_vec, res)
        ref_value, ref_params = full_grid_value(beta_vec, res)
        assert value == ref_value, (beta_vec, res)
        assert np.array_equal(params, ref_params), (beta_vec, res)


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
    """Central differences of the polish residual over a batch q (S, 22): (S, 9, 22)."""
    cols = [(_residual_sep(q + h * e, target)[0] - _residual_sep(q - h * e, target)[0])
            / (2 * h) for e in np.eye(q.shape[-1])]
    return np.stack(cols, axis=-1)


def assert_batch_matches_rows(q: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The batched residual and Jacobian equal the per-row calls; returns the
    batched Jacobian."""
    res, jac = _residual_sep(q, target)[0], _residual_jac(q, target)
    assert res.shape == (len(q), 9) and jac.shape == (len(q), 9, 22)
    for k, row in enumerate(q):
        assert np.array_equal(res[k], _residual_sep(row[None], target)[0][0])
        assert np.array_equal(jac[k], _residual_jac(row[None], target)[0])
        assert np.array_equal(jac[k], _residual_jac(row, target))
    assert np.max(np.abs(jac - residual_central_differences(q, target))) < 1e-7
    return jac


def test_residual_jacobian_matches_central_differences():
    rng = np.random.default_rng(72)
    q = np.concatenate([rng.uniform(0.0, PI, (10, 20)), rng.normal(0.0, 1.0, (10, 2))], axis=1)
    target = born_point(TSIRELSON).vector
    assert not np.any(_residual_sep(q, target)[0][:, 8])  # parts far apart: guard inactive
    jac = assert_batch_matches_rows(q, target)
    assert not np.any(jac[:, 8])


def test_residual_jacobian_with_active_separation_guard():
    rng = np.random.default_rng(73)
    rows = []
    while len(rows) < 10:
        q = np.concatenate([rng.uniform(0.0, PI, 20), rng.normal(0.0, 1.0, 2)])
        q[10:20] = q[0:10] + rng.normal(0.0, 1e-3, 10)  # part 2 just off part 1
        q[21] = q[20]
        if _residual_sep(q, born_point(NONALT).vector)[0][8] > 0.0:
            rows.append(q)
    # mixed batch: guard active on the first ten rows, inactive on the last two
    q = np.concatenate([rows, rng.uniform(0.0, PI, (2, 22))])
    jac = assert_batch_matches_rows(q, born_point(NONALT).vector)
    assert np.all(np.any(jac[:10, 8], axis=-1)) and not np.any(jac[10:, 8])


#: Non-alternating point whose a1, b0 and b1 lie within 0.1 of each other
#: near pi.
HARD = QubitRealization(0.671953533568655, (0.41641406478734183, 3.0459034798488647),
                        (2.9833928229489652, 3.034202363464429))

#: Non-alternating points whose splits only one or two of their structured
#: seeds reach: (realization, search seed).
FEW_SEEDS = [
    (QubitRealization(0.7341631130469009, (1.340579043504867, 2.3338752419994964),
                      (2.38353121346546, 2.439561530574193)), 2),
    (QubitRealization(0.7663859108449057, (0.692677127925735, 1.7177942062180198),
                      (1.6833275402045844, 2.3335670085654936)), 7),
]


@pytest.mark.parametrize("ceiling, n_capped", [(POLISH_MAX_NFEV, 0), (40, 8)])
def test_polish_batch_rows_match_batches_of_one(monkeypatch, ceiling, n_capped):
    # four of PI8_EDGE's structured seeds and four random rows: none is ever
    # found, so the batch runs every row to its own stop (a stall at the real
    # ceiling, the ceiling itself at 40)
    monkeypatch.setattr("qset.oracles.POLISH_MAX_NFEV", ceiling)
    rng = np.random.default_rng(74)
    target = born_point(PI8_EDGE).vector
    q = np.concatenate([_structured_seeds(PI8_EDGE)[::2], rng.uniform(0.0, PI, (4, 22))])
    x, mixres, sep, nfev, capped = _polish(q, target)
    assert x.shape == q.shape and nfev.shape == capped.shape == (len(q),)
    assert not np.any(_found(mixres, sep))
    assert np.all(nfev <= ceiling)
    assert np.sum(capped) == n_capped
    for k in range(len(q)):
        alone = _polish(q[k:k + 1], target)
        for got, want in zip((x, mixres, sep, nfev, capped), alone):
            assert np.array_equal(got[k], want[0])


def test_polish_stops_at_the_first_found_row():
    target = born_point(NONALT).vector
    q = np.array(_structured_seeds(NONALT))
    x, mixres, sep, nfev, _ = _polish(q, target)
    alone = [_polish(q[k:k + 1], target) for k in range(len(q))]
    assert np.max(nfev) == min(a[3][0] for a in alone)
    found = _found(mixres, sep)
    assert np.any(found)
    assert np.array_equal(mixres, np.max(np.abs(_residual_sep(x, target)[0][:, :8]), axis=-1))
    for k in np.flatnonzero(found):
        assert np.array_equal(x[k], alone[k][0][0])


def test_polish_leaves_a_stationary_row_in_place():
    # at q = 0 all four components are the same deterministic behavior and
    # the Jacobian vanishes, so there is no step to take
    x, mixres, sep, nfev, capped = _polish(np.zeros((1, 22)), born_point(NONALT).vector)
    assert not np.any(x) and nfev[0] == 1 and not capped[0]
    assert np.isfinite(mixres[0]) and sep[0] == 0.0


#: Non-alternating point whose structured seeds creep in the flat regime for
#: hundreds of evaluations before they converge.
SLOW = QubitRealization(0.5043178699086907, (0.46956582766960764, 1.351696939934224),
                        (0.8478930953087691, 3.052758141355598))


@pytest.mark.parametrize("r, seeds", [(SLOW, slice(None)), (HARD, slice(2, None))],
                         ids=["SLOW", "HARD"])
def test_polish_lets_a_slow_genuine_split_converge(r, seeds):
    # each seed as a batch of one: SLOW's four and HARD's last two converge
    # after 300 to 1100 evaluations
    target = born_point(r).vector
    for q in _structured_seeds(r)[seeds]:
        x, mixres, sep, nfev, capped = _polish(q[None], target)
        assert _found(mixres, sep)[0]
        assert nfev[0] > 300 and not capped[0]


def test_polish_on_a_flat_face_stalls_before_the_ceiling():
    res = decomposition_search(born_point(PI8_EDGE), trials=300, seed=1, hint=PI8_EDGE)
    assert not res.found
    assert res.nfev > 0
    assert res.capped == 0


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
    p = born_point(HARD)
    res = decomposition_search(p, trials=200, seed=6, hint=HARD)
    assert res.found
    assert res.residual <= FOUND_RESIDUAL
    assert res.separation >= FOUND_SEPARATION
    assert np.max(np.abs(0.5 * (res.p1.vector + res.p2.vector) - p.vector)) <= FOUND_RESIDUAL
    assert validate(res.p1) == [] and validate(res.p2) == []


@pytest.mark.parametrize("r, seed", FEW_SEEDS, ids=["seed2", "seed7"])
def test_decomposition_found_from_few_structured_seeds(r, seed):
    p = born_point(r)
    res = decomposition_search(p, trials=200, seed=seed, hint=r)
    assert res.found
    assert np.max(np.abs(0.5 * (res.p1.vector + res.p2.vector) - p.vector)) <= FOUND_RESIDUAL
    assert validate(res.p1) == [] and validate(res.p2) == []


#: NonExtremalInQ point, so it has a split, where every polish of the search
#: below stalls with a mixture residual of 3e-6 to 3e-5, above FOUND_RESIDUAL.
STALLED = QubitRealization(0.7129755967104685, (0.19869815370787125, 1.2369449756687652),
                           (0.22427465756369028, 2.141822289884015))


@pytest.mark.xfail(strict=True, reason="the polish stalls above FOUND_RESIDUAL at this point")
def test_decomposition_found_where_the_polish_stalls():
    p = born_point(STALLED)
    res = decomposition_search(p, trials=200, seed=13, hint=STALLED)
    assert res.found
    assert np.max(np.abs(0.5 * (res.p1.vector + res.p2.vector) - p.vector)) <= FOUND_RESIDUAL


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


@pytest.mark.parametrize("p, hint, found", [
    (Behavior.from_vector(np.zeros(8)), None, True),
    (born_point(TSIRELSON), TSIRELSON, False),
], ids=["zero-no-hint", "tsirelson-not-found"])
def test_stochastic_phase_deterministic_given_seed(p, hint, found):
    runs = [decomposition_search(p, trials=300, seed=1, hint=hint) for _ in range(2)]
    assert runs[0].found is runs[1].found is found
    for field in ("residual", "separation", "nfev"):
        assert getattr(runs[0], field) == getattr(runs[1], field)


@pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -1}, {"generations": -1},
                                    {"polish_top": -1}])
def test_decomposition_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        decomposition_search(born_point(TSIRELSON), **kwargs)


def record_objective(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Patch ``_decomp_objective`` to record every batch it scores as
    (parameter rows, scores)."""
    calls = []

    def recording(x, target):
        f = _decomp_objective(x, target)
        calls.append((x.copy(), f))
        return f

    monkeypatch.setattr("qset.oracles._decomp_objective", recording)
    return calls


@pytest.mark.parametrize("generations", [0, 7, 120])
def test_stochastic_phase_scores_in_float32_and_ranks_once_in_float64(monkeypatch, generations):
    calls = record_objective(monkeypatch)
    decomposition_search(born_point(TSIRELSON), trials=50, seed=3, generations=generations)
    dtypes = [x.dtype for x, _ in calls]
    assert dtypes == [np.float32] * (generations + 1) + [np.float64]
    assert all(f.dtype == x.dtype for x, f in calls)


def test_search_found_from_structured_seeds_scores_nothing(monkeypatch):
    calls = record_objective(monkeypatch)
    assert decomposition_search(born_point(NONALT), trials=100, seed=7, hint=NONALT).found
    assert calls == []


def test_unfound_search_reports_its_best_stochastic_row(monkeypatch):
    # no polish runs here; the result describes the stochastic phase's best row
    calls = record_objective(monkeypatch)
    target = born_point(TSIRELSON).vector
    res = decomposition_search(born_point(TSIRELSON), trials=300, seed=1, hint=TSIRELSON)
    assert not res.found and res.nfev == 0
    x, f = calls[-1]
    assert x.dtype == np.float64
    r, sep = _residual_sep(x[np.argmin(f)], target)
    assert res.residual == _mixres(r)
    assert res.separation == sep
    assert res.residual < 1.26   # the random draw reported before
    assert res.p1 is None and res.p2 is None


def float64_stochastic_phase(target, trials, seed, generations=120):
    """The stochastic phase of ``decomposition_search`` without hint, scored in
    float64 throughout: final parameter rows and their scores."""
    rng = np.random.default_rng(seed)
    x = np.empty((trials, 22))
    x[:, 0:20] = rng.uniform(0.0, PI, size=(trials, 20))
    x[:, [0, 5, 10, 15]] = rng.uniform(0.0, PI / 2, size=(trials, 4))
    x[:, 20:22] = rng.normal(0.0, 1.0, size=(trials, 2))
    f = _decomp_objective(x, target)
    scale = 0.4
    decay = (0.004 / scale) ** (1.0 / max(generations, 1))
    for _ in range(generations):
        prop = x + rng.normal(0.0, scale, size=x.shape)
        fp = _decomp_objective(prop, target)
        better = fp < f
        x[better] = prop[better]
        f[better] = fp[better]
        scale *= decay
    return x, f


def test_float32_screening_matches_float64_reference(monkeypatch):
    # measured: none of these 2,000 final rows differs from the float64
    # loop; over 120 other seeded behaviors 4 of 24,000 rows did, and no
    # top-3 selection changed
    rng = np.random.default_rng(75)
    polished = []

    def recording_polish(q, target):
        polished.append(q.copy())
        return _polish(q, target)

    monkeypatch.setattr("qset.oracles._polish", recording_polish)
    calls = record_objective(monkeypatch)
    diverged = n_polished = 0
    for k in range(10):
        target = random_valid_behavior(rng).vector
        calls.clear()
        polished.clear()
        decomposition_search(Behavior.from_vector(target), trials=200, seed=k)
        x, f = calls[-1]
        x_ref, _ = float64_stochastic_phase(target, 200, k)
        f_ref = _decomp_objective(x_ref, target)
        top = np.argsort(f_ref)[:3]
        assert np.array_equal(np.argsort(f)[:3], top)
        starts = x_ref[top[f_ref[top] <= 1e-3]]
        assert len(polished) == (len(starts) > 0)
        if polished:
            assert np.array_equal(polished[0], starts)
            n_polished += 1
        diverged += int(np.sum(np.any(x != x_ref, axis=1)))
    assert diverged <= 5
    assert n_polished > 0


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


def reference_phase1(a_mat, b, tol=1e-11, max_iter=800):
    """The phase-1 simplex loop as first written: numpy element access in
    Bland's scans, ``np.outer`` in the pivot."""
    m, n = a_mat.shape
    sign = np.where(b < 0, -1.0, 1.0)
    a_mat = a_mat * sign[:, None]
    rhs = b * sign
    tab = np.hstack([a_mat, np.eye(m), rhs[:, None]])
    basis = list(range(n, n + m))
    red = np.concatenate([np.zeros(n), np.ones(m)])
    red = red - tab[:, :-1].sum(axis=0)
    for _ in range(max_iter):
        ent = -1
        for j in range(n + m):
            if red[j] < -tol:
                ent = j
                break
        if ent < 0:
            break
        col = tab[:, ent]
        best_row, best_key = -1, None
        for i in range(m):
            if col[i] > tol:
                key = (tab[i, -1] / col[i], basis[i])
                if best_key is None or key < best_key:
                    best_key, best_row = key, i
        if best_row < 0:
            break
        tab[best_row] /= tab[best_row, ent]
        other = tab[:, ent].copy()
        other[best_row] = 0.0
        tab -= np.outer(other, tab[best_row])
        red = red - red[ent] * tab[best_row, :-1]
        basis[best_row] = ent
    obj = sum(tab[i, -1] for i in range(m) if basis[i] >= n)
    z = np.zeros(n + m)
    for i in range(m):
        z[basis[i]] = tab[i, -1]
    return float(obj), z[:n], sign * (1.0 - red[n:])


def test_phase1_float_matches_reference_loop_bitwise():
    # realizations, vertex mixtures and cube draws, as in the crosscheck LP calls
    rng = np.random.default_rng(81)
    n_local = 0
    for _ in range(600):
        rhs = np.concatenate([random_valid_behavior(rng).vector, [1.0]])
        got = _phase1_float(_LP_MATRIX, rhs)
        want = reference_phase1(_LP_MATRIX.copy(), rhs)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        n_local += got[0] <= 1e-9
    assert 100 < n_local < 550


def lm_step(jac, r, a):
    """-J^T (J J^T + a I)^{-1} r, by a dense solve."""
    return -jac.T @ np.linalg.solve(jac @ jac.T + a * np.eye(len(r)), r)


def test_boundary_step_matches_dense_reference():
    rng = np.random.default_rng(83)
    jac = rng.normal(size=(12, 9, 22))
    # two rank-8 systems: the last row a combination of the first two
    jac[8:10, 8] = 0.5 * jac[8:10, 0] - 0.25 * jac[8:10, 1]
    r = rng.normal(size=(12, 9))
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    uf = np.einsum("sji,sj->si", u, r)
    gn = np.stack([-np.linalg.lstsq(j, ri, rcond=None)[0] for j, ri in zip(jac, r)])
    gn_norm = np.linalg.norm(gn, axis=-1)
    # radii above and below |J^+ r|, each with and without the gate
    scale = np.tile([2.0, 0.5, 2.0, 0.5], 3)
    near = np.tile([True, True, False, False], 3)
    delta = scale * gn_norm
    alpha = np.where(np.arange(12) < 6, 0.0, 0.3)
    h, a = _boundary_step(s, vt, uf, delta, alpha, near)
    fits = near & (scale > 1.0)
    for k in range(12):
        if fits[k]:
            assert a[k] == 0.0
            assert np.max(np.abs(h[k] - gn[k])) <= 1e-12
            continue
        assert np.linalg.norm(h[k]) == pytest.approx(delta[k], rel=1e-12)
        ref = lm_step(jac[k], r[k], a[k])
        # h is the LM step for the returned damping, scaled onto the boundary
        assert np.max(np.abs(h[k] - ref * delta[k] / np.linalg.norm(ref))) <= 1e-10
        if scale[k] < 1.0:
            assert a[k] > 0.0
            assert np.linalg.norm(ref) == pytest.approx(delta[k], rel=0.01)
    # gated or not, a row whose radius the Gauss-Newton step exceeds takes the
    # same step
    ungated = _boundary_step(s, vt, uf, delta, alpha, np.zeros(12, dtype=bool))
    assert np.array_equal(h[~fits], ungated[0][~fits])
    assert np.array_equal(a[~fits], ungated[1][~fits])


def test_gauss_newton_finish_is_gated_by_the_mixture_residual(monkeypatch):
    # rows take the undamped step only below _GN_RESIDUAL, and there it
    # shortens the polish of NONALT's structured seeds
    calls = []

    def spy(s, vt, uf, delta, alpha, near):
        h, a = _boundary_step(s, vt, uf, delta, alpha, near)
        calls.append((near, a))
        return h, a

    target = born_point(NONALT).vector
    q = np.array(_structured_seeds(NONALT))
    monkeypatch.setattr("qset.oracles._boundary_step", spy)
    _, mixres, sep, nfev, _ = _polish(q, target)
    assert np.any(_found(mixres, sep))
    assert not any(np.any(~near & (a == 0.0)) for near, a in calls)
    assert any(np.any(a == 0.0) for _, a in calls)
    monkeypatch.setattr("qset.oracles._GN_RESIDUAL", 0.0)
    _, mixres, sep, nfev_off, _ = _polish(q, target)
    assert np.any(_found(mixres, sep))
    assert nfev.max() < nfev_off.max()


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


def test_sampled_non_alternating_points_are_decomposed():
    # 60 sampled non-alternating points (rng seeds 30-33, 15 each): every one
    # splits from its hint's structured seeds or the stochastic phase
    missed = []
    for rng_seed in range(30, 34):
        rng = np.random.default_rng(rng_seed)
        for i in range(15):
            r = sample_realization(rng, {"non-alternating"})
            if not decomposition_search(born_point(r), trials=200, seed=i + 1, hint=r).found:
                missed.append((rng_seed, i))
    assert missed == []

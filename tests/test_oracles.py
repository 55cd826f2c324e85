import itertools
import math
from fractions import Fraction

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
    _correlator_pair,
    _found,
    _mixres,
    _model_derivatives,
    _model_value,
    _NEWTON_STEPS,
    _newton,
    _phase1_float,
    _polish,
    _GENERATIONS,
    _POLISH_TOP,
    _residual_sep,
    _residual_jac,
    _score,
    _structured_seeds,
    _STARTS,
    _SWEEPS,
    _sweeps,
)
from qset.realization import born_vector, sample_realization

from conftest import (NONALT, PI8_EDGE, TSIRELSON, random_valid_behavior, reference_born_jacobian,
                      reference_born_vector)

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
    assert value == pytest.approx(2 * SQ2, abs=1e-12)
    canon, _ = canonicalize(arg, sector=True)
    assert canon.theta == pytest.approx(PI / 4, abs=1e-3)
    assert full_alternation_check(canon, strict=True)[0]


def test_bell_max_resolution_gate_and_offset():
    # the search has no grid: a resolution is not an argument any more
    with pytest.raises(TypeError):
        bell_max_q2(CHSH, resolution=8)
    shifted = BellFunctional(coeffs=CHSH.coeffs, offset=1.0)
    value, _ = bell_max_q2(shifted)
    assert value == pytest.approx(2 * SQ2 + 1.0, abs=1e-12)


def test_bell_max_single_correlator():
    beta = BellFunctional(coeffs=(0, 0, 0, 0, 1, 0, 0, 0))
    value, _ = bell_max_q2(beta)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_bell_max_single_marginal():
    beta = BellFunctional(coeffs=(1, 0, 0, 0, 0, 0, 0, 0))
    value, arg = bell_max_q2(beta)
    assert value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0, 1.5, 1.9])
def test_bell_max_reaches_the_tilted_chsh_maxima(alpha):
    # alpha <A0> + CHSH has quantum maximum sqrt(8 + 2 alpha^2) (Acin, Massar
    # and Pironio, PRL 108, 100402, 2012); its local bound is 2 + alpha
    value, _ = bell_max_q2(BellFunctional(coeffs=(alpha, 0, 0, 0, 1, 1, 1, -1)))
    assert value == pytest.approx(math.sqrt(8 + 2 * alpha ** 2), abs=1e-9)


def seeded_functionals(seed: int, count: int) -> list[np.ndarray]:
    """Normal, integer and rescaled functionals in behavior-vector order."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            out.append(rng.normal(size=8))
        elif kind == 1:
            out.append(rng.integers(-3, 4, size=8).astype(float))
        else:
            out.append(rng.normal(size=8) * 10.0 ** rng.choice([-6, -3, 3, 6]))
    return out


def test_bell_max_value_is_the_functional_at_its_argmax_and_beats_the_grid():
    # the grid point is not a start, so the search may land a rounding error
    # below it (1 ulp of ||beta||_1 on 3 of these functionals)
    rng = np.random.default_rng(81)
    for beta_vec in seeded_functionals(80, 200):
        offset = float(rng.normal())
        value, arg = bell_max_q2(BellFunctional.from_vector(beta_vec, offset=offset))
        tol = 1e-12 * max(1.0, float(np.abs(beta_vec).sum()))
        assert abs((value - offset) - beta_vec @ born_point(arg).vector) <= tol, beta_vec
        assert value >= full_grid_value(beta_vec)[0] + offset - tol, beta_vec


def r5_starts(count: int) -> np.ndarray:
    """The first ``count`` points of Roberts' R_5 sequence scaled to [0, pi)^5,
    as (5, count) columns: ``_STARTS`` is the first 32."""
    return PI * np.modf(0.5 + np.arange(1, count + 1)
                        * 1.1347241384015194 ** -np.arange(1.0, 6.0)[:, None])[0]


def test_bell_max_matches_a_deep_multistart():
    # 512 starts, each swept and then Newton-finished, against the 32 starts
    # and single Newton finish of bell_max_q2
    starts = r5_starts(512)
    assert np.array_equal(starts[:, :32], _STARTS)
    for beta_vec in seeded_functionals(90, 400):
        swept, _ = _sweeps(beta_vec, starts, _SWEEPS)
        _, deep = _newton(beta_vec, swept.T, _NEWTON_STEPS)
        value, _ = bell_max_q2(BellFunctional.from_vector(beta_vec))
        tol = 1e-12 * max(1.0, float(np.abs(beta_vec).sum()))
        assert value >= deep.max() - tol, beta_vec


#: Indices, among 200 functionals drawn from rng seed 11, where the former
#: 13-candidate refinement fell short (by 3.2e-5 to 3.5e-2), and the values
#: this search reaches there.
RNG11_SHORTFALLS = {2: 2.778610648106296, 8: 2.455993607933903, 57: 5.1346247901950415,
                    99: 3.631315286733056, 132: 4.802040133418014, 168: 5.511948912201186}


def test_bell_max_keeps_the_rng11_maxima():
    rng = np.random.default_rng(11)
    betas = [rng.normal(size=8) for _ in range(200)]
    for k, pinned in RNG11_SHORTFALLS.items():
        value, _ = bell_max_q2(BellFunctional.from_vector(betas[k]))
        assert value >= pinned - 1e-12, k


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


def local_model(bv: np.ndarray, rows: np.ndarray):
    """Value, gradient and Hessian at ``rows``: ``_model_value`` extended by
    ``_model_derivatives``."""
    val, terms = _model_value(bv, _correlator_pair(bv), rows)
    return (val, *_model_derivatives(bv, terms))


def test_local_model_matches_the_functional_and_its_differences():
    rng = np.random.default_rng(71)
    h = 1e-5
    for _ in range(20):
        beta_vec = rng.normal(size=8)
        x = rng.uniform(-PI, PI, (3, 5))
        val, grad, hess = local_model(beta_vec, x)
        assert np.max(np.abs(val - born_vector(*x.T) @ beta_vec)) < 1e-12
        for k in range(5):
            e = np.zeros(5)
            e[k] = h
            up, down = local_model(beta_vec, x + e), local_model(beta_vec, x - e)
            assert np.max(np.abs((up[0] - down[0]) / (2 * h) - grad[:, k])) < 1e-8
            assert np.max(np.abs((up[1] - down[1]) / (2 * h) - hess[:, :, k])) < 1e-8
        assert np.array_equal(hess, hess.transpose(0, 2, 1))


@pytest.mark.parametrize("beta, accepted", [
    (CHSH, 0),
    (BellFunctional(coeffs=(0.7, 0, 0, 0, 1, 1, 1, -1)), 2),
    (BellFunctional.from_vector(seeded_functionals(90, 201)[200]), 3),
], ids=["chsh", "tilted-0.7", "seeded-200"])
def test_newton_builds_the_derivatives_once_per_accepted_step(monkeypatch, beta, accepted):
    # a trial point is scored by its value alone: the gradient and Hessian
    # are built at the start and again only where a step gains, and the
    # finish ends at the first step that neither gains nor was capped
    values, builds = [], []

    def value(*args):
        val, terms = _model_value(*args)
        values.append(float(val[0]))
        return val, terms

    def derivatives(*args):
        builds.append(len(args[-1][0]))
        return _model_derivatives(*args)

    monkeypatch.setattr("qset.oracles._model_value", value)
    monkeypatch.setattr("qset.oracles._model_derivatives", derivatives)
    result, _ = bell_max_q2(beta)
    best, gains = values[0], 0
    for trial in values[1:]:
        if trial > best:
            best, gains = trial, gains + 1
    assert gains == accepted
    assert builds == [1] * (1 + accepted)
    assert result == best + beta.offset
    assert len(values) == 2 + accepted


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


def test_hinted_search_polishes_its_seeds_once(monkeypatch):
    polished = record_polish(monkeypatch)
    assert decomposition_search(born_point(NONALT), trials=300, seed=1, hint=NONALT).found
    assert len(polished) == 1
    assert np.array_equal(polished[0], np.array(_structured_seeds(NONALT)))


def test_unsplit_seeds_are_polished_in_one_call(monkeypatch):
    # PI8_EDGE is extremal: its seeds polish once, together, and the
    # stochastic phase adds at most its best rows as one more batch
    polished = record_polish(monkeypatch)
    res = decomposition_search(born_point(PI8_EDGE), trials=300, seed=1, hint=PI8_EDGE)
    assert not res.found
    assert np.array_equal(polished[0], np.array(_structured_seeds(PI8_EDGE)))
    assert len(polished) <= 2
    assert all(len(q) <= _POLISH_TOP for q in polished[1:])


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


#: NonExtremalInQ point, so it has a split, where the search below polishes
#: its four structured seeds once and each stalls with a mixture residual of
#: 7e-5 to 3e-4, above FOUND_RESIDUAL; no stochastic row scores low enough to
#: be polished.
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

    # the seeds take their sectors from the witness's sector generator, which
    # skips only a vanishing denominator
    assert _structured_seeds(NONALT)
    monkeypatch.setattr("qset.witness._sector_solution", broken)
    with pytest.raises(RuntimeError):
        _structured_seeds(NONALT)


def test_structured_seeds_of_a_product_hint_change_nothing():
    # a product-state hint has no image in the sector, so it seeds nothing and
    # the search runs as without a hint
    product = QubitRealization(0.0, (0.3, 1.2), (0.5, 2.0))
    assert _structured_seeds(product) == []
    p = Behavior.from_vector(np.zeros(8))
    hinted = decomposition_search(p, trials=100, seed=7, hint=product)
    plain = decomposition_search(p, trials=100, seed=7)
    assert hinted.found and hinted.nfev > 0
    assert hinted == plain
    assert np.array_equal(hinted.p1.vector, plain.p1.vector)
    assert np.array_equal(hinted.p2.vector, plain.p2.vector)


def test_structured_seeds_skip_a_degenerate_sector():
    from qset.errors import DegenerateDenominatorError
    from qset.witness import SECTOR_ORDER, solve_sector

    # the canonical hint has a = (0, 0) at theta = pi/4, where sector (1, -1)
    # has D = cos(-pi/2) + cos(pi/2) cos(2 theta) = 6e-17; the other two
    # sectors give 4 seeds each
    hint = QubitRealization(PI / 4, (0.0, PI), (0.7, 2.0))
    canon, _ = canonicalize(hint, sector=True)
    assert canon.params() == (PI / 4, 0.0, 0.0, 0.7, 2.0)
    admitted = []
    for sector in SECTOR_ORDER:
        try:
            _, alphas, _ = solve_sector(canon, sector)
        except DegenerateDenominatorError:
            assert sector == (1, -1)
            continue
        assert np.max(np.abs(alphas)) <= 1
        admitted.append(sector)
    assert admitted == [(1, 1), (-1, -1)]
    assert len(_structured_seeds(hint)) == 4 * len(admitted)


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


@pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -1}, {"generations": 120},
                                    {"polish_top": 3}])
def test_decomposition_rejects_bad_arguments(kwargs):
    # the stochastic phase's length and the polish width are module constants,
    # so passing either is the TypeError of an unknown keyword
    error = ValueError if "trials" in kwargs else TypeError
    with pytest.raises(error):
        decomposition_search(born_point(TSIRELSON), **kwargs)


def record_objective(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Patch the stochastic score ``_score`` to record every batch it scores
    as (parameter rows, scores); the scores are in the compute dtype."""
    calls = []

    def recording(x, target, dtype=None):
        f = _score(x, target, dtype)
        calls.append((x.copy(), f))
        return f

    monkeypatch.setattr("qset.oracles._score", recording)
    return calls


def record_polish(monkeypatch) -> list[np.ndarray]:
    """Patch ``_polish`` to record the starts of every batch it polishes."""
    calls = []

    def recording(q, target):
        calls.append(q.copy())
        return _polish(q, target)

    monkeypatch.setattr("qset.oracles._polish", recording)
    return calls


def test_stochastic_score_is_the_squared_polish_residual():
    # the last five rows put part 2 just off part 1, so the separation guard
    # (the residual's ninth entry) is active there
    rng = np.random.default_rng(76)
    target = born_point(NONALT).vector
    q = np.concatenate([rng.uniform(0.0, PI, (5, 22)), np.zeros((5, 22))])
    q[5:, 0:10] = rng.uniform(0.0, PI, (5, 10))
    q[5:, 10:20] = q[5:, 0:10] + rng.normal(0.0, 1e-3, (5, 10))
    q[5:, 20:22] = 0.3
    for dtype in (np.float32, np.float64):
        x = q.astype(dtype)
        r, sep = _residual_sep(x, target)
        assert r.dtype == sep.dtype == dtype
        f = _score(x, target)
        assert f.dtype == dtype
        assert np.array_equal(f, np.einsum("si,si->s", r, r))
        assert np.array_equal(r[:, 8] > 0.0, np.arange(10) >= 5)
        assert np.all(sep[5:] < 0.01)
        # rounding aside, the same score as the float64 residual's squared norm
        r64 = _residual_sep(x.astype(np.float64), target)[0]
        assert np.allclose(f, np.sum(r64 * r64, axis=-1), rtol=10 * np.finfo(dtype).eps,
                           atol=0.0)


def reference_parts(q):
    """The part behaviors (p1, p2), each (..., 8), of parameter rows as they
    were composed before the parameter-major kernel: ``born_vector`` on the
    (..., 4, 5) reshape of the angles."""
    reals = q[..., :20].reshape(*q.shape[:-1], 4, 5)
    comps = reference_born_vector(*(reals[..., k] for k in range(5)))
    w = 1.0 / (1.0 + np.exp(-q[..., 20:22]))
    p1 = w[..., 0:1] * comps[..., 0, :] + (1 - w[..., 0:1]) * comps[..., 1, :]
    p2 = w[..., 1:2] * comps[..., 2, :] + (1 - w[..., 1:2]) * comps[..., 3, :]
    return p1, p2


def reference_residual_sep(q, target):
    p1, p2 = reference_parts(q)
    sep = np.max(np.abs(p1 - p2), axis=-1)
    guard = 5.0 * np.maximum(0.0, 0.01 - sep)
    err = 0.5 * (p1 + p2) - target.astype(q.dtype, copy=False)
    return np.concatenate([err, guard[..., None]], axis=-1), sep


def reference_residual_jac(q, target):
    lead = q.shape[:-1]
    reals = q[..., :20].reshape(*lead, 4, 5)
    params = [reals[..., k] for k in range(5)]
    comps = reference_born_vector(*params)
    dcomps = reference_born_jacobian(*params)
    w = 1.0 / (1.0 + np.exp(-q[..., 20:22]))
    dw = w * (1.0 - w)
    j1 = np.zeros(lead + (8, 22))
    j1[..., 0:5] = w[..., 0, None, None] * dcomps[..., 0, :, :]
    j1[..., 5:10] = (1 - w[..., 0, None, None]) * dcomps[..., 1, :, :]
    j1[..., 20] = dw[..., 0:1] * (comps[..., 0, :] - comps[..., 1, :])
    j2 = np.zeros(lead + (8, 22))
    j2[..., 10:15] = w[..., 1, None, None] * dcomps[..., 2, :, :]
    j2[..., 15:20] = (1 - w[..., 1, None, None]) * dcomps[..., 3, :, :]
    j2[..., 21] = dw[..., 1:2] * (comps[..., 2, :] - comps[..., 3, :])
    jac = np.zeros(lead + (9, 22))
    jac[..., :8, :] = 0.5 * (j1 + j2)
    p1, p2 = reference_parts(q)
    diff = p1 - p2
    i = np.argmax(np.abs(diff), axis=-1)[..., None]
    di = np.take_along_axis(diff, i, axis=-1)
    dj = np.take_along_axis(j1 - j2, i[..., None], axis=-2)[..., 0, :]
    jac[..., 8, :] = np.where(np.abs(di) < 0.01, -5.0 * np.sign(di) * dj, 0.0)
    return jac


@pytest.mark.parametrize("size", [1, 3, 8, 1000, None], ids=["S1", "S3", "S8", "S1000", "row"])
def test_polish_kernels_match_the_earlier_composition_bit_for_bit(size):
    # the first half of the rows put part 2 just off part 1 (guard active);
    # angles range over several periods, some exactly 0 or pi
    rng = np.random.default_rng(77)
    n = size or 1
    q = np.concatenate([rng.uniform(-4 * PI, 4 * PI, (n, 20)), rng.normal(0.0, 2.0, (n, 2))],
                       axis=1)
    q[n // 3:, 3] = 0.0
    q[n // 3:, 9] = PI
    half = (n + 1) // 2
    q[:half, 10:20] = q[:half, 0:10] + rng.normal(0.0, 1e-3, (half, 10))
    q[:half, 21] = q[:half, 20]
    target = random_valid_behavior(rng).vector
    if size is None:
        q = q[0]
    for dtype in (np.float32, np.float64):
        x = q.astype(dtype)
        r, sep = _residual_sep(x, target)
        r_ref, sep_ref = reference_residual_sep(x, target)
        assert r.dtype == r_ref.dtype and r.tobytes() == r_ref.tobytes()
        assert np.asarray(sep).tobytes() == np.asarray(sep_ref).tobytes()
        f_ref = np.einsum("...i,...i->...", r_ref, r_ref)
        assert _score(x, target).tobytes() == f_ref.tobytes()
        # casting float64 rows in the score's own copy rounds as astype does
        assert _residual_sep(q, target, dtype)[0].tobytes() == r_ref.tobytes()
        assert _score(q, target, dtype).tobytes() == f_ref.tobytes()
        assert np.any(r[..., 8] > 0.0)
    # the polish, its only caller, runs in float64
    jac, jac_ref = _residual_jac(q, target), reference_residual_jac(q, target)
    assert jac.shape == jac_ref.shape and jac.tobytes() == jac_ref.tobytes()
    assert np.any(jac[..., 8, :])


def test_in_place_draws_equal_the_normal_proposals():
    # the 120 scales of a phase, from a start row set with exact zeros in it
    trials = 200
    rng = np.random.default_rng(5)
    x = np.empty((trials, 22))
    x[:, 0:20] = rng.uniform(0.0, PI, size=(trials, 20))
    x[:, 20:22] = rng.normal(0.0, 1.0, size=(trials, 2))
    x[::7, :3] = 0.0
    draws, reference = np.random.default_rng(9), np.random.default_rng(9)
    prop = np.empty_like(x)
    scale = 0.4
    decay = (0.004 / scale) ** (1.0 / _GENERATIONS)
    for _ in range(_GENERATIONS):
        draws.standard_normal(out=prop)
        prop *= scale
        prop += x
        want = x + reference.normal(0.0, scale, size=x.shape)
        assert prop.tobytes() == want.tobytes()
        x[::3] = prop[::3]
        scale *= decay


@pytest.mark.parametrize("generations", [0, 7, 120])
def test_stochastic_phase_scores_in_float32_and_ranks_once_in_float64(monkeypatch, generations):
    calls = record_objective(monkeypatch)
    monkeypatch.setattr("qset.oracles._GENERATIONS", generations)
    decomposition_search(born_point(TSIRELSON), trials=50, seed=3)
    dtypes = [f.dtype for _, f in calls]
    assert dtypes == [np.float32] * (generations + 1) + [np.float64]
    # the rows stay float64; the score casts them in its own copy
    assert all(x.dtype == np.float64 for x, _ in calls)


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
    f = _score(x, target)
    scale = 0.4
    decay = (0.004 / scale) ** (1.0 / max(generations, 1))
    for _ in range(generations):
        prop = x + rng.normal(0.0, scale, size=x.shape)
        fp = _score(prop, target)
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
    polished = record_polish(monkeypatch)
    calls = record_objective(monkeypatch)
    diverged = n_polished = 0
    for k in range(10):
        target = random_valid_behavior(rng).vector
        calls.clear()
        polished.clear()
        decomposition_search(Behavior.from_vector(target), trials=200, seed=k)
        x, f = calls[-1]
        x_ref, _ = float64_stochastic_phase(target, 200, k)
        f_ref = _score(x_ref, target)
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


#: The 16 deterministic vertices as rows.
VERTICES = np.array([v.behavior.vector for v in enumerate_vertices()])
#: The CHSH functional of the facet pushed out in the band test.
CHSH_VEC = np.array([0, 0, 0, 0, 1, 1, 1, -1], dtype=float)
#: The 8 sign variants (e00, e01, e10, e11) of CHSH, product -1.
CHSH_SIGNS = [e for e in itertools.product((1, -1), repeat=4) if math.prod(e) == -1]


def exact_chsh_max(v: np.ndarray) -> Fraction:
    """Fine's statistic, the largest of the 8 CHSH values, in exact arithmetic
    on the float components of ``v``."""
    corr = [Fraction(float(x)) for x in v[4:]]
    return max(sum(e * c for e, c in zip(signs, corr)) for signs in CHSH_SIGNS)


def assert_certificate_verifies(p: Behavior, ok: bool, payload) -> None:
    if ok:
        assert np.all(payload >= 0.0)
        assert np.max(np.abs(payload @ VERTICES - p.vector)) <= 1e-9
        assert abs(payload.sum() - 1.0) <= 1e-9
    else:
        # the separator scores p above every vertex, exactly in rationals of its floats
        beta = [Fraction(float(c)) for c in payload.vector]
        score = sum(b * Fraction(float(x)) for b, x in zip(beta, p.vector))
        assert all(score > sum(b * int(x) for b, x in zip(beta, v)) for v in VERTICES)


def test_lp_certificates_verify_across_the_chsh_facet_band(monkeypatch):
    """Facet points pushed out past CHSH = 2 by eps, where the float phase-1
    objective straddles its 1e-9 cut, plus the uniform behavior and the
    Tsirelson point.  Every call returns a certificate that verifies, and
    its verdict agrees with Fine's test wherever the exact CHSH excess is
    outside (0, 2e-9]."""
    objectives = []

    def recording_phase1(a_mat, b):
        out = _phase1_float(a_mat, b)
        objectives.append(out[0])
        return out

    monkeypatch.setattr("qset.oracles._phase1_float", recording_phase1)
    facet = VERTICES[VERTICES @ CHSH_VEC == 2.0]
    assert len(facet) == 8
    rng = np.random.default_rng(14)
    points = [Behavior.from_vector(np.zeros(8)), born_point(TSIRELSON)]
    for eps in (0.0, 1e-10, 9e-10, 1e-9, 1.05e-9, 3e-9, 2e-8):
        points += [Behavior.from_vector(rng.dirichlet(np.ones(8)) @ facet + eps / 4 * CHSH_VEC)
                   for _ in range(100)]
    verdicts = []
    for p in points:
        objectives.clear()
        ok, payload = local_membership_lp(p)
        assert_certificate_verifies(p, ok, payload)
        excess = exact_chsh_max(p.vector) - 2
        if excess <= 0:
            assert ok
        elif excess > Fraction(2e-9):
            assert not ok
        verdicts.append((ok, objectives[0] <= 1e-9))
    assert verdicts[:2] == [(True, True), (False, False)]
    # the band is reached: points whose weights fail to verify at an
    # objective under the cut are decided by the dual's separation
    assert (False, True) in verdicts


@pytest.mark.parametrize("obj", [0.0, 1e-3])
def test_lp_raises_when_no_certificate_verifies(monkeypatch, obj):
    # zero weights never sum to 1, and a zero dual separates nothing
    def unverifiable(a_mat, b):
        return obj, np.zeros(a_mat.shape[1]), np.zeros(a_mat.shape[0])

    monkeypatch.setattr("qset.oracles._phase1_float", unverifiable)
    with pytest.raises(ArithmeticError, match=f"objective {obj:.17g}, dual separation 0"):
        local_membership_lp(born_point(TSIRELSON))


def reference_phase1(a_mat, b, rule="dantzig", tol=1e-11, max_iter=800):
    """The phase-1 simplex loop in its first style: numpy element access in
    the scans, ``np.outer`` in the pivot.  ``rule="dantzig"`` enters the most
    negative reduced cost and falls back to Bland's rule after 3 consecutive
    degenerate pivots, as ``_phase1_float`` does; ``rule="bland"`` is Bland's
    rule throughout.  Returns (objective, solution, dual, pivots, pivots
    chosen by the fallback)."""
    m, n = a_mat.shape
    sign = np.where(b < 0, -1.0, 1.0)
    a_mat = a_mat * sign[:, None]
    rhs = b * sign
    tab = np.hstack([a_mat, np.eye(m), rhs[:, None]])
    basis = list(range(n, n + m))
    red = np.concatenate([np.zeros(n), np.ones(m)])
    red = red - tab[:, :-1].sum(axis=0)
    pivots = fallbacks = degenerate = 0
    for _ in range(max_iter):
        ent = -1
        if rule == "dantzig" and degenerate < 3:
            j = int(np.argmin(red))
            if red[j] < -tol:
                ent = j
        else:
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
        pivots += 1
        fallbacks += rule == "dantzig" and degenerate >= 3
        degenerate = degenerate + 1 if best_key[0] <= 0.0 else 0
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
    return float(obj), z[:n], sign * (1.0 - red[n:]), pivots, fallbacks


def lp_inputs():
    """Right-hand sides of 600 seeded valid behaviors: realizations, vertex
    mixtures and cube draws, as in the crosscheck LP calls."""
    rng = np.random.default_rng(81)
    return [np.concatenate([random_valid_behavior(rng).vector, [1.0]]) for _ in range(600)]


def test_phase1_float_matches_reference_loop_bitwise():
    n_local = 0
    pivots = {"dantzig": 0, "bland": 0}
    for rhs in lp_inputs():
        got = _phase1_float(_LP_MATRIX, rhs)
        want = reference_phase1(_LP_MATRIX.copy(), rhs)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        n_local += got[0] <= 1e-9
        pivots["dantzig"] += want[3]
        pivots["bland"] += reference_phase1(_LP_MATRIX.copy(), rhs, rule="bland")[3]
    assert 100 < n_local < 550
    # a count, not a timing: Dantzig's rule needs fewer pivots than Bland's
    assert pivots["dantzig"] < pivots["bland"]


def test_dantzig_and_bland_loops_agree_on_verdicts(monkeypatch):
    """The LP's verdict with either pivot rule, on the seeded inputs and on
    the CHSH facet band outside an exact excess in (0, 2e-9]."""
    rng = np.random.default_rng(14)
    facet = VERTICES[VERTICES @ CHSH_VEC == 2.0]
    points = [Behavior.from_vector(rhs[:8]) for rhs in lp_inputs()]
    for eps in (0.0, 1e-10, 9e-10, 1e-9, 3e-9, 2e-8):
        band = [Behavior.from_vector(rng.dirichlet(np.ones(8)) @ facet + eps / 4 * CHSH_VEC)
                for _ in range(50)]
        points += [p for p in band
                   if not 0 < exact_chsh_max(p.vector) - 2 <= Fraction(2e-9)]
    dantzig = [local_membership_lp(p)[0] for p in points]
    monkeypatch.setattr("qset.oracles._phase1_float",
                        lambda a_mat, b: reference_phase1(a_mat, b, rule="bland")[:3])
    assert [local_membership_lp(p)[0] for p in points] == dantzig
    assert 0 < sum(dantzig) < len(points)


def test_vertices_take_the_bland_fallback_and_weigh_themselves():
    # a vertex is maximally degenerate: every basis it passes through holds zeros
    for k, v in enumerate(VERTICES):
        rhs = np.concatenate([v, [1.0]])
        got = _phase1_float(_LP_MATRIX, rhs)
        want = reference_phase1(_LP_MATRIX.copy(), rhs)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        assert want[4] > 0
        ok, weights = local_membership_lp(Behavior.from_vector(v))
        assert ok and weights[k] == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(np.delete(weights, k))) <= 1e-9


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

import math

import numpy as np
import pytest

from qset import (
    DegenerateDenominatorError,
    DegenerateThetaError,
    ExcludedSectorError,
    QubitRealization,
    born_point,
    delta_condition,
    find_witness,
    full_alternation_check,
    is_local,
    orthocomplement,
    sample_realization,
    solve_sector,
    tangent_basis,
    validate,
)
from qset.behavior import _fine_local, invalid_rows
from qset.realization import born_jacobian
from qset.tolerances import TOL_EQ
from qset.witness import (
    SECTOR_ORDER,
    _sector_solution,
    flatness_deviation,
    sector_denominator,
)

from conftest import PI8_EDGE, TSIRELSON, measurement_operator

PI = math.pi
SQ2 = math.sqrt(2.0)

R16 = QubitRealization(PI / 16, (0.0, PI / 2), (PI / 4, 3 * PI / 4))
#: |<A0>| = cos(2 theta) cos(a0) of P rounds to within 1e-12 of 1.
R_TINY = QubitRealization(2e-8, (0.0, 1.0), (0.5, 2.0))
#: The least theta of the sector range; <A0> of P is as close to 1 as it gets.
R_EDGE = QubitRealization(math.nextafter(TOL_EQ, 1), (0.0, 1.0), (0.5, 2.0))


def central_difference_rows(r: QubitRealization, h: float = 1e-6) -> np.ndarray:
    def at(theta, a0, a1, b0, b1):
        return born_point(QubitRealization(theta, (a0, a1), (b0, b1))).vector

    base = [r.theta, r.a[0], r.a[1], r.b[0], r.b[1]]
    rows = []
    for k in range(5):
        hi = list(base)
        lo = list(base)
        hi[k] += h
        lo[k] -= h
        rows.append((at(*hi) - at(*lo)) / (2 * h))
    return np.array(rows)


def solve_sector_system_lstsq(r: QubitRealization, sector):
    """Independent check: solve the six sector equations numerically."""
    s, t = sector
    p = born_point(r).vector
    rows = tangent_basis(r)
    a_mat = np.zeros((6, 5))
    rhs = np.zeros(6)
    funcs = []
    l = np.zeros(8); l[0] = 1; funcs.append((l, s))
    l = np.zeros(8); l[1] = 1; funcs.append((l, t))
    l = np.zeros(8); l[2] = 1; l[4] = -s; funcs.append((l, 0))
    l = np.zeros(8); l[4] = s; l[6] = -t; funcs.append((l, 0))
    l = np.zeros(8); l[3] = 1; l[5] = -s; funcs.append((l, 0))
    l = np.zeros(8); l[5] = s; l[7] = -t; funcs.append((l, 0))
    for i, (l, const) in enumerate(funcs):
        a_mat[i] = rows @ l
        rhs[i] = const - l @ p
    sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    return a_mat, rhs, sol


def test_derivative_row_a0_at_pi8_edge():
    rows = tangent_basis(PI8_EDGE)
    s2 = math.sin(2 * PI8_EDGE.theta)
    # a0 = 0 zeroes the marginal term; only the two corr slots in row x=0 survive
    expected = np.array([0, 0, 0, 0, s2 * math.sin(PI8_EDGE.b[0]), s2 * math.sin(PI8_EDGE.b[1]), 0, 0])
    assert np.allclose(rows[3], expected, atol=1e-14)
    assert rows[3][4] == pytest.approx(0.5, abs=1e-14)
    assert abs(rows[3][5]) == pytest.approx(0.5, abs=1e-14)


def test_derivative_rows_match_central_differences():
    rng = np.random.default_rng(31)
    for _ in range(25):
        r = sample_realization(rng, {"canonical"}, theta_range=(0.05, PI / 4))
        jac = born_jacobian(*r.params()).T
        fd = central_difference_rows(r)
        assert np.max(np.abs(jac - fd)) < 1e-7


def test_derivative_a0_has_no_bob_marginal_slots():
    rng = np.random.default_rng(32)
    for _ in range(20):
        r = sample_realization(rng, {"canonical"}, theta_range=(0.05, PI / 4))
        row = tangent_basis(r)[3]
        assert row[1] == 0 and row[2] == 0 and row[3] == 0
        assert row[6] == 0 and row[7] == 0


def test_state_row_t01_matrix_oracle():
    r = QubitRealization(PI / 4, (0.0, 0.0), (0.0, 0.0))
    rows = tangent_basis(r)
    phi = np.array([math.cos(r.theta), 0, 0, math.sin(r.theta)])
    e01 = np.array([0.0, 1.0, 0.0, 0.0])
    eye = np.eye(2)
    a0 = measurement_operator(0.0)
    mats = [np.kron(a0, eye), np.kron(a0, eye), np.kron(eye, a0), np.kron(eye, a0)] \
        + [np.kron(a0, a0)] * 4
    expected = np.array([e01 @ m @ phi for m in mats])
    assert np.allclose(rows[1], expected, atol=1e-14)


def kron_state_rows(r: QubitRealization) -> np.ndarray:
    """Oracle for the state rows: <psi_perp| M_k |phi_theta> with explicit 4x4
    operators M_k = A_x (x) 1, 1 (x) B_y, A_x (x) B_y."""
    th = r.theta
    phi = np.array([math.cos(th), 0.0, 0.0, math.sin(th)])
    perps = [np.array([math.sin(th), 0.0, 0.0, -math.cos(th)]),
             np.array([0.0, 1.0, 0.0, 0.0]),
             np.array([0.0, 0.0, 1.0, 0.0])]
    eye = np.eye(2)
    a_ops = [measurement_operator(x) for x in r.a]
    b_ops = [measurement_operator(y) for y in r.b]
    mats = [np.kron(a_ops[0], eye), np.kron(a_ops[1], eye),
            np.kron(eye, b_ops[0]), np.kron(eye, b_ops[1])] \
        + [np.kron(a_ops[x], b_ops[y]) for x in range(2) for y in range(2)]
    return np.array([[psi @ m @ phi for m in mats] for psi in perps])


def test_state_rows_match_kronecker_oracle():
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(2000):
        r = sample_realization(rng, {"canonical"}, theta_range=(1e-4, PI / 4))
        worst = max(worst, np.max(np.abs(tangent_basis(r)[:3] - kron_state_rows(r))))
    assert worst <= 1e-14


def test_tangent_basis_sector_gate():
    with pytest.raises(DegenerateThetaError):
        tangent_basis(QubitRealization(0.9, (0.1, 1.0), (0.3, 2.0)))  # theta > pi/4
    with pytest.raises(ValueError):
        tangent_basis(QubitRealization(0.2, (1.0, 0.1), (0.3, 2.0)))  # not canonical


def test_solve_sector_substitution_residual():
    for sector in SECTOR_ORDER:
        a_mat, rhs, _ = solve_sector_system_lstsq(R16, sector)
        coeffs, alphas, d = solve_sector(R16, sector)
        resid = np.max(np.abs(a_mat @ coeffs - rhs))
        assert resid < 1e-10
        assert coeffs[4] == 0.0  # b-coefficient vanishes
        # alphas really are the companion's Bob marginals
        p = born_point(R16).vector
        companion = p + coeffs @ tangent_basis(R16)
        assert np.allclose(alphas, companion[2:4], atol=1e-14)


def test_solve_sector_random_substitution():
    rng = np.random.default_rng(33)
    for _ in range(100):
        r = sample_realization(rng, {"canonical"}, theta_range=(0.03, PI / 4))
        for sector in SECTOR_ORDER:
            if abs(sector_denominator(r, sector)) < 1e-6:
                continue
            a_mat, rhs, _ = solve_sector_system_lstsq(r, sector)
            coeffs, _, _ = solve_sector(r, sector)
            assert np.max(np.abs(a_mat @ coeffs - rhs)) < 1e-10


def test_solve_sector_x_coefficient_maximally_entangled():
    r = QubitRealization(PI / 4, (0.0, PI / 2), (PI / 4, 3 * PI / 4))
    coeffs, _, d = solve_sector(r, (1, 1))
    # at theta = pi/4 the closed form gives x = cos((a0+a1)/2) sin(pi/2) / D
    assert coeffs[0] == pytest.approx(math.cos(PI / 4) / d, abs=1e-14)
    assert d == pytest.approx(math.cos(-PI / 4), abs=1e-14)


def test_solve_sector_excluded():
    with pytest.raises(ExcludedSectorError):
        solve_sector(R16, (-1, 1))
    with pytest.raises(ExcludedSectorError):
        delta_condition(R16, (-1, 1))


def test_delta_condition_rejects_sectors_outside_pm1_squared():
    for sector in ((0, 1), (2, -3), (1, 0), [1, 2]):
        for func in (solve_sector, delta_condition):
            with pytest.raises(ValueError, match="sector must be in"):
                func(R16, sector)


def test_delta_r16_positive():
    deltas = delta_condition(R16, (1, 1))
    expected0 = math.sin(-PI / 4) * math.sin(PI / 8 - PI / 4)
    expected1 = math.sin(-3 * PI / 4) * math.sin(PI / 8 - 3 * PI / 4)
    assert deltas[0] == pytest.approx(expected0, abs=1e-14)
    assert deltas[1] == pytest.approx(expected1, abs=1e-14)
    assert np.min(deltas) > 0


def test_delta_strictly_alternating_always_obstructed():
    rng = np.random.default_rng(34)
    for _ in range(100):
        r = sample_realization(rng, {"strictly-alternating"})
        for sector in SECTOR_ORDER:
            assert np.min(delta_condition(r, sector)) < 0


def test_delta_pi8_edge_zero_margin():
    deltas = delta_condition(PI8_EDGE, (1, 1))
    assert deltas[0] == pytest.approx(0.0, abs=1e-14)  # atilde_1^+ = b0 exactly


def test_delta_alpha_equivalence():
    rng = np.random.default_rng(35)
    for _ in range(200):
        r = sample_realization(rng, {"canonical"}, theta_range=(0.03, PI / 4))
        for sector in SECTOR_ORDER:
            if abs(sector_denominator(r, sector)) < 1e-6:
                continue
            _, alphas, _ = solve_sector(r, sector)
            deltas = delta_condition(r, sector)
            admissible = np.max(np.abs(alphas)) <= 1.0 + 1e-10
            assert admissible == bool(np.min(deltas) >= -1e-10)


def test_find_witness_r16():
    wit = find_witness(R16)
    assert wit is not None
    assert wit.sector == (1, 1)
    assert np.max(np.abs(wit.alphas)) <= 1.0
    assert is_local(wit.local_point)
    assert validate(wit.local_point) == []


def test_find_witness_none_for_tsirelson():
    assert find_witness(TSIRELSON) is None


def test_find_witness_pi8_edge_boundary():
    wit = find_witness(PI8_EDGE)
    assert wit is not None
    assert np.min(wit.deltas) == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(wit.alphas)) == pytest.approx(1.0, abs=1e-12)


def test_find_witness_builds_neither_point_nor_basis(monkeypatch):
    import qset.behavior as behavior
    import qset.witness as witness

    calls = dict.fromkeys(("born_point", "tangent_basis", "invalid_rows", "_fine_local"), 0)

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    # witness imports no born_point: L differs from P by construction
    import qset.realization as realization
    monkeypatch.setattr(witness, "born_point", counted(realization, "born_point"), raising=False)
    monkeypatch.setattr(witness, "tangent_basis", counted(witness, "tangent_basis"))
    # L is valid and local by construction, so neither check runs on it
    for name in ("invalid_rows", "_fine_local"):
        wrapper = counted(behavior, name)
        monkeypatch.setattr(behavior, name, wrapper)
        monkeypatch.setattr(witness, name, wrapper, raising=False)
    # TSIRELSON tries all three sectors; the others stop at a witness
    for r in (TSIRELSON, R16, PI8_EDGE, R_TINY, R_EDGE):
        calls.update(dict.fromkeys(calls, 0))
        wit = witness.find_witness(r)
        assert calls == {"born_point": 0, "tangent_basis": 0,
                         "invalid_rows": 0, "_fine_local": 0}
        if wit is not None:
            coeffs, alphas, _ = solve_sector(r, wit.sector)
            assert np.array_equal(wit.coeffs, coeffs)
            assert np.array_equal(wit.alphas, alphas)


def tangent_route_witness(r: QubitRealization):
    """Oracle for find_witness in behavior coordinates: the companion point
    P + coeffs @ tangent_basis(r) clipped to [-1, 1], with the coefficient
    formulas of the module docstring, the same checks and the same sector order.
    Returns (sector, coeffs, alphas, local vector) or None."""
    p_vec = born_point(r).vector
    vecs = tangent_basis(r)
    th = r.theta
    for s, t in SECTOR_ORDER:
        a0s, a1t = r.a[0] + (1 - s) * math.pi / 2, r.a[1] + (1 - t) * math.pi / 2
        d = math.cos((a0s - a1t) / 2) + math.cos((a0s + a1t) / 2) * math.cos(2 * th)
        if abs(d) < 1e-12:
            continue
        coeffs = np.array([
            math.cos((a0s + a1t) / 2) * math.sin(2 * th) / d,
            2 * math.sin(a0s / 2) * math.cos(a1t / 2) * math.sin(th) / d,
            2 * math.cos(a0s / 2) * math.sin(a1t / 2) * math.cos(th) / d,
            -2 * math.sin((a0s - a1t) / 2) / d,
            0.0,
        ])
        companion = p_vec + coeffs @ vecs
        if np.max(np.abs(companion[2:4])) > 1.0 + TOL_EQ:
            continue
        local_vec = np.clip(companion, -1.0, 1.0)
        if invalid_rows(local_vec[None])[0] or not _fine_local(local_vec):
            continue
        if np.array_equal(local_vec, p_vec):
            continue
        return (s, t), coeffs, companion[2:4], local_vec
    return None


def matches_tangent_route(r: QubitRealization) -> bool:
    """Assert find_witness(r) agrees with the oracle, and that its L passes the
    validity and Fine checks it skips; True when both find a witness."""
    wit, want = find_witness(r), tangent_route_witness(r)
    assert (wit is None) == (want is None)
    if wit is None:
        return False
    assert not invalid_rows(wit.local_point.vector[None])[0]
    assert _fine_local(wit.local_point.vector)
    sector, coeffs, alphas, local_vec = want
    assert wit.sector == sector
    assert np.array_equal(wit.coeffs, coeffs)
    assert np.max(np.abs(wit.alphas - alphas)) <= 1e-14
    assert np.max(np.abs(wit.local_point.vector - local_vec)) <= 1e-12
    return True


def test_find_witness_matches_tangent_route_oracle():
    rng = np.random.default_rng(555)  # acceptance 4's draws
    draws = (sample_realization(rng, {"canonical"}, theta_range=(1e-4, PI / 4))
             for _ in range(10_000))
    assert sum(matches_tangent_route(r) for r in draws) == 9322
    assert matches_tangent_route(R_TINY)


#: theta = pi/4 and a = (0, pi): sector (1, 1) has D = cos(-pi/2) = 6e-17,
#: below the 1e-12 cut.
R_DEGENERATE = QubitRealization(PI / 4, (0.0, PI), (0.7, 2.0))


def test_find_witness_skips_a_degenerate_sector():
    d = sector_denominator(R_DEGENERATE, (1, 1))
    assert abs(d) < 1e-16
    with pytest.raises(DegenerateDenominatorError) as exc:
        _sector_solution(R_DEGENERATE, (1, 1))
    assert str(exc.value) == f"sector denominator D_st = {d!r}"
    wit = find_witness(R_DEGENERATE)
    assert wit.sector == (1, -1)
    assert matches_tangent_route(R_DEGENERATE)


def test_witness_differs_from_p_at_the_least_sector_theta():
    # <A0> of L is s = +-1 exactly, and theta > TOL_EQ keeps |<A0>| of P below 1
    p_vec = born_point(R_EDGE).vector
    assert p_vec[0] == math.cos(2 * R_EDGE.theta) == 0.9999999999999998
    wit = find_witness(R_EDGE)
    assert wit is not None and not np.array_equal(wit.local_point.vector, p_vec)
    assert matches_tangent_route(R_EDGE)


def test_witness_invariants_and_flatness():
    rng = np.random.default_rng(36)
    found = 0
    while found < 50:
        r = sample_realization(rng, {"canonical"}, theta_range=(0.03, PI / 4))
        wit = find_witness(r)
        strict, _ = full_alternation_check(r, strict=True)
        assert (wit is None) == strict
        if wit is None:
            continue
        found += 1
        p = born_point(r)
        basis = tangent_basis(r)
        lvec = wit.local_point.vector
        s, t = wit.sector
        # sector membership, exactly: margA = (s, t), product correlation structure
        assert lvec[0] == s and lvec[1] == t
        corr = lvec[4:].reshape(2, 2)
        assert np.array_equal(corr, np.outer(lvec[:2], lvec[2:4]))
        # L = P + coeffs . basis up to the unit clip
        assert np.max(np.abs(lvec - (p.vector + wit.coeffs @ basis))) < 1e-8
        assert not np.array_equal(lvec, p.vector)
        assert flatness_deviation(wit, p, basis) <= 1e-8


def test_orthocomplement_generic():
    basis = tangent_basis(R16)
    comp, rank = orthocomplement(basis)
    assert rank == 5
    assert comp.shape == (3, 8)
    assert np.max(np.abs(comp @ basis.T)) < 1e-12
    assert np.allclose(comp @ comp.T, np.eye(3), atol=1e-12)


def test_orthocomplement_rank_deficient():
    # a0 = 0 with b = (0, 0) zeroes the dP/da0 row entirely
    r = QubitRealization(0.2, (0.0, 1.3), (0.0, 0.0))
    basis = tangent_basis(r)
    comp, rank = orthocomplement(basis)
    assert rank < 5
    assert comp.shape[0] == 8 - rank
    assert np.max(np.abs(comp @ basis.T)) < 1e-9

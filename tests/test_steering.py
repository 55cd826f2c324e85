import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from qset import (
    CorrelatorRangeError,
    DegenerateThetaError,
    MarginalUnitError,
    QubitRealization,
    SymmetryElement,
    apply_symmetry,
    born_point,
    full_alternation_check,
    modified_angles,
    sample_realization,
    steered_correlators,
    steered_table,
)
from qset.behavior import Behavior
from qset.realization import modified_angles_raw

from conftest import PI8_EDGE

PI = math.pi
SQ2 = math.sqrt(2.0)


def mp_modified_angle(theta, a, alpha):
    """High-precision oracle for 2 atan(tan(a/2) tan(theta)^alpha)."""
    with mpmath.workdps(50):
        val = 2 * mpmath.atan(mpmath.tan(mpmath.mpf(a) / 2)
                              * mpmath.tan(mpmath.mpf(theta)) ** alpha)
        return float(val)


def party_swapped(r: QubitRealization) -> QubitRealization:
    """The realization with Alice's and Bob's angles exchanged."""
    return QubitRealization(r.theta, r.b, r.a)


def test_steer_vector_fixed_points():
    # the steering image of one angle: the alpha = +1 row of modified_angles_raw
    assert modified_angles_raw(PI / 4, 1.234)[0] == pytest.approx(1.234, abs=1e-14)
    assert modified_angles_raw(0.3, 0.0)[0] == 0.0


def test_steer_vector_high_precision_value():
    got = modified_angles_raw(PI / 8, PI / 2)[0]
    assert got == pytest.approx(PI / 4, abs=1e-14)
    assert got == pytest.approx(mp_modified_angle(PI / 8, PI / 2, +1), abs=1e-14)


def test_modified_angles_pi8_edge():
    at = modified_angles(PI8_EDGE)
    assert np.allclose(at[:, 0], 0.0, atol=1e-15)
    assert at[0, 1] == pytest.approx(PI / 4, abs=1e-14)
    assert at[1, 1] == pytest.approx(3 * PI / 4, abs=1e-14)
    for alpha, ai in ((1, 0), (-1, 1)):
        for x in range(2):
            assert at[ai, x] == pytest.approx(
                mp_modified_angle(PI8_EDGE.theta, PI8_EDGE.a[x], alpha), abs=1e-13)


def test_modified_angles_maximally_entangled_identity():
    r = QubitRealization(PI / 4, (0.37, 2.11), (0.9, 1.4))
    at = modified_angles(r)
    assert np.allclose(at[0], r.a, atol=1e-14)
    assert np.allclose(at[1], r.a, atol=1e-14)


def test_modified_angles_degenerate_theta():
    with pytest.raises(DegenerateThetaError):
        modified_angles(QubitRealization(0.0, (0.3, 1.0), (0.4, 2.0)))
    with pytest.raises(DegenerateThetaError):
        modified_angles(QubitRealization(PI / 2, (0.3, 1.0), (0.4, 2.0)))


def test_modified_angle_ordering_small_theta():
    rng = np.random.default_rng(1)
    for _ in range(300):
        theta = rng.uniform(0.02, PI / 4)
        a = rng.uniform(0.0, PI)
        at = modified_angles(QubitRealization(theta, (a, a), (0.5, 1.0)))
        assert -1e-12 <= at[0, 0] <= a + 1e-12
        assert a - 1e-12 <= at[1, 0] <= PI + 1e-12


def test_steered_correlators_pi8_edge():
    sc = steered_correlators(born_point(PI8_EDGE))
    assert sc.c[0, 0, 0] == pytest.approx(SQ2 / 2, abs=1e-14)
    # cross-check against cos(atilde - b)
    at = modified_angles(PI8_EDGE)
    for ai in range(2):
        for x in range(2):
            for y in range(2):
                assert sc.c[ai, x, y] == pytest.approx(
                    math.cos(at[ai, x] - PI8_EDGE.b[y]), abs=1e-12)


def test_steered_correlators_zero_marginals():
    p = Behavior(marg_a=(0, 0), marg_b=(0, 0), corr=((0.5, -0.2), (0.1, 0.8)))
    sc = steered_correlators(p)
    for ai in range(2):
        assert np.allclose(sc.c[ai], p.vector[4:].reshape(2, 2))


def test_steered_correlators_algebraic_unit():
    m = 0.37
    p = Behavior(marg_a=(m, 0), marg_b=(m, 0), corr=((1.0, 0.1), (0.0, 0.2)))
    sc = steered_correlators(p)
    assert sc.c[1, 0, 0] == pytest.approx(1.0, abs=1e-14)


def test_steered_correlators_marginal_unit_error():
    p = Behavior(marg_a=(1.0, 0.0), marg_b=(0, 0), corr=((0, 0), (0, 0)))
    with pytest.raises(MarginalUnitError):
        steered_correlators(p)


def test_steered_correlators_range_error():
    p = Behavior(marg_a=(0.9, 0.0), marg_b=(0.5, 0), corr=((0.9, 0), (0, 0)))
    # c[-][0][0] = (0.9 - 0.5)/(1 - 0.9) = 4.0: invalid input, must raise
    with pytest.raises(CorrelatorRangeError):
        steered_correlators(p)


@given(theta=st.floats(0.02, PI / 2 - 0.02), a=st.floats(-PI + 1e-6, PI - 1e-6))
def test_involution(theta, a):
    image = modified_angles_raw(theta, a)[0]
    assert modified_angles_raw(PI / 2 - theta, image)[0] == pytest.approx(a, abs=1e-12)


def test_consistency_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(500):
        theta = rng.uniform(0.02, PI / 2 - 0.02)
        r = QubitRealization(theta, tuple(rng.uniform(0, PI, 2)),
                             tuple(rng.uniform(0, PI, 2)))
        table = steered_table(r)
        for ai in range(2):
            for x in range(2):
                for y in range(2):
                    assert table.c[ai, x, y] == pytest.approx(
                        math.cos(table.atilde[ai, x] - r.b[y]), abs=1e-10)


def test_monotonicity_mod_pi():
    rng = np.random.default_rng(4)
    for _ in range(300):
        theta = rng.uniform(0.02, PI / 2 - 0.02)
        a1, a2 = np.sort(rng.uniform(0, PI - 1e-9, 2))
        for ai in (0, 1):
            at = modified_angles(QubitRealization(theta, (a1, a2), (0.5, 1.0)))
            assert np.mod(at[ai, 0], PI) <= np.mod(at[ai, 1], PI) + 1e-12


def test_double_application_opposite_signs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        theta = rng.uniform(0.05, PI / 2 - 0.05)
        a = rng.uniform(0.0, PI - 1e-9)
        plus = modified_angles(QubitRealization(theta, (a, a), (0.5, 1.0)))[0, 0]
        back = modified_angles(QubitRealization(theta, (plus, plus), (0.5, 1.0)))[1, 0]
        assert back == pytest.approx(a, abs=1e-12)


def _bob_side_alternation(r: QubitRealization, strict: bool) -> bool:
    """0 <= a0 <= [btilde_0^s]_pi <= a1 <= [btilde_1^t]_pi < pi for all s,t."""
    bt = np.mod(modified_angles(party_swapped(r)), PI)
    eps = 1e-8
    inner = [bt[0, 0] - r.a[0], bt[1, 0] - r.a[0],
             r.a[1] - bt[0, 0], r.a[1] - bt[1, 0],
             bt[0, 1] - r.a[1], bt[1, 1] - r.a[1]]
    if strict:
        return min(inner) > eps
    return min(inner) >= -eps


def test_alice_bob_alternation_equivalence_pi8_edge():
    ok_a, _ = full_alternation_check(PI8_EDGE, strict=False)
    assert ok_a == _bob_side_alternation(PI8_EDGE, strict=False)


def test_alice_bob_alternation_equivalence_maximal():
    r = QubitRealization(PI / 4, (0, PI / 2), (PI / 4, 3 * PI / 4))
    assert np.allclose(modified_angles(party_swapped(r)), np.array([r.b, r.b]), atol=1e-14)
    assert full_alternation_check(r, strict=True)[0]
    assert _bob_side_alternation(r, strict=True)


def test_alice_bob_alternation_equivalence_sweep():
    rng = np.random.default_rng(6)
    agree = 0
    for k in range(1000):
        r = sample_realization(rng, {"canonical"}, theta_range=(0.02, PI / 4))
        alice, _ = full_alternation_check(r, strict=False)
        bob = _bob_side_alternation(r, strict=False)
        assert alice == bob
        agree += 1
    assert agree == 1000


def test_swap_parties_realization_roundtrip():
    r = QubitRealization(0.4, (0.1, 1.0), (0.2, 2.0))
    assert party_swapped(party_swapped(r)) == r
    swap = SymmetryElement(party_swap=True)
    assert np.allclose(born_point(party_swapped(r)).vector,
                       apply_symmetry(swap, born_point(r)).vector, rtol=0, atol=1e-15)


def test_bob_steered_correlators_definition():
    p = born_point(PI8_EDGE)
    v = p.vector
    sc = steered_correlators(apply_symmetry(SymmetryElement(party_swap=True), p))
    for bi, beta in enumerate((1.0, -1.0)):
        for y in range(2):
            for x in range(2):
                expected = (v[4 + 2 * x + y] + beta * v[x]) / (1 + beta * v[2 + y])
                assert sc.c[bi, y, x] == pytest.approx(expected, abs=1e-14)


def test_steered_table_degenerate_theta():
    with pytest.raises(DegenerateThetaError):
        steered_table(QubitRealization(0.0, (0.1, 1.0), (0.2, 2.0)))

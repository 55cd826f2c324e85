import math

import numpy as np
import pytest

from qset import (
    Behavior,
    InvalidBehaviorError,
    LocalInputError,
    NonzeroMarginalsError,
    QubitRealization,
    Verdict,
    apply_symmetry,
    born_point,
    classify,
    full_alternation_check,
    is_local,
    selftest_conditions_check,
    masanes_check,
    necessary_conditions_check,
    sample_realization,
    steered_correlators,
    extremality_criterion_check,
)
from qset.extremality import SignPattern, pattern_to_reference_relabeling
from qset.symmetry import group_elements

from conftest import NONALT, PI8_EDGE, TSIRELSON, fails_necessary_mixture

PI = math.pi
SQ2 = math.sqrt(2.0)

PR_BOX = Behavior(marg_a=(0, 0), marg_b=(0, 0), corr=((1, 1), (1, -1)))


def test_necessary_conditions_tsirelson_reduces_to_masanes():
    pt = born_point(TSIRELSON)
    ok, residuals = necessary_conditions_check(pt)
    assert ok
    # zero marginals: the four (s,t) blocks coincide; the saturated Masanes
    # expression appears once per block on each party's side (4 + 4 slots)
    equalities = int(np.sum(np.abs(residuals) < 1e-9))
    assert equalities == 4
    _, residuals_bob = necessary_conditions_check(pt, side="bob")
    assert equalities + int(np.sum(np.abs(residuals_bob) < 1e-9)) == 8
    assert masanes_check(pt)


def test_necessary_conditions_pr_box_fails():
    ok, residuals = necessary_conditions_check(PR_BOX)
    assert not ok
    assert residuals.min() == pytest.approx(-PI, abs=1e-12)  # 2pi exceeds pi by pi


def test_necessary_conditions_pi8_edge_saturation():
    ok, residuals = necessary_conditions_check(born_point(PI8_EDGE))
    assert ok
    # the reference equality family saturates one bound per (s,t) block
    blocks = residuals.reshape(4, 4, 2)
    for k in range(4):
        assert np.min(np.abs(blocks[k])) < 1e-9


def test_necessary_conditions_bob_side():
    ok, _ = necessary_conditions_check(born_point(PI8_EDGE), side="bob")
    assert ok
    with pytest.raises(ValueError):
        necessary_conditions_check(born_point(PI8_EDGE), side="charlie")


def test_necessary_conditions_random_realizations_necessity():
    rng = np.random.default_rng(10)
    for _ in range(400):
        theta = rng.uniform(0.02, PI / 2 - 0.02)
        r = QubitRealization(theta, tuple(rng.uniform(0, PI, 2)),
                             tuple(rng.uniform(0, PI, 2)))
        p = born_point(r)
        assert necessary_conditions_check(p, "alice")[0]
        assert necessary_conditions_check(p, "bob")[0]


def test_masanes_examples():
    assert not masanes_check(PR_BOX)
    assert masanes_check(Behavior.from_vector(np.zeros(8)))
    with pytest.raises(NonzeroMarginalsError):
        masanes_check(born_point(PI8_EDGE))


def test_necessary_conditions_equals_masanes_on_zero_marginals():
    rng = np.random.default_rng(11)
    for _ in range(200):
        corr = rng.uniform(-1, 1, 4)
        p = Behavior.from_vector(np.concatenate([np.zeros(4), corr]))
        try:
            m = masanes_check(p)
        except Exception:
            continue
        assert necessary_conditions_check(p)[0] == m


def test_selftest_conditions_pi8_edge_terms():
    p = born_point(PI8_EDGE)
    c = steered_correlators(p).c
    # (s,t) = (+,+): asin terms are pi/4, pi/2, -(-pi/4), 0
    terms = (math.asin(c[0, 0, 0]), math.asin(c[0, 1, 0]),
             math.asin(c[0, 0, 1]), math.asin(c[0, 1, 1]))
    assert terms[0] == pytest.approx(PI / 4, abs=1e-12)
    assert terms[1] == pytest.approx(PI / 2, abs=1e-12)
    assert terms[2] == pytest.approx(-PI / 4, abs=1e-12)
    assert terms[3] == pytest.approx(0.0, abs=1e-12)
    ok, residuals = selftest_conditions_check(p)
    assert ok
    assert np.max(np.abs(residuals)) < 1e-12


def test_selftest_conditions_tsirelson():
    ok, residuals = selftest_conditions_check(born_point(TSIRELSON))
    assert ok
    assert np.allclose(residuals, 0.0, atol=1e-12)


def test_selftest_conditions_nonalternating_false():
    ok, residuals = selftest_conditions_check(born_point(NONALT))
    assert not ok
    assert np.max(np.abs(residuals)) > 1e-3


def test_selftest_conditions_local_raises():
    with pytest.raises(LocalInputError):
        selftest_conditions_check(Behavior.from_vector(np.zeros(8)))


def test_selftest_conditions_dependency_identity():
    # v(s,t) = f(s) + g(t), so v(++) - v(+-) - v(-+) + v(--) = 0 identically
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 200:
        theta = rng.uniform(0.05, PI / 2 - 0.05)
        r = QubitRealization(theta, tuple(rng.uniform(0, PI, 2)),
                             tuple(rng.uniform(0, PI, 2)))
        p = born_point(r)
        if is_local(p):
            continue
        _, v = selftest_conditions_check(p)
        assert abs(v[0] - v[1] - v[2] + v[3]) < 1e-10
        checked += 1


def test_extremality_criterion_pi8_edge_pattern():
    ok, pattern = extremality_criterion_check(born_point(PI8_EDGE))
    assert ok
    assert pattern is not None
    assert int(np.prod(pattern.flat)) == -1
    # the reference placement (minus on the (x=0, y=1) slot) is among the valid ones
    c = steered_correlators(born_point(PI8_EDGE)).c
    asin = np.arcsin(np.clip(c, -1, 1))
    for s, t in ((0, 0), (0, 1), (1, 0), (1, 1)):
        val = asin[s, 0, 0] - asin[s, 0, 1] + asin[t, 1, 0] + asin[t, 1, 1]
        assert val == pytest.approx(PI, abs=1e-10)


def test_extremality_criterion_midpoint_fails():
    p1 = born_point(QubitRealization(0.5, (0.2, 1.7), (0.8, 2.4)))
    p2 = born_point(QubitRealization(0.6, (0.3, 1.9), (0.9, 2.6)))
    mid = Behavior.from_vector(0.5 * (p1.vector + p2.vector))
    if not is_local(mid):
        ok, _ = extremality_criterion_check(mid)
        assert not ok


def test_extremality_criterion_pr_box_fails():
    ok, pattern = extremality_criterion_check(PR_BOX)
    assert not ok
    assert pattern is None


def test_pattern_relabeling_maps_to_reference():
    rng = np.random.default_rng(13)
    for _ in range(40):
        r = sample_realization(rng, {"fully-alternating"}, theta_range=(0.05, PI / 4))
        p = born_point(r)
        if is_local(p):
            continue
        for g in group_elements()[::7]:
            q = apply_symmetry(g, p)
            ok, pattern = extremality_criterion_check(q)
            assert ok
            fix = pattern_to_reference_relabeling(pattern)
            ok_ref, _ = selftest_conditions_check(apply_symmetry(fix, q))
            assert ok_ref


def test_sign_pattern_validation():
    with pytest.raises(ValueError):
        SignPattern(eps=((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        SignPattern(eps=((2, -1), (1, 1)))


def test_full_alternation_examples():
    ok, margins = full_alternation_check(PI8_EDGE, strict=False)
    assert ok
    assert int(np.sum(np.abs(margins) < 1e-12)) == 2  # two exact-zero margins
    assert not full_alternation_check(PI8_EDGE, strict=True)[0]

    assert full_alternation_check(TSIRELSON, strict=True)[0]

    r16 = QubitRealization(PI / 16, (0, PI / 2), (PI / 4, 3 * PI / 4))
    ok16, margins16 = full_alternation_check(r16, strict=False)
    assert not ok16
    # atilde_1^+ = pi/8 < b0 = pi/4 is the broken link
    assert margins16[2] == pytest.approx(PI / 8 - PI / 4, abs=1e-12)


def test_full_alternation_requires_canonical():
    with pytest.raises(ValueError):
        full_alternation_check(QubitRealization(0.3, (2.0, 0.1), (0.5, 1.0)), strict=False)


def test_classify_examples():
    assert classify(born_point(TSIRELSON)).verdict is Verdict.EXTREMAL_EXPOSED
    assert classify(born_point(PI8_EDGE)).verdict is Verdict.EXTREMAL_NON_EXPOSED
    res = classify(born_point(NONALT))
    assert res.verdict is Verdict.NON_EXTREMAL_IN_Q
    assert res.details["caveat"] == "membership in Q not certified"


def test_classify_local_cases():
    assert classify(Behavior.from_vector(np.zeros(8))).verdict is Verdict.LOCAL
    # theta = pi/16 in the scan family is local (max CHSH = sqrt2 (1 + sin pi/8) < 2)
    r16 = QubitRealization(PI / 16, (0, PI / 2), (PI / 4, 3 * PI / 4))
    assert classify(born_point(r16)).verdict is Verdict.LOCAL


def test_classify_pr_box_fails_necessary():
    assert classify(PR_BOX).verdict is Verdict.FAILS_NECESSARY_Q2_PURE


def test_classify_fails_necessary_mixture_has_caveat():
    # a point of Q (mixture of two qubit behaviors) outside the pure-qubit
    # necessary conditions: the verdict must not read as non-membership
    res = classify(fails_necessary_mixture())
    assert res.verdict is Verdict.FAILS_NECESSARY_Q2_PURE
    assert not res.details["necessary_alice"] and not res.details["necessary_bob"]
    assert res.details["caveat"] == "membership in Q not certified"


def test_classify_rejects_invalid():
    with pytest.raises(InvalidBehaviorError):
        classify(Behavior.from_vector([0, 0, 0, 0, 1.5, 0, 0, 0]))


def test_classify_orbit_invariance():
    for base in (PI8_EDGE, TSIRELSON, NONALT):
        p = born_point(base)
        ref = classify(p).verdict
        for g in group_elements()[::19]:
            assert classify(apply_symmetry(g, p)).verdict is ref


def test_unit_steered_correlator_implies_non_exposed():
    # extremal behaviors with a +-1 steered correlator sit at equality margins
    rng = np.random.default_rng(14)
    found = 0
    while found < 10:
        r = sample_realization(rng, {"fully-alternating"}, theta_range=(0.1, PI / 4))
        p = born_point(r)
        if is_local(p):
            continue
        c = steered_correlators(p).c
        if np.max(np.abs(c)) >= 1.0 - 1e-12:
            assert classify(p).verdict is Verdict.EXTREMAL_NON_EXPOSED
            found += 1
        else:
            strict = full_alternation_check(r, strict=True)[0]
            expected = Verdict.EXTREMAL_EXPOSED if strict else Verdict.EXTREMAL_NON_EXPOSED
            assert classify(p).verdict is expected
            found += 1


def test_full_alternation_domain_of_validity():
    # literal chain == extremality for theta in (pi/4, pi/2); beyond pi/2 only
    # the sector-canonicalized image is normative
    from qset import canonicalize, extremality_criterion_check

    rng = np.random.default_rng(50)
    checked = 0
    while checked < 150:
        r = sample_realization(rng, {"canonical"}, theta_range=(PI / 4 + 0.01, PI / 2 - 0.01))
        p = born_point(r)
        if is_local(p):
            continue
        checked += 1
        assert full_alternation_check(r, strict=False)[0] == extremality_criterion_check(p)[0]
    checked = 0
    while checked < 150:
        r = sample_realization(rng, {"canonical"}, theta_range=(PI / 2 + 0.01, PI - 0.01))
        p = born_point(r)
        if is_local(p):
            continue
        checked += 1
        sector_form, _ = canonicalize(r, sector=True)
        assert full_alternation_check(sector_form, strict=False)[0] \
            == extremality_criterion_check(p)[0]

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import qset.extremality
import qset.selftest
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
    validate,
)
from qset.behavior import _require_valid
from qset.errors import CorrelatorRangeError, DegenerateThetaError
from qset.steering import steered_many
from qset.extremality import (_REFERENCE, SignPattern, _asin_sums, _criterion_holds,
                              _necessary_slacks, pattern_to_reference_relabeling)
from qset.realization import alternation_margins, born_vector
from qset.tolerances import TOL_CLAMP, TOL_EQ
from qset.symmetry import group_elements

from conftest import (NONALT, PI8_EDGE, PR_BOX, TSIRELSON, classification_bits,
                      fails_necessary_mixture)

sys.path.insert(0, str(Path(__file__).resolve().parent / "data"))
from make_golden import path_of, read_golden  # noqa: E402

PI = math.pi
SQ2 = math.sqrt(2.0)

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


#: Zero-marginal vectors with one bad component: NaN, inf, out of range.
BAD_COMPONENTS = [(0, math.nan), (3, math.nan), (5, math.inf), (6, -math.inf),
                  (0, 1.5), (7, -1.0 - 1e-7)]


@pytest.mark.parametrize("k, x", BAD_COMPONENTS)
def test_checks_reject_invalid_behaviors(k, x):
    v = np.zeros(8)
    v[k] = x
    p = Behavior.from_vector(v)
    with pytest.raises(InvalidBehaviorError) as want:
        classify(p)
    for check in (masanes_check, lambda q: necessary_conditions_check(q, "alice"),
                  lambda q: necessary_conditions_check(q, "bob")):
        with pytest.raises(InvalidBehaviorError) as got:
            check(p)
        assert str(got.value) == str(want.value)


def test_error_messages_print_plain_floats():
    negative = validate(Behavior.from_vector([0.5, 0, 0, 0, -0.75, 0, 0, 0]))
    _, failures = steered_many(np.array([[1.0, 0, 0, 0, 0, 0, 0, 0],
                                         [0.5, 0, 0, 0, 0.9, 0, 0, 0]]))
    messages = negative + [str(exc) for exc in failures.values()]
    assert messages == ["probability p(-1,-1|0,0) = -0.0625 negative",
                        "|<A_x>| = 1.0 >= 1; steered correlators undefined (behavior is local)",
                        "steered correlator exceeds [-1,1] by 0.8; input behavior invalid"]


def test_classify_steers_both_parties_in_one_pass(monkeypatch):
    calls = {"steered_many": 0, "_asin_sums": 0, "reconstruct_rows": 0}
    for module, name in ((qset.extremality, "steered_many"), (qset.extremality, "_asin_sums"),
                         (qset.selftest, "reconstruct_rows")):
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    p = born_point(NONALT)
    res = classify(p)
    assert res.verdict is Verdict.NON_EXTREMAL_IN_Q
    # one table of asin sums serves the residuals, the criterion and both
    # parties' necessary conditions
    assert calls == {"steered_many": 1, "_asin_sums": 1, "reconstruct_rows": 0}
    # the scalar checks read the batch classify kept
    assert not selftest_conditions_check(p)[0]
    assert extremality_criterion_check(p) == (False, None)
    assert calls == {"steered_many": 1, "_asin_sums": 1, "reconstruct_rows": 0}

    a = 0.7071067811865476
    cases = ((born_point(TSIRELSON), (1, -1, 1, 1), 1), (born_point(PI8_EDGE), (1, -1, 1, 1), 1),
             (Behavior.from_vector([0, 0, 0, 0, -a, -a, -a, a]), (-1, -1, -1, 1), 2))
    for p, pattern, sums in cases:
        cold = classification_bits(classify(p))
        qset.extremality._kept.clear()
        calls.update(dict.fromkeys(calls, 0))
        # the first check builds the complete batch, one reconstruction
        # included: a reference-pattern row keeps its residuals, and only
        # another pattern's relabeled steered table needs new sums
        assert selftest_conditions_check(p)[0] is (sums == 1)
        assert extremality_criterion_check(p)[1].flat == pattern
        assert calls == {"steered_many": 1, "_asin_sums": sums, "reconstruct_rows": 1}
        # classify then reads the kept batch
        assert classification_bits(classify(p)) == cold
        assert calls == {"steered_many": 1, "_asin_sums": sums, "reconstruct_rows": 1}


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
    # at the TOL_EQ edge: one single-minus sum is pi + e, e around TOL_EQ
    a = PI / 4
    seen = set()
    for k in range(-50, 50):
        c11 = -math.sin(a + TOL_EQ + k * 1e-13)
        p = Behavior.from_vector([0, 0, 0, 0, math.sin(a), math.sin(a), math.sin(a), c11])
        m = masanes_check(p)
        assert necessary_conditions_check(p)[0] == m
        seen.add(m)
    assert seen == {True, False}


# --- oracles for _asin_sums: each check gathers and sums its own asin terms ----

#: Single-minus sign rows over (a00, a10, a01, a11).
ORACLE_SIGN_ROWS = ((-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1))
ORACLE_PATTERNS = np.array(qset.extremality.SIGN_PATTERNS, dtype=float)[:, :, None]


def oracle_sector_terms(asin):
    """asin c[s,0,0], asin c[s,0,1], asin c[t,1,0], asin c[t,1,1], each (N, 4)."""
    s_idx, t_idx = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    return (asin[:, s_idx, 0, 0], asin[:, s_idx, 0, 1],
            asin[:, t_idx, 1, 0], asin[:, t_idx, 1, 1])


def oracle_necessary_slacks(terms):
    a00, a01, a10, a11 = (t[:, :, None] for t in terms)
    r = np.array(ORACLE_SIGN_ROWS, dtype=float)
    val = (r[:, 0] * a00 + r[:, 1] * a10 + r[:, 2] * a01 + r[:, 3] * a11).reshape(-1, 16)
    return np.stack([PI - val, val + PI], axis=-1)


def oracle_selftest_residuals(terms):
    a00, a01, a10, a11 = terms
    return a00 + a10 - a01 + a11 - PI


def oracle_criterion_holds(terms):
    a00, a01, a10, a11 = (t[:, None, :] for t in terms)
    e = ORACLE_PATTERNS
    val = e[:, 0] * a00 + e[:, 2] * a10 + e[:, 1] * a01 + e[:, 3] * a11
    return ~(np.abs(val - PI) > TOL_EQ).any(axis=2)


def oracle_masanes_check(p: Behavior) -> bool:
    _require_valid(p)
    v = p.vector
    if np.max(np.abs(v[:4])) > TOL_EQ:
        raise NonzeroMarginalsError(f"marginals {v[:4].tolist()!r} are not all zero")
    x = v[4:].reshape(2, 2)
    over = np.max(np.abs(x)) - 1.0
    if over > TOL_CLAMP:
        raise CorrelatorRangeError(f"asin argument exceeds [-1,1] by {float(over)!r}")
    asin = np.arcsin(np.clip(x, -1.0, 1.0))
    terms = np.array([asin[0, 0], asin[1, 0], asin[0, 1], asin[1, 1]])
    vals = np.array([np.dot(row, terms) for row in ORACLE_SIGN_ROWS])
    return bool(np.max(np.abs(vals)) <= PI + TOL_EQ)


def asin_edge_tables(rng, n: int) -> np.ndarray:
    """(n, 2, 2, 2) asin tables whose sign-pattern sum sits on pi or -pi, or
    TOL_EQ off it, in every sector, up to a few ulps: both alpha halves
    equal, and a00 solved from the other three terms."""
    half = rng.uniform(-PI / 2, PI / 2, (n, 4))
    e = ORACLE_PATTERNS[rng.integers(8, size=n), :, 0]          # (e00, e01, e10, e11)
    target = rng.choice([-PI, PI], n) + rng.choice([-TOL_EQ, 0.0, TOL_EQ], n)
    half[:, 0] = e[:, 0] * (target - e[:, 2] * half[:, 2] - e[:, 1] * half[:, 1]
                            - e[:, 3] * half[:, 3])
    ulps = rng.integers(-3, 4, n)
    half[:, 0] = half[:, 0] + ulps * np.spacing(half[:, 0])
    half = half[np.abs(half[:, 0]) <= PI / 2]
    return np.repeat(half.reshape(-1, 1, 2, 2), 2, axis=1)


def test_asin_sums_match_the_per_check_sums():
    rng = np.random.default_rng(20)
    uniform = rng.uniform(-PI / 2, PI / 2, (40000, 2, 2, 2))
    # correlators on a 0.1 grid: asin(+-1) = +-pi/2 puts sums exactly on +-pi
    grid = np.arcsin(np.round(rng.uniform(-1, 1, (40000, 2, 2, 2)), 1))
    edge = asin_edge_tables(rng, 40000)
    for asin in (uniform, grid, edge):
        terms, sums = oracle_sector_terms(asin), _asin_sums(asin)
        assert np.array_equal(sums[:, :, 2] - PI, oracle_selftest_residuals(terms))
        assert np.array_equal(_criterion_holds(sums), oracle_criterion_holds(terms))
        assert np.array_equal(_necessary_slacks(sums), oracle_necessary_slacks(terms))
    # every pattern is met somewhere, and on the grid some sums are exactly +-pi
    assert oracle_criterion_holds(oracle_sector_terms(edge)).any(axis=0).all()
    assert (np.abs(_asin_sums(grid)) == PI).any()


def masanes_points(rng, n: int) -> list[np.ndarray]:
    """Zero-marginal vectors around Masanes' bound: uniform correlators, and
    correlators bisected along seeded directions onto the largest |sum|
    = pi + TOL_EQ (the last point within and the first beyond).  Marginals
    are 0, within 1e-8 or just beyond; some correlators pass 1 by up to
    2e-9, on both sides of TOL_CLAMP."""
    def worst(corr):
        asin = np.arcsin(np.clip(corr, -1.0, 1.0))
        terms = asin[:, [0, 2, 1, 3]]
        return np.abs(terms @ np.array(ORACLE_SIGN_ROWS, dtype=float).T).max(axis=1)

    direction = rng.uniform(-1, 1, (n, 4))
    direction /= np.abs(direction).max(axis=1, keepdims=True)
    lo, hi = np.zeros(n), np.ones(n)
    crossing = worst(direction) > PI + TOL_EQ
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        over = worst(mid[:, None] * direction) > PI + TOL_EQ
        lo, hi = np.where(over, lo, mid), np.where(over, mid, hi)
    corr = np.concatenate([rng.uniform(-1, 1, (n, 4)),
                           (lo[:, None] * direction)[crossing],
                           (hi[:, None] * direction)[crossing]])
    past = rng.random(len(corr)) < 0.05
    corr[past, 0] = np.sign(corr[past, 0]) * (1 + rng.uniform(0, 2e-9, past.sum()))
    marg = np.zeros((len(corr), 4))
    some = rng.random(len(corr)) < 0.5
    marg[some] = rng.uniform(-1e-8, 1e-8, (some.sum(), 4))
    edge = rng.random(len(corr)) < 0.1
    marg[edge, rng.integers(4, size=edge.sum())] = rng.choice(
        [-1e-8, 1e-8, np.nextafter(1e-8, 1), -np.nextafter(1e-8, 1)], edge.sum())
    return [np.concatenate([m, c]) for m, c in zip(marg, corr)]


def test_masanes_check_matches_the_per_check_sums():
    outcomes = set()
    for v in masanes_points(np.random.default_rng(21), 3000):
        p = Behavior.from_vector(v)
        try:
            want = oracle_masanes_check(p)
        except Exception as exc:  # the same error class and message
            with pytest.raises(type(exc)) as got:
                masanes_check(p)
            assert str(got.value) == str(exc)
            outcomes.add(type(exc).__name__)
            continue
        assert masanes_check(p) is want
        outcomes.add(want)
    assert outcomes == {True, False, "NonzeroMarginalsError", "CorrelatorRangeError"}


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


def scalar_rejection(row) -> Exception | None:
    """The error ``full_alternation_check`` raises for one row, decided with
    Python floats and ``math.sin``, or None."""
    theta, a0, a1, b0, b1 = row
    tol = TOL_EQ
    if not (-tol <= theta < PI + tol and -tol <= a0 <= b0 + tol and b0 <= b1 + tol
            and b1 < PI + tol and a0 <= a1 + tol and a1 < PI + tol):
        return ValueError("full_alternation_check requires a canonical realization")
    if abs(math.sin(2 * theta)) < 1e-12:
        return DegenerateThetaError(f"theta={theta!r} is 0 mod pi/2")
    return None


def margin_edge_rows() -> list[list[float]]:
    """Rows one ulp either side of each canonical-range bound, theta exactly
    0 and pi/2, and theta where |sin 2 theta| straddles 1e-12."""
    base = [0.4, 0.2, 1.0, 0.9, 2.0]
    rows = []

    def around(k, bound):
        for x in (np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf)):
            row = list(base)
            row[k] = float(x)
            rows.append(row)

    around(0, -TOL_EQ)
    around(0, PI + TOL_EQ)
    around(1, -TOL_EQ)
    around(1, base[3] + TOL_EQ)     # a0 <= b0 + tol
    around(1, base[2] + TOL_EQ)     # a0 <= a1 + tol
    around(3, base[4] + TOL_EQ)     # b0 <= b1 + tol
    around(4, PI + TOL_EQ)
    around(2, PI + TOL_EQ)
    for theta in (0.0, PI / 2):
        rows.append([theta] + base[1:])
    for centre in (0.0, PI / 2):
        # sin(2 theta) = 1e-12 near 5e-13 from centre; step across it
        for d in np.linspace(4.9e-13, 5.1e-13, 21):
            rows.append([centre + d] + base[1:])
            rows.append([abs(centre - d)] + base[1:])
    return [[float(x) for x in row] for row in rows]


def test_alternation_margins_rejects_rows_as_full_alternation_check():
    rows = margin_edge_rows()
    theta = np.array([r[0] for r in rows])
    assert (np.abs(np.sin(2 * theta)) < 1e-12).any() and (np.abs(np.sin(2 * theta)) >= 1e-12).any()
    margins, errors = alternation_margins(np.array(rows))
    want = {}
    for i, row in enumerate(rows):
        r = QubitRealization(row[0], (row[1], row[2]), (row[3], row[4]))
        try:
            _, row_margins = full_alternation_check(r, strict=False)
        except (ValueError, DegenerateThetaError) as exc:
            want[i] = exc
        else:
            assert np.array_equal(margins[i], row_margins)
        ref = scalar_rejection(row)
        assert (type(ref), str(ref)) == (type(want.get(i)), str(want.get(i)))
        # the scalar form of the canonical range agrees with the array form
        assert r.is_canonical() is (type(ref) is not ValueError)
    assert list(errors) == list(want)
    assert [(type(e), str(e)) for e in errors.values()] == [(type(e), str(e)) for e in want.values()]
    assert {type(e) for e in errors.values()} == {ValueError, DegenerateThetaError}
    assert np.array_equal(np.flatnonzero(np.isnan(margins).all(axis=1)), np.array(list(errors)))
    assert not np.isnan(np.delete(margins, list(errors), axis=0)).any()


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


def reference_criterion_and_worst_residual(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of v: whether the criterion holds with the reference pattern,
    and the largest |self-test residual| (inf where steering fails)."""
    c, failures = steered_many(v)
    sums = _asin_sums(np.arcsin(c))
    worst = np.max(np.abs(sums[:, :, 2] - PI), axis=1)
    worst[list(failures)] = np.inf
    return _criterion_holds(sums)[:, _REFERENCE], worst


def residual_edge_points(seed: int, count: int) -> np.ndarray:
    """Strictly alternating points pushed along seeded correlator directions
    until their largest |self-test residual| crosses TOL_EQ: the last point
    of each bisection within TOL_EQ and the first beyond it, for the
    directions that cross it before steering fails."""
    rng = np.random.default_rng(seed)
    base = np.array([born_point(sample_realization(rng, {"strictly-alternating"})).vector
                     for _ in range(count)])
    step = np.zeros_like(base)
    step[:, 4:] = rng.normal(size=(count, 4))
    step /= np.abs(step).max(axis=1, keepdims=True)
    lo, hi = np.zeros(count), np.full(count, 1e-6)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        over = reference_criterion_and_worst_residual(base + mid[:, None] * step)[1] > TOL_EQ
        lo, hi = np.where(over, lo, mid), np.where(over, mid, hi)
    beyond = base + hi[:, None] * step
    crossed = np.isfinite(reference_criterion_and_worst_residual(beyond)[1])
    return np.concatenate([base + lo[:, None] * step, beyond])[np.tile(crossed, 2)]


def test_reference_criterion_is_the_residual_test():
    _, body = read_golden(path_of("grid"))
    rows = [line.split(",") for line in body.splitlines()[1:]]
    params = np.array([[float(x) for x in r[:5]] for r in rows if r[5] != "Local"])
    edge = residual_edge_points(17, 400)
    worst = reference_criterion_and_worst_residual(edge)[1]
    # both sides of the edge, and points within rounding of it
    assert (worst <= TOL_EQ).sum() == (worst > TOL_EQ).sum() > 300
    assert (np.abs(worst - TOL_EQ) < 1e-15).sum() > 100
    for v in (born_vector(*params.T), edge):
        holds, worst = reference_criterion_and_worst_residual(v)
        assert np.isfinite(worst).all()
        assert np.array_equal(holds, worst <= TOL_EQ)

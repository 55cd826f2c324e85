import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import qset.selftest
from qset import (
    Behavior,
    LocalInputError,
    NotSelfTestingError,
    QsetError,
    QubitRealization,
    Verdict,
    born_point,
    canonicalize,
    classify,
    extremality_criterion_check,
    group_elements,
    apply_symmetry,
    is_local,
    selftest_conditions_check,
    reconstruct_realization,
    sample_realization,
    selftest_certificate,
    steered_correlators,
    validate,
)
from qset.behavior import mix
from qset.extremality import _asin_sums, _kept
from qset.realization import born_vector
from qset.selftest import _gauge_placement, _solve_gauge, reconstruct_rows
from qset.symmetry import SymmetryElement
from qset.errors import (DegenerateThetaError, InconsistentGaugeError, InvalidBehaviorError,
                         NoThetaBranchError)
from qset.tolerances import TOL_EQ, TOL_RECON

from conftest import (NONALT, PI8_EDGE, PR_BOX, STEERING_FAILS, TSIRELSON,
                      classification_bits)

sys.path.insert(0, str(Path(__file__).resolve().parent / "data"))
from make_golden import path_of, read_golden  # noqa: E402

PI = math.pi


def params_close(r1: QubitRealization, r2: QubitRealization, tol: float) -> bool:
    return np.max(np.abs(np.array(r1.params()) - np.array(r2.params()))) <= tol


def test_reconstruct_pi8_edge():
    rec, trace = reconstruct_realization(born_point(PI8_EDGE))
    canon, _ = canonicalize(PI8_EDGE)
    assert params_close(rec, canon, 1e-12)
    assert trace.roundtrip_error < 1e-12
    assert trace.theta == pytest.approx(PI / 8, abs=1e-12)


def test_reconstruct_tsirelson():
    rec, trace = reconstruct_realization(born_point(TSIRELSON))
    canon, _ = canonicalize(TSIRELSON)
    assert params_close(rec, canon, 1e-12)
    assert trace.theta == pytest.approx(PI / 4, abs=1e-12)
    # at theta = pi/4 the two theta branches coincide at pi/4 and 3pi/4
    assert trace.theta_branches[0] == pytest.approx(PI / 4)


def test_reconstruct_requires_conditions():
    with pytest.raises(NotSelfTestingError):
        reconstruct_realization(born_point(NONALT))


def test_reconstruct_local_input():
    with pytest.raises(LocalInputError):
        reconstruct_realization(Behavior.from_vector(np.zeros(8)))


def test_trace_gauge_ordering():
    # with the reference equality placement, the gauge (B1 at 0) orders the
    # steered projectors as 0 <= w[., 1] <= bgauge <= w[., 0] <= pi
    for base in (PI8_EDGE, TSIRELSON):
        _, trace = reconstruct_realization(born_point(base))
        w = trace.w
        assert -1e-12 <= min(w[0, 1], w[1, 1])
        assert max(w[0, 1], w[1, 1]) <= trace.bgauge + 1e-12
        assert trace.bgauge <= min(w[0, 0], w[1, 0]) + 1e-12
        assert max(w[0, 0], w[1, 0]) <= PI + 1e-12


def test_roundtrip_strictly_alternating_sweep():
    rng = np.random.default_rng(21)
    for _ in range(200):
        r = sample_realization(rng, {"strictly-alternating"})
        p = born_point(r)
        rec, trace = reconstruct_realization(p)
        canon, _ = canonicalize(r)
        assert params_close(rec, canon, TOL_RECON)
        assert trace.roundtrip_error < 1e-10
        assert trace.gauge_residual < 1e-10
        # exactly one branch lies in (0, pi/4]
        b1, b2 = trace.theta_branches
        assert (0 < b1 <= PI / 4 + 1e-12) != (0 < b2 <= PI / 4 + 1e-12) or b1 == pytest.approx(PI / 4)


def test_roundtrip_after_relabeling():
    from qset.symmetry import apply_symmetry, group_elements

    p = born_point(sample_realization(77, {"strictly-alternating"}))
    base_rec, _ = reconstruct_realization(p)
    for g in group_elements()[::23]:
        q = apply_symmetry(g, p)
        ok, _ = selftest_conditions_check(q) if not _local_guard(q) else (False, None)
        if not ok:
            continue  # relabeled image may violate the reference placement
        rec, _ = reconstruct_realization(q)
        assert params_close(rec, base_rec, 1e-9)


def _local_guard(p) -> bool:
    from qset import is_local

    return is_local(p)


def test_certificate_pi8_edge():
    cert = selftest_certificate(born_point(PI8_EDGE))
    assert cert.max_residual < 1e-8
    assert cert.roundtrip_error < 1e-10
    doc = cert.to_json_dict()
    assert doc["realization"]["theta"] == pytest.approx(PI / 8)


def test_certificate_noisy_input_rejected():
    # mix toward the uniform point: stays a valid behavior, breaks the equalities
    noisy = mix([born_point(PI8_EDGE), Behavior.from_vector(np.zeros(8))], [0.999, 0.001])
    with pytest.raises(NotSelfTestingError) as exc_info:
        selftest_certificate(noisy)
    res = exc_info.value.residuals
    assert res is not None
    # PI8_EDGE sits at unit steered correlators, so asin amplifies the 1e-3
    # perturbation to the sqrt scale
    assert 1e-5 < np.max(np.abs(res)) < 0.2


def test_certificate_local_deterministic():
    with pytest.raises(LocalInputError):
        selftest_certificate(Behavior.from_vector(np.ones(8)))


# --- reconstruction dead ends on crafted steered tables ----------------------


def gauge_table(w, bgauge: float) -> list:
    """Steered table [alpha][x][y] whose gauge placement puts the projector of
    (alpha, x) at angle w[alpha][x], B1 at 0 and B0 at bgauge."""
    return [[[math.cos(angle - bgauge), math.cos(angle)] for angle in row] for row in w]


def mid_angle_table(s: tuple[float, float], u: float, v: float) -> list:
    """Gauge table with mid-angles s_x = (w+x + w-x)/2 whose theta solve reads
    (u, v) = cos(2 theta) (cos 2gamma, sin 2gamma)."""
    d = [math.asin(math.sin(sx) * u - math.cos(sx) * v) for sx in s]
    return gauge_table([[s[0] - d[0], s[1] - d[1]], [s[0] + d[0], s[1] + d[1]]], 2.0)


def test_gauge_placement_refuses_coinciding_bob_measurements():
    # both bgauge candidates are 0, so no placement separates B0 from B1
    with pytest.raises(InconsistentGaugeError,
                       match="^Bob's two measurements coincide on the circle$"):
        _gauge_placement(gauge_table([[0.0, 0.0], [0.0, 0.0]], 0.0))


def test_solve_gauge_degenerate_mid_angles():
    # both Alice inputs steer to mid-angle 0.7: only a zero pair collapse,
    # the maximally entangled signature, is consistent
    with pytest.raises(InconsistentGaugeError, match="^degenerate gauge mid-angles with a "
                                                     "non-maximally-entangled signature$"):
        _solve_gauge(gauge_table([[0.3, 0.3], [1.1, 1.1]], 2.0))
    raw, gauge = _solve_gauge(gauge_table([[0.7, 0.7], [0.7, 0.7]], 2.0))
    assert raw[0] == PI / 4 and gauge[4] == 0.0


def test_solve_gauge_without_theta_branch():
    with pytest.raises(NoThetaBranchError,
                       match=r"^\|cos 2theta\| = 1\.5\d* > 1; no branch in \(0, pi/4\]$"):
        _solve_gauge(mid_angle_table((0.2, 0.5), 1.5, 0.0))
    # |cos 2theta| within 1e-7 above 1 is clipped to 1, and theta = 0 is no branch
    with pytest.raises(NoThetaBranchError, match=r"^theta branch 0\.0 outside \(0, pi/4\]$"):
        _solve_gauge(mid_angle_table((0.3, 1.0), 1 + 5e-8, 0.0))


def test_reconstruct_rows_refuses_a_missed_round_trip():
    table = gauge_table([[0.7, 0.7], [0.7, 0.7]], 2.0)
    v = born_vector(*np.array([_solve_gauge(table)[0]]).T)
    v[0, 4] += 1e-5
    rec = reconstruct_rows(v, np.array([table]), np.zeros((1, 4)))
    assert TOL_RECON < rec.roundtrip[0] < 2e-5
    assert isinstance(rec.errors[0], InconsistentGaugeError)
    assert str(rec.errors[0]) == \
        f"reconstructed realization misses the behavior by {float(rec.roundtrip[0])!r}"
    assert np.isnan(rec.canonical[0]).all()


def test_reconstruct_rows_refuses_theta_outside_the_sector():
    # |cos 2theta| = 1 - 2**-53 gives theta = 7.45e-9 <= TOL_EQ: a branch of
    # the solve, but no image of it lies in the sector (TOL_EQ, pi/4]
    table = mid_angle_table((0.2, 1.0), 1 - 2.0 ** -53, 0.0)
    raw = _solve_gauge(table)[0]
    assert 0.0 < raw[0] <= TOL_EQ
    rec = reconstruct_rows(born_vector(*np.array([raw]).T), np.array([table]), np.zeros((1, 4)))
    assert rec.roundtrip[0] <= TOL_RECON
    assert isinstance(rec.errors[0], DegenerateThetaError)
    assert str(rec.errors[0]) == \
        f"no image of theta={raw[0]!r} lies in the requested sector"
    assert rec.win[0] == -1 and np.isnan(rec.canonical[0]).all()


# --- the certificate as a view of the classify batch -------------------------


#: A self-testing point pushed along a seeded direction until its reference
#: residuals sit at TOL_EQ (max 9.99999994e-09): they hold, so the criterion,
#: summed in the same order, holds with the reference pattern, and the
#: reconstruction ``classify`` runs stops in the gauge placement.
RESIDUAL_EDGE = Behavior.from_vector([
    0.3617332804755463, 0.17562647670957088, 0.33610668193952314, -0.34340842455299625,
    0.9309646914071924, -0.9477548160847256, 0.7524385607873183, -0.20475227087807915])


def direct_reconstruction(p: Behavior):
    """The reconstruction of p from p alone, the route the views must match:
    validate, screen and steer p through the scalar API (no classify batch),
    reconstruct it, raise what stops it."""
    violations = validate(p)
    if violations:
        raise InvalidBehaviorError(violations)
    if is_local(p):
        raise LocalInputError("self-test conditions require a nonlocal behavior")
    c = steered_correlators(p).c[None]
    rec = reconstruct_rows(p.vector[None], c, _asin_sums(np.arcsin(c))[:, :, 2] - PI)
    if rec.errors:
        raise rec.errors[0]
    return rec


def bits(*values) -> bytes:
    return b"".join(np.asarray(x, dtype=float).tobytes() for x in values)


def trace_key(trace):
    return (bits(trace.w, trace.bgauge, trace.gamma, trace.gamma_x, trace.theta,
                 trace.theta_branches, trace.gauge_residual, trace.roundtrip_error),
            trace.relabeling)


def certificate_key(cert):
    return (bits(cert.realization.params(), cert.condition_residuals, cert.max_residual,
                 cert.roundtrip_error), trace_key(cert.trace))


def realization_key(pair):
    realization, trace = pair
    return bits(realization.params()), trace_key(trace)


def direct_keys(p: Behavior):
    rec = direct_reconstruction(p)
    residuals, trace = rec.residuals[0], rec.trace(0)
    params = rec.realization(0).params()
    return ((bits(params, residuals, float(np.max(np.abs(residuals))), trace.roundtrip_error),
             trace_key(trace)),
            (bits(params), trace_key(trace)))


def outcome(fn):
    """fn's result, or the class, message and residuals of what it raises."""
    try:
        return fn()
    except QsetError as exc:
        residuals = getattr(exc, "residuals", None)
        return type(exc), str(exc), None if residuals is None else bits(residuals)


def assert_views_match_direct(p: Behavior) -> None:
    """Certificate and realization bit for bit as the direct route gives them,
    or the same exception: computed on their own, read back from the kept
    batch, and read right after ``classify``."""
    direct = outcome(lambda: direct_keys(p))
    want_cert, want_pair = (direct, direct) if isinstance(direct[0], type) else direct
    _kept.clear()
    assert outcome(lambda: certificate_key(selftest_certificate(p))) == want_cert
    assert outcome(lambda: realization_key(reconstruct_realization(p))) == want_pair
    _kept.clear()
    outcome(lambda: classify(p))
    assert outcome(lambda: realization_key(reconstruct_realization(p))) == want_pair
    assert outcome(lambda: certificate_key(selftest_certificate(p))) == want_cert


def test_views_match_direct_route_on_named_points():
    noisy = mix([born_point(PI8_EDGE), Behavior.from_vector(np.zeros(8))], [0.999, 0.001])
    invalid = Behavior.from_vector([0, 0, 0, 0, 1.5, 0, 0, 0])
    points = [born_point(TSIRELSON), born_point(PI8_EDGE), born_point(NONALT), noisy,
              Behavior.from_vector(np.ones(8)), PR_BOX, invalid,
              *(Behavior.from_vector(v) for v in STEERING_FAILS)]
    for p in points:
        assert_views_match_direct(p)


def test_certificate_at_the_residual_edge_agrees_with_classify(monkeypatch):
    assert_views_match_direct(RESIDUAL_EDGE)
    _kept.clear()
    calls = count_reconstructions(monkeypatch)
    res = classify(RESIDUAL_EDGE)
    assert res.verdict is Verdict.INDETERMINATE
    assert res.details["pattern"] == (1, -1, 1, 1)
    assert "InconsistentGaugeError('gauge placement residual" in res.details["error"]
    assert calls == {"reconstruct_rows": 1}
    with pytest.raises(InconsistentGaugeError, match="gauge placement residual"):
        selftest_certificate(RESIDUAL_EDGE)
    assert calls == {"reconstruct_rows": 1}


def test_views_match_direct_route_without_the_reference_shortcut(monkeypatch):
    # no pattern index matches: every certificate reconstructs from the kept table
    monkeypatch.setattr(qset.selftest, "_REFERENCE", -2)
    rng = np.random.default_rng(5)
    for base in (TSIRELSON, PI8_EDGE, sample_realization(rng, {"strictly-alternating"})):
        for g in group_elements():
            assert_views_match_direct(apply_symmetry(g, born_point(base)))


@pytest.mark.parametrize("base", [TSIRELSON, PI8_EDGE], ids=["tsirelson", "pi8_edge"])
def test_views_match_direct_route_on_relabeled_images(base):
    patterns = set()
    for g in group_elements():
        p = apply_symmetry(g, born_point(base))
        assert_views_match_direct(p)
        patterns.add(int(qset.extremality._classified(p).pattern[0]))
    # images whose first criterion pattern is not the reference placement too
    assert len(patterns) > 1


def test_views_match_direct_route_on_acceptance_draws():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        assert_views_match_direct(born_point(sample_realization(rng, {"strictly-alternating"})))


def test_views_match_direct_route_on_golden_grid():
    _, body = read_golden(path_of("grid"))
    rows = [line.split(",") for line in body.splitlines()[1:]]
    params = np.array([[float(x) for x in r[:5]] for r in rows
                       if r[5].startswith("Extremal") or r[5] == "Indeterminate"])
    assert len(params) > 1000
    for v in born_vector(*params.T):
        assert_views_match_direct(Behavior.from_vector(v))


def count_reconstructions(monkeypatch, *stages) -> dict:
    """Count ``reconstruct_rows`` calls, and those of the named functions of
    ``qset.extremality``."""
    calls = dict.fromkeys(("reconstruct_rows", *stages), 0)
    for module, name in [(qset.selftest, "reconstruct_rows")] + [
            (qset.extremality, stage) for stage in stages]:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_certificate_after_classify_reads_the_kept_batch(monkeypatch):
    calls = count_reconstructions(monkeypatch)
    p = born_point(PI8_EDGE)
    assert classify(p).verdict is Verdict.EXTREMAL_NON_EXPOSED
    cert = selftest_certificate(p)
    reconstruct_realization(p)
    assert calls == {"reconstruct_rows": 1}
    assert certificate_key(cert) == direct_keys(p)[0]
    # an image off the reference placement: its own residuals refuse it
    q = apply_symmetry(SymmetryElement(input_swap_a=True), p)
    assert classify(q).verdict is Verdict.EXTREMAL_NON_EXPOSED
    with pytest.raises(NotSelfTestingError):
        selftest_certificate(q)
    assert calls == {"reconstruct_rows": 2}


def test_certificate_refused_by_its_own_residuals_keeps_the_complete_batch(monkeypatch):
    q = apply_symmetry(SymmetryElement(input_swap_a=True), born_point(PI8_EDGE))
    calls = count_reconstructions(monkeypatch, "steered_many", "_asin_sums")
    with pytest.raises(NotSelfTestingError):
        selftest_certificate(q)
    assert int(qset.extremality._classified(q).pattern[0]) == 0
    # building the batch reconstructs q's pattern-0 image; the refused
    # certificate reconstructs nothing more
    assert calls == {"reconstruct_rows": 1, "steered_many": 1, "_asin_sums": 2}
    # classify then reads the kept batch
    assert classify(q).verdict is Verdict.EXTREMAL_NON_EXPOSED
    assert calls == {"reconstruct_rows": 1, "steered_many": 1, "_asin_sums": 2}


#: The scalar views of the kept batch, each with a key of its result.
SCALAR_VIEWS = {
    "classify": lambda p: classification_bits(classify(p)),
    "selftest_conditions_check": lambda p: bits(*selftest_conditions_check(p)),
    "extremality_criterion_check": extremality_criterion_check,
    "selftest_certificate": lambda p: certificate_key(selftest_certificate(p)),
}


def test_scalar_views_agree_in_every_order(monkeypatch):
    a = 0.7071067811865476
    pi8 = born_point(PI8_EDGE)
    points = [born_point(TSIRELSON), pi8, born_point(NONALT),
              apply_symmetry(SymmetryElement(input_swap_a=True), pi8),
              Behavior.from_vector([0, 0, 0, 0, -a, -a, -a, a]), RESIDUAL_EDGE,
              Behavior.from_vector(STEERING_FAILS[0])]
    calls = count_reconstructions(monkeypatch, "steered_many", "_asin_sums")
    for p in points:
        first = None
        for order in itertools.permutations(SCALAR_VIEWS):
            _kept.clear()
            calls.update(dict.fromkeys(calls, 0))
            results = {}
            for name in order:
                results[name] = outcome(lambda: SCALAR_VIEWS[name](p))
                # the kept batch is complete: -1 exactly on the rows where classify raises
                (batch,) = _kept.values()
                assert set((batch.verdict == -1).nonzero()[0].tolist()) == set(batch.errors)
            first = first or (results, dict(calls))
            assert (results, calls) == first, order


def test_other_behavior_in_between_forces_recompute(monkeypatch):
    calls = count_reconstructions(monkeypatch)
    p, q = born_point(PI8_EDGE), born_point(TSIRELSON)
    classify(p)
    classify(q)
    cert = selftest_certificate(p)
    assert calls == {"reconstruct_rows": 3}
    assert certificate_key(cert) == direct_keys(p)[0]


def test_classify_and_its_views_validate_once(monkeypatch):
    calls = []
    original = qset.behavior.validate
    monkeypatch.setattr(qset.behavior, "validate", lambda p: calls.append(p) or original(p))
    p, q = born_point(PI8_EDGE), born_point(TSIRELSON)
    classify(p)
    selftest_certificate(p)
    reconstruct_realization(p)
    selftest_conditions_check(p)
    extremality_criterion_check(p)
    assert calls == [p]
    # a batch of another behavior in between: the next call builds p's again
    classify(q)
    selftest_certificate(p)
    assert calls == [p, q, p]
    # an invalid behavior is never kept, so every call validates and raises
    invalid = Behavior.from_vector([0, 0, 0, 0, 1.5, 0, 0, 0])
    views = (classify, selftest_certificate, reconstruct_realization,
             selftest_conditions_check, extremality_criterion_check)
    for view in views + views:
        with pytest.raises(InvalidBehaviorError,
                           match=r"^component <A0B0> = 1\.5 out of range \[-1, 1\]$"):
            view(invalid)
    assert calls == [p, q, p] + [invalid] * 10


def test_zero_signs_and_int_components_get_their_own_batch():
    v = born_point(TSIRELSON).vector
    plus, minus = v.copy(), v.copy()
    plus[:4], minus[:4] = 0.0, -0.0
    for p in (Behavior.from_vector(plus), Behavior.from_vector(minus)):
        classify(p)
        assert_views_match_direct(p)
    classify(Behavior.from_vector(plus))
    assert list(_kept) == [plus.tobytes()]
    classify(Behavior.from_vector(minus))
    assert list(_kept) == [minus.tobytes()]
    # ints are keyed by their float64 values, not read as raw bytes
    assert classify(PR_BOX).verdict is Verdict.FAILS_NECESSARY_Q2_PURE
    assert classify(Behavior.from_vector(PR_BOX.vector)).verdict \
        is Verdict.FAILS_NECESSARY_Q2_PURE
    assert_views_match_direct(PR_BOX)


def test_mutating_results_leaves_the_kept_batch_alone():
    p = born_point(PI8_EDGE)
    res = classify(p)
    margins, residuals = res.details["alternation_margins"].copy(), \
        res.details["asin_residuals"].copy()
    res.details["alternation_margins"][:] = 7.0
    res.details["asin_residuals"][:] = 7.0
    again = classify(p)
    assert np.array_equal(again.details["alternation_margins"], margins)
    assert np.array_equal(again.details["asin_residuals"], residuals)

    _, residuals = selftest_conditions_check(p)
    kept = residuals.copy()
    residuals[:] = 7.0
    assert np.array_equal(selftest_conditions_check(p)[1], kept)

    cert = selftest_certificate(p)
    want = certificate_key(cert)
    cert.condition_residuals[:] = 7.0
    cert.trace.w[:] = 7.0
    assert certificate_key(selftest_certificate(p)) == want
    _, trace = reconstruct_realization(p)
    trace.w[:] = 7.0
    assert certificate_key(selftest_certificate(p)) == want

    noisy = mix([p, Behavior.from_vector(np.zeros(8))], [0.999, 0.001])
    with pytest.raises(NotSelfTestingError) as first:
        selftest_certificate(noisy)
    kept = first.value.residuals.copy()
    first.value.residuals[:] = 7.0
    with pytest.raises(NotSelfTestingError) as second:
        selftest_certificate(noisy)
    assert np.array_equal(second.value.residuals, kept)

"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance and sweep size is pinned here from the stated criteria;
random sweeps are seeded for reproducibility.
"""

import math
import time

import numpy as np
import pytest

from qset import (
    CHSH,
    Behavior,
    QubitRealization,
    born_point,
    canonicalize,
    bell_max_q2,
    decomposition_search,
    find_witness,
    full_alternation_check,
    is_local,
    selftest_conditions_check,
    local_membership_lp,
    orthocomplement,
    necessary_conditions_check,
    reconstruct_realization,
    sample_realization,
    steered_correlators,
    tangent_basis,
    extremality_criterion_check,
    validate,
)
from qset.realization import born_vector, modified_angles_raw
from qset.tolerances import TOL_RECON
from qset.witness import flatness_deviation

from conftest import random_valid_behavior

PI = math.pi
SQ2 = math.sqrt(2.0)


def report(num: int, ok: bool, msg: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, msg


def test_acceptance_1_tsirelson_reproduction():
    t0 = time.time()
    value, arg = bell_max_q2(CHSH)
    elapsed = time.time() - t0
    err = abs(value - 2 * SQ2)
    canon, _ = canonicalize(arg, sector=True)
    theta_err = abs(canon.theta - PI / 4)
    alternating = full_alternation_check(canon, strict=True)[0]
    ok = err <= 1e-6 and theta_err <= 1e-3 and alternating and elapsed < 30
    report(1, ok, f"bell_max_q2(CHSH) = {value:.9f} (err {err:.2e}), "
                  f"argmax theta = pi/4 + {theta_err:.2e}, alternating={alternating}, "
                  f"{elapsed:.1f}s < 30s")


def test_acceptance_2_necessity_sweep():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    min_slack = np.inf
    for _ in range(10_000):
        r = sample_realization(rng, {"canonical"})
        if abs(math.sin(2 * r.theta)) < 1e-12:
            continue
        p = born_point(r)
        ok_a, res_a = necessary_conditions_check(p, "alice")
        ok_b, res_b = necessary_conditions_check(p, "bob")
        assert ok_a and ok_b
        min_slack = min(min_slack, res_a.min(), res_b.min())
    elapsed = time.time() - t0
    ok = min_slack >= -1e-8 and elapsed < 10
    report(2, ok, f"10^4 realizations, both sides pass; worst slack {min_slack:.2e} "
                  f">= -1e-8, {elapsed:.1f}s < 10s")


def test_acceptance_3_extremality_equivalence_sweep():
    rng = np.random.default_rng(31337)
    t0 = time.time()
    agreements = 0
    total = 10_000
    n = 0
    while n < total:
        r = sample_realization(rng, {"canonical"})
        if abs(math.sin(2 * r.theta)) < 1e-6:
            continue
        p = born_point(r)
        if is_local(p):
            continue
        n += 1
        sector_form, _ = canonicalize(r, sector=True)
        alt, _ = full_alternation_check(sector_form, strict=False)
        ext, _ = extremality_criterion_check(p)
        if alt == ext:
            agreements += 1
    elapsed = time.time() - t0
    ok = agreements == total and elapsed < 60
    report(3, ok, f"equality-criterion vs full-alternation verdicts agree on "
                  f"{agreements}/{total} nonlocal realizations, {elapsed:.1f}s < 60s")


def test_acceptance_4_witness_sweep():
    rng = np.random.default_rng(555)
    t0 = time.time()
    checked = 0
    witnesses = 0
    for _ in range(10_000):
        r = sample_realization(rng, {"canonical"}, theta_range=(1e-4, PI / 4))
        wit = find_witness(r)
        strict, _ = full_alternation_check(r, strict=True)
        assert (wit is None) == strict
        checked += 1
        if wit is None:
            continue
        witnesses += 1
        p = born_point(r)
        assert np.max(np.abs(wit.alphas)) <= 1.0 + 1e-8
        assert validate(wit.local_point) == []
        assert is_local(wit.local_point)
        assert not np.array_equal(wit.local_point.vector, p.vector)
        basis = tangent_basis(r)
        comp, rank = orthocomplement(basis)
        assert rank == 5
        assert comp.shape[0] == 3
        assert flatness_deviation(wit, p, basis) <= 1e-8
    elapsed = time.time() - t0
    ok = checked == 10_000 and elapsed < 120
    report(4, ok, f"witness exists iff strict alternation fails on {checked} draws "
                  f"({witnesses} witnesses, all invariants + flatness <= 1e-8), "
                  f"{elapsed:.1f}s < 120s")


def test_acceptance_5_selftest_roundtrip():
    rng = np.random.default_rng(99)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        r = sample_realization(rng, {"strictly-alternating"})
        rec, _ = reconstruct_realization(born_point(r))
        canon, _ = canonicalize(r)
        err = np.max(np.abs(np.array(rec.params()) - np.array(canon.params())))
        worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst <= TOL_RECON and elapsed < 30
    report(5, ok, f"10^3 strictly-alternating roundtrips, worst parameter error "
                  f"{worst:.2e} <= 1e-6, {elapsed:.1f}s < 30s")


def test_acceptance_6_theta_min_threshold():
    from qset.cli import main

    t0 = time.time()
    import io
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["scan", "--range", f"theta=0.05:{PI / 4}:200",
                     "--a0", "0", "--a1", repr(PI / 2),
                     "--b0", repr(PI / 4), "--b1", repr(3 * PI / 4)])
    assert code == 0
    rows = buf.getvalue().strip().split("\n")[1:]
    thetas = np.array([float(r.split(",")[0]) for r in rows])
    verdicts = [r.split(",")[5] for r in rows]
    step = thetas[1] - thetas[0]
    first_extremal = next(i for i, v in enumerate(verdicts) if v.startswith("Extremal"))
    assert all(not v.startswith("Extremal") for v in verdicts[:first_extremal])
    assert all(v.startswith("Extremal") for v in verdicts[first_extremal:])
    # analytic threshold: atilde_1^+(theta) = b0 => 2 atan(tan theta) = pi/4
    theta_min = PI / 8
    located = thetas[first_extremal]
    elapsed = time.time() - t0
    ok = abs(located - theta_min) <= step + 1e-12 and elapsed < 10
    report(6, ok, f"verdict transition located at theta = {located:.6f} vs "
                  f"pi/8 = {theta_min:.6f} (grid step {step:.5f}), {elapsed:.1f}s < 10s")


def test_acceptance_7_dependency_property():
    rng = np.random.default_rng(777)
    worst_fourth = 0.0
    for _ in range(1000):
        r = sample_realization(rng, {"strictly-alternating"})
        _, res = selftest_conditions_check(born_point(r))
        res_abs = np.abs(res)
        # three of the four equalities hold within 1e-9 ...
        assert np.sort(res_abs)[2] <= 1e-9
        # ... so the fourth is forced within 1e-8
        worst_fourth = max(worst_fourth, res_abs.max())
    ok = worst_fourth <= 1e-8
    report(7, ok, f"on 10^3 behaviors with three equalities at 1e-9, worst fourth "
                  f"residual {worst_fourth:.2e} <= 1e-8")


def test_acceptance_8_oracle_concordance():
    rng = np.random.default_rng(4242)
    t0 = time.time()
    for _ in range(10_000):
        p = random_valid_behavior(rng)
        assert local_membership_lp(p)[0] == is_local(p)
    lp_elapsed = time.time() - t0

    # 50 certified-extremal points; 10^3 decomposition trials each
    certified = []
    while len(certified) < 50:
        r = sample_realization(rng, {"fully-alternating"}, theta_range=(0.05, PI / 4))
        p = born_point(r)
        if is_local(p):
            continue
        ok, _ = extremality_criterion_check(p)
        if ok:
            certified.append((r, p))
    decomposed = 0
    t1 = time.time()
    for k, (r, p) in enumerate(certified):
        res = decomposition_search(p, trials=1000, seed=k, hint=r)
        if res.found:
            decomposed += 1
    dec_elapsed = time.time() - t1
    ok = decomposed == 0
    report(8, ok, f"LP == Fine criterion on 10^4 behaviors ({lp_elapsed:.1f}s); "
                  f"no decomposition found on 50 certified extremal points x 10^3 "
                  f"trials ({dec_elapsed:.1f}s)")


def test_acceptance_9_steering_identities():
    rng = np.random.default_rng(31415)
    t0 = time.time()
    n = 100_000
    theta = rng.uniform(0.02, PI / 2 - 0.02, n)
    a = rng.uniform(-PI + 1e-6, PI - 1e-6, n)
    # involution T_{pi/2-theta} o T_theta = id
    fwd = 2 * np.arctan2(np.sin(a / 2) * np.sin(theta), np.cos(a / 2) * np.cos(theta))
    back = 2 * np.arctan2(np.sin(fwd / 2) * np.sin(PI / 2 - theta),
                          np.cos(fwd / 2) * np.cos(PI / 2 - theta))
    inv_err = np.max(np.abs(back - a))

    # correlator identity [A~_x^alpha B_y] = cos(atilde_x^alpha - b_y)
    a0 = rng.uniform(0, PI, n)
    a1 = rng.uniform(0, PI, n)
    b0 = rng.uniform(0, PI, n)
    b1 = rng.uniform(0, PI, n)
    vec = born_vector(theta, a0, a1, b0, b1)
    at0 = modified_angles_raw(theta, a0)
    at1 = modified_angles_raw(theta, a1)
    max_err = 0.0
    for ai, alpha in enumerate((1.0, -1.0)):
        denom0 = 1 + alpha * vec[:, 0]
        denom1 = 1 + alpha * vec[:, 1]
        for y, (by, mb_col) in enumerate(((b0, 2), (b1, 3))):
            c0 = (vec[:, 4 + y] + alpha * vec[:, mb_col]) / denom0
            c1 = (vec[:, 6 + y] + alpha * vec[:, mb_col]) / denom1
            max_err = max(max_err,
                          np.max(np.abs(c0 - np.cos(at0[ai] - by))),
                          np.max(np.abs(c1 - np.cos(at1[ai] - by))))
    elapsed = time.time() - t0
    ok = inv_err <= 1e-10 and max_err <= 1e-10 and elapsed < 5
    report(9, ok, f"involution error {inv_err:.2e}, correlator identity error "
                  f"{max_err:.2e} over 10^5 samples, {elapsed:.1f}s < 5s")

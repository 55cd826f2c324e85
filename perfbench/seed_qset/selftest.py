"""Reconstruction of the unique qubit realization behind a self-testing behavior.

For a nonlocal behavior satisfying the four self-test equalities, the steered
correlators are correlators of measurements on the maximally entangled state,
hence cosines of angle differences on a circle.  The reconstruction places
that circle in a gauge frame (B1 at angle 0, B0 at angle bgauge in [0, pi]),
reads off the steered projector angles w[alpha][x], recovers the frame
rotation and the entanglement angle from the orthogonality of Alice's
projector pairs, and finally inverts the steering map:

    cos(2 theta) * sin((w+ + w-)/2 - 2 gamma) = sin((w- - w+)/2)   per input x,

solved as a 2x2 linear system for (u, v) = cos(2 theta) (cos 2gamma, sin 2gamma)
with 2 gamma = atan2(v, u), so both "infinite tangent" sides are honored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import Behavior
from .errors import (
    InconsistentGaugeError,
    NoThetaBranchError,
    NotSelfTestingError,
)
from .extremality import selftest_conditions_check
from .realization import QubitRealization, born_point, canonicalize
from .steering import steered_correlators
from .symmetry import SymmetryElement
from .tolerances import TOL_EQ, TOL_RECON

__all__ = ["ReconstructionTrace", "SelfTestCertificate",
           "reconstruct_realization", "selftest_certificate"]


@dataclass(frozen=True)
class ReconstructionTrace:
    """Gauge-frame data recovered on the way to the realization.

    ``w[alpha][x]`` are the steered projector angles in the gauge frame
    (index 0 is alpha = +1), ``bgauge`` the angle of B0's image there; for
    behaviors satisfying the reference equality placement these obey the
    alternating ordering 0 <= w[., 1] <= bgauge <= w[., 0] <= pi.
    ``gamma`` is the spinor rotation back to the steered frame (Bloch angle
    2*gamma) and gamma_x = gamma - (w[0,x]+w[1,x])/4.
    """

    w: np.ndarray
    bgauge: float
    gamma: float
    gamma_x: tuple[float, float]
    theta: float
    theta_branches: tuple[float, float]
    gauge_residual: float
    roundtrip_error: float
    relabeling: SymmetryElement


@dataclass(frozen=True)
class SelfTestCertificate:
    realization: QubitRealization
    trace: ReconstructionTrace
    condition_residuals: np.ndarray
    max_residual: float
    roundtrip_error: float

    def to_json_dict(self) -> dict:
        return {
            "realization": self.realization.to_json_dict(),
            "condition_residuals": [float(r) for r in self.condition_residuals],
            "max_residual": self.max_residual,
            "roundtrip_error": self.roundtrip_error,
            "gauge": {
                "w": [[float(x) for x in row] for row in self.trace.w],
                "bgauge": self.trace.bgauge,
                "gamma": self.trace.gamma,
                "theta": self.trace.theta,
            },
        }


def _gauge_placement(c: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Place the steered configuration on the circle: B1 at 0, B0 at bgauge.

    c is the steered correlator table [alpha][x][y].  Returns (w, bgauge,
    residual) where w[alpha][x] solves cos(w) = c[.,.,1] and
    cos(w - bgauge) = c[.,.,0] simultaneously; the residual is the worst
    deviation of (sin w, cos w) from the unit circle across the four
    projectors, which measures placement consistency.
    """
    m1 = math.acos(max(-1.0, min(1.0, c[0, 0, 1])))
    m0 = math.acos(max(-1.0, min(1.0, c[0, 0, 0])))
    cands = set()
    for u in (m1 + m0, m1 - m0):
        v = abs((u + math.pi) % (2 * math.pi) - math.pi)
        cands.add(round(v, 15))
    best: tuple[float, float, np.ndarray] | None = None
    for bg in sorted(cands):
        sb = math.sin(bg)
        if sb < 1e-9:
            continue
        w = np.empty((2, 2))
        resid = 0.0
        for ai in range(2):
            for x in range(2):
                sw = (c[ai, x, 0] - c[ai, x, 1] * math.cos(bg)) / sb
                w[ai, x] = math.atan2(sw, c[ai, x, 1])
                resid = max(resid, abs(math.hypot(sw, c[ai, x, 1]) - 1.0))
        if best is None or resid < best[0]:
            best = (resid, bg, w)
    if best is None:
        raise InconsistentGaugeError("Bob's two measurements coincide on the circle")
    resid, bg, w = best
    if resid > TOL_EQ:
        raise InconsistentGaugeError(
            f"gauge placement residual {resid!r} exceeds tolerance")
    return w, bg, resid


def reconstruct_realization(p: Behavior) -> tuple[QubitRealization, ReconstructionTrace]:
    """Recover the canonical qubit realization self-tested by ``p``.

    Requires ``p`` nonlocal and satisfying the four reference equalities;
    the returned realization is canonical and reproduces ``p`` up to the
    relabeling element recorded in the trace, componentwise to TOL_RECON.
    """
    ok, residuals = selftest_conditions_check(p)  # raises LocalInputError on local input
    if not ok:
        raise NotSelfTestingError(
            f"self-test equalities violated (max residual {np.max(np.abs(residuals))!r})",
            residuals=residuals)
    c = steered_correlators(p).c
    w, bgauge, gauge_residual = _gauge_placement(c)

    s_mid = (w[0] + w[1]) / 2.0   # (w_+x + w_-x)/2 per input x
    d_half = (w[1] - w[0]) / 2.0  # (w_-x - w_+x)/2 per input x
    det = math.sin(s_mid[1] - s_mid[0])
    if abs(det) < 1e-11:
        # both Alice inputs steer to the same mid-angle: consistent only for
        # the maximally entangled state, where the pair collapse d_half = 0
        if np.max(np.abs(d_half)) > TOL_EQ:
            raise InconsistentGaugeError(
                "degenerate gauge mid-angles with a non-maximally-entangled signature")
        u = v = 0.0
    else:
        u = (-math.cos(s_mid[1]) * math.sin(d_half[0])
             + math.cos(s_mid[0]) * math.sin(d_half[1])) / det
        v = (-math.sin(s_mid[1]) * math.sin(d_half[0])
             + math.sin(s_mid[0]) * math.sin(d_half[1])) / det
    h = math.hypot(u, v)
    if h > 1.0 + 1e-7:
        raise NoThetaBranchError(f"|cos 2theta| = {h!r} > 1; no branch in (0, pi/4]")
    h = min(h, 1.0)
    if h < 1e-9:
        theta, delta = math.pi / 4, 0.0
    else:
        theta = math.acos(h) / 2.0
        delta = math.atan2(v, u)
    branches = (theta, math.pi - theta)
    if not (0.0 < theta <= math.pi / 4 + 1e-12):
        raise NoThetaBranchError(f"theta branch {theta!r} outside (0, pi/4]")

    atilde = w - delta  # steered-frame angles; rows: alpha = +1, -1
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    a_rec = tuple(
        2 * math.atan2(math.sin(atilde[0, x] / 2) * cos_t,
                       math.cos(atilde[0, x] / 2) * sin_t)
        for x in range(2))
    b_rec = (bgauge - delta, -delta)
    raw = QubitRealization(theta=theta, a=a_rec, b=b_rec)
    roundtrip = float(np.max(np.abs(born_point(raw).vector - p.vector)))
    if roundtrip > TOL_RECON:
        raise InconsistentGaugeError(
            f"reconstructed realization misses the behavior by {roundtrip!r}")

    canonical, witness = canonicalize(raw, sector=True)
    gamma = delta / 2.0
    trace = ReconstructionTrace(
        w=w,
        bgauge=bgauge,
        gamma=gamma,
        gamma_x=(gamma - (w[0, 0] + w[1, 0]) / 4.0, gamma - (w[0, 1] + w[1, 1]) / 4.0),
        theta=theta,
        theta_branches=branches,
        gauge_residual=gauge_residual,
        roundtrip_error=roundtrip,
        relabeling=witness,
    )
    return canonical, trace


def selftest_certificate(p: Behavior) -> SelfTestCertificate:
    """Bundle the reconstruction with the equality residuals and roundtrip error."""
    realization, trace = reconstruct_realization(p)
    _, residuals = selftest_conditions_check(p)
    return SelfTestCertificate(
        realization=realization,
        trace=trace,
        condition_residuals=residuals,
        max_residual=float(np.max(np.abs(residuals))),
        roundtrip_error=trace.roundtrip_error,
    )

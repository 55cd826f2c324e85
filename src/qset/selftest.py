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
    DegenerateThetaError,
    InconsistentGaugeError,
    NoThetaBranchError,
    NotSelfTestingError,
    QsetError,
)
from .extremality import _nonlocal_steered, _sector_terms, _selftest_residuals
from .realization import QubitRealization, _canonical_witness, _canonicalize_many, born_vector
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


def _gauge_placement(c) -> tuple[list[list[float]], float, float]:
    """Place the steered configuration on the circle: B1 at 0, B0 at bgauge.

    c is the steered correlator table [alpha][x][y] as nested lists.  Returns
    (w, bgauge, residual) where w[alpha][x] solves cos(w) = c[.][.][1] and
    cos(w - bgauge) = c[.][.][0] simultaneously; the residual is the worst
    deviation of (sin w, cos w) from the unit circle across the four
    projectors, which measures placement consistency.
    """
    m1 = math.acos(max(-1.0, min(1.0, c[0][0][1])))
    m0 = math.acos(max(-1.0, min(1.0, c[0][0][0])))
    cands = set()
    for u in (m1 + m0, m1 - m0):
        v = abs((u + math.pi) % (2 * math.pi) - math.pi)
        cands.add(round(v, 15))
    best: tuple[float, float, list[list[float]]] | None = None
    for bg in sorted(cands):
        sb = math.sin(bg)
        if sb < 1e-9:
            continue
        cb = math.cos(bg)
        w = [[0.0, 0.0], [0.0, 0.0]]
        resid = 0.0
        for ai in range(2):
            for x in range(2):
                sw = (c[ai][x][0] - c[ai][x][1] * cb) / sb
                w[ai][x] = math.atan2(sw, c[ai][x][1])
                resid = max(resid, abs(math.hypot(sw, c[ai][x][1]) - 1.0))
        if best is None or resid < best[0]:
            best = (resid, bg, w)
    if best is None:
        raise InconsistentGaugeError("Bob's two measurements coincide on the circle")
    resid, bg, w = best
    if resid > TOL_EQ:
        raise InconsistentGaugeError(
            f"gauge placement residual {resid!r} exceeds tolerance")
    return w, bg, resid


def _solve_gauge(c) -> tuple[tuple[float, ...], tuple]:
    """Unreduced realization parameters (theta, a0, a1, b0, b1) behind one
    steered table (nested lists), and the gauge data
    (w, bgauge, gauge_residual, theta, delta) of the trace."""
    w, bgauge, gauge_residual = _gauge_placement(c)
    # (w_+x + w_-x)/2 and (w_-x - w_+x)/2 per input x
    s_mid = ((w[0][0] + w[1][0]) / 2.0, (w[0][1] + w[1][1]) / 2.0)
    d_half = ((w[1][0] - w[0][0]) / 2.0, (w[1][1] - w[0][1]) / 2.0)
    det = math.sin(s_mid[1] - s_mid[0])
    if abs(det) < 1e-11:
        # both Alice inputs steer to the same mid-angle: consistent only for
        # the maximally entangled state, where the pair collapse d_half = 0
        if max(abs(d_half[0]), abs(d_half[1])) > TOL_EQ:
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
    if not (0.0 < theta <= math.pi / 4 + 1e-12):
        raise NoThetaBranchError(f"theta branch {theta!r} outside (0, pi/4]")

    # steered-frame angles of alpha = +1: atilde = w - delta
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    a_rec = [2 * math.atan2(math.sin((w[0][x] - delta) / 2) * cos_t,
                            math.cos((w[0][x] - delta) / 2) * sin_t)
             for x in range(2)]
    params = (theta, a_rec[0], a_rec[1], bgauge - delta, -delta)
    return params, (w, bgauge, gauge_residual, theta, delta)


class Reconstructions:
    """Reconstruction of a batch of k behaviors, row by row.

    ``canonical`` holds the canonical parameters (k, 5), NaN where the row
    stopped; ``errors`` maps each such row to its error (NotSelfTestingError,
    InconsistentGaugeError, NoThetaBranchError or DegenerateThetaError).
    """

    def __init__(self, residuals: np.ndarray):
        k = len(residuals)
        self.residuals = residuals                # (k, 4) self-test residuals
        self.canonical = np.full((k, 5), np.nan)
        self.roundtrip = np.full(k, np.nan)       # NaN where not reached
        self.win = np.full(k, -1)                 # _canonicalize_many candidate
        self.folds = np.zeros((k, 4), bool)
        self.gauge: dict[int, tuple] = {}         # row -> gauge data of _solve_gauge
        self.errors: dict[int, QsetError] = {}

    def realization(self, k: int) -> QubitRealization:
        theta, a0, a1, b0, b1 = self.canonical[k].tolist()
        return QubitRealization(theta=theta, a=(a0, a1), b=(b0, b1))

    def trace(self, k: int) -> ReconstructionTrace:
        w, bgauge, gauge_residual, theta, delta = self.gauge[k]
        w = np.array(w)
        gamma = delta / 2.0
        return ReconstructionTrace(
            w=w,
            bgauge=bgauge,
            gamma=gamma,
            gamma_x=(gamma - (w[0, 0] + w[1, 0]) / 4.0, gamma - (w[0, 1] + w[1, 1]) / 4.0),
            theta=theta,
            theta_branches=(theta, math.pi - theta),
            gauge_residual=gauge_residual,
            roundtrip_error=float(self.roundtrip[k]),
            relabeling=_canonical_witness(self.win[k], self.folds[k]),
        )


def reconstruct_rows(v: np.ndarray, c: np.ndarray, asin: np.ndarray) -> Reconstructions:
    """Reconstruct the realizations behind nonlocal behavior vectors v (K, 8),
    given their steered correlators c (K, 2, 2, 2) and the asin of those.

    Rows that violate the reference self-test equalities stop with
    NotSelfTestingError.  The gauge solve runs per row in ``math`` (libm):
    numpy's vectorized acos/atan2 round differently in the last bit, and on
    the a0 = b0 face that bit decides between the extremal verdicts and
    Indeterminate.  The round trip and ``canonicalize`` then run over the
    rows that reached them.
    """
    rec = Reconstructions(_selftest_residuals(_sector_terms(asin)))
    errors = rec.errors
    for i in np.flatnonzero(~(np.max(np.abs(rec.residuals), axis=1) <= TOL_EQ)).tolist():
        errors[i] = NotSelfTestingError(
            f"self-test equalities violated (max residual {np.max(np.abs(rec.residuals[i]))!r})",
            residuals=rec.residuals[i].copy())
    raw = np.full((len(v), 5), np.nan)
    for i, table in enumerate(c.tolist()):
        if i in errors:
            continue
        try:
            raw[i], rec.gauge[i] = _solve_gauge(table)
        except (InconsistentGaugeError, NoThetaBranchError) as exc:
            errors[i] = exc

    solved = np.array(sorted(rec.gauge), dtype=int)
    rec.roundtrip[solved] = np.max(np.abs(born_vector(*raw[solved].T) - v[solved]), axis=1)
    for i in solved[rec.roundtrip[solved] > TOL_RECON].tolist():
        errors[i] = InconsistentGaugeError(
            f"reconstructed realization misses the behavior by {float(rec.roundtrip[i])!r}")

    fit = np.array([i for i in solved.tolist() if i not in errors], dtype=int)
    rec.canonical[fit], rec.win[fit], rec.folds[fit] = _canonicalize_many(raw[fit], sector=True)
    for i in fit[rec.win[fit] < 0].tolist():
        errors[i] = DegenerateThetaError(
            f"no image of theta={float(raw[i, 0])!r} lies in the requested sector")
    return rec


def _reconstruct_one(p: Behavior) -> Reconstructions:
    c, asin = _nonlocal_steered(p, "self-test conditions require a nonlocal behavior")
    rec = reconstruct_rows(p.vector[None], c, asin)
    if rec.errors:
        raise rec.errors[0]
    return rec


def reconstruct_realization(p: Behavior) -> tuple[QubitRealization, ReconstructionTrace]:
    """Recover the canonical qubit realization self-tested by ``p``.

    Requires ``p`` nonlocal and satisfying the four reference equalities;
    the returned realization is canonical and reproduces ``p`` up to the
    relabeling element recorded in the trace, componentwise to TOL_RECON.
    """
    rec = _reconstruct_one(p)
    return rec.realization(0), rec.trace(0)


def selftest_certificate(p: Behavior) -> SelfTestCertificate:
    """Bundle the reconstruction with the equality residuals and roundtrip error."""
    rec = _reconstruct_one(p)
    residuals = rec.residuals[0]
    trace = rec.trace(0)
    return SelfTestCertificate(
        realization=rec.realization(0),
        trace=trace,
        condition_residuals=residuals,
        max_residual=float(np.max(np.abs(residuals))),
        roundtrip_error=trace.roundtrip_error,
    )

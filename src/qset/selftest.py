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
from .extremality import _REFERENCE, _steered_batch
from .realization import (QubitRealization, _canonical_witness, _canonicalize_many,
                          alternation_margins, born_vector)
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
    projectors, which measures placement consistency.  Of the two bgauge
    candidates the smaller wins a tie in residual.
    """
    (p0, q0), (p1, q1) = c[0]  # (c[alpha][x][0], c[alpha][x][1]) for alpha = +1
    (p2, q2), (p3, q3) = c[1]  # and for alpha = -1
    m1 = math.acos(max(-1.0, min(1.0, q0)))
    m0 = math.acos(max(-1.0, min(1.0, p0)))
    # the two bgauge candidates |m1 +- m0|, wrapped into [0, pi]
    v0 = round(abs((m1 + m0 + math.pi) % (2 * math.pi) - math.pi), 15)
    v1 = round(abs((m1 - m0 + math.pi) % (2 * math.pi) - math.pi), 15)
    best = None
    for bg in ((v0,) if v0 == v1 else (min(v0, v1), max(v0, v1))):
        sb = math.sin(bg)
        if sb < 1e-9:
            continue
        cb = math.cos(bg)
        sw = ((p0 - q0 * cb) / sb, (p1 - q1 * cb) / sb, (p2 - q2 * cb) / sb, (p3 - q3 * cb) / sb)
        resid = max(0.0, abs(math.hypot(sw[0], q0) - 1.0), abs(math.hypot(sw[1], q1) - 1.0),
                    abs(math.hypot(sw[2], q2) - 1.0), abs(math.hypot(sw[3], q3) - 1.0))
        if best is None or resid < best[0]:
            best = (resid, bg, sw)
    if best is None:
        raise InconsistentGaugeError("Bob's two measurements coincide on the circle")
    resid, bg, sw = best
    if resid > TOL_EQ:
        raise InconsistentGaugeError(
            f"gauge placement residual {resid!r} exceeds tolerance")
    return ([[math.atan2(sw[0], q0), math.atan2(sw[1], q1)],
             [math.atan2(sw[2], q2), math.atan2(sw[3], q3)]], bg, resid)


def _solve_gauge(c) -> tuple[tuple[float, ...], tuple]:
    """Unreduced realization parameters (theta, a0, a1, b0, b1) behind one
    steered table (nested lists), and the gauge data
    (w, bgauge, gauge_residual, theta, delta) of the trace.  theta is at
    most pi/4 (acos(h)/2 < pi/4 for h >= 1e-9, pi/4 below), so only theta = 0
    (h = 1) or NaN raises NoThetaBranchError for lying outside (0, pi/4]."""
    w, bgauge, gauge_residual = _gauge_placement(c)
    (wp0, wp1), (wm0, wm1) = w  # w[alpha][x] for alpha = +1, then -1
    # (w_+x + w_-x)/2 and (w_-x - w_+x)/2 per input x
    s0, s1 = (wp0 + wm0) / 2.0, (wp1 + wm1) / 2.0
    d0, d1 = (wm0 - wp0) / 2.0, (wm1 - wp1) / 2.0
    det = math.sin(s1 - s0)
    if abs(det) < 1e-11:
        # both Alice inputs steer to the same mid-angle: consistent only for
        # the maximally entangled state, where the pair collapse d_half = 0
        if max(abs(d0), abs(d1)) > TOL_EQ:
            raise InconsistentGaugeError(
                "degenerate gauge mid-angles with a non-maximally-entangled signature")
        u = v = 0.0
    else:
        sd0, sd1 = math.sin(d0), math.sin(d1)
        u = (-math.cos(s1) * sd0 + math.cos(s0) * sd1) / det
        v = (-math.sin(s1) * sd0 + math.sin(s0) * sd1) / det
    h = math.hypot(u, v)
    if h > 1.0 + 1e-7:
        raise NoThetaBranchError(f"|cos 2theta| = {h!r} > 1; no branch in (0, pi/4]")
    h = min(h, 1.0)
    if h < 1e-9:
        theta, delta = math.pi / 4, 0.0
    else:
        theta = math.acos(h) / 2.0
        delta = math.atan2(v, u)
    if not theta > 0.0:
        raise NoThetaBranchError(f"theta branch {theta!r} outside (0, pi/4]")

    # steered-frame angles of alpha = +1: atilde = w - delta
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    h0, h1 = (wp0 - delta) / 2, (wp1 - delta) / 2
    a0 = 2 * math.atan2(math.sin(h0) * cos_t, math.cos(h0) * sin_t)
    a1 = 2 * math.atan2(math.sin(h1) * cos_t, math.cos(h1) * sin_t)
    return (theta, a0, a1, bgauge - delta, -delta), (w, bgauge, gauge_residual, theta, delta)


class Reconstructions:
    """Reconstruction of a batch of k behaviors, row by row.

    ``canonical`` holds the canonical parameters (k, 5), NaN where the row
    stopped; ``errors`` maps each such row to its error (NotSelfTestingError,
    InconsistentGaugeError, NoThetaBranchError or DegenerateThetaError), the
    only record of it.  ``margins`` are the (k, 8) alternation margins of
    ``canonical``, NaN where the row stopped.  ``reconstruct_rows`` alone
    writes them all.
    """

    def __init__(self, residuals: np.ndarray):
        k = len(residuals)
        self.residuals = residuals                # (k, 4) self-test residuals
        self.canonical = np.full((k, 5), np.nan)
        self.margins = np.full((k, 8), np.nan)
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


def _not_self_testing(residuals: np.ndarray) -> NotSelfTestingError:
    worst = float(np.abs(residuals).max())
    return NotSelfTestingError(f"self-test equalities violated (max residual {worst!r})",
                               residuals=residuals.copy())


def reconstruct_rows(v: np.ndarray, c: np.ndarray, residuals: np.ndarray) -> Reconstructions:
    """Reconstruct the realizations behind nonlocal behavior vectors v (K, 8),
    given their steered correlators c (K, 2, 2, 2) and the (K, 4) self-test
    residuals of c, which ``extremality`` reads off its ``_asin_sums`` table.

    Rows that violate the reference self-test equalities stop with
    NotSelfTestingError.  The gauge solve runs per row in ``math`` (libm):
    numpy's vectorized acos/atan2 round differently in the last bit, and on
    the a0 = b0 face that bit decides between the extremal verdicts and
    Indeterminate.  The round trip, ``canonicalize`` and the alternation
    margins then run over the rows that reached them.

    ``alternation_margins`` never rejects a row canonicalized into the
    sector: its theta is in (TOL_EQ, pi/4 + TOL_EQ], so |sin 2 theta| is
    about 2e-8 or more, its angles are in [0, pi], and its orderings pass
    the same comparisons to TOL_EQ.  A rejection is a bug and raises
    RuntimeError naming the rows; it never makes a row Indeterminate.
    """
    rec = Reconstructions(residuals)
    errors = rec.errors
    worst = np.abs(rec.residuals).max(axis=1)
    for i in (~(worst <= TOL_EQ)).nonzero()[0].tolist():
        errors[i] = _not_self_testing(rec.residuals[i])
    raw = np.full((len(v), 5), np.nan)
    for i, table in enumerate(c.tolist()):
        if i in errors:
            continue
        try:
            raw[i], rec.gauge[i] = _solve_gauge(table)
        except (InconsistentGaugeError, NoThetaBranchError) as exc:
            errors[i] = exc

    solved = np.array(sorted(rec.gauge), dtype=int)
    rec.roundtrip[solved] = np.abs(born_vector(*raw[solved].T) - v[solved]).max(axis=1)
    for i in solved[rec.roundtrip[solved] > TOL_RECON].tolist():
        errors[i] = InconsistentGaugeError(
            f"reconstructed realization misses the behavior by {float(rec.roundtrip[i])!r}")

    fit = np.array([i for i in solved.tolist() if i not in errors], dtype=int)
    rec.canonical[fit], rec.win[fit], rec.folds[fit] = _canonicalize_many(raw[fit], sector=True)
    for i in fit[rec.win[fit] < 0].tolist():
        errors[i] = DegenerateThetaError(
            f"no image of theta={float(raw[i, 0])!r} lies in the requested sector")
    done = fit[rec.win[fit] >= 0]
    rec.margins[done], rejected = alternation_margins(rec.canonical[done])
    if rejected:
        raise RuntimeError(f"alternation_margins rejects canonical rows "
                           f"{done[list(rejected)].tolist()}: {list(rejected.values())!r}")
    return rec


def _reconstruction(p: Behavior) -> Reconstructions:
    """The reconstruction of p itself as a batch of one, read off the batch
    of one ``classify(p)`` keeps.

    The row's own self-test residuals decide first: NotSelfTestingError when
    they fail, with nothing reconstructed.  Where the row's criterion holds
    first with the reference placement, the batch's last stage has
    reconstructed p itself (the relabeling is the identity).  Otherwise
    ``reconstruct_rows`` runs on p with the steered table and residuals the
    batch kept.  Raises what stops the reconstruction.
    """
    batch = _steered_batch(p, "self-test conditions require a nonlocal behavior")
    residuals = batch.residuals[:1]
    if not np.abs(residuals).max() <= TOL_EQ:
        raise _not_self_testing(residuals[0])
    if batch.pattern[0] == _REFERENCE:
        rec = batch.reconstructions
    else:
        rec = reconstruct_rows(np.asarray(p.vector, dtype=float)[None], batch.steered[:1],
                               residuals)
    if rec.errors:
        raise rec.errors[0].with_traceback(None)
    return rec


def reconstruct_realization(p: Behavior) -> tuple[QubitRealization, ReconstructionTrace]:
    """Recover the canonical qubit realization self-tested by ``p``.

    Requires ``p`` nonlocal and satisfying the four reference equalities;
    the returned realization is canonical and reproduces ``p`` up to the
    relabeling element recorded in the trace, componentwise to TOL_RECON.
    It reads the batch of one that ``classify(p)`` keeps: right after
    ``classify(p)`` it is a lookup.
    """
    rec = _reconstruction(p)
    return rec.realization(0), rec.trace(0)


def selftest_certificate(p: Behavior) -> SelfTestCertificate:
    """Bundle the reconstruction with the equality residuals and roundtrip
    error.  Like ``reconstruct_realization``, it reads the batch of one that
    ``classify(p)`` keeps and costs what that costs."""
    rec = _reconstruction(p)
    residuals = rec.residuals[0].copy()
    trace = rec.trace(0)
    return SelfTestCertificate(
        realization=rec.realization(0),
        trace=trace,
        condition_residuals=residuals,
        max_residual=float(np.abs(residuals).max()),
        roundtrip_error=trace.roundtrip_error,
    )

"""The nonlinear steering map, modified measurement angles, and steered correlators.

Steering sends Alice's measurement eigenvectors through |phi_theta> onto
maximally-entangled statistics.  For a measurement at angle a in the
(sigma_z, sigma_x)-plane the two image measurements have angles

    atilde_x^alpha = 2 atan(tan(a_x/2) * tan(theta)^alpha),

computed here in atan2 form to remove the infinite-tangent singularity:

    atilde^+ = 2 atan2(sin(a/2) sin(theta), cos(a/2) cos(theta))
    atilde^- = 2 atan2(sin(a/2) cos(theta), cos(a/2) sin(theta)).

The steered correlators are [A~_x^alpha B_y] = (<A_x B_y> + alpha <B_y>) / (1 + alpha <A_x>),
well-defined whenever |<A_x>| < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import Behavior
from .errors import (
    CorrelatorRangeError,
    DegenerateThetaError,
    MarginalUnitError,
    NullImageError,
    QsetError,
)
from .realization import QubitRealization, born_point
from .symmetry import SymmetryElement, apply_symmetry
from .tolerances import TOL_CLAMP

__all__ = [
    "SteeredCorrelators",
    "steer_vector",
    "modified_angles",
    "modified_angles_raw",
    "steered_correlators",
    "steered_many",
    "steered_table",
    "pi_interval",
    "swap_parties",
    "swap_parties_realization",
    "bob_modified_angles",
    "bob_steered_correlators",
]


def pi_interval(x):
    """Representative [x]_pi of x mod pi in [0, pi)."""
    return np.mod(x, math.pi)


def steer_vector(theta, a):
    """Image polar angle of the steering map T_theta, reduced to (-pi, pi].

    Raises NullImageError in the degenerate case (theta in {0, pi/2} with
    a = 2 theta +- pi), where the image is the null vector.
    """
    theta = np.asarray(theta, float)
    a = np.asarray(a, float)
    num = np.sin(a / 2) * np.sin(theta)
    den = np.cos(a / 2) * np.cos(theta)
    if np.any((np.abs(num) < 1e-15) & (np.abs(den) < 1e-15)):
        raise NullImageError("steering image is the null vector (product state)")
    out = 2 * np.arctan2(num, den)
    # 2*atan2 can land in (-2pi, 2pi]; reduce to (-pi, pi]
    out = np.where(out > math.pi, out - 2 * math.pi, out)
    out = np.where(out <= -math.pi, out + 2 * math.pi, out)
    return out if out.ndim else float(out)


def modified_angles_raw(theta, a):
    """Modified angles for both outcome signs; array-friendly, no gating.

    Returns an array of shape (2,) + shape(a): index 0 is alpha = +1,
    index 1 is alpha = -1.
    """
    theta = np.asarray(theta, float)
    a = np.asarray(a, float)
    plus = 2 * np.arctan2(np.sin(a / 2) * np.sin(theta), np.cos(a / 2) * np.cos(theta))
    minus = 2 * np.arctan2(np.sin(a / 2) * np.cos(theta), np.cos(a / 2) * np.sin(theta))
    return np.stack([plus, minus])


def modified_angles(r: QubitRealization) -> np.ndarray:
    """Alice's modified angles as a (2, 2) array indexed [alpha][x].

    Raises DegenerateThetaError when theta is 0 mod pi/2 (steering degenerate).
    """
    if abs(math.sin(2 * r.theta)) < 1e-12:
        raise DegenerateThetaError(f"theta={r.theta!r} is 0 mod pi/2")
    return modified_angles_raw(r.theta, np.asarray(r.a))


@dataclass(frozen=True)
class SteeredCorrelators:
    """Steered correlators c[alpha][x][y] and, when realization-derived, the
    modified angles atilde[alpha][x].  Index 0 means alpha = +1."""

    c: np.ndarray
    atilde: np.ndarray | None = None


#: Outcome signs alpha = +1, -1 along the steered-correlator axis.
_ALPHA = np.array([1.0, -1.0])[:, None, None]


def steered_many(v: np.ndarray) -> tuple[np.ndarray, dict[int, QsetError]]:
    """Steered correlators of behavior vectors, (N, 8) -> (N, 2, 2, 2), clipped
    to [-1, 1], and the error ``steered_correlators`` raises for each row it
    rejects (row index -> exception; those rows' correlators are meaningless)."""
    ma = v[:, None, :2, None]
    mb = v[:, None, None, 2:4]
    corr = v[:, None, 4:].reshape(-1, 1, 2, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (corr + _ALPHA * mb) / (1.0 + _ALPHA * ma)
        over = np.max(np.abs(out), axis=(1, 2, 3)) - 1.0
    unit = np.max(np.abs(v[:, :2]), axis=1)
    failures: dict[int, QsetError] = {}
    for i in np.flatnonzero((unit >= 1.0) | (over > TOL_CLAMP)).tolist():
        if unit[i] >= 1.0:
            failures[i] = MarginalUnitError(
                f"|<A_x>| = {unit[i]!r} >= 1; steered correlators undefined (behavior is local)")
        else:
            failures[i] = CorrelatorRangeError(
                f"steered correlator exceeds [-1,1] by {over[i]!r}; input behavior invalid")
    return np.clip(out, -1.0, 1.0), failures


def _steered_c(vec: np.ndarray) -> np.ndarray:
    c, failures = steered_many(vec[None])
    if failures:
        raise failures[0]
    return c[0]


def steered_correlators(p: Behavior) -> SteeredCorrelators:
    """Steered correlators of a behavior (Alice side); correlator part only."""
    return SteeredCorrelators(c=_steered_c(p.vector))


def steered_table(r: QubitRealization) -> SteeredCorrelators:
    """Both the steered correlators of born_point(r) and the modified angles."""
    at = modified_angles(r)
    return SteeredCorrelators(c=_steered_c(born_point(r).vector), atilde=at)


# --- Alice/Bob exchange -----------------------------------------------------

def swap_parties(p: Behavior) -> Behavior:
    return apply_symmetry(SymmetryElement(party_swap=True), p)


def swap_parties_realization(r: QubitRealization) -> QubitRealization:
    return QubitRealization(theta=r.theta, a=r.b, b=r.a)


def bob_modified_angles(r: QubitRealization) -> np.ndarray:
    """Bob's modified angles btilde[beta][y] (steering applied on Bob's side)."""
    return modified_angles(swap_parties_realization(r))


def bob_steered_correlators(p: Behavior) -> SteeredCorrelators:
    """Steered correlators with the roles of Alice and Bob exchanged:
    c[beta][y][x] = (<A_x B_y> + beta <A_x>) / (1 + beta <B_y>)."""
    return steered_correlators(swap_parties(p))

"""The nonlinear steering map, modified measurement angles, and steered correlators.

Steering sends Alice's measurement eigenvectors through |phi_theta> onto
maximally-entangled statistics.  For a measurement at angle a in the
(sigma_z, sigma_x)-plane the two image measurements have angles

    atilde_x^alpha = 2 atan(tan(a_x/2) * tan(theta)^alpha),

computed (``realization.modified_angles_raw``) in atan2 form to remove the
infinite-tangent singularity:

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
from .errors import CorrelatorRangeError, DegenerateThetaError, MarginalUnitError, QsetError
from .realization import QubitRealization, born_point, modified_angles_raw
from .tolerances import TOL_CLAMP

__all__ = [
    "SteeredCorrelators",
    "modified_angles",
    "steered_correlators",
    "steered_many",
    "steered_table",
]


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
    to [-1, 1] in place by np.maximum and np.minimum (which pass NaN, as np.clip
    does), and the error ``steered_correlators`` raises for each row it rejects
    (row index -> exception; those rows' correlators are meaningless)."""
    ma = v[:, None, :2, None]
    mb = v[:, None, None, 2:4]
    corr = v[:, None, 4:].reshape(-1, 1, 2, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (corr + _ALPHA * mb) / (1.0 + _ALPHA * ma)
        over = np.abs(out).max(axis=(1, 2, 3)) - 1.0
    unit = np.abs(v[:, :2]).max(axis=1)
    failures: dict[int, QsetError] = {}
    for i in ((unit >= 1.0) | (over > TOL_CLAMP)).nonzero()[0].tolist():
        u, o = float(unit[i]), float(over[i])
        if u >= 1.0:
            failures[i] = MarginalUnitError(
                f"|<A_x>| = {u!r} >= 1; steered correlators undefined (behavior is local)")
        else:
            failures[i] = CorrelatorRangeError(
                f"steered correlator exceeds [-1,1] by {o!r}; input behavior invalid")
    return np.minimum(np.maximum(out, -1.0, out=out), 1.0, out=out), failures


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

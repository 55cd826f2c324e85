"""Non-exposedness machinery: tangent space, sector systems, flatness witnesses.

Every Bell functional maximized at the behavior of a realization must vanish
on the 5-dimensional tangent space

    V = span< T_psi_theta, T_01, T_10, dP/da0, dP/db0 >,

where T_psi = <psi| M_k |phi_theta> over the 8 measurement operators.  For a
sector (s, t) != (-1, +1) the linear system asking P + v to land in the local
sector subspace L_st has the closed-form solution (theta in (0, pi/4]):

    x =  cos((A0+A1)/2) sin(2 theta) / D
    y = 2 sin(A0/2) cos(A1/2) sin(theta) / D
    z = 2 cos(A0/2) sin(A1/2) cos(theta) / D
    a = -2 sin((A0-A1)/2) / D
    b = 0,       A0 = a0 + (1-s) pi/2,  A1 = a1 + (1-t) pi/2,
    D = cos((A0-A1)/2) + cos((A0+A1)/2) cos(2 theta),

and Bob's marginals of P + v (b = 0; the dP/da0 row has no margB entries) are

    alpha_y = (cos 2 theta + x sin 2 theta) cos b_y + (y cos theta + z sin theta) sin b_y.

Both |alpha_y| <= 1 exactly when both Delta_y = s t sin(atilde_0^s - b_y)
sin(atilde_1^t - b_y) >= 0; the companion point is then, with ah = clip(alpha),
L = (s, t, ah_0, ah_1, s ah_0, s ah_1, t ah_0, t ah_1): deterministic Alice times
Bob with marginals ah, so valid, local and on the sector face by construction.
L also differs from P: <A0> of L is s = +-1, while theta > TOL_EQ bounds
|<A0>| of P by cos(2 nextafter(TOL_EQ, 1)) = 0.9999999999999998 < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import Behavior
from .errors import DegenerateDenominatorError, DegenerateThetaError, ExcludedSectorError
from .realization import QubitRealization, born_jacobian
from .steering import modified_angles
from .tolerances import TOL_EQ

__all__ = [
    "FlatnessWitness",
    "tangent_basis",
    "solve_sector",
    "delta_condition",
    "find_witness",
    "orthocomplement",
    "flatness_deviation",
]

#: Sector search order; first admissible sector wins.
SECTOR_ORDER = ((1, 1), (1, -1), (-1, -1))


def _require_sector_range(r: QubitRealization) -> None:
    if not r.is_canonical():
        raise ValueError("realization must be canonical")
    if not (TOL_EQ < r.theta <= math.pi / 4 + TOL_EQ):
        raise DegenerateThetaError(f"theta={r.theta!r} outside (0, pi/4]")


def _state_rows(r: QubitRealization) -> np.ndarray:
    """Rows <psi_perp| M_k |phi_theta> for psi_perp in (psi_theta, |01>, |10>).

    With c = cos theta, s = sin theta, S = sin 2 theta, C = cos 2 theta, the
    marginal entries of A_x and B_y and the correlator entries of A_x B_y are

        psi_theta:  S cos a_x,  S cos b_y,  -C sin a_x sin b_y
        |01>:       s sin a_x,  c sin b_y,  c cos a_x sin b_y - s sin a_x cos b_y
        |10>:       c sin a_x,  s sin b_y,  c sin a_x cos b_y - s cos a_x sin b_y
    """
    th = r.theta
    c, s = math.cos(th), math.sin(th)
    s2, c2 = math.sin(2 * th), math.cos(2 * th)
    (ca0, ca1), (sa0, sa1) = map(math.cos, r.a), map(math.sin, r.a)
    (cb0, cb1), (sb0, sb1) = map(math.cos, r.b), map(math.sin, r.b)
    return np.array([
        [s2 * ca0, s2 * ca1, s2 * cb0, s2 * cb1,
         -c2 * sa0 * sb0, -c2 * sa0 * sb1, -c2 * sa1 * sb0, -c2 * sa1 * sb1],
        [s * sa0, s * sa1, c * sb0, c * sb1,
         c * ca0 * sb0 - s * sa0 * cb0, c * ca0 * sb1 - s * sa0 * cb1,
         c * ca1 * sb0 - s * sa1 * cb0, c * ca1 * sb1 - s * sa1 * cb1],
        [c * sa0, c * sa1, s * sb0, s * sb1,
         c * sa0 * cb0 - s * ca0 * sb0, c * sa0 * cb1 - s * ca0 * sb1,
         c * sa1 * cb0 - s * ca1 * sb0, c * sa1 * cb1 - s * ca1 * sb1],
    ])


def tangent_basis(r: QubitRealization) -> np.ndarray:
    """The 5 tangent rows pinning Bell functionals maximized at born_point(r),
    as a (5, 8) array in behavior coordinates: T_psi_theta, T_01, T_10,
    dP/da0, dP/db0."""
    _require_sector_range(r)
    jac = born_jacobian(*r.params()).T  # (d/dtheta, d/da0, d/da1, d/db0, d/db1)
    return np.vstack([_state_rows(r), jac[1], jac[3]])


def _shifted_angles(r: QubitRealization, sector: tuple[int, int]) -> tuple[float, float]:
    s, t = sector
    return (r.a[0] + (1 - s) * math.pi / 2, r.a[1] + (1 - t) * math.pi / 2)


def sector_denominator(r: QubitRealization, sector: tuple[int, int]) -> float:
    a0s, a1t = _shifted_angles(r, sector)
    return math.cos((a0s - a1t) / 2) + math.cos((a0s + a1t) / 2) * math.cos(2 * r.theta)


def _check_sector(sector: tuple[int, int]) -> None:
    if tuple(sector) == (-1, 1):
        raise ExcludedSectorError("sector (-1, +1) has no solution for theta in (0, pi/4]")
    if tuple(sector) not in SECTOR_ORDER:
        raise ValueError(f"sector must be in {{+-1}}^2, got {sector!r}")


def solve_sector(r: QubitRealization, sector: tuple[int, int]
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed-form tangent coefficients landing P + v in the sector subspace.

    Returns (coeffs (x, y, z, a, b), alphas (margB alpha_y of the companion
    point P + v), D).  Sector (-1, +1) is excluded for theta in (0, pi/4].
    """
    _require_sector_range(r)
    return _sector_solution(r, sector)


def _sector_solution(r: QubitRealization, sector: tuple[int, int]
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """``solve_sector`` for a realization in the sector range, in ``math``."""
    _check_sector(sector)
    d = sector_denominator(r, sector)
    if abs(d) < 1e-12:
        raise DegenerateDenominatorError(f"sector denominator D_st = {d!r}")
    a0s, a1t = _shifted_angles(r, sector)
    th = r.theta
    x = math.cos((a0s + a1t) / 2) * math.sin(2 * th) / d
    y = 2 * math.sin(a0s / 2) * math.cos(a1t / 2) * math.sin(th) / d
    z = 2 * math.cos(a0s / 2) * math.sin(a1t / 2) * math.cos(th) / d
    a = -2 * math.sin((a0s - a1t) / 2) / d
    even, odd = math.cos(2 * th) + x * math.sin(2 * th), y * math.cos(th) + z * math.sin(th)
    alphas = np.array([even * math.cos(b) + odd * math.sin(b) for b in r.b])
    return np.array([x, y, z, a, 0.0]), alphas, d


def delta_condition(r: QubitRealization, sector: tuple[int, int]) -> np.ndarray:
    """Sign quantities Delta_y = s t sin(atilde_0^s - b_y) sin(atilde_1^t - b_y);
    both nonnegative iff the sector's companion point is local (|alpha_y| <= 1)."""
    _require_sector_range(r)
    _check_sector(sector)
    return _deltas(r, modified_angles(r), sector)


def _deltas(r: QubitRealization, at: np.ndarray, sector: tuple[int, int]) -> np.ndarray:
    """``delta_condition`` given Alice's modified angles ``at`` of r."""
    s, t = sector
    a0s = at[0, 0] if s == 1 else at[1, 0]
    a1t = at[0, 1] if t == 1 else at[1, 1]
    return np.array([s * t * math.sin(a0s - b) * math.sin(a1t - b) for b in r.b])


@dataclass(frozen=True)
class FlatnessWitness:
    """Certificate that born_point(r) is not the unique maximizer of any
    Bell functional: a distinct local point L = P + v with v in the tangent
    space V, so every functional in V-perp scores L and P equally."""

    sector: tuple[int, int]
    coeffs: np.ndarray
    alphas: np.ndarray
    local_point: Behavior
    deltas: np.ndarray


def find_witness(r: QubitRealization) -> FlatnessWitness | None:
    """First admissible sector witness, or None when strict alternation holds.

    Sectors are tried in the fixed order (+,+), (+,-), (-,-); a sector is
    admissible when both alpha_y lie in [-1, 1] (equivalently both Delta_y
    are nonnegative), which happens exactly when the realization is not
    strictly alternating.  L is the module docstring's closed form, which
    differs from P because |<A0>| of P is below 1 in the sector range.
    """
    _require_sector_range(r)
    for sector, coeffs, alphas in _admitted_sectors(r):
        s, t = sector
        hat = np.clip(alphas, -1.0, 1.0)
        local_vec = np.concatenate(((s, t), hat, s * hat, t * hat))
        return FlatnessWitness(sector, coeffs, alphas, Behavior.from_vector(local_vec),
                               _deltas(r, modified_angles(r), sector))
    return None


def _admitted_sectors(r: QubitRealization):
    """(sector, coeffs, alphas) of each sector, in SECTOR_ORDER order, whose
    companion point is local: both |alpha_y| <= 1 + TOL_EQ.  r must be in the
    sector range; a sector whose denominator vanishes is skipped."""
    for sector in SECTOR_ORDER:
        try:
            coeffs, alphas, _ = _sector_solution(r, sector)
        except DegenerateDenominatorError:
            continue
        if max(abs(alphas[0]), abs(alphas[1])) > 1.0 + TOL_EQ:
            continue
        yield sector, coeffs, alphas


def _orthonormalize(rows: np.ndarray, against: list[np.ndarray]) -> list[np.ndarray]:
    """Pivoted modified Gram-Schmidt: take the largest residual row until none exceeds 1e-10."""
    work = rows.astype(float).copy()
    for q in against:
        work -= np.outer(work @ q, q)
    picked: list[np.ndarray] = []
    while True:
        norms = np.linalg.norm(work, axis=1)
        i = int(np.argmax(norms))
        if norms[i] <= 1e-10:
            return picked
        q = work[i] / norms[i]
        picked.append(q)
        work -= np.outer(work @ q, q)


def orthocomplement(basis: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the complement of the tangent space in R^8.

    Returns (complement rows, rank of the tangent basis).  Generic rank is 5,
    giving a 3-dimensional complement; rank deficiency is reported through
    the rank value and simply enlarges the complement.
    """
    q_rows = _orthonormalize(basis, [])
    rank = len(q_rows)
    comp = _orthonormalize(np.eye(8), q_rows)
    return np.array(comp[: 8 - rank]), rank


def flatness_deviation(w: FlatnessWitness, p: Behavior, basis: np.ndarray) -> float:
    """max |beta . (L - P)| over an orthocomplement basis of the tangent space."""
    comp, _ = orthocomplement(basis)
    diff = w.local_point.vector - p.vector
    return float(np.max(np.abs(comp @ diff))) if comp.size else 0.0

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

and the companion point is local exactly when both

    Delta_y = s t sin(atilde_0^s - b_y) sin(atilde_1^t - b_y) >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import Behavior, _fine_local, invalid_rows
from .errors import DegenerateDenominatorError, DegenerateThetaError, ExcludedSectorError
from .realization import QubitRealization, born_jacobian, born_point
from .steering import modified_angles
from .tolerances import TOL_EQ

__all__ = [
    "TangentBasis",
    "FlatnessWitness",
    "tangent_basis",
    "behavior_jacobian",
    "solve_sector",
    "delta_condition",
    "find_witness",
    "orthocomplement",
    "flatness_deviation",
]

#: Sector search order; first admissible sector wins.
SECTOR_ORDER = ((1, 1), (1, -1), (-1, -1))


@dataclass(frozen=True)
class TangentBasis:
    """Rows: T_psi_theta, T_01, T_10, dP/da0, dP/db0 in behavior coordinates."""

    vecs: np.ndarray


def _require_sector_range(r: QubitRealization) -> None:
    if not r.is_canonical():
        raise ValueError("realization must be canonical")
    if not (TOL_EQ < r.theta <= math.pi / 4 + TOL_EQ):
        raise DegenerateThetaError(f"theta={r.theta!r} outside (0, pi/4]")


def behavior_jacobian(r: QubitRealization) -> np.ndarray:
    """All five partial derivative rows of the behavior, ordered
    (d/dtheta, d/da0, d/da1, d/db0, d/db1)."""
    return born_jacobian(*r.params()).T


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


def tangent_basis(r: QubitRealization) -> TangentBasis:
    """The 5 tangent rows pinning Bell functionals maximized at born_point(r)."""
    _require_sector_range(r)
    jac = behavior_jacobian(r)
    return TangentBasis(vecs=np.vstack([_state_rows(r), jac[1], jac[3]]))


def _shifted_angles(r: QubitRealization, sector: tuple[int, int]) -> tuple[float, float]:
    s, t = sector
    return (r.a[0] + (1 - s) * math.pi / 2, r.a[1] + (1 - t) * math.pi / 2)


def sector_denominator(r: QubitRealization, sector: tuple[int, int]) -> float:
    a0s, a1t = _shifted_angles(r, sector)
    return math.cos((a0s - a1t) / 2) + math.cos((a0s + a1t) / 2) * math.cos(2 * r.theta)


def solve_sector(r: QubitRealization, sector: tuple[int, int]
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed-form tangent coefficients landing P + v in the sector subspace.

    Returns (coeffs (x, y, z, a, b), alphas (margB of the companion point),
    D).  Sector (-1, +1) is excluded for theta in (0, pi/4].
    """
    _require_sector_range(r)
    coeffs, companion, d = _solve_sector_at(r, sector, born_point(r).vector, tangent_basis(r))
    return coeffs, companion[2:4].copy(), d


def _solve_sector_at(r: QubitRealization, sector: tuple[int, int], p_vec: np.ndarray,
                     basis: TangentBasis) -> tuple[np.ndarray, np.ndarray, float]:
    """``solve_sector`` given born_point(r).vector and tangent_basis(r), for a
    realization in the sector range; returns (coeffs, companion point P + v, D)."""
    s, t = sector
    if (s, t) == (-1, 1):
        raise ExcludedSectorError("sector (-1, +1) has no solution for theta in (0, pi/4]")
    if (s, t) not in ((1, 1), (1, -1), (-1, -1)):
        raise ValueError(f"sector must be in {{+-1}}^2, got {sector!r}")
    d = sector_denominator(r, sector)
    if abs(d) < 1e-12:
        raise DegenerateDenominatorError(f"sector denominator D_st = {d!r}")
    a0s, a1t = _shifted_angles(r, sector)
    th = r.theta
    coeffs = np.array([
        math.cos((a0s + a1t) / 2) * math.sin(2 * th) / d,
        2 * math.sin(a0s / 2) * math.cos(a1t / 2) * math.sin(th) / d,
        2 * math.cos(a0s / 2) * math.sin(a1t / 2) * math.cos(th) / d,
        -2 * math.sin((a0s - a1t) / 2) / d,
        0.0,
    ])
    return coeffs, p_vec + coeffs @ basis.vecs, d


def delta_condition(r: QubitRealization, sector: tuple[int, int]) -> np.ndarray:
    """Sign quantities Delta_y = s t sin(atilde_0^s - b_y) sin(atilde_1^t - b_y);
    both nonnegative iff the sector's companion point is local (|alpha_y| <= 1)."""
    _require_sector_range(r)
    if tuple(sector) == (-1, 1):
        raise ExcludedSectorError("sector (-1, +1) has no solution for theta in (0, pi/4]")
    return _deltas(r, modified_angles(r), sector)


def _deltas(r: QubitRealization, at: np.ndarray, sector: tuple[int, int]) -> np.ndarray:
    """``delta_condition`` given Alice's modified angles ``at`` of r."""
    s, t = sector
    a0s = at[0, 0] if s == 1 else at[1, 0]
    a1t = at[0, 1] if t == 1 else at[1, 1]
    return np.array([
        s * t * math.sin(a0s - r.b[y]) * math.sin(a1t - r.b[y]) for y in range(2)
    ])


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
    strictly alternating.
    """
    basis = tangent_basis(r)  # also rejects realizations outside the sector range
    p_vec = born_point(r).vector
    for sector in SECTOR_ORDER:
        try:
            coeffs, companion, _ = _solve_sector_at(r, sector, p_vec, basis)
        except DegenerateDenominatorError:
            continue
        alphas = companion[2:4].copy()
        if np.max(np.abs(alphas)) > 1.0 + TOL_EQ:
            continue
        local_vec = np.clip(companion, -1.0, 1.0)
        if invalid_rows(local_vec[None])[0] or not _fine_local(local_vec):
            continue
        if np.array_equal(local_vec, p_vec):
            continue  # companion coincides with P; not a witness
        return FlatnessWitness(
            sector=sector,
            coeffs=coeffs,
            alphas=alphas,
            local_point=Behavior.from_vector(local_vec),
            deltas=_deltas(r, modified_angles(r), sector),
        )
    return None


def _orthonormalize(rows: np.ndarray, against: list[np.ndarray], tol: float) -> list[np.ndarray]:
    """Pivoted modified Gram-Schmidt: repeatedly take the largest residual row."""
    work = rows.astype(float).copy()
    for q in against:
        work -= np.outer(work @ q, q)
    picked: list[np.ndarray] = []
    while True:
        norms = np.linalg.norm(work, axis=1)
        i = int(np.argmax(norms))
        if norms[i] <= tol:
            return picked
        q = work[i] / norms[i]
        picked.append(q)
        work -= np.outer(work @ q, q)


def orthocomplement(basis: TangentBasis, pivot_tol: float = 1e-10
                    ) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the complement of the tangent space in R^8.

    Returns (complement rows, rank of the tangent basis).  Generic rank is 5,
    giving a 3-dimensional complement; rank deficiency is reported through
    the rank value and simply enlarges the complement.
    """
    q_rows = _orthonormalize(basis.vecs, [], pivot_tol)
    rank = len(q_rows)
    comp = _orthonormalize(np.eye(8), q_rows, pivot_tol)
    return np.array(comp[: 8 - rank]), rank


def flatness_deviation(w: FlatnessWitness, p: Behavior, basis: TangentBasis) -> float:
    """max |beta . (L - P)| over an orthocomplement basis of the tangent space."""
    comp, _ = orthocomplement(basis)
    diff = w.local_point.vector - p.vector
    return float(np.max(np.abs(comp @ diff))) if comp.size else 0.0

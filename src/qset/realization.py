"""Canonical two-qubit realizations and Born-rule evaluation.

A realization is the real family

    state |phi_theta> = cos(theta)|00> + sin(theta)|11>,
    A_x = cos(a_x) sigma_z + sin(a_x) sigma_x,
    B_y = cos(b_y) sigma_z + sin(b_y) sigma_x,

whose behavior has the closed form

    <A_x>    = cos(2 theta) cos(a_x)
    <B_y>    = cos(2 theta) cos(b_y)
    <A_x B_y> = cos(a_x) cos(b_y) + sin(2 theta) sin(a_x) sin(b_y).

Angles are stored unreduced; canonicalization is explicit, never implicit,
so relabeling bookkeeping stays visible to the caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .behavior import Behavior
from .errors import DegenerateThetaError, SamplingError
from .symmetry import SymmetryElement, group_elements
from .tolerances import TOL_EQ

__all__ = [
    "QubitRealization",
    "born_point",
    "born_point_matrix",
    "born_vector",
    "born_jacobian",
    "canonicalize",
    "apply_relabeling",
    "sample_realization",
]

PI = math.pi

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class QubitRealization:
    """Two-qubit realization parameters (radians)."""

    theta: float
    a: tuple[float, float]
    b: tuple[float, float]

    def __post_init__(self):
        vals = (self.theta, *self.a, *self.b)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("realization angles must be finite")

    def is_canonical(self, tol: float = TOL_EQ) -> bool:
        """True when the parameters lie in the reduced range
        theta in [0, pi), 0 <= a0 <= b0 <= b1 < pi, a0 <= a1 < pi."""
        th, (a0, a1), (b0, b1) = self.theta, self.a, self.b
        return (
            -tol <= th < PI + tol
            and -tol <= a0 <= b0 + tol
            and b0 <= b1 + tol
            and b1 < PI + tol
            and a0 <= a1 + tol
            and a1 < PI + tol
        )

    def params(self) -> tuple[float, float, float, float, float]:
        return (self.theta, self.a[0], self.a[1], self.b[0], self.b[1])

    def to_json_dict(self) -> dict:
        return {"theta": self.theta, "a": list(self.a), "b": list(self.b)}

    @staticmethod
    def from_json_dict(d: dict) -> "QubitRealization":
        return QubitRealization(
            theta=float(d["theta"]),
            a=(float(d["a"][0]), float(d["a"][1])),
            b=(float(d["b"][0]), float(d["b"][1])),
        )


def born_vector(theta, a0, a1, b0, b1):
    """Behavior components as arrays; broadcasts over array-valued parameters.

    Returns an array with the 8 behavior components stacked along the last axis.
    """
    theta, a0, a1, b0, b1 = np.broadcast_arrays(
        np.asarray(theta, float), np.asarray(a0, float), np.asarray(a1, float),
        np.asarray(b0, float), np.asarray(b1, float))
    c2 = np.cos(2 * theta)
    s2 = np.sin(2 * theta)
    ca0, ca1, cb0, cb1 = np.cos(a0), np.cos(a1), np.cos(b0), np.cos(b1)
    sa0, sa1, sb0, sb1 = np.sin(a0), np.sin(a1), np.sin(b0), np.sin(b1)
    comps = [
        c2 * ca0, c2 * ca1, c2 * cb0, c2 * cb1,
        ca0 * cb0 + s2 * sa0 * sb0,
        ca0 * cb1 + s2 * sa0 * sb1,
        ca1 * cb0 + s2 * sa1 * sb0,
        ca1 * cb1 + s2 * sa1 * sb1,
    ]
    return np.stack(comps, axis=-1)


#: Angle multipliers of (theta, a0, a1, b0, b1) inside the trig terms.
_JAC_FREQ = np.array([2.0, 1.0, 1.0, 1.0, 1.0])
_EYE4 = np.eye(4)


def born_jacobian(theta, a0, a1, b0, b1):
    """Partial derivatives of ``born_vector``; broadcasts like it.

    Returns an array of shape (..., 8, 5): behavior component along the
    second-to-last axis, parameter (theta, a0, a1, b0, b1) along the last.
    """
    params = (theta, a0, a1, b0, b1)
    shape = np.broadcast(*params).shape
    q = np.empty(shape + (5,))
    for k, v in enumerate(params):
        q[..., k] = v
    q *= _JAC_FREQ
    c, s = np.cos(q), np.sin(q)
    # 2x2 correlator blocks: Alice's angle x along rows, Bob's angle y along columns
    c2, s2 = c[..., :1, None], s[..., :1, None]
    ca, sa = c[..., 1:3, None], s[..., 1:3, None]
    cb, sb = c[..., None, 3:], s[..., None, 3:]
    jac = np.zeros(shape + (8, 5))
    # marginals c2 cos(angle): each depends on theta and on its own angle
    jac[..., :4, 0] = -2 * s[..., :1] * c[..., 1:]
    jac[..., :4, 1:] = -c2 * s[..., None, 1:] * _EYE4
    # correlators ca_x cb_y + s2 sa_x sb_y
    jac[..., 4:, 0] = (2 * c2 * sa * sb).reshape(shape + (4,))
    d_a = s2 * ca * sb - sa * cb
    jac[..., 4:6, 1] = d_a[..., 0, :]
    jac[..., 6:8, 2] = d_a[..., 1, :]
    d_b = s2 * sa * cb - ca * sb
    jac[..., 4::2, 3] = d_b[..., :, 0]
    jac[..., 5::2, 4] = d_b[..., :, 1]
    return jac


def born_point(r: QubitRealization) -> Behavior:
    """Behavior of a realization via the closed-form expressions."""
    return Behavior.from_vector(born_vector(r.theta, r.a[0], r.a[1], r.b[0], r.b[1]))


def measurement_operator(angle: float) -> np.ndarray:
    return math.cos(angle) * SIGMA_Z + math.sin(angle) * SIGMA_X


def born_point_matrix(r: QubitRealization) -> Behavior:
    """Independent Born-rule oracle: explicit |phi_theta> and 4x4 operators."""
    phi = np.array([math.cos(r.theta), 0.0, 0.0, math.sin(r.theta)])
    eye = np.eye(2)
    a_ops = [measurement_operator(x) for x in r.a]
    b_ops = [measurement_operator(y) for y in r.b]

    def ev(m: np.ndarray) -> float:
        return float(phi @ m @ phi)

    vec = [ev(np.kron(a_ops[0], eye)), ev(np.kron(a_ops[1], eye)),
           ev(np.kron(eye, b_ops[0])), ev(np.kron(eye, b_ops[1]))]
    for x in range(2):
        for y in range(2):
            vec.append(ev(np.kron(a_ops[x], b_ops[y])))
    return Behavior.from_vector(vec)


def apply_relabeling(g: SymmetryElement, r: QubitRealization) -> QubitRealization:
    """Realization-level relabeling: born_point(g . R) = apply_symmetry(g, born_point(R))."""
    a, b = list(r.a), list(r.b)
    if g.party_swap:
        a, b = b, a
    if g.input_swap_a:
        a = [a[1], a[0]]
    if g.input_swap_b:
        b = [b[1], b[0]]
    a = [a[x] + (PI if g.output_flip[x] else 0.0) for x in range(2)]
    b = [b[y] + (PI if g.output_flip[2 + y] else 0.0) for y in range(2)]
    return QubitRealization(theta=r.theta, a=(a[0], a[1]), b=(b[0], b[1]))


# --- local-unitary gauge moves --------------------------------------------
#
# Beyond relabelings, the behavior is invariant under the local-unitary moves
#   (theta, a, b) -> (pi - theta,   a,      -b)       [conjugation quirk of phi_theta]
#   (theta, a, b) -> (pi/2 - theta, pi - a, pi - b)   [X (x) X basis flip]
#   (theta, a, b) -> (theta,        -a,     -b)       [sigma_z (x) sigma_z reflection]
# plus theta mod pi and angles mod 2pi.  Each move is affine:
#   theta' = et*theta + kt*(pi/2),  a' = ea*a + ka*pi,  b' = eb*b + kb*pi.

_GAUGE_GENERATORS = [
    (1, 0, 1, 0, 1, 0),
    (-1, 2, 1, 0, -1, 0),
    (-1, 1, -1, 1, -1, 1),
    (1, 0, -1, 0, -1, 0),
]


def _gauge_compose(m2, m1):
    et2, kt2, ea2, ka2, eb2, kb2 = m2
    et1, kt1, ea1, ka1, eb1, kb1 = m1
    return (et2 * et1, (et2 * kt1 + kt2) % 2,
            ea2 * ea1, (ea2 * ka1 + ka2) % 2,
            eb2 * eb1, (eb2 * kb1 + kb2) % 2)


@functools.lru_cache(maxsize=1)
def _gauge_moves() -> tuple[tuple, ...]:
    moves = {(1, 0, 1, 0, 1, 0)}
    frontier = {_gauge_compose(m, (1, 0, 1, 0, 1, 0)) for m in _GAUGE_GENERATORS}
    while frontier - moves:
        moves |= frontier
        frontier = {_gauge_compose(g, m) for g in _GAUGE_GENERATORS for m in moves}
    return tuple(sorted(moves))


@functools.lru_cache(maxsize=1)
def _candidate_tables():
    """Precompute the combined gauge x relabeling transform tables.

    Row layout per candidate: theta' = ET*theta + KT*pi/2 (mod pi);
    slot angle' = SGN[slot] * angles[SRC[slot]] + OFF[slot]*pi (mod 2pi),
    slots ordered (a0, a1, b0, b1).
    """
    moves = _gauge_moves()
    elems = group_elements()
    et, kt, src, sgn, off, ridx, midx = [], [], [], [], [], [], []
    for mi, m in enumerate(moves):
        emt, kmt, ea, ka, eb, kb = m
        for ri, g in enumerate(elems):
            perm = [0, 1, 2, 3]
            if g.party_swap:
                perm = [2, 3, 0, 1]
            if g.input_swap_a:
                perm[0], perm[1] = perm[1], perm[0]
            if g.input_swap_b:
                perm[2], perm[3] = perm[3], perm[2]
            e_src = [ea, ea, eb, eb]
            k_src = [ka, ka, kb, kb]
            et.append(emt)
            kt.append(kmt)
            src.append([perm[s] for s in range(4)])
            sgn.append([e_src[perm[s]] for s in range(4)])
            off.append([k_src[perm[s]] + (1 if g.output_flip[s] else 0) for s in range(4)])
            ridx.append(ri)
            midx.append(mi)
    return (np.array(et, float), np.array(kt, float), np.array(src, int),
            np.array(sgn, float), np.array(off, float), tuple(ridx))


def canonicalize(r: QubitRealization, sector: bool = False) -> tuple[QubitRealization, SymmetryElement]:
    """Reduce a realization to the canonical parameter range.

    Returns (canonical realization, witness element g) with
    born_point(canonical) = apply_symmetry(g, born_point(r)) to float accuracy.
    The representative is the lexicographic minimum of (theta, a0, a1, b0, b1)
    over all gauge-move x relabeling images that satisfy the range constraints;
    the minimum always lands theta in [0, pi/4].

    With sector=True the result is additionally required to have
    theta in (0, pi/4]; a product-state input then raises DegenerateThetaError.
    """
    et, kt, src, sgn, off, ridx = _candidate_tables()
    angles = np.array([r.a[0], r.a[1], r.b[0], r.b[1]])
    thetas = np.mod(et * r.theta + kt * (PI / 2), PI)
    cand = sgn * angles[src] + off * PI
    cand = np.mod(cand, 2 * PI)
    fold = cand >= PI
    cand = cand - fold * PI
    ok = (
        (cand[:, 0] <= cand[:, 1] + TOL_EQ)
        & (cand[:, 0] <= cand[:, 2] + TOL_EQ)
        & (cand[:, 2] <= cand[:, 3] + TOL_EQ)
    )
    if sector:
        ok &= (thetas > TOL_EQ) & (thetas <= PI / 4 + TOL_EQ)
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        raise DegenerateThetaError(
            f"no image of theta={r.theta!r} lies in the requested sector")
    order = np.lexsort((cand[idx, 3], cand[idx, 2], cand[idx, 1], cand[idx, 0], thetas[idx]))
    win = idx[order[0]]
    out = QubitRealization(
        theta=float(thetas[win]),
        a=(float(cand[win, 0]), float(cand[win, 1])),
        b=(float(cand[win, 2]), float(cand[win, 3])),
    )
    base = group_elements()[ridx[win]]
    extra = tuple(bool(fold[win, s]) != bool(base.output_flip[s]) for s in range(4))
    witness = SymmetryElement(
        party_swap=base.party_swap,
        input_swap_a=base.input_swap_a,
        input_swap_b=base.input_swap_b,
        output_flip=extra,
    )
    return out, witness


_CONSTRAINTS = {"canonical", "fully-alternating", "strictly-alternating", "non-alternating"}


def sample_realization(seed, constraints=frozenset({"canonical"}),
                       theta_range: tuple[float, float] | None = None,
                       max_tries: int = 20000) -> QubitRealization:
    """Seeded uniform sampling of realizations under the given constraints.

    ``constraints`` is a subset of {canonical, fully-alternating,
    strictly-alternating, non-alternating}; the alternation constraints imply
    the canonical range and default to theta in (0, pi/4].  ``seed`` may be an
    int or a numpy Generator.
    """
    cons = frozenset(constraints)
    unknown = cons - _CONSTRAINTS
    if unknown:
        raise ValueError(f"unknown sampling constraints: {sorted(unknown)}")
    alternating = bool(cons & {"fully-alternating", "strictly-alternating"})
    if alternating and "non-alternating" in cons:
        raise ValueError("alternating and non-alternating constraints conflict")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    from .steering import modified_angles_raw
    from .extremality import full_alternation_check

    if theta_range is None:
        theta_range = (0.0, PI / 4) if (alternating or "non-alternating" in cons) else (0.0, PI)

    for _ in range(max_tries):
        theta = rng.uniform(*theta_range)
        if alternating:
            if abs(math.sin(2 * theta)) < 1e-9:
                continue
            a = np.sort(rng.uniform(0.0, PI, 2))
            at = modified_angles_raw(theta, a)  # shape (2, 2): [alpha][x]
            lo, hi = max(at[0, 0], at[1, 0]), min(at[0, 1], at[1, 1])
            if hi <= lo:
                continue
            b0 = rng.uniform(lo, hi)
            b1 = rng.uniform(max(b0, at[0, 1], at[1, 1]), PI)
            r = QubitRealization(theta, (a[0], a[1]), (b0, b1))
            strict = "strictly-alternating" in cons
            if full_alternation_check(r, strict=strict)[0]:
                return r
            continue
        a = np.sort(rng.uniform(0.0, PI, 2))
        b = np.sort(rng.uniform(0.0, PI, 2))
        if a[0] > b[0]:
            continue
        r = QubitRealization(theta, (a[0], a[1]), (b[0], b[1]))
        if "non-alternating" in cons:
            if abs(math.sin(2 * theta)) < 1e-9:
                continue
            if full_alternation_check(r, strict=False)[0]:
                continue
        return r
    raise SamplingError(f"no sample satisfying {sorted(cons)} after {max_tries} tries")

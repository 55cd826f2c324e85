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
from .symmetry import SymmetryElement, group_elements, signed_permutation
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
        return _in_canonical_range(*self.params(), tol)

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


def _in_canonical_range(theta, a0, a1, b0, b1, tol: float = TOL_EQ) -> bool:
    """True when theta in [0, pi), 0 <= a0 <= b0 <= b1 < pi and a0 <= a1 < pi,
    each bound widened by ``tol``."""
    return (
        -tol <= theta < PI + tol
        and -tol <= a0 <= b0 + tol
        and b0 <= b1 + tol
        and b1 < PI + tol
        and a0 <= a1 + tol
        and a1 < PI + tol
    )


def born_vector(theta, a0, a1, b0, b1):
    """Behavior components as arrays; broadcasts over array-valued parameters.

    Returns an array with the 8 behavior components stacked along the last axis.
    The result is float32 when every parameter is float32 (arrays or numpy
    scalars); any other input (float64 arrays, Python floats or ints, a mix
    of float32 with anything else) is computed and returned in float64.
    """
    # theta is tested alone first, so scalar and float64 calls pay one test
    single = getattr(theta, "dtype", None) == np.float32 \
        and all(getattr(v, "dtype", None) == np.float32 for v in (a0, a1, b0, b1))
    dtype = np.float32 if single else float
    theta, a0, a1, b0, b1 = np.broadcast_arrays(
        np.asarray(theta, dtype), np.asarray(a0, dtype), np.asarray(a1, dtype),
        np.asarray(b0, dtype), np.asarray(b1, dtype))
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
    """Realization-level relabeling: born_point(g . R) = apply_symmetry(g, born_point(R)).

    Marginal slot k of the behavior is cos(2 theta) cos(angle k), so g moves
    the angles (a0, a1, b0, b1) as it moves the marginals, and an output
    flip adds pi to the flipped angle."""
    perm, sign = signed_permutation(g)
    angles = np.array(r.a + r.b)[perm[:4]] + np.where(sign[:4] < 0, PI, 0.0)
    a0, a1, b0, b1 = angles.tolist()
    return QubitRealization(theta=r.theta, a=(a0, a1), b=(b0, b1))


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

    Candidate j maps theta to TSGN[k]*theta + TOFF[k]*pi/2 (mod pi) with
    k = TI[j], and slot s of (a0, a1, b0, b1) to
    ASGN[k]*angles[ASRC[k]] + AOFF[k]*pi (mod 2pi) with k = AI[s, j].  The
    1024 candidates share a few dozen distinct images, so each is reduced
    once.  RIDX[j] is the candidate's relabeling in ``group_elements()``.
    """
    theta_maps: dict[tuple, int] = {}
    angle_maps: dict[tuple, int] = {}
    ti, ai, ridx = [], [], []
    for emt, kmt, ea, ka, eb, kb in _gauge_moves():
        for ri, g in enumerate(group_elements()):
            # angle slots move as the marginals do (see apply_relabeling)
            perm, sign = signed_permutation(g)
            perm, flip = perm[:4].tolist(), (sign[:4] < 0).tolist()
            e_src = [ea, ea, eb, eb]
            k_src = [ka, ka, kb, kb]
            ti.append(theta_maps.setdefault((emt, kmt), len(theta_maps)))
            ai.append([angle_maps.setdefault(
                (perm[s], e_src[perm[s]], k_src[perm[s]] + flip[s]),
                len(angle_maps)) for s in range(4)])
            ridx.append(ri)
    tmap = np.array(list(theta_maps), dtype=float)
    amap = np.array(list(angle_maps))
    return (tmap[:, 0], tmap[:, 1], np.array(ti), amap[:, 0], amap[:, 1].astype(float),
            amap[:, 2].astype(float), np.array(ai).T.copy(), tuple(ridx))


#: Rows per ``_canonicalize_many`` chunk: each row expands to 1024 candidates.
CANONICALIZE_CHUNK = 8


def _canonicalize_many(params: np.ndarray, sector: bool = False
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``canonicalize`` over the rows of an (N, 5) array of (theta, a0, a1, b0, b1).

    Returns the canonical parameters (N, 5), the index of the winning
    gauge x relabeling candidate per row (-1 where no image satisfies the
    constraints; that row's parameters are NaN) and its (N, 4) fold flags,
    from which ``_canonical_witness`` builds the witness element.
    """
    tsgn, toff, ti, asrc, asgn, aoff, ai, _ = _candidate_tables()
    n = len(params)
    out = np.full((n, 5), np.nan)
    win = np.full(n, -1)
    folds = np.zeros((n, 4), bool)
    for lo in range(0, n, CANONICALIZE_CHUNK):
        chunk = params[lo:lo + CANONICALIZE_CHUNK]
        thetas = np.mod(tsgn * chunk[:, :1] + toff * (PI / 2), PI).take(ti, axis=1)
        images = np.mod(asgn * chunk[:, 1 + asrc] + aoff * PI, 2 * PI)
        fold = images >= PI
        images -= fold * PI
        a0, a1, b0, b1 = (images.take(slot, axis=1) for slot in ai)
        ok = (a0 <= a1 + TOL_EQ) & (a0 <= b0 + TOL_EQ) & (b0 <= b1 + TOL_EQ)
        if sector:
            ok &= (thetas > TOL_EQ) & (thetas <= PI / 4 + TOL_EQ)
        # per row, the lexicographic minimum of (theta, a0, a1, b0, b1) over the
        # admissible candidates; lexsort is stable, so ties go to the first one
        hits = np.flatnonzero(ok)
        if hits.size == 0:
            continue
        r_idx, c_idx = np.divmod(hits, ok.shape[1])
        keys = [key.take(hits) for key in (thetas, a0, a1, b0, b1)]
        order = np.lexsort(keys[::-1] + [r_idx])
        r_sorted = r_idx[order]
        first = order[np.concatenate(([True], r_sorted[1:] != r_sorted[:-1]))]
        rows = lo + r_idx[first]
        out[rows] = np.column_stack([key[first] for key in keys])
        win[rows] = c_idx[first]
        folds[rows] = fold[r_idx[first, None], ai[:, c_idx[first]].T]
    return out, win, folds


def _canonical_witness(win: int, fold) -> SymmetryElement:
    """Witness element of a ``_canonicalize_many`` row from its candidate index
    and fold flags."""
    base = group_elements()[_candidate_tables()[7][win]]
    extra = tuple(bool(fold[s]) != bool(base.output_flip[s]) for s in range(4))
    return SymmetryElement(
        party_swap=base.party_swap,
        input_swap_a=base.input_swap_a,
        input_swap_b=base.input_swap_b,
        output_flip=extra,
    )


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
    out, win, folds = _canonicalize_many(np.array([r.params()]), sector)
    if win[0] < 0:
        raise DegenerateThetaError(
            f"no image of theta={r.theta!r} lies in the requested sector")
    theta, a0, a1, b0, b1 = out[0].tolist()
    return (QubitRealization(theta=theta, a=(a0, a1), b=(b0, b1)),
            _canonical_witness(win[0], folds[0]))


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

"""Canonical two-qubit realizations, Born-rule evaluation, modified angles, alternation.

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
from typing import NamedTuple

import numpy as np

from .behavior import Behavior, _is_number, _pair, _require_keys, _to_float
from .errors import DegenerateThetaError, SamplingError
from .symmetry import SymmetryElement, group_elements, signed_permutation
from .tolerances import TOL_EQ

__all__ = [
    "QubitRealization",
    "born_point",
    "born_vector",
    "born_jacobian",
    "canonicalize",
    "apply_relabeling",
    "modified_angles_raw",
    "alternation_margins",
    "sample_realization",
]

PI = math.pi


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

    def is_canonical(self) -> bool:
        """True when the parameters lie in the reduced range
        theta in [0, pi), 0 <= a0 <= b0 <= b1 < pi, a0 <= a1 < pi, each bound
        widened by TOL_EQ (``alternation_margins`` has the array form)."""
        theta, a0, a1, b0, b1 = self.params()
        tol = TOL_EQ
        return (-tol <= theta < PI + tol and -tol <= a0 <= b0 + tol and b0 <= b1 + tol
                and b1 < PI + tol and a0 <= a1 + tol and a1 < PI + tol)

    def params(self) -> tuple[float, float, float, float, float]:
        return (self.theta, self.a[0], self.a[1], self.b[0], self.b[1])

    def to_json_dict(self) -> dict:
        return {"theta": self.theta, "a": list(self.a), "b": list(self.b)}

    @staticmethod
    def from_json_dict(d: dict) -> "QubitRealization":
        """{"theta": t, "a": [a0, a1], "b": [b0, b1]}, checked as ``Behavior.from_json_dict``."""
        _require_keys(d, "realization", ("theta", "a", "b"))
        theta = d["theta"]
        if not _is_number(theta):
            raise ValueError(f"theta must be a number, got {theta!r}")
        return QubitRealization(_to_float(theta), _pair("a", d["a"]), _pair("b", d["b"]))


def born_vector(theta, a0, a1, b0, b1):
    """Behavior components as arrays; broadcasts over array-valued parameters.

    Returns a float64 array with the 8 behavior components stacked along the
    last axis, whatever the dtype of the parameters.
    """
    comps = _born(_param_major(theta, a0, a1, b0, b1))
    return np.ascontiguousarray(comps.transpose(*range(1, comps.ndim), 0))


def born_jacobian(theta, a0, a1, b0, b1):
    """Partial derivatives of ``born_vector``; broadcasts like it.

    Returns an array of shape (..., 8, 5): behavior component along the
    second-to-last axis, parameter (theta, a0, a1, b0, b1) along the last.
    """
    jac = _born(_param_major(theta, a0, a1, b0, b1), jacobian=True)[1]
    return np.ascontiguousarray(jac.transpose(*range(2, jac.ndim), 0, 1))


def _param_major(*params) -> np.ndarray:
    """The broadcast parameters stacked along a new first axis, in float64."""
    q = np.empty((5,) + np.broadcast(*params).shape)
    for k, v in enumerate(params):
        q[k] = v
    return q


#: Marginal k of ``_born`` depends on angle k alone.
_EYE4 = np.eye(4)


def _born(q: np.ndarray, jacobian: bool = False):
    """Born map of parameter-major rows ``q`` (5, ...) of (theta, a0, a1,
    b0, b1), in the dtype of ``q``; ``q`` is overwritten by the sines.

    Returns the 8 behavior components along a new first axis (8, ...), and
    with ``jacobian`` also their partial derivatives (8, 5, ...).  One
    cosine and one sine over ``q`` serve both."""
    q[0] *= 2
    c = np.cos(q)
    s = np.sin(q, out=q)
    lead = q.shape[1:]
    # 2x2 correlator blocks: Alice's angle x along axis 0, Bob's angle y along axis 1
    c2, s2 = c[0], s[0]
    ca, sa = c[1:3, None], s[1:3, None]
    cb, sb = c[None, 3:], s[None, 3:]
    s2sa = s2 * sa
    comps = np.empty((8,) + lead, q.dtype)
    np.multiply(c2, c[1:], out=comps[:4])
    corr = comps[4:].reshape((2, 2) + lead)
    np.multiply(ca, cb, out=corr)
    corr += s2sa * sb
    if not jacobian:
        return comps
    jac = np.zeros((8, 5) + lead, q.dtype)
    # marginals c2 cos(angle): each depends on theta and on its own angle
    jac[:4, 0] = -2 * s2 * c[1:]
    jac[:4, 1:] = -c2 * s[1:] * _EYE4.reshape((4, 4) + (1,) * len(lead))
    # correlators ca_x cb_y + s2 sa_x sb_y
    jac[4:, 0] = (2 * c2 * sa * sb).reshape((4,) + lead)
    d_a = s2 * ca * sb - sa * cb
    jac[4:6, 1] = d_a[0]
    jac[6:8, 2] = d_a[1]
    d_b = s2sa * cb - ca * sb
    jac[4::2, 3] = d_b[:, 0]
    jac[5::2, 4] = d_b[:, 1]
    return comps, jac


def born_point(r: QubitRealization) -> Behavior:
    """Behavior of a realization via the closed-form expressions."""
    return Behavior.from_vector(born_vector(r.theta, r.a[0], r.a[1], r.b[0], r.b[1]))


def modified_angles_raw(theta, a):
    """Modified angles for both outcome signs; array-friendly, no gating.

    Returns an array of shape (2,) + shape(a): index 0 is alpha = +1,
    index 1 is alpha = -1.
    """
    theta = np.asarray(theta, float)
    half = np.asarray(a, float) / 2
    sa, ca, st, ct = np.sin(half), np.cos(half), np.sin(theta), np.cos(theta)
    plus = 2 * np.arctan2(sa * st, ca * ct)
    minus = 2 * np.arctan2(sa * ct, ca * st)
    return np.stack([plus, minus])


def alternation_margins(params) -> tuple[np.ndarray, dict[int, Exception]]:
    """``extremality.full_alternation_check`` margins of realizations given
    as rows (theta, a0, a1, b0, b1) of an (N, 5) array.

    Returns the (N, 8) margins and the error ``full_alternation_check``
    raises for each row it rejects (ValueError for a non-canonical row,
    DegenerateThetaError for theta = 0 mod pi/2); those rows' margins are NaN.
    The degenerate test is |sin 2 theta| < 1e-12 in ``math`` (libm): numpy's
    sin only screens for the rows to test, with twice the bound.  Each block
    is one subtraction written in place (``out=``), so no bit moves.
    """
    params = np.asarray(params, dtype=float)
    theta, a0, a1, b0, b1 = params.T[:, :, None]  # (N, 1) columns
    at = np.mod(modified_angles_raw(theta, params[:, 1:3]), PI).T  # [x, row, alpha]
    margins = np.empty((len(params), 8))
    np.subtract(b0, at[0], out=margins[:, 0:2])
    np.subtract(at[1], b0, out=margins[:, 2:4])
    np.subtract(b1, at[1], out=margins[:, 4:6])
    margins[:, 6:7] = b0
    np.subtract(PI, b1, out=margins[:, 7:8])
    # ``QubitRealization.is_canonical``, its bounds grouped by np.minimum and
    # np.maximum: exact, as rounding is monotone
    canonical = ((-TOL_EQ <= np.minimum(theta, a0))
                 & (np.maximum(np.maximum(theta, a1), b1) < PI + TOL_EQ)
                 & (a0 <= np.minimum(b0, a1) + TOL_EQ) & (b0 <= b1 + TOL_EQ))[:, 0]
    suspect = ~canonical | (np.abs(np.sin(2 * theta[:, 0])) < 2e-12)
    errors: dict[int, Exception] = {}
    for i in suspect.nonzero()[0].tolist():
        t = float(params[i, 0])
        if not canonical[i]:
            errors[i] = ValueError("full_alternation_check requires a canonical realization")
        elif abs(math.sin(2 * t)) < 1e-12:
            errors[i] = DegenerateThetaError(f"theta={t!r} is 0 mod pi/2")
    if errors:
        margins[list(errors)] = np.nan
    return margins, errors


def _alternating(margins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strict and non-strict alternation of (N, 8) margins (a NaN row: neither)."""
    inner, outer = margins[:, :6].min(axis=1), margins[:, 6:].min(axis=1) >= -TOL_EQ
    return outer & (inner > TOL_EQ), outer & (inner >= -TOL_EQ)


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

#: The group the three moves and theta mod pi generate, as (et, kt, ea, ka,
#: eb, kb) with kt, ka, kb mod 2, in sorted order: the order fixes the
#: candidate indices of ``_candidate_tables``.
_GAUGE_MOVES = (
    (-1, 0, -1, 0, 1, 0), (-1, 0, 1, 0, -1, 0), (-1, 1, -1, 1, -1, 1), (-1, 1, 1, 1, 1, 1),
    (1, 0, -1, 0, -1, 0), (1, 0, 1, 0, 1, 0), (1, 1, -1, 1, 1, 1), (1, 1, 1, 1, -1, 1),
)


class _Candidates(NamedTuple):
    """Tables of the 1024 gauge x relabeling candidates.

    Image column m of a row is mod(sign[m] * params[src[m]] + offset[m],
    period[m]), less pi where it is at least fold_at[m].  ``cols`` (5, 1024)
    holds the image columns of each candidate's (theta, a0, a1, b0, b1); the
    256 candidates of theta map k are columns 256 k to 256 k + 255, and their
    theta column is k.  ``ridx`` is each candidate's relabeling in
    ``group_elements()``.
    """

    sign: np.ndarray
    src: np.ndarray
    offset: np.ndarray
    period: np.ndarray
    fold_at: np.ndarray
    cols: np.ndarray
    ridx: tuple


@functools.lru_cache(maxsize=1)
def _candidate_tables() -> _Candidates:
    """Precompute the combined gauge x relabeling transform tables.

    Candidate j maps theta by its gauge move and moves the angle slots as the
    marginals move (see ``apply_relabeling``), an output flip adding pi.  The
    1024 candidates share 4 theta images (mod pi) and 24 angle images (mod
    2pi, folded into [0, pi)), so each row evaluates those 28 images once and
    a candidate's (theta, a0, a1, b0, b1) are 5 of its columns.
    """
    theta_maps: dict[tuple, int] = {}
    angle_maps: dict[tuple, int] = {}
    ti, ai, ridx = [], [], []
    for emt, kmt, ea, ka, eb, kb in _GAUGE_MOVES:
        for ri, g in enumerate(group_elements()):
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
    nt, na = len(tmap), len(amap)
    ti = np.array(ti)
    # moves are sorted, so the candidates of each theta map are consecutive
    assert np.array_equal(ti, np.repeat(np.arange(nt), len(ti) // nt))
    return _Candidates(
        sign=np.concatenate([tmap[:, 0], amap[:, 1]]),
        src=np.concatenate([np.zeros(nt, int), 1 + amap[:, 0]]),
        offset=np.concatenate([tmap[:, 1] * (PI / 2), amap[:, 2] * PI]),
        period=np.repeat([PI, 2 * PI], [nt, na]),
        fold_at=np.repeat([np.inf, PI], [nt, na]),
        cols=np.vstack([ti, nt + np.array(ai).T]),
        ridx=tuple(ridx),
    )


#: Rows per ``_canonicalize_many`` chunk searched over one theta map's 256
#: candidates; a chunk searched over all 1024 holds a quarter as many (at
#: least one).  A chunk's arrays then hold 32 x 256 float64 (64 KiB), half
#: glibc's 128 KiB mmap threshold: from 56 rows on, 200-row calls page-fault
#: afresh, and with 8 rows they take about twice as long.
CANONICALIZE_CHUNK = 32


def _canonicalize_many(params: np.ndarray, sector: bool
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``canonicalize`` over the rows of an (N, 5) array of finite
    (theta, a0, a1, b0, b1).

    Returns the canonical parameters (N, 5), the index of the winning
    gauge x relabeling candidate per row (-1 where no image satisfies the
    constraints; that row's parameters are NaN) and its (N, 4) fold flags,
    from which ``_canonical_witness`` builds the witness element.

    theta leads the lexicographic order and depends on the theta map alone,
    so a row whose least admissible theta image comes from a single theta
    map is searched over that map's 256 candidates only.  A row where two
    theta maps give that image bit for bit (theta = 0, pi/4, ...) is
    searched over all 1024.  The map with the least admissible theta image
    always admits a candidate (input swaps and the party swap can order any
    four folded angles), so a row ends at -1 only when no theta image is
    admissible; that row is searched over map 0's candidates.

    A search keeps the admissible candidates (theta in the sector, and
    a0 <= a1, b0 <= b1, a0 <= b0, each to TOL_EQ).  Then, column by column in
    (theta, a0, a1, b0, b1) order, it keeps those equal to that column's least
    value, and takes the first left in index order.
    """
    tab = _candidate_tables()
    n = len(params)
    win = np.full(n, -1)
    # ``take`` gives C order, so a chunk's gather of its rows copies those
    # rows only (indexing ``params[:, tab.src]`` gives F order, whose row
    # gathers copy the whole array)
    images = np.mod(tab.sign * params.take(tab.src, axis=1) + tab.offset, tab.period)
    fold = images >= tab.fold_at
    np.subtract(images, PI, out=images, where=fold)
    theta = images[:, :4]
    if sector:
        # NaN marks a theta image outside the sector: no candidate admits it
        theta[(theta <= TOL_EQ) | (theta > PI / 4 + TOL_EQ)] = np.nan
    # each row's theta map with the least admissible image (NaN sorts last),
    # or all maps where two give that image
    maps = theta.shape[1]
    size = tab.cols.shape[1] // maps
    lowest = np.sort(theta, axis=1)
    group = np.where(lowest[:, 0] >= lowest[:, 1], maps, theta.argsort(axis=1)[:, 0])

    def search(rows, first, width):
        im = images.take(rows, axis=0)
        t, *angles = (im.take(c, axis=1) for c in tab.cols[:, first:first + width])
        a0, a1, b0, b1 = angles
        # t == t fails where the theta image is NaN
        keep = (t == t) & (a0 <= a1 + TOL_EQ) & (b0 <= b1 + TOL_EQ) & (a0 <= b0 + TOL_EQ)
        # the candidates of one theta map share its theta image
        for col in ([t] if width > size else []) + angles:
            col = np.where(keep, col, np.inf)
            keep &= col == col.min(axis=1, keepdims=True)
        win[rows] = np.where(keep.any(axis=1), first + keep.argmax(axis=1), -1)

    for k in set(group.tolist()):
        rows = (group == k).nonzero()[0]
        first, width = (k * size, size) if k < maps else (0, maps * size)
        step = max(1, CANONICALIZE_CHUNK * size // width)
        for lo in range(0, len(rows), step):
            search(rows[lo:lo + step], first, width)
    every, cols = np.arange(n)[:, None], tab.cols[:, win].T
    out, folds = images[every, cols], fold[every, cols[:, 1:]]
    lost = win < 0  # win = -1 read the last candidate's columns
    out[lost], folds[lost] = np.nan, False
    return out, win, folds


def _canonical_witness(win: int, fold) -> SymmetryElement:
    """Witness element of a ``_canonicalize_many`` row from its candidate index
    and fold flags."""
    return _witness(int(win), tuple(fold.tolist()))


@functools.lru_cache(maxsize=None)
def _witness(win: int, fold: tuple[bool, ...]) -> SymmetryElement:
    """``_canonical_witness`` of one (candidate, fold flags) pair: at most
    1024 x 16 distinct elements, each built once."""
    base = group_elements()[_candidate_tables().ridx[win]]
    return SymmetryElement(
        party_swap=base.party_swap,
        input_swap_a=base.input_swap_a,
        input_swap_b=base.input_swap_b,
        output_flip=tuple(f != b for f, b in zip(fold, base.output_flip)),
    )


def canonicalize(r: QubitRealization, sector: bool = False) -> tuple[QubitRealization, SymmetryElement]:
    """Reduce a realization to the canonical parameter range.

    Returns (canonical realization, witness element g) with
    born_point(canonical) = apply_symmetry(g, born_point(r)) to float accuracy.
    The representative is the lexicographic minimum of (theta, a0, a1, b0, b1)
    over all gauge-move x relabeling images that satisfy the range constraints
    (the first such image in candidate order on a tie); the minimum always
    lands theta in [0, pi/4].  Since theta leads that order, only the 256
    images of the theta map with the least admissible theta image are
    searched, unless two theta maps tie there (see ``_canonicalize_many``).

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
                       theta_range: tuple[float, float] | None = None) -> QubitRealization:
    """Seeded uniform sampling of realizations under the given constraints.

    ``constraints`` is a subset of {canonical, fully-alternating,
    strictly-alternating, non-alternating}; the alternation constraints imply
    the canonical range and default to theta in (0, pi/4].  ``seed`` may be an
    int or a numpy Generator.  Raises SamplingError after 20000 draws that
    all miss.
    """
    cons = frozenset(constraints)
    unknown = cons - _CONSTRAINTS
    if unknown:
        raise ValueError(f"unknown sampling constraints: {sorted(unknown)}")
    alternating = bool(cons & {"fully-alternating", "strictly-alternating"})
    if alternating and "non-alternating" in cons:
        raise ValueError("alternating and non-alternating constraints conflict")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if theta_range is None:
        theta_range = (0.0, PI / 4) if (alternating or "non-alternating" in cons) else (0.0, PI)

    for _ in range(20000):
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
            r = QubitRealization(theta, tuple(a.tolist()), (b0, b1))
            strict, alternates = _alternating(alternation_margins([r.params()])[0])
            if (strict if "strictly-alternating" in cons else alternates)[0]:
                return r
            continue
        a = np.sort(rng.uniform(0.0, PI, 2))
        b = np.sort(rng.uniform(0.0, PI, 2))
        if a[0] > b[0]:
            continue
        r = QubitRealization(theta, tuple(a.tolist()), tuple(b.tolist()))
        if "non-alternating" in cons:
            if abs(math.sin(2 * theta)) < 1e-9:
                continue
            if _alternating(alternation_margins([r.params()])[0])[1][0]:
                continue
        return r
    raise SamplingError(f"no sample satisfying {sorted(cons)} after 20000 tries")

"""Independent brute-force ground truth.

Three falsifiers/cross-checks that share no code path with the analytical
modules: local-polytope membership by a small feasibility simplex over the
deterministic vertices, Bell maximization over the two-qubit family by grid
search plus coordinate refinement, and a convex-decomposition search that
tries to split a behavior into two distinct quantum parts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .behavior import Behavior, BellFunctional, validate
from .errors import InvalidBehaviorError, QsetError
from .realization import (QubitRealization, born_jacobian, born_vector, apply_relabeling,
                          canonicalize)
from .symmetry import inverse

__all__ = [
    "DeterministicVertex",
    "enumerate_vertices",
    "local_membership_lp",
    "bell_max_q2",
    "decomposition_search",
    "DecompositionResult",
]


@dataclass(frozen=True)
class DeterministicVertex:
    """Deterministic outcome assignment: one +-1 outcome per setting."""

    a_out: tuple[int, int]
    b_out: tuple[int, int]

    @property
    def behavior(self) -> Behavior:
        a, b = self.a_out, self.b_out
        return Behavior(
            marg_a=(float(a[0]), float(a[1])),
            marg_b=(float(b[0]), float(b[1])),
            corr=(
                (float(a[0] * b[0]), float(a[0] * b[1])),
                (float(a[1] * b[0]), float(a[1] * b[1])),
            ),
        )


def enumerate_vertices() -> tuple[DeterministicVertex, ...]:
    """All 16 deterministic strategies (4 per party), fixed enumeration order."""
    out = []
    for a0 in (1, -1):
        for a1 in (1, -1):
            for b0 in (1, -1):
                for b1 in (1, -1):
                    out.append(DeterministicVertex((a0, a1), (b0, b1)))
    return tuple(out)


_VERTICES = enumerate_vertices()
_VERTEX_MATRIX = np.array([v.behavior.vector for v in _VERTICES]).T  # (8, 16)
#: The LP's constraint rows: the 8 vertex coordinates and the weights' sum.
_LP_MATRIX = np.vstack([_VERTEX_MATRIX, np.ones(16)])  # (9, 16)


def _phase1_float(a_mat: np.ndarray, b: np.ndarray, tol: float = 1e-11,
                  max_iter: int = 800):
    """Phase-1 simplex (min sum of artificials) with Bland's rule.

    Returns (objective, solution over original columns, dual y in the
    original row signs)."""
    m, n = a_mat.shape
    sign = np.where(b < 0, -1.0, 1.0)
    # rows 0..m-1 hold the constraints, row m the reduced costs; the last
    # column holds the right-hand side
    tab = np.zeros((m + 1, n + m + 1))
    np.multiply(a_mat, sign[:, None], out=tab[:m, :n])
    np.fill_diagonal(tab[:, n:], 1.0)
    np.multiply(b, sign, out=tab[:m, -1])
    tab[m, n:-1] = 1.0
    tab[m, :-1] = tab[m, :-1] - tab[:m, :-1].sum(axis=0)
    basis = list(range(n, n + m))
    for _ in range(max_iter):
        # Bland's scans read Python copies: element access on a short numpy
        # row costs more than the copy
        ent = next((j for j, v in enumerate(tab[m, :-1].tolist()) if v < -tol), -1)
        if ent < 0:
            break
        best_row, best_key = -1, None
        for i, (c, t) in enumerate(zip(tab[:m, ent].tolist(), tab[:m, -1].tolist())):
            if c > tol:
                key = (t / c, basis[i])
                if best_key is None or key < best_key:
                    best_key, best_row = key, i
        if best_row < 0:
            break
        row = tab[best_row]
        row /= row[ent]
        other = tab[:, ent].copy()
        other[best_row] = 0.0
        tab -= other[:, None] * row
        basis[best_row] = ent
    rhs = tab[:m, -1].tolist()
    obj = sum(rhs[i] for i in range(m) if basis[i] >= n)
    z = np.zeros(n + m)
    z[basis] = rhs
    # artificial column i has cost 1 and reduced cost 1 - y_i
    return float(obj), z[:n], sign * (1.0 - tab[m, n:-1])


def _phase1_exact(a_rows: list[list[Fraction]], b: list[Fraction], max_iter: int = 2000):
    """Exact-arithmetic variant of the phase-1 simplex (Bland's rule); returns
    (objective, solution, dual) as ``_phase1_float`` does."""
    m, n = len(a_rows), len(a_rows[0])
    zero, one = Fraction(0), Fraction(1)
    sign = [one if bi >= 0 else -one for bi in b]
    tab = [[sign[i] * a_rows[i][j] for j in range(n)]
           + [one if k == i else zero for k in range(m)]
           + [sign[i] * b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    red = [zero] * n + [one] * m
    for j in range(n + m):
        s = sum(tab[i][j] for i in range(m))
        red[j] -= s
    for _ in range(max_iter):
        ent = -1
        for j in range(n + m):
            if red[j] < 0:
                ent = j
                break
        if ent < 0:
            break
        best_row, best_key = -1, None
        for i in range(m):
            if tab[i][ent] > 0:
                key = (tab[i][-1] / tab[i][ent], basis[i])
                if best_key is None or key < best_key:
                    best_key, best_row = key, i
        if best_row < 0:
            break
        piv = tab[best_row][ent]
        tab[best_row] = [x / piv for x in tab[best_row]]
        for i in range(m):
            if i != best_row and tab[i][ent] != 0:
                f = tab[i][ent]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[best_row])]
        f = red[ent]
        if f != 0:
            red = [x - f * y for x, y in zip(red, tab[best_row][:-1])]
        basis[best_row] = ent
    obj = sum(tab[i][-1] for i in range(m) if basis[i] >= n)
    z = [zero] * (n + m)
    for i in range(m):
        z[basis[i]] = tab[i][-1]
    return obj, z[:n], [s * (one - r) for s, r in zip(sign, red[n:])]


def local_membership_lp(p: Behavior) -> tuple[bool, object]:
    """Convex-combination feasibility over the 16 deterministic vertices.

    Returns (True, weights) with weights reproducing p to 1e-9, or
    (False, separating BellFunctional) scoring p strictly above every vertex.
    Falls back to exact rational arithmetic if the float certificate fails
    verification.
    """
    violations = validate(p)
    if violations:
        raise InvalidBehaviorError(violations)
    target = p.vector
    rhs = np.concatenate([target, [1.0]])
    obj, weights, dual = _phase1_float(_LP_MATRIX, rhs)
    if obj <= 1e-9:
        weights = np.maximum(weights, 0.0)
        if np.max(np.abs(_VERTEX_MATRIX @ weights - target)) <= 1e-9 \
                and abs(weights.sum() - 1.0) <= 1e-9:
            return True, weights
    else:
        beta = BellFunctional.from_vector(dual[:8])
        scores = dual[:8] @ _VERTEX_MATRIX
        if dual[:8] @ target - scores.max() > 1e-12:
            return False, beta
    # float certificate unverifiable; decide exactly
    a_rows = [[Fraction(int(x)) for x in _VERTEX_MATRIX[i]] for i in range(8)]
    a_rows.append([Fraction(1)] * 16)
    b_exact = [Fraction(float(t)) for t in target] + [Fraction(1)]
    obj_e, z_e, y = _phase1_exact(a_rows, b_exact)
    if obj_e == 0:
        weights = np.array([float(x) for x in z_e])
        return True, weights
    return False, BellFunctional.from_vector([float(x) for x in y[:8]])


def _grid_value(beta_vec: np.ndarray, res: int) -> tuple[float, np.ndarray]:
    """Best grid point of the functional over (theta, a0, a1, b0, b1) in [0, pi)^5.

    The result is bit for bit that of one argmax over the whole res^5 grid
    (the test oracle ``full_grid_value``): its exact maximum value and its
    first maximum in C order.  It takes 2 res^4 work instead of res^5.

    *Separable form.*  For fixed (theta, a0, a1) the functional is
    g + sum_y (U_y cos b_y + V_y sin b_y), with c2, s2 = cos, sin of 2 theta,
    g = c2 (bA0 cos a0 + bA1 cos a1), U_y = bBy c2 + b0y cos a0 + b1y cos a1
    and V_y = s2 (b0y sin a0 + b1y sin a1).  So the best (b0, b1) is the best
    b0 plus the best b1, and the separable maximum is
    M = max over (theta, a0, a1) of (g + max_b0 h_0) + max_b1 h_1, where
    h_y = U_y cos b_y + V_y sin b_y.  Rounding is monotone, so M is also the
    largest separable value S = (g + h_0) + h_1 over the grid.  The maxima over
    b run one grid value of b at a time over all (theta, a0, a1), so the
    transient arrays hold 2 res^3 values.

    *Slack.*  S and the full-grid value F round differently.  Let
    B = ||beta||_1.  Every trigonometric factor is at most 1 in magnitude, so
    each term of F is bounded by its coefficient, and F carries at most 10
    roundings of relative size eps/2 per term: |F - f| <= 5 eps B for the
    exact value f.  S carries at most 7 roundings on terms bounded by
    sqrt(2) times their coefficients: |S - f| <= 5 eps B.  A maximum p* of F
    then has S(p*) >= M - 2 max |F - S| >= M - 20 eps B, and forming
    M - slack rounds by at most eps B more.  The slack 64 eps B leaves a
    factor of three over that sum (the largest gap seen, over about 14,000
    seeded integer, half-integer and normal functionals, is 1.6 eps B); 64
    times the smallest subnormal covers gradual underflow.

    *Candidate rows and ties.*  A (theta, a0, a1) row is a candidate when its
    separable maximum is at least M - slack; every maximum of F lies in one.
    F is evaluated over the candidate rows' whole (b0, b1) blocks in its
    exact operation order, that of the test oracle ``full_grid_value``, one
    theta slice at a time.  ``np.nonzero`` yields each slice's rows in C
    order and the comparison across slices is strict, so the result is the
    full grid's first maximum.  A generic functional has a few candidate
    rows in one or two slices.  Degenerate ones (beta = 0, a single marginal)
    tie on whole sub-grids and make most rows candidates; each slice then
    holds at most res^4 values, as one slice of the full grid does.
    """
    ax = np.linspace(0.0, math.pi, res, endpoint=False)
    cos, sin = np.cos(ax), np.sin(ax)
    c2s, s2s = np.cos(2 * ax), np.sin(2 * ax)
    # axes (theta, y, a0, a1); e0, e1 hold b0y, b1y over y
    e0, e1 = beta_vec[4:6, None, None], beta_vec[6:8, None, None]
    ca0, ca1, sa0, sa1 = cos[:, None], cos[None, :], sin[:, None], sin[None, :]
    g = c2s[:, None, None] * (beta_vec[0] * ca0 + beta_vec[1] * ca1)
    u = beta_vec[2:4, None, None] * c2s[:, None, None, None] + (e0 * ca0 + e1 * ca1)
    v = s2s[:, None, None, None] * (e0 * sa0 + e1 * sa1)
    hmax = u * cos[0] + v * sin[0]
    h, tmp = np.empty_like(u), np.empty_like(u)
    for j in range(1, res):
        np.multiply(u, cos[j], out=h)
        np.multiply(v, sin[j], out=tmp)
        h += tmp
        np.maximum(hmax, h, out=hmax)
    top = (g + hmax[:, 0]) + hmax[:, 1]
    slack = 64.0 * (np.finfo(float).eps * float(np.abs(beta_vec).sum())
                    + np.finfo(float).smallest_subnormal)
    candidate = top >= top.max() - slack
    cb, sb = (cos[:, None], cos[None, :]), (sin[:, None], sin[None, :])
    best_val, best_idx = -math.inf, None
    for t in np.flatnonzero(candidate.any(axis=(1, 2))):
        c2, s2 = c2s[t], s2s[t]
        a0, a1 = np.nonzero(candidate[t])
        ca = (cos[a0, None, None], cos[a1, None, None])
        sa = (sin[a0, None, None], sin[a1, None, None])
        val = np.zeros((a0.size, res, res))
        val += beta_vec[0] * (c2 * ca[0]) + beta_vec[1] * (c2 * ca[1])
        val += beta_vec[2] * (c2 * cb[0]) + beta_vec[3] * (c2 * cb[1])
        for x in range(2):
            for y in range(2):
                w = beta_vec[4 + 2 * x + y]
                if w != 0.0:
                    val += w * (ca[x] * cb[y] + s2 * (sa[x] * sb[y]))
        j = int(np.argmax(val))
        if val.flat[j] > best_val:
            r, b0, b1 = np.unravel_index(j, val.shape)
            best_val, best_idx = float(val.flat[j]), [t, a0[r], a1[r], b0, b1]
    return best_val, ax[best_idx]


#: Frequency of each coordinate (theta, a0, a1, b0, b1) in the Born rule.
_FREQ = (2, 1, 1, 1, 1)


def _coordinate_form(coeffs: list[float], trig: list[tuple[float, float]], k: int
                     ) -> tuple[float, float, float]:
    """(C, S, K) such that moving coordinate k to t gives the functional the
    value C cos(m t) + S sin(m t) + K, with m = _FREQ[k].

    ``trig`` holds (cos, sin) of m times each current coordinate.  The value
    is c2 (mA . ca + mB . cb) + ca^T E cb + s2 sa^T E sb, with E the
    correlator block, so it is a sinusoid in 2 theta and in each angle."""
    (c2, s2), (ca0, sa0), (ca1, sa1), (cb0, sb0), (cb1, sb1) = trig
    ca, sa, cb, sb = (ca0, ca1), (sa0, sa1), (cb0, cb1), (sb0, sb1)
    m_a, m_b = coeffs[0:2], coeffs[2:4]
    e = (coeffs[4:6], coeffs[6:8])  # e[x][y]
    if k >= 3:  # one of Bob's angles: exchange the parties' roles
        ca, sa, cb, sb, m_a, m_b, e = cb, sb, ca, sa, m_b, m_a, tuple(zip(*e))
    ecb = (e[0][0] * cb[0] + e[0][1] * cb[1], e[1][0] * cb[0] + e[1][1] * cb[1])
    esb = (e[0][0] * sb[0] + e[0][1] * sb[1], e[1][0] * sb[0] + e[1][1] * sb[1])
    if k == 0:
        marg = m_a[0] * ca[0] + m_a[1] * ca[1] + m_b[0] * cb[0] + m_b[1] * cb[1]
        return marg, sa[0] * esb[0] + sa[1] * esb[1], ca[0] * ecb[0] + ca[1] * ecb[1]
    i = (k - 1) % 2  # the moving angle; o is the same party's other angle
    o = 1 - i
    rest = (c2 * (m_a[o] * ca[o] + m_b[0] * cb[0] + m_b[1] * cb[1])
            + ca[o] * ecb[o] + s2 * sa[o] * esb[o])
    return c2 * m_a[i] + ecb[i], s2 * esb[i], rest


def _integer(name: str, value) -> int:
    """``operator.index(value)``, with a TypeError that names the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def bell_max_q2(beta: BellFunctional, resolution: int = 16, refinements: int = 60
                ) -> tuple[float, QubitRealization]:
    """Maximize a Bell functional over the pure two-qubit family.

    Coarse grid over (theta, a0, a1, b0, b1) in [0, pi)^5 followed by
    coordinate descent with shrinking step, scoring each coordinate's
    candidates in closed form; the tracked value is monotone nondecreasing
    across refinement rounds.

    Raises TypeError unless ``resolution`` and ``refinements`` are integers,
    and ValueError unless ``resolution >= 16`` and ``refinements >= 0``.
    """
    resolution = _integer("resolution", resolution)
    refinements = _integer("refinements", refinements)
    if resolution < 16:
        raise ValueError("resolution must be at least 16 per axis")
    if refinements < 0:
        raise ValueError("refinements must be at least 0")
    bv = beta.vector
    best_val, params = _grid_value(bv, resolution)
    coeffs = bv.tolist()
    trig = [(math.cos(m * v), math.sin(m * v)) for m, v in zip(_FREQ, params)]
    step = math.pi / resolution
    scan = np.linspace(-1.0, 1.0, 13)
    for _ in range(refinements):
        offsets = scan * step
        # cos/sin of m * offset; each candidate's value follows by angle
        # addition from the current coordinate's (cos, sin)
        rot = {m: (np.cos(m * offsets), np.sin(m * offsets)) for m in (1, 2)}
        for k, m in enumerate(_FREQ):
            c, s, rest = _coordinate_form(coeffs, trig, k)
            ct, st = trig[k]
            cd, sd = rot[m]
            vals = (c * ct + s * st) * cd + (s * ct - c * st) * sd + rest
            j = int(vals.argmax())
            if vals[j] > best_val:
                best_val = float(vals[j])
                params[k] += offsets[j]
                trig[k] = (math.cos(m * params[k]), math.sin(m * params[k]))
        step *= 0.65
    realization = QubitRealization(
        theta=float(params[0]),
        a=(float(params[1]), float(params[2])),
        b=(float(params[3]), float(params[4])),
    )
    return best_val + beta.offset, realization


#: A decomposition counts as found only when the convex identity holds far
#: below the 1e-8 reporting tolerance; genuine splits polish to ~1e-12, while
#: boundary (equality-margin) extremal points admit spurious ~1e-9 near-splits.
FOUND_RESIDUAL = 1e-10
FOUND_SEPARATION = 1e-3


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of ``decomposition_search``.

    ``residual`` and ``separation`` describe one candidate split: the found
    one; else the polished start with the lowest mixture residual; else,
    when no start was polished, the stochastic phase's best-scoring row.
    """

    found: bool             # residual <= FOUND_RESIDUAL and separation >= FOUND_SEPARATION
    p1: Behavior | None     # the parts when found, else None
    p2: Behavior | None
    lam: float              # mixture weight of p1, always 1/2: p = lam p1 + (1 - lam) p2
    residual: float         # max-norm mixture residual |(p1 + p2)/2 - p|
    separation: float       # max-norm |p1 - p2|
    nfev: int               # residual evaluations summed over all polishes
    capped: int             # polishes stopped by the evaluation ceiling


def _parts_from_params(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split trial parameter rows into the two part behaviors.

    Each part is a 2-component mixture of pure-qubit behaviors; the overall
    mixture weight is fixed at 1/2, which is no loss of generality for the
    existence of a proper decomposition."""
    reals = x[..., :20].reshape(*x.shape[:-1], 4, 5)
    comps = born_vector(reals[..., 0], reals[..., 1], reals[..., 2],
                        reals[..., 3], reals[..., 4])
    w = 1.0 / (1.0 + np.exp(-x[..., 20:22]))
    p1 = w[..., 0:1] * comps[..., 0, :] + (1 - w[..., 0:1]) * comps[..., 1, :]
    p2 = w[..., 1:2] * comps[..., 2, :] + (1 - w[..., 1:2]) * comps[..., 3, :]
    return p1, p2


def _row_max(a: np.ndarray) -> np.ndarray:
    """Maximum over a last axis of length 8, by halving: several times faster
    than ``np.max(a, axis=-1)`` on so short an axis, and exact."""
    a = np.maximum(a[..., :4], a[..., 4:])
    a = np.maximum(a[..., :2], a[..., 2:])
    return np.maximum(a[..., 0], a[..., 1])


def _decomp_objective(x: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Stochastic-phase score of parameter rows (..., 22), in the dtype of ``x``:
    squared mixture residual plus a penalty on parts closer than 0.01."""
    p1, p2 = _parts_from_params(x)
    err = 0.5 * (p1 + p2) - target.astype(x.dtype, copy=False)
    res2 = np.einsum("...i,...i->...", err, err)
    hinge = np.maximum(0.0, 0.01 - _row_max(np.abs(p1 - p2)))
    return res2 + 25.0 * hinge ** 2


def _residual_sep(q: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polish residual (..., 9) of parameter rows (..., 22), and the parts'
    separation (max norm of p1 - p2) of each row.

    The residual holds the 8 mixture deviations from ``target`` plus a guard
    that grows as the parts come closer than 0.01 in max norm."""
    p1, p2 = _parts_from_params(q)
    sep = _row_max(np.abs(p1 - p2))
    guard = 5.0 * np.maximum(0.0, 0.01 - sep)
    return np.concatenate([0.5 * (p1 + p2) - target, guard[..., None]], axis=-1), sep


def _residual_jac(q: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian (..., 9, 22) of the residual of ``_residual_sep``.

    The guard row is a subgradient: the derivative of -|p1_i - p2_i| at the
    component i of largest separation while the guard is active, else zero."""
    lead = q.shape[:-1]
    reals = q[..., :20].reshape(*lead, 4, 5)
    params = [reals[..., k] for k in range(5)]
    comps = born_vector(*params)            # (..., 4, 8)
    dcomps = born_jacobian(*params)         # (..., 4, 8, 5)
    w = 1.0 / (1.0 + np.exp(-q[..., 20:22]))
    dw = w * (1.0 - w)
    # d p1 / dq and d p2 / dq, each (..., 8, 22)
    j1 = np.zeros(lead + (8, 22))
    j1[..., 0:5] = w[..., 0, None, None] * dcomps[..., 0, :, :]
    j1[..., 5:10] = (1 - w[..., 0, None, None]) * dcomps[..., 1, :, :]
    j1[..., 20] = dw[..., 0:1] * (comps[..., 0, :] - comps[..., 1, :])
    j2 = np.zeros(lead + (8, 22))
    j2[..., 10:15] = w[..., 1, None, None] * dcomps[..., 2, :, :]
    j2[..., 15:20] = (1 - w[..., 1, None, None]) * dcomps[..., 3, :, :]
    j2[..., 21] = dw[..., 1:2] * (comps[..., 2, :] - comps[..., 3, :])
    jac = np.zeros(lead + (9, 22))
    jac[..., :8, :] = 0.5 * (j1 + j2)
    diff = (w[..., 0:1] * comps[..., 0, :] + (1 - w[..., 0:1]) * comps[..., 1, :]) \
        - (w[..., 1:2] * comps[..., 2, :] + (1 - w[..., 1:2]) * comps[..., 3, :])
    i = np.argmax(np.abs(diff), axis=-1)[..., None]
    di = np.take_along_axis(diff, i, axis=-1)                              # (..., 1)
    dj = np.take_along_axis(j1 - j2, i[..., None], axis=-2)[..., 0, :]    # (..., 22)
    jac[..., 8, :] = np.where(np.abs(di) < 0.01, -5.0 * np.sign(di) * dj, 0.0)
    return jac


#: Residual evaluations one polish may spend.
POLISH_MAX_NFEV = 1200
#: Stall rule.  A polish in the flat regime (|J^T r| < _STALL_GRADIENT |r|:
#: the residual points out of the range the Jacobian can reach) stops once
#: its pace over the last _STALL_WINDOW evaluations, continued, would need
#: more than _STALL_MARGIN times the evaluations it has left to bring the
#: cost down to the found threshold.  Flat faces creep at ~0.005 nats per
#: evaluation with ~30 to go; genuine splits that creep do so within a few
#: nats of the threshold, or faster.
_STALL_GRADIENT = 0.03
_STALL_WINDOW = 40
_STALL_MARGIN = 8.0
_COST_TARGET = 0.5 * FOUND_RESIDUAL ** 2
#: Gauss-Newton finish.  A row whose mixture residual is below _GN_RESIDUAL
#: takes the minimum-norm Gauss-Newton step -J^+ r when it fits its trust
#: radius.  Farther out the step stays on the boundary: the early steps pick
#: the basin, and undamped steps there lose genuine splits.
_GN_RESIDUAL = 1e-4
#: Singular values at most this fraction of the largest count as zero in
#: J^+, the cutoff of ``np.linalg.lstsq`` for a 9x22 system.
_GN_RCOND = 22 * np.finfo(float).eps


def _found(mixres: np.ndarray, sep: np.ndarray) -> np.ndarray:
    return (mixres <= FOUND_RESIDUAL) & (sep >= FOUND_SEPARATION)


def _mixres(r: np.ndarray) -> np.ndarray:
    """Max-norm mixture residual of polish residual rows (..., 9)."""
    return _row_max(np.abs(r[..., :8]))


def _norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: ``np.linalg.norm``'s formula for
    real input, without its dispatch."""
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def _boundary_step(s: np.ndarray, vt: np.ndarray, uf: np.ndarray, delta: np.ndarray,
                   alpha: np.ndarray, near: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trust-region steps (Moré 1978), per row, and their damping.

    With J = U diag(s) V^T (9 singular values, since J is 9x22) and uf = U^T r,
    a row flagged in ``near`` whose minimum-norm Gauss-Newton step
    -J^+ r = -V diag(1/s) uf (singular values below _GN_RCOND times the
    largest dropped) is no longer than its radius ``delta`` takes that step,
    with damping 0.  Every other row takes the Levenberg-Marquardt step
    h(a) = -J^T (J J^T + a I)^{-1} r = -V diag(s / (s^2 + a)) uf of length
    delta: the damping a comes from safeguarded Newton iterations on
    |h(a)| = delta, warm-started at ``alpha``, until |h(a)| is within 1% of
    delta (at most 10), and h is then scaled onto the boundary.  As in
    scipy's TRF for a Jacobian with fewer rows than columns, such a row's
    step is stretched to delta even when J^+ r is shorter."""
    suf = s * uf
    fits = np.zeros(len(s), dtype=bool)
    if near.any():
        sn = s[near]
        inv = np.divide(1.0, sn, out=np.zeros_like(sn), where=sn > _GN_RCOND * sn[:, :1])
        gn = -np.einsum("sij,si->sj", vt[near], inv * uf[near])
        fits[near] = _norm(gn) <= delta[near]
    upper = _norm(suf) / delta
    lower = np.zeros_like(upper)
    a = np.where(alpha == 0.0, 1e-3 * upper, alpha)
    live = ~fits
    for _ in range(10):
        if not live.any():
            break
        reset = live & ((a < lower) | (a > upper))
        a = np.where(reset, np.maximum(1e-3 * upper, np.sqrt(lower * upper)), a)
        denom = s * s + a[:, None]
        norm = _norm(suf / denom)
        phi = norm - delta
        newton = phi / (-np.sum(suf * suf / denom ** 3, axis=-1) / norm)
        upper = np.where(live & (phi < 0), a, upper)
        lower = np.where(live, np.maximum(lower, a - newton), lower)
        a = np.where(live, a - (phi + delta) * newton / delta, a)
        live &= np.abs(phi) >= 0.01 * delta
    h = -np.einsum("sij,si->sj", vt, suf / (s * s + a[:, None]))
    h *= (delta / _norm(h))[:, None]
    if fits.any():
        h[fits] = gn[fits[near]]
        a[fits] = 0.0
    return h, a


def _polish(q: np.ndarray, target: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Trust-region Levenberg-Marquardt on the residual of ``_residual_sep``
    for each row of ``q`` (S, 22), until some row is found.

    Each evaluation tries a step (``_boundary_step``) within the row's trust
    radius: the minimum-norm Gauss-Newton step when the row's mixture
    residual is below _GN_RESIDUAL and that step fits the radius, else a
    Levenberg-Marquardt step on the boundary.  The radius starts at |q| and
    moves with the ratio rho of actual to predicted cost reduction: a
    quarter of the radius below rho = 0.25, doubled above rho = 0.75.  A
    row stops after POLISH_MAX_NFEV residual evaluations, when it stalls
    (see _STALL_WINDOW), or when its radius or its gradient vanishes.  Rows do not interact, except that the whole
    batch ends at the first evaluation after which some row is found.

    Returns per row: the final parameters (S, 22), mixture residual,
    separation, residual evaluations, and whether the evaluation ceiling
    stopped it.
    """
    x = np.array(q, dtype=float)
    r, sep = _residual_sep(x, target)
    nfev = np.ones(len(x), dtype=int)
    jac = _residual_jac(x, target)
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    grad = np.einsum("sij,si->sj", jac, r)
    cost = 0.5 * np.sum(r * r, axis=-1)
    delta = _norm(x)
    delta[delta == 0.0] = 1.0
    alpha = np.zeros(len(x))
    # cost (floored at the target) after each of the last _STALL_WINDOW evaluations
    window = np.repeat(np.maximum(cost, _COST_TARGET)[:, None], _STALL_WINDOW, axis=1)
    capped = np.zeros(len(x), dtype=bool)
    mixres = _mixres(r)
    # rows at a stationary point have no step
    active = np.flatnonzero(np.any(grad != 0.0, axis=-1))
    if _found(mixres, sep).any():
        active = active[:0]
    while active.size:
        uf = np.einsum("sji,sj->si", u[active], r[active])
        h, a = _boundary_step(s[active], vt[active], uf, delta[active], alpha[active],
                              mixres[active] < _GN_RESIDUAL)
        jh = np.einsum("sij,sj->si", jac[active], h)
        pred = -(0.5 * np.sum(jh * jh, axis=-1) + np.sum(grad[active] * h, axis=-1))
        rn, sepn = _residual_sep(x[active] + h, target)
        nfev[active] += 1
        gain = cost[active] - 0.5 * np.sum(rn * rn, axis=-1)
        rho = np.where(pred > 0, gain / np.where(pred > 0, pred, 1.0), 0.0)
        step = delta[active]
        radius = np.where(rho < 0.25, 0.25 * step,
                          np.where(rho > 0.75, 2.0 * step, step))
        alpha[active] = a * step / radius
        delta[active] = radius
        ok = gain > 0
        acc = active[ok]
        if acc.size:
            x[acc] += h[ok]
            r[acc], sep[acc], cost[acc] = rn[ok], sepn[ok], cost[acc] - gain[ok]
            mixres[acc] = _mixres(rn[ok])
            jac[acc] = _residual_jac(x[acc], target)
            u[acc], s[acc], vt[acc] = np.linalg.svd(jac[acc], full_matrices=False)
            grad[acc] = np.einsum("sij,si->sj", jac[acc], r[acc])
        if _found(mixres[acc], sep[acc]).any():
            break
        slot = nfev[active] % _STALL_WINDOW
        floored = np.maximum(cost[active], _COST_TARGET)
        pace = np.log(window[active, slot] / floored) / _STALL_WINDOW
        window[active, slot] = floored
        need = np.log(floored / _COST_TARGET)
        left = POLISH_MAX_NFEV - nfev[active]
        flat = _norm(grad[active]) < _STALL_GRADIENT * _norm(r[active])
        still = (step <= 1e-15 * (1e-15 + _norm(x[active]))) \
            | ~np.any(grad[active] != 0.0, axis=-1)
        capped[active] = left <= 0
        stalled = still | (flat & (nfev[active] > _STALL_WINDOW) & (need > _STALL_MARGIN * pace * left))
        active = active[~(stalled | capped[active])]
    return x, mixres, sep, nfev, capped


def _structured_seeds(hint: QubitRealization) -> list[np.ndarray]:
    """Start vectors along the flat-direction companions of ``hint``.

    One family per admissible sector: part 1 mixes the sector's local
    companion point with the hint behavior at a few weights (part 2 starts at
    the hint itself), plus the role-swapped variant.  Strictly alternating
    hints have no admissible sector and contribute no seeds."""
    from .witness import SECTOR_ORDER, solve_sector

    seeds: list[np.ndarray] = []
    try:
        canon, g = canonicalize(hint, sector=True)
    except QsetError:
        return seeds
    ginv = inverse(g)
    r_self = apply_relabeling(ginv, canon).params()
    for sector in SECTOR_ORDER:
        try:
            _, alphas, _ = solve_sector(canon, sector)
        except QsetError:
            continue
        if np.max(np.abs(alphas)) > 1.0 + 1e-8:
            continue
        s, t = sector
        al = np.clip(alphas, -1.0, 1.0)
        local_real = QubitRealization(
            theta=0.0,
            a=((1 - s) * math.pi / 2, (1 - t) * math.pi / 2),
            b=(math.acos(al[0]), math.acos(al[1])),
        )
        r_local = apply_relabeling(ginv, local_real).params()
        for mu in (0.1, 0.4):
            for flipped in (False, True):
                seed = np.empty(22)
                first, second = (r_local, r_self) if not flipped else (r_self, r_local)
                seed[0:5] = first
                seed[5:10] = r_self
                seed[10:15] = second
                seed[15:20] = r_self
                seed[20] = math.log(mu / (1 - mu)) if not flipped else 0.0
                seed[21] = 0.0 if not flipped else math.log(mu / (1 - mu))
                seeds.append(seed)
    return seeds


def decomposition_search(p: Behavior, trials: int = 400, seed: int = 0,
                         hint: QubitRealization | None = None,
                         generations: int = 120, polish_top: int = 3
                         ) -> DecompositionResult:
    """Seek a proper convex decomposition p = (p1 + p2)/2 with p1 != p2.

    Multistart stochastic descent over two 2-component mixtures of pure-qubit
    behaviors, followed by a trust-region Levenberg-Marquardt polish of the
    most promising starts.  The descent keeps its parameters and proposals
    in float64 but scores the proposals in float32; the final rows are scored
    once more in float64, and that score alone ranks them for the polish.  A
    hint realization of ``p`` adds starts seeded along its flat-witness
    directions (one family per admissible sector), polished together with a
    couple of basin-hopping retries; the first of them to reach a split wins.
    Absence of a decomposition is evidence, not proof.

    Raises ValueError unless ``trials >= 1``, ``generations >= 0`` and
    ``polish_top >= 0``.
    """
    if trials < 1 or generations < 0 or polish_top < 0:
        raise ValueError("need trials >= 1, generations >= 0 and polish_top >= 0")
    violations = validate(p)
    if violations:
        raise InvalidBehaviorError(violations)
    target = p.vector
    rng = np.random.default_rng(seed)
    best = None     # (mixture residual, separation, parameter row)
    nfev = capped = 0

    def polish(starts: np.ndarray, retries: int) -> bool:
        """Polish the rows of ``starts`` together; True once one is found."""
        nonlocal best, nfev, capped
        q = starts
        for _ in range(retries):
            if not len(q):
                break
            x, mixres, sep, n, c = _polish(q, target)
            nfev += int(n.sum())
            capped += int(c.sum())
            found = _found(mixres, sep)
            # the first found row, else the lowest residual (widest split on ties)
            i = int(np.argmax(found)) if found.any() else int(np.lexsort((-sep, mixres))[0])
            if found[i] or best is None or (mixres[i], -sep[i]) < (best[0], -best[1]):
                best = (float(mixres[i]), float(sep[i]), x[i])
            if found[i]:
                return True
            # a row left above 1e-2 sits in a hopeless basin; retries will not rescue it
            x = x[mixres <= 1e-2]
            q = x + rng.normal(0.0, 0.15, size=x.shape)
        return False

    seeds = _structured_seeds(hint) if hint is not None else []
    if not polish(np.array(seeds), retries=2):
        x = np.empty((trials, 22))
        x[:, 0:20] = rng.uniform(0.0, math.pi, size=(trials, 20))
        x[:, [0, 5, 10, 15]] = rng.uniform(0.0, math.pi / 2, size=(trials, 4))
        x[:, 20:22] = rng.normal(0.0, 1.0, size=(trials, 2))
        # float32 scores only decide which proposals a row accepts
        f = _decomp_objective(x.astype(np.float32), target)
        scale = 0.4
        decay = (0.004 / scale) ** (1.0 / max(generations, 1))
        for _ in range(generations):
            prop = x + rng.normal(0.0, scale, size=x.shape)
            fp = _decomp_objective(prop.astype(np.float32), target)
            better = fp < f
            x[better] = prop[better]
            f[better] = fp[better]
            scale *= decay
        f = _decomp_objective(x, target)
        top = np.argsort(f)[:polish_top]
        polish(x[top[f[top] <= 1e-3]], retries=1)
        if best is None:
            i = int(np.argmin(f))
            r, sep = _residual_sep(x[i], target)
            best = (float(_mixres(r)), float(sep), x[i])

    mixres, sep, row = best
    found = bool(_found(mixres, sep))
    p1, p2 = map(Behavior.from_vector, _parts_from_params(row)) if found else (None, None)
    return DecompositionResult(
        found=found,
        p1=p1,
        p2=p2,
        lam=0.5,
        residual=mixres,
        separation=sep,
        nfev=nfev,
        capped=capped,
    )

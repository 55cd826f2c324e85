"""Brute-force ground truth for the analytical modules.

Three falsifiers/cross-checks: local-polytope membership by a small
feasibility simplex over the deterministic vertices, Bell maximization over
the two-qubit family by a multistart exact block-coordinate ascent with a
Newton finish, and a convex-decomposition search that tries to split a
behavior into two distinct quantum parts.  The LP and the Bell search share
no code with the analytical modules, and a split counts as found only when
the Born map (``realization._born``) of its parts reproduces the behavior.
Only the search's hint seeds come from them (``canonicalize``,
``apply_relabeling``, ``symmetry.inverse``, ``witness._admitted_sectors``):
a fault there can hide a split, never make one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import Behavior, BellFunctional, _require_valid
from .errors import DegenerateThetaError
from .realization import QubitRealization, _born, apply_relabeling, canonicalize
from .symmetry import inverse
from .witness import _admitted_sectors

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
#: Pivot tolerance and pivot limit of the phase-1 simplex.
_LP_TOL, _LP_MAX_ITER = 1e-11, 800


def _phase1_float(a_mat: np.ndarray, b: np.ndarray):
    """Phase-1 simplex (min sum of artificials).

    The entering column is Dantzig's: the most negative reduced cost, the
    lowest index on a tie.  After 3 consecutive degenerate pivots (ratio 0)
    it is Bland's, the lowest index with a negative reduced cost, until the
    next nondegenerate pivot.  Bland's rule never cycles, so every degenerate
    stretch ends, and the objective strictly falls between stretches.  The
    leaving row has the least ratio, then the lowest basis index.

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
    degenerate = 0
    for _ in range(_LP_MAX_ITER):
        # the scans read Python copies: element access on a short numpy row
        # costs more than the copy
        red = tab[m, :-1].tolist()
        if degenerate < 3:
            low = min(red)
            ent = red.index(low) if low < -_LP_TOL else -1
        else:
            ent = next((j for j, v in enumerate(red) if v < -_LP_TOL), -1)
        if ent < 0:
            break
        best_row, best_key = -1, None
        for i, (c, t) in enumerate(zip(tab[:m, ent].tolist(), tab[:m, -1].tolist())):
            if c > _LP_TOL:
                key = (t / c, basis[i])
                if best_key is None or key < best_key:
                    best_key, best_row = key, i
        if best_row < 0:
            break
        degenerate = degenerate + 1 if best_key[0] <= 0.0 else 0
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


def local_membership_lp(p: Behavior) -> tuple[bool, object]:
    """Convex-combination feasibility over the 16 deterministic vertices.

    Returns (True, weights) with weights reproducing p to 1e-9, or
    (False, separating BellFunctional) scoring p above every vertex by more
    than 1e-12.  The float phase-1 simplex decides every call: p is local
    when the phase-1 objective is at most 1e-9 and the clipped weights
    verify, and nonlocal when the dual's behavior part separates p from
    every vertex.  At the end of phase 1 the dual is a Farkas certificate
    (y . A_j <= _LP_TOL on every column, y . b = objective), so an objective
    just above 1e-9 still separates by about that much.  Raises
    ArithmeticError, naming the objective and the separation, when neither
    certificate verifies; an unverified one is never returned.

    Fine's test (``is_local``) accepts CHSH <= 2 + TOL_EQ = 2 + 1e-8 instead,
    so the two can disagree on points whose CHSH excess lies in about
    (1e-9, 1e-8]: this LP calls some of them nonlocal where ``is_local``
    calls them local.
    """
    _require_valid(p)
    target = p.vector
    rhs = np.concatenate([target, [1.0]])
    obj, weights, dual = _phase1_float(_LP_MATRIX, rhs)
    if obj <= 1e-9:
        weights = np.maximum(weights, 0.0)
        if np.max(np.abs(_VERTEX_MATRIX @ weights - target)) <= 1e-9 \
                and abs(weights.sum() - 1.0) <= 1e-9:
            return True, weights
    separation = dual[:8] @ target - (dual[:8] @ _VERTEX_MATRIX).max()
    if separation > 1e-12:
        return False, BellFunctional.from_vector(dual[:8])
    raise ArithmeticError(f"membership LP certificate does not verify: phase-1 objective "
                          f"{obj:.17g}, dual separation {separation:.17g}")


#: Starts of the ascent: (theta, a0, a1, b0, b1) columns, the first 32
#: points frac(1/2 + n phi^-k) of Roberts' R_5 sequence (phi^6 = phi + 1)
#: scaled to [0, pi)^5.  A closed form: a seeded generator would import
#: numpy.random with the package.  On 1200 seeded functionals, 16 such starts
#: fell short of a search that also started from a 16^5 grid's best point on
#: 2 (by up to 4% of ||beta||_1), 32 on none.
_STARTS = math.pi * np.modf(
    0.5 + np.arange(1, 33) * 1.1347241384015194 ** -np.arange(1.0, 6.0)[:, None])[0]
#: Block sweeps over every start, then Newton steps on the best swept row.
_SWEEPS = 6
_NEWTON_STEPS = 54
#: Longest Newton step (max norm, radians), and the floor on |eigenvalue|
#: relative to ||beta||_1.
_STEP_CAP = 0.5
_EIG_FLOOR = 1e-6


def _sweeps(bv: np.ndarray, x: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """At most ``count`` block sweeps (Alice, theta, Bob, theta) over the
    columns of ``x``; returns the swept columns and their values.

    Each block is set to its exact maximum with the others fixed.  The value
    is c2 M + s2 S + K, with M = mA . ca + mB . cb, S = sa^T E sb and
    K = ca^T E cb (E the correlator block), so Alice's angle a_x maximizes
    ca_x (c2 mA_x + (E cb)_x) + sa_x s2 (E sb)_x, Bob's likewise with E^T,
    and 2 theta maximizes c2 M + s2 S.  The sweeps stop early once no column
    gains.  Each party's term of M is formed once per change of its angles.

    A sum over a party's two settings is ``np.add.reduce(t, 0)``, which is
    ``t.sum(0)`` without its Python wrapper.  It is not t[0] + t[1]: the
    reduction starts from +0.0, so two -0.0 terms give +0.0 where t[0] + t[1]
    gives -0.0, and the sign of a zero decides an atan2 between 0 and pi."""
    m_a, m_b, e = bv[0:2, None], bv[2:4, None], bv[4:8].reshape(2, 2)
    phi = 2.0 * x[0]
    c2, s2 = np.cos(phi), np.sin(phi)
    b = x[3:5]
    cb, sb = np.cos(b), np.sin(b)
    marg_b = np.add.reduce(m_b * cb, 0)
    val = None
    for _ in range(count):
        ecb, esb = e @ cb, e @ sb
        a = np.arctan2(s2 * esb, c2 * m_a + ecb)
        ca, sa = np.cos(a), np.sin(a)
        marg_a = np.add.reduce(m_a * ca, 0)
        phi = np.arctan2(np.add.reduce(sa * esb, 0), marg_a + marg_b)
        c2, s2 = np.cos(phi), np.sin(phi)
        eca, esa = e.T @ ca, e.T @ sa
        b = np.arctan2(s2 * esa, c2 * m_b + eca)
        cb, sb = np.cos(b), np.sin(b)
        marg_b = np.add.reduce(m_b * cb, 0)
        marg, corr = marg_a + marg_b, np.add.reduce(sb * esa, 0)
        phi = np.arctan2(corr, marg)
        c2, s2 = np.cos(phi), np.sin(phi)
        new = np.hypot(marg, corr) + np.add.reduce(cb * eca, 0)
        done = val is not None and not (new > val).any()
        val = new
        if done:
            break
    return np.vstack([0.5 * phi, a, b]), val


def _model_value(bv: np.ndarray, pair: np.ndarray, rows: np.ndarray
                 ) -> tuple[np.ndarray, tuple]:
    """Value (R,) of the functional at ``rows`` (R, 5), and the terms
    (each with R last) from which ``_model_derivatives`` extends it.
    ``pair`` is ``_correlator_pair(bv)``."""
    r = len(rows)
    c2, s2 = np.cos(2.0 * rows[:, 0]), np.sin(2.0 * rows[:, 0])
    c, s = np.cos(rows[:, 1:].T), np.sin(rows[:, 1:].T)
    cs, ss = c.reshape(2, 2, r), s.reshape(2, 2, r)  # (party, setting, R)
    ec, es = pair @ cs[::-1], pair @ ss[::-1]
    marg = bv[0:4] @ c
    corr = np.add.reduce(ss[0] * es[0], 0)
    tilt = c2 * marg + s2 * corr
    return tilt + np.add.reduce(cs[0] * ec[0], 0), (c2, s2, cs, ss, ec, es, marg, corr, tilt)


def _model_derivatives(bv: np.ndarray, terms: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Gradient (R, 5) and Hessian (R, 5, 5) of the functional from the
    terms of ``_model_value`` (or any selection of their last axis).

    Both parties are handled at once: for party k with angles (c, s) and the
    partner's (c', s'), u = c2 m_k + E_k c' and v = s2 E_k s', with E_A = E
    and E_B = E^T, so the value along one angle is c u + s v + const."""
    c2, s2, cs, ss, ec, es, marg, corr, tilt = terms
    r = len(c2)
    e = bv[4:8].reshape(2, 2)
    m = bv[0:4].reshape(2, 2, 1)
    u, v = c2 * m + ec, s2 * es
    grad = np.empty((5, r))
    grad[0] = 2.0 * (c2 * corr - s2 * marg)
    grad[1:] = (cs * v - ss * u).reshape(4, r)
    hess = np.empty((5, 5, r))
    hess[0, 0] = -4.0 * tilt
    hess[0, 1:] = hess[1:, 0] = (2.0 * (s2 * m * ss + c2 * cs * es)).reshape(4, r)
    hess[1:, 1:] = 0.0
    diag = np.arange(1, 5)
    hess[diag, diag] = -(cs * u + ss * v).reshape(4, r)
    cross = e[:, :, None] * (ss[0][:, None] * ss[1][None] + s2 * (cs[0][:, None] * cs[1][None]))
    hess[1:3, 3:5] = cross
    hess[3:5, 1:3] = cross.transpose(1, 0, 2)
    return grad.T, hess.transpose(2, 0, 1)


def _correlator_pair(bv: np.ndarray) -> np.ndarray:
    """The correlator block E and its transpose, (2, 2, 2): E_A and E_B."""
    e = bv[4:8].reshape(2, 2)
    return np.array([e, e.T])


def _newton(bv: np.ndarray, rows: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """At most ``count`` saddle-free Newton steps on ``rows`` (R, 5); returns
    the moved rows and their values.

    The step is V diag(1 / max(|lambda|, floor)) V^T g from the eigenpairs of
    the Hessian, so it ascends whatever the curvature's signs.  A step is
    kept only when it gains.  A step longer than the row's radius (at first
    _STEP_CAP) is scaled down to it, and a scaled step that gains nothing
    halves the radius; a row stops when an unscaled step gains nothing.

    A trial point is scored by its value alone (``_model_value``); the
    gradient and Hessian are built only for the rows where it gains, and the
    loop ends once no row gains or was scaled."""
    pair = _correlator_pair(bv)
    val, terms = _model_value(bv, pair, rows)
    grad, hess = _model_derivatives(bv, terms)
    rows = rows.copy()
    radius = np.full(len(rows), _STEP_CAP)
    floor = _EIG_FLOOR * float(np.abs(bv).sum()) + np.finfo(float).tiny
    active = np.arange(len(rows))
    for _ in range(count):
        lam, vec = np.linalg.eigh(hess)
        step = vec @ ((grad[:, None, :] @ vec)[:, 0] / np.maximum(np.abs(lam), floor))[..., None]
        step = step[..., 0]
        length = np.abs(step).max(axis=1)
        scaled = length > radius[active]
        step[scaled] *= (radius[active][scaled] / length[scaled])[:, None]
        new_val, terms = _model_value(bv, pair, rows[active] + step)
        gain = new_val > val[active]
        go = gain | scaled
        if not go.any():
            break
        keep = active[gain]
        rows[keep] += step[gain]
        val[keep] = new_val[gain]
        radius[active[~gain]] = 0.5 * np.minimum(length, radius[active])[~gain]
        if keep.size:
            grad[gain], hess[gain] = _model_derivatives(bv, tuple(t[..., gain] for t in terms))
        active, grad, hess = active[go], grad[go], hess[go]
    return rows, val


def bell_max_q2(beta: BellFunctional) -> tuple[float, QubitRealization]:
    """Maximize a Bell functional over the pure two-qubit family.

    Returns (value, realization), where value is the functional at the
    realization plus ``beta.offset``.  The value is a lower bound on the
    maximum from a multistart local search, and the search can still miss.

    Exact block-coordinate ascent (``_sweeps``) runs _SWEEPS sweeps from the
    32 fixed starts ``_STARTS`` as one batch; the best swept row then takes
    up to _NEWTON_STEPS saddle-free Newton steps on the closed-form Hessian
    (``_newton``).
    """
    bv = beta.vector
    swept, swept_val = _sweeps(bv, _STARTS, _SWEEPS)
    rows, val = _newton(bv, swept[:, [int(np.argmax(swept_val))]].T, _NEWTON_STEPS)
    theta, a0, a1, b0, b1 = rows[0].tolist()
    return float(val[0]) + beta.offset, QubitRealization(theta=theta, a=(a0, a1), b=(b0, b1))


#: A decomposition counts as found only when the convex identity holds far
#: below the 1e-8 reporting tolerance; genuine splits polish to ~1e-12, while
#: boundary (equality-margin) extremal points admit spurious ~1e-9 near-splits.
FOUND_RESIDUAL = 1e-10
FOUND_SEPARATION = 1e-3


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of ``decomposition_search``.

    A search polishes at most two batches of starts, each once: the hint's
    structured seeds, then the stochastic phase's best rows.  ``residual``
    and ``separation`` describe one candidate split: the found one; else the
    polished start with the lowest mixture residual; else, when no start was
    polished, the stochastic phase's best-scoring row.
    """

    found: bool             # residual <= FOUND_RESIDUAL and separation >= FOUND_SEPARATION
    p1: Behavior | None     # the parts when found, else None
    p2: Behavior | None
    lam: float              # mixture weight of p1, always 1/2: p = lam p1 + (1 - lam) p2
    residual: float         # max-norm mixture residual |(p1 + p2)/2 - p|
    separation: float       # max-norm |p1 - p2|
    nfev: int               # residual evaluations summed over the polishes
    capped: int             # polishes stopped by the evaluation ceiling


def _split(q: np.ndarray, dtype=None) -> tuple[np.ndarray, np.ndarray]:
    """Parameter-major copies of parameter rows ``q`` (S, 22) or one row
    (22,), cast to ``dtype`` (default: the dtype of ``q``): the angles
    (5, 4, ...) of the four pure-qubit terms (theta, a0, a1, b0, b1 by
    term) and the weights (2, ...) of each part's first term.  Part 1 mixes
    terms 0 and 1, part 2 terms 2 and 3."""
    angles = np.array(q[..., :20].reshape(q.shape[:-1] + (4, 5)).T, dtype, order="C")
    logits = np.array(q[..., 20:22].T, dtype, order="C")
    return angles, 1.0 / (1.0 + np.exp(-logits))


def _parts(terms: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The two part behaviors (8, 2, ...) from the behaviors (8, 4, ...) and
    weights (2, ...) of ``_split``'s terms.

    Each part is a 2-component mixture of pure-qubit behaviors; the overall
    mixture weight is fixed at 1/2, which is no loss of generality for the
    existence of a proper decomposition."""
    terms = terms.reshape((8, 2, 2) + w.shape[1:])
    p = w * terms[:, :, 0]
    p += (1 - w) * terms[:, :, 1]
    return p


def _row_max(a: np.ndarray) -> np.ndarray:
    """Maximum over a last axis of length 8, by halving: several times faster
    than ``np.max(a, axis=-1)`` on so short an axis, and exact."""
    a = np.maximum(a[..., :4], a[..., 4:])
    a = np.maximum(a[..., :2], a[..., 2:])
    return np.maximum(a[..., 0], a[..., 1])


def _residual_sep(q: np.ndarray, target: np.ndarray, dtype=None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Polish residual (S, 9) of parameter rows (S, 22), and the parts'
    separation (max norm of p1 - p2) of each row, computed in ``dtype``
    (default: the dtype of ``q``); a row (22,) gives a residual (9,) and a
    scalar separation.

    The residual holds the 8 mixture deviations from ``target`` plus a guard
    that grows as the parts come closer than 0.01 in max norm."""
    angles, w = _split(q, dtype)
    p = _parts(_born(angles), w)
    sep = np.maximum.reduce(np.abs(p[:, 0] - p[:, 1]), axis=0)
    r = np.empty(q.shape[:-1] + (9,), w.dtype)
    r[..., :8] = (0.5 * (p[:, 0] + p[:, 1])).T - target.astype(w.dtype, copy=False)
    r[..., 8] = 5.0 * np.maximum(0.0, 0.01 - sep)
    return r, sep


def _score(x: np.ndarray, target: np.ndarray, dtype=None) -> np.ndarray:
    """Stochastic-phase score of parameter rows (S, 22), computed in
    ``dtype`` (default: the dtype of ``x``): the squared norm of their
    polish residual."""
    r = _residual_sep(x, target, dtype)[0]
    return np.einsum("...i,...i->...", r, r)


def _residual_jac(q: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian (S, 9, 22), or (9, 22) for one row, of the
    residual of ``_residual_sep`` at float64 rows ``q``.

    The guard row is a subgradient: the derivative of -|p1_i - p2_i| at the
    component i of largest separation while the guard is active, else zero."""
    angles, w = _split(q)
    lead = w.shape[1:]
    terms, dterms = _born(angles, jacobian=True)      # (8, 4, ...), (8, 5, 4, ...)
    # v (8, 22, ...): the derivative of p1 or p2, whichever depends on the
    # column; term k's angles are columns 5k to 5k + 4, part j's weight
    # logit is column 20 + j, and term k's weight in its part is wk[k]
    wk = np.empty((2, 2) + lead)
    wk[:, 0] = w
    wk[:, 1] = 1 - w
    v = np.empty((8, 22) + lead)
    np.multiply(dterms, wk.reshape((4,) + lead),
                out=v[:, :20].reshape((8, 4, 5) + lead).swapaxes(1, 2))
    np.subtract(terms[:, 0::2], terms[:, 1::2], out=v[:, 20:])
    v[:, 20:] *= w * (1.0 - w)
    jac = np.empty(lead + (9, 22))
    # d(p1 + p2) = v + 0.0: the other part's derivative there is 0.0, and
    # adding it turns -0.0 into 0.0
    jac[..., :8, :] = (0.5 * (v + 0.0)).T.swapaxes(-1, -2)
    # d(p1 - p2): part 2's columns are 0.0 - v
    p = _parts(terms, w)
    diff = p[:, 0] - p[:, 1]
    i = np.argmax(np.abs(diff), axis=0)[None]
    di = np.take_along_axis(diff, i, axis=0)[0]
    dj = np.take_along_axis(v, i[:, None], axis=0)[0]          # (22, ...)
    dj[10:20] = 0.0 - dj[10:20]
    dj[21] = 0.0 - dj[21]
    jac[..., 8, :] = np.where(np.abs(di) < 0.01, -5.0 * np.sign(di) * dj, 0.0).T
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
    seeds: list[np.ndarray] = []
    try:
        canon, g = canonicalize(hint, sector=True)
    except DegenerateThetaError:
        return seeds
    ginv = inverse(g)
    r_self = apply_relabeling(ginv, canon).params()
    for (s, t), _, alphas in _admitted_sectors(canon):
        al = np.clip(alphas, -1.0, 1.0)
        local_real = QubitRealization(
            theta=0.0,
            a=((1 - s) * math.pi / 2, (1 - t) * math.pi / 2),
            b=(math.acos(al[0]), math.acos(al[1])),
        )
        r_local = apply_relabeling(ginv, local_real).params()
        for mu in (0.1, 0.4):
            logit = math.log(mu / (1 - mu))
            seeds.append(np.r_[r_local, r_self, r_self, r_self, logit, 0.0])
            seeds.append(np.r_[r_self, r_self, r_local, r_self, 0.0, logit])
    return seeds


#: Rounds of Gaussian proposals in ``decomposition_search``'s stochastic
#: phase, and the number of its best rows that are polished.
_GENERATIONS, _POLISH_TOP = 120, 3


def decomposition_search(p: Behavior, trials: int = 400, seed: int = 0,
                         hint: QubitRealization | None = None) -> DecompositionResult:
    """Seek a proper convex decomposition p = (p1 + p2)/2 with p1 != p2.

    Multistart stochastic descent over two 2-component mixtures of pure-qubit
    behaviors, followed by a trust-region Levenberg-Marquardt polish of the
    most promising starts.  A row's score is the squared norm of the
    polish residual.  The descent keeps its parameters and proposals in
    float64 but scores the proposals in float32; the final rows are scored
    once more in float64, and that score alone ranks them for the polish.  A
    hint realization of ``p`` adds starts seeded along its flat-witness
    directions (one family per admissible sector), polished once as one
    batch before the stochastic phase, which runs only when none of them
    reaches a split.  Absence of a decomposition is evidence, not proof.

    Raises ValueError unless ``trials >= 1``.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    _require_valid(p)
    target = p.vector
    rng = np.random.default_rng(seed)
    best = None     # (mixture residual, separation, parameter row)
    nfev = capped = 0

    def polish(starts: np.ndarray) -> bool:
        """Polish the rows of ``starts`` together; True if one is found."""
        nonlocal best, nfev, capped
        if not len(starts):
            return False
        x, mixres, sep, n, c = _polish(starts, target)
        nfev += int(n.sum())
        capped += int(c.sum())
        found = _found(mixres, sep)
        # the first found row, else the lowest residual (widest split on ties)
        i = int(np.argmax(found)) if found.any() else int(np.lexsort((-sep, mixres))[0])
        if found[i] or best is None or (mixres[i], -sep[i]) < (best[0], -best[1]):
            best = (float(mixres[i]), float(sep[i]), x[i])
        return bool(found[i])

    seeds = _structured_seeds(hint) if hint is not None else []
    if not polish(np.array(seeds)):
        x = np.empty((trials, 22))
        x[:, 0:20] = rng.uniform(0.0, math.pi, size=(trials, 20))
        x[:, [0, 5, 10, 15]] = rng.uniform(0.0, math.pi / 2, size=(trials, 4))
        x[:, 20:22] = rng.normal(0.0, 1.0, size=(trials, 2))
        # float32 scores only decide which proposals a row accepts
        f = _score(x, target, np.float32)
        scale = 0.4
        decay = (0.004 / scale) ** (1.0 / max(_GENERATIONS, 1))
        prop = np.empty_like(x)
        for _ in range(_GENERATIONS):
            # x + rng.normal(0.0, scale, x.shape) bit for bit: x is never -0.0
            rng.standard_normal(out=prop)
            prop *= scale
            prop += x
            fp = _score(prop, target, np.float32)
            better = fp < f
            x[better] = prop[better]
            f[better] = fp[better]
            scale *= decay
        f = _score(x, target)
        top = np.argsort(f)[:_POLISH_TOP]
        polish(x[top[f[top] <= 1e-3]])
        if best is None:
            i = int(np.argmin(f))
            r, sep = _residual_sep(x[i], target)
            best = (float(_mixres(r)), float(sep), x[i])

    mixres, sep, row = best
    found = bool(_found(mixres, sep))
    if found:
        angles, w = _split(row)
        p1, p2 = map(Behavior.from_vector, _parts(_born(angles), w).T)
    else:
        p1 = p2 = None
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

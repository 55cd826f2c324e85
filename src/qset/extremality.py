"""Extremality certification for CHSH behaviors.

Necessary conditions for pure-qubit realizations, the self-test equality
conditions, the full-alternation criterion on realizations, and the verdict
composition.  All asin-based checks clamp their arguments within TOL_CLAMP
and treat larger excursions as invalid data.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .behavior import SIGN_PATTERNS, Behavior, chsh_values, invalid_rows, validate
from .errors import (
    CorrelatorRangeError,
    DegenerateThetaError,
    InconsistentGaugeError,
    InvalidBehaviorError,
    LocalInputError,
    NonzeroMarginalsError,
    NoThetaBranchError,
    NotSelfTestingError,
    QsetError,
)
from .realization import QubitRealization, _in_canonical_range
from .steering import modified_angles_raw, pi_interval, steered_many
from .symmetry import SymmetryElement, signed_permutation
from .tolerances import TOL_CLAMP, TOL_EQ

__all__ = [
    "SignPattern",
    "Verdict",
    "Failure",
    "Classification",
    "BatchClassification",
    "necessary_conditions_check",
    "masanes_check",
    "selftest_conditions_check",
    "extremality_criterion_check",
    "full_alternation_check",
    "alternation_margins",
    "classify",
    "classify_many",
    "pattern_to_reference_relabeling",
]

SECTOR_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

#: Sign rows of the necessary-condition block: one minus per position.
_SIGN_ROWS = ((-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1))
_SIGN_ROW_ARRAY = np.array(_SIGN_ROWS, dtype=float)

#: Steered-correlator index alpha (0: +1, 1: -1) of Alice's input 0 (s) and
#: input 1 (t) in each sector of SECTOR_PAIRS.
_S_IDX = np.array([0 if s == 1 else 1 for s, _ in SECTOR_PAIRS])
_T_IDX = np.array([0 if t == 1 else 1 for _, t in SECTOR_PAIRS])

#: Criterion sign patterns (e00, e01, e10, e11), in the order they are tried.
_PATTERNS = np.array(SIGN_PATTERNS, dtype=float)[:, :, None]

#: Behavior-vector permutation that exchanges Alice and Bob (its signs are all +1).
_PARTY_SWAP = signed_permutation(SymmetryElement(party_swap=True))[0]


def asin_clamped(x) -> np.ndarray:
    x = np.asarray(x, float)
    over = np.max(np.abs(x)) - 1.0
    if over > TOL_CLAMP:
        raise CorrelatorRangeError(f"asin argument exceeds [-1,1] by {over!r}")
    return np.arcsin(np.clip(x, -1.0, 1.0))


@dataclass(frozen=True)
class SignPattern:
    """Correlator sign pattern eps[x][y] with prod(eps) = -1."""

    eps: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        flat = [self.eps[0][0], self.eps[0][1], self.eps[1][0], self.eps[1][1]]
        if any(e not in (-1, 1) for e in flat):
            raise ValueError("pattern entries must be +-1")
        if flat[0] * flat[1] * flat[2] * flat[3] != -1:
            raise ValueError("pattern product must be -1")

    @property
    def flat(self) -> tuple[int, int, int, int]:
        """(e00, e01, e10, e11) in row-major (x, y) order."""
        return (self.eps[0][0], self.eps[0][1], self.eps[1][0], self.eps[1][1])


#: Pattern of the reference self-test equality (minus on the (x=0, y=1) slot).
REFERENCE_PATTERN = SignPattern(eps=((1, -1), (1, 1)))


def _pattern(k: int) -> SignPattern:
    e00, e01, e10, e11 = SIGN_PATTERNS[k]
    return SignPattern(eps=((e00, e01), (e10, e11)))


# --- array stages ------------------------------------------------------------
#
# Each stage maps (N, ...) arrays to (N, ...) arrays with the arithmetic of the
# scalar definitions, term for term, so a row's values do not depend on the
# batch it is in.


def _sector_terms(asin: np.ndarray) -> tuple[np.ndarray, ...]:
    """asin c[s,0,0], asin c[s,0,1], asin c[t,1,0], asin c[t,1,1] of each sector
    (s, t) in SECTOR_PAIRS: four (N, 4) arrays from an (N, 2, 2, 2) asin table."""
    return (asin[:, _S_IDX, 0, 0], asin[:, _S_IDX, 0, 1],
            asin[:, _T_IDX, 1, 0], asin[:, _T_IDX, 1, 1])


def _necessary_slacks(terms) -> np.ndarray:
    """(N, 16, 2) slacks (pi - value, value + pi) of the 32 necessary inequalities,
    16 values in sector-major, sign-row-minor order."""
    a00, a01, a10, a11 = (t[:, :, None] for t in terms)
    r = _SIGN_ROW_ARRAY
    val = (r[:, 0] * a00 + r[:, 1] * a10 + r[:, 2] * a01 + r[:, 3] * a11).reshape(-1, 16)
    return np.stack([math.pi - val, val + math.pi], axis=-1)


def _selftest_residuals(terms) -> np.ndarray:
    """(N, 4) residuals of the reference self-test equalities, per sector."""
    a00, a01, a10, a11 = terms
    return a00 + a10 - a01 + a11 - math.pi


def _criterion_holds(terms) -> np.ndarray:
    """(N, 8): the criterion equality holds in all four sectors, per sign pattern."""
    a00, a01, a10, a11 = (t[:, None, :] for t in terms)
    e = _PATTERNS
    val = e[:, 0] * a00 + e[:, 1] * a01 + e[:, 2] * a10 + e[:, 3] * a11
    return ~(np.abs(val - math.pi) > TOL_EQ).any(axis=2)


def _alternating(margins: np.ndarray, strict: bool) -> np.ndarray:
    if strict:
        return (margins[:, :6].min(axis=1) > TOL_EQ) & (margins[:, 6:].min(axis=1) >= -TOL_EQ)
    return margins.min(axis=1) >= -TOL_EQ


def _front(v: np.ndarray, invalid: np.ndarray):
    """Fine's criterion and steering over behavior vectors (N, 8), given the
    rows ``validate`` rejects (``invalid_rows(v)``).

    Returns the max CHSH value and the Local mask per row; the rows that are
    valid, nonlocal and steerable, with their steered correlators
    (M, 2, 2, 2) and the asin of those; and the error ``classify`` raises for
    every other row that is not Local.
    """
    with np.errstate(invalid="ignore"):
        chsh_max = chsh_values(v).max(axis=1)
    local = ~invalid & (chsh_max <= 2.0 + TOL_EQ)
    errors: dict[int, QsetError] = {
        i: InvalidBehaviorError(validate(Behavior.from_vector(v[i])))
        for i in np.flatnonzero(invalid).tolist()}
    rows = np.flatnonzero(~invalid & ~local)
    c = np.empty((0, 2, 2, 2))
    if rows.size:
        c, failures = steered_many(v[rows])
        if failures:
            for k, exc in failures.items():
                errors[int(rows[k])] = exc
            keep = np.ones(len(rows), bool)
            keep[list(failures)] = False
            rows, c = rows[keep], c[keep]
    return chsh_max, local, rows, c, np.arcsin(c), errors


def _nonlocal_steered(p: Behavior, local_message: str) -> tuple[np.ndarray, np.ndarray]:
    """Steered correlators (1, 2, 2, 2) of one behavior and their asin; raises
    InvalidBehaviorError, LocalInputError or the steering error."""
    v = p.vector[None]
    _, local, _, c, asin, errors = _front(v, invalid_rows(v))
    if errors:
        raise errors[0]
    if local[0]:
        raise LocalInputError(local_message)
    return c, asin


def necessary_conditions_check(p: Behavior, side: str = "alice") -> tuple[bool, np.ndarray]:
    """Necessary condition for pure projective two-qubit realizations.

    Checks the 32 inequalities |sum of signed asin of steered correlators| <= pi
    over all (s, t) sign choices and single-minus placements.  Returns the
    verdict and a (16, 2) array of signed slacks (pi - value, value + pi);
    nonnegative slacks mean the inequality holds.
    """
    if side not in ("alice", "bob"):
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    v = p.vector if side == "alice" else p.vector[_PARTY_SWAP]
    c, failures = steered_many(v[None])
    if failures:
        raise failures[0]
    residuals = _necessary_slacks(_sector_terms(np.arcsin(c)))[0]
    return bool(residuals.min() >= -TOL_EQ), residuals


def masanes_check(p: Behavior) -> bool:
    """Zero-marginal boundary criterion: the 8 inequalities
    |sum of signed asin <A_x B_y>| <= pi with a single minus."""
    v = p.vector
    if np.max(np.abs(v[:4])) > TOL_EQ:
        raise NonzeroMarginalsError(f"marginals {v[:4]!r} are not all zero")
    asin = asin_clamped(v[4:].reshape(2, 2))
    terms = np.array([asin[0, 0], asin[1, 0], asin[0, 1], asin[1, 1]])
    vals = np.array([np.dot(row, terms) for row in _SIGN_ROWS])
    return bool(np.max(np.abs(vals)) <= math.pi + TOL_EQ)


def selftest_conditions_check(p: Behavior) -> tuple[bool, np.ndarray]:
    """Self-test equality conditions with the reference sign placement:

        asin c[s,0,0] + asin c[t,1,0] - asin c[s,0,1] + asin c[t,1,1] = pi

    for all four (s, t).  Returns the verdict and the 4 signed residuals
    (value - pi) in (s,t) order (+,+), (+,-), (-,+), (-,-).
    Raises LocalInputError for local behaviors.
    """
    _, asin = _nonlocal_steered(p, "self-test conditions require a nonlocal behavior")
    res = _selftest_residuals(_sector_terms(asin))[0]
    return bool(np.max(np.abs(res)) <= TOL_EQ), res


def extremality_criterion_check(p: Behavior) -> tuple[bool, SignPattern | None]:
    """Behavior-level extremality criterion for nonlocal points.

    True iff a single sign pattern eps with prod(eps) = -1 satisfies
    sum_xy eps_xy asin c[u_x, x, y] = pi for all four u in {+-1}^2.
    The +pi target suffices: the flipped pattern covers -pi.  The first such
    pattern in SIGN_PATTERNS order is returned.
    """
    _, asin = _nonlocal_steered(p, "extremality criterion applies to nonlocal behaviors")
    holds = _criterion_holds(_sector_terms(asin))[0]
    if not holds.any():
        return False, None
    return True, _pattern(int(np.argmax(holds)))


def alternation_margins(params) -> tuple[np.ndarray, dict[int, Exception]]:
    """``full_alternation_check`` margins of realizations given as rows
    (theta, a0, a1, b0, b1) of an (N, 5) array.

    Returns the (N, 8) margins and the error ``full_alternation_check``
    raises for each row it rejects (ValueError for a non-canonical row,
    DegenerateThetaError for theta = 0 mod pi/2); those rows' margins are NaN.
    """
    params = np.asarray(params, dtype=float)
    b0, b1 = params[:, 3:4], params[:, 4:5]
    at = pi_interval(modified_angles_raw(params[:, :1], params[:, 1:3]))  # [alpha, row, x]
    margins = np.concatenate(
        [b0 - at[:, :, 0].T, at[:, :, 1].T - b0, b1 - at[:, :, 1].T, b0, math.pi - b1], axis=1)
    errors: dict[int, Exception] = {}
    for i, row in enumerate(params.tolist()):
        if not _in_canonical_range(*row):
            errors[i] = ValueError("full_alternation_check requires a canonical realization")
        elif abs(math.sin(2 * row[0])) < 1e-12:
            errors[i] = DegenerateThetaError(f"theta={row[0]!r} is 0 mod pi/2")
    if errors:
        margins[list(errors)] = np.nan
    return margins, errors


def full_alternation_check(r: QubitRealization, strict: bool) -> tuple[bool, np.ndarray]:
    """Full alternation of the modified angles against Bob's angles:

        0 <= [atilde_0^s]_pi <= b0 <= [atilde_1^t]_pi <= b1 < pi   for all s, t.

    Returns the verdict and 8 signed slack margins, ordered
    (b0 - [a~0+], b0 - [a~0-], [a~1+] - b0, [a~1-] - b0,
     b1 - [a~1+], b1 - [a~1-], b0, pi - b1).
    The strict variant requires the six inner margins strictly positive
    (the leading 0 <= [a~0^s] inequality stays non-strict in the strict variant).

    The verdict characterizes extremality of the behavior for canonical
    realizations with theta in (0, pi/2); for theta beyond pi/2 canonicalize
    into the theta <= pi/4 sector first (the extremality statement is about
    the existence of an alternating image, not about every representative).
    """
    margins, errors = alternation_margins(np.array([r.params()]))
    if errors:
        raise errors[0]
    return bool(_alternating(margins, strict)[0]), margins[0]


class Verdict(enum.Enum):
    LOCAL = "Local"
    EXTREMAL_EXPOSED = "ExtremalExposed"
    EXTREMAL_NON_EXPOSED = "ExtremalNonExposed"
    NON_EXTREMAL_IN_Q = "NonExtremalInQ"
    FAILS_NECESSARY_Q2_PURE = "FailsNecessaryQ2Pure"
    INDETERMINATE = "Indeterminate"


#: Verdict of each code in ``BatchClassification.verdict``.
VERDICTS = tuple(Verdict)
_CODE = {v: k for k, v in enumerate(VERDICTS)}


class Failure(enum.IntEnum):
    """Why a behavior whose criterion holds ends Indeterminate: the
    reconstruction of its relabeled image stopped, or its result does not
    alternate.  These are the only sources of Indeterminate."""

    NONE = 0
    NOT_SELF_TESTING = 1
    INCONSISTENT_GAUGE = 2
    NO_THETA_BRANCH = 3
    DEGENERATE_THETA = 4
    NON_CANONICAL = 5
    NOT_ALTERNATING = 6


#: Failure of each error that stops a reconstruction; ValueError is the
#: alternation check's rejection of a non-canonical realization.
_FAILURE_OF = {
    NotSelfTestingError: Failure.NOT_SELF_TESTING,
    InconsistentGaugeError: Failure.INCONSISTENT_GAUGE,
    NoThetaBranchError: Failure.NO_THETA_BRANCH,
    DegenerateThetaError: Failure.DEGENERATE_THETA,
    ValueError: Failure.NON_CANONICAL,
}

#: Caveat of the verdicts that do not certify membership in Q.
CAVEAT = "membership in Q not certified"


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    details: dict = field(default_factory=dict)


def pattern_to_reference_relabeling(pattern: SignPattern) -> SymmetryElement:
    """Relabeling that maps a behavior whose criterion holds with ``pattern``
    onto one satisfying the reference placement (minus on (x=0, y=1)).

    A three-minus pattern is first globally negated by flipping both of Bob's
    outputs; the single remaining minus is then moved by input swaps.
    """
    flat = pattern.flat
    n_minus = sum(1 for e in flat if e == -1)
    flip_bob = n_minus == 3
    eff = tuple(-e for e in flat) if flip_bob else flat
    pos = eff.index(-1)  # row-major (x, y): 0->(0,0), 1->(0,1), 2->(1,0), 3->(1,1)
    x_hat, y_hat = divmod(pos, 2)
    return SymmetryElement(
        input_swap_a=(x_hat == 1),
        input_swap_b=(y_hat == 0),
        output_flip=(False, False, flip_bob, flip_bob),
    )


@functools.lru_cache(maxsize=1)
def _reference_relabelings() -> tuple[tuple[SymmetryElement, ...], np.ndarray, np.ndarray]:
    """Per sign pattern: its reference relabeling, and that relabeling as a
    signed permutation of behavior vectors (image = sign * v[perm])."""
    elems = tuple(pattern_to_reference_relabeling(_pattern(k))
                  for k in range(len(SIGN_PATTERNS)))
    perms, signs = (np.array(rows) for rows in zip(*map(signed_permutation, elems)))
    return elems, perms, signs


@functools.lru_cache(maxsize=1)
def _reference_steering() -> tuple[np.ndarray, np.ndarray]:
    """Per sign pattern: where each entry of the reference-placement steered
    table comes from in the row's own table, as flat indices (8, 8) into
    [alpha, x, y], and the sign it takes (8,).

    A reference relabeling keeps Alice's outputs, so the denominators
    1 + alpha <A_x> only follow her input swap: it permutes x, Bob's input
    swap permutes y, and flipping both of Bob's outputs negates every
    numerator <A_x B_y> + alpha <B_y>.
    """
    _, perms, signs = _reference_relabelings()
    x_src, y_src = perms[:, :2], perms[:, 2:4] - 2
    index = 4 * np.arange(2)[:, None, None] + 2 * x_src[:, None, :, None] + y_src[:, None, None, :]
    return index.reshape(-1, 8), signs[:, 2]


def _reference_steered(c: np.ndarray, pats: np.ndarray) -> np.ndarray:
    """``steered_many`` of the rows relabeled onto the reference placement,
    (K, 2, 2, 2), read off their steered correlators c and sign patterns.

    Permuting and negating are exact, so this equals the recomputed table bit
    for bit, except that an exact zero may carry the other sign; asin and the
    gauge placement treat +0 and -0 alike.
    """
    index, sign = _reference_steering()
    flat = c.reshape(-1, 8)[np.arange(len(c))[:, None], index[pats]]
    return (flat * sign[pats][:, None]).reshape(-1, 2, 2, 2)


class BatchClassification:
    """Per-row outcome of ``classify_many``.

    ``verdict`` indexes VERDICTS, or is -1 where ``classify`` raises for the
    row; ``errors`` maps each such row to its exception, and each
    Indeterminate row to the error that stopped its reconstruction.
    ``failure`` is the Failure code of Indeterminate rows (0 elsewhere).
    ``residuals`` are the self-test residuals of the input rows, NaN where a
    row is invalid, local or not steerable.  The other arrays hold the
    details of ``classification(i)``; they are NaN (-1 for ``pattern``) where
    a row has none.
    """

    def __init__(self, n: int):
        nan = lambda *shape: np.full((n, *shape), np.nan)
        self.verdict = np.full(n, -1, np.int8)
        self.failure = np.zeros(n, np.int8)
        self.errors: dict[int, Exception] = {}
        self.residuals = nan(4)
        self.chsh_max = nan()
        self.pattern = np.full(n, -1, np.int8)         # index into SIGN_PATTERNS
        self.necessary = np.zeros((n, 2), bool)         # Alice's and Bob's conditions
        self.necessary_min_slack = nan()
        self.realization = nan(5)                       # canonical reconstruction
        self.alternation_margins = nan(8)               # of the reconstruction
        self.ref_residuals = nan(4)                     # self-test residuals, relabeled row
        self.roundtrip_error = nan()

    def labels(self) -> list[str]:
        """Verdict names per row; ``Error:<exception class>`` where ``classify`` raises."""
        names = [v.value for v in VERDICTS]
        return [names[code] if code >= 0 else f"Error:{type(self.errors[i]).__name__}"
                for i, code in enumerate(self.verdict.tolist())]

    def classification(self, i: int) -> Classification:
        """What ``classify`` returns for row ``i``; raises what it raises."""
        code = int(self.verdict[i])
        if code < 0:
            raise self.errors[i]
        verdict = VERDICTS[code]
        if verdict is Verdict.LOCAL:
            return Classification(verdict, {"chsh_max": float(self.chsh_max[i])})
        if verdict in (Verdict.NON_EXTREMAL_IN_Q, Verdict.FAILS_NECESSARY_Q2_PURE):
            return Classification(verdict, {
                "necessary_alice": bool(self.necessary[i, 0]),
                "necessary_bob": bool(self.necessary[i, 1]),
                "necessary_min_slack": float(self.necessary_min_slack[i]),
                "caveat": CAVEAT,
            })
        k = int(self.pattern[i])
        details: dict = {"pattern": SIGN_PATTERNS[k], "relabeling": _reference_relabelings()[0][k]}
        failure = Failure(self.failure[i])
        if failure not in (Failure.NONE, Failure.NOT_ALTERNATING):
            details["error"] = repr(self.errors[i])
            return Classification(verdict, details)
        theta, a0, a1, b0, b1 = self.realization[i].tolist()
        details.update({
            "realization": QubitRealization(theta=theta, a=(a0, a1), b=(b0, b1)),
            "alternation_margins": self.alternation_margins[i].copy(),
            "asin_residuals": self.ref_residuals[i].copy(),
            "roundtrip_error": float(self.roundtrip_error[i]),
        })
        if failure is Failure.NOT_ALTERNATING:
            details["error"] = "criterion holds but reconstruction is not alternating"
        return Classification(verdict, details)


def _classify_non_extremal(out: BatchClassification, v: np.ndarray, rows: np.ndarray,
                           terms) -> None:
    """Necessary conditions on both sides for valid nonlocal rows whose
    criterion fails: NonExtremalInQ, or FailsNecessaryQ2Pure when both fail."""
    slack_a = _necessary_slacks(terms).min(axis=(1, 2))
    c_bob, failures = steered_many(v[rows][:, _PARTY_SWAP])
    slack_b = _necessary_slacks(_sector_terms(np.arcsin(c_bob))).min(axis=(1, 2))
    keep = np.ones(len(rows), bool)
    for k, exc in failures.items():
        out.errors[int(rows[k])] = exc
        keep[k] = False
    ok_a, ok_b = slack_a >= -TOL_EQ, slack_b >= -TOL_EQ
    done = rows[keep]
    out.necessary[done] = np.column_stack([ok_a, ok_b])[keep]
    out.necessary_min_slack[done] = np.minimum(slack_a, slack_b)[keep]
    out.verdict[done] = np.where(ok_a | ok_b, _CODE[Verdict.NON_EXTREMAL_IN_Q],
                                 _CODE[Verdict.FAILS_NECESSARY_Q2_PURE])[keep]


def _classify_extremal(out: BatchClassification, v: np.ndarray, rows: np.ndarray,
                       c: np.ndarray) -> None:
    """Rows whose criterion holds, with their steered correlators c: relabel
    onto the reference placement, reconstruct, and decide by the alternation
    margins of the result."""
    from .selftest import reconstruct_rows

    _, perms, signs = _reference_relabelings()
    pats = out.pattern[rows]
    v_ref = v[rows[:, None], perms[pats]] * signs[pats]
    c_ref = _reference_steered(c, pats)
    rebuilt = reconstruct_rows(v_ref, c_ref, np.arcsin(c_ref))
    out.ref_residuals[rows] = rebuilt.residuals
    out.realization[rows] = rebuilt.canonical
    out.roundtrip_error[rows] = rebuilt.roundtrip
    stopped = dict(rebuilt.errors)
    reached = np.ones(len(rows), bool)
    reached[list(stopped)] = False
    done = np.flatnonzero(reached)
    margins, rejected = alternation_margins(rebuilt.canonical[done])
    out.alternation_margins[rows[done]] = margins
    verdict = np.where(_alternating(margins, strict=True), _CODE[Verdict.EXTREMAL_EXPOSED],
                       np.where(_alternating(margins, strict=False),
                                _CODE[Verdict.EXTREMAL_NON_EXPOSED],
                                _CODE[Verdict.INDETERMINATE]))
    out.verdict[rows[done]] = verdict
    out.failure[rows[done[verdict == _CODE[Verdict.INDETERMINATE]]]] = Failure.NOT_ALTERNATING
    stopped.update((int(done[k]), exc) for k, exc in rejected.items())
    for k, exc in stopped.items():
        i = int(rows[k])
        out.verdict[i] = _CODE[Verdict.INDETERMINATE]
        out.failure[i] = _FAILURE_OF[type(exc)]
        out.errors[i] = exc


def classify_many(v) -> BatchClassification:
    """Classify the behaviors given as the rows of an (N, 8) array.

    Each stage runs once, as array operations over the rows that reach it:
    validation and Fine's criterion; the steered correlators and their asin;
    the criterion over 8 sign patterns x 4 sectors; both sides' necessary
    conditions where it fails; and where it holds, reconstruction of the
    relabeled behavior, canonicalization and the alternation margins.
    Row i gives what ``classify(Behavior.from_vector(v[i]))`` gives, through
    ``classification(i)``.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != 8:
        raise ValueError(f"behavior vectors must have shape (N, 8), got {v.shape}")
    return _classify_rows(v, invalid_rows(v))


def _classify_rows(v: np.ndarray, invalid: np.ndarray) -> BatchClassification:
    """``classify_many`` given the rows ``validate`` rejects."""
    out = BatchClassification(len(v))
    out.chsh_max, local, rows, c, asin, out.errors = _front(v, invalid)
    out.verdict[local] = _CODE[Verdict.LOCAL]
    if rows.size:
        terms = _sector_terms(asin)
        out.residuals[rows] = _selftest_residuals(terms)
        holds = _criterion_holds(terms)
        extremal = holds.any(axis=1)
        out.pattern[rows] = np.where(extremal, np.argmax(holds, axis=1), -1)
        if not extremal.all():
            _classify_non_extremal(out, v, rows[~extremal],
                                   tuple(t[~extremal] for t in terms))
        if extremal.any():
            _classify_extremal(out, v, rows[extremal], c[extremal])
    return out


def classify(p: Behavior) -> Classification:
    """Compose the certification pipeline into a verdict: ``validate``, then
    the stages of ``classify_many`` on a batch of one valid row.

    Local / ExtremalExposed / ExtremalNonExposed / NonExtremalInQ /
    FailsNecessaryQ2Pure, with Indeterminate reserved for the reconstruction
    dead ends listed in Failure.  NonExtremalInQ and FailsNecessaryQ2Pure
    never assert Q-membership; their caveat records that.
    """
    violations = validate(p)
    if violations:
        raise InvalidBehaviorError(violations)
    return _classify_rows(p.vector[None], np.zeros(1, bool)).classification(0)

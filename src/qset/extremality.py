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

from .behavior import (SIGN_PATTERNS, Behavior, _require_valid, chsh_values, invalid_rows,
                       validate)
from .errors import (
    CorrelatorRangeError,
    DegenerateThetaError,
    InconsistentGaugeError,
    InvalidBehaviorError,
    LocalInputError,
    NonzeroMarginalsError,
    NoThetaBranchError,
    NotSelfTestingError,
)
from .realization import QubitRealization, _alternating, alternation_margins
from .steering import _steered_c, steered_many
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
    "classify",
    "classify_many",
    "pattern_to_reference_relabeling",
]

SECTOR_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

#: Flat [alpha, x, y] indices of c[s,0,0], c[t,1,0], c[s,0,1], c[t,1,1], the
#: terms a00, a10, a01, a11, per sector (s, t); alpha = s is at offset 2 - 2s.
_TERMS = np.array([[2 - 2 * s, 4 - 2 * t, 3 - 2 * s, 5 - 2 * t] for s, t in SECTOR_PAIRS])

#: Single-minus sign rows over (a00, a10, a01, a11): row j negates term j.
_SIGN_ROWS = 1.0 - 2.0 * np.eye(4)

#: Each criterion pattern of SIGN_PATTERNS, (e00, e10, e01, e11), is
#: _PATTERN_SIGN[k] times sign row _PATTERN_ROW[k].
_PATTERN_ROW = np.array([3, 1, 2, 0, 0, 2, 1, 3])
_PATTERN_SIGN = np.array([1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, -1.0])

#: Index in SIGN_PATTERNS of the reference placement (minus on (x=0, y=1)),
#: whose relabeling is the identity.
_REFERENCE = SIGN_PATTERNS.index((1, -1, 1, 1))

#: Behavior-vector permutation that exchanges Alice and Bob (its signs are all +1).
_PARTY_SWAP = signed_permutation(SymmetryElement(party_swap=True))[0]

#: Gather indices (2, 1, 8) of each party's steering input: the behavior
#: vector for Alice, its party swap for Bob.
_PARTIES = np.array([np.arange(8), _PARTY_SWAP])[:, None, :]


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


def _pattern(k: int) -> SignPattern:
    e00, e01, e10, e11 = SIGN_PATTERNS[k]
    return SignPattern(eps=((e00, e01), (e10, e11)))


# --- array stages ------------------------------------------------------------
#
# Each stage maps (N, ...) arrays to (N, ...) arrays with the arithmetic of the
# scalar definitions, term for term, so a row's values do not depend on the
# batch it is in.


def _asin_sums(asin: np.ndarray) -> np.ndarray:
    """(N, 4, 4) signed sums, in the order a00, a10, a01, a11, of an (N, 2, 2, 2)
    asin table per sector (s, t) and sign row of _SIGN_ROWS.  Self-test
    residuals: row 2 less pi; criterion pattern k: _PATTERN_SIGN[k] times row
    _PATTERN_ROW[k]; necessary conditions: |entry| <= pi."""
    t = asin.reshape(-1, 8)[:, _TERMS][:, :, None, :] * _SIGN_ROWS
    return t[..., 0] + t[..., 1] + t[..., 2] + t[..., 3]


def _necessary_slacks(sums: np.ndarray) -> np.ndarray:
    """(N, 16, 2) slacks (pi - value, value + pi) of the 32 necessary inequalities,
    16 values in sector-major, sign-row-minor order."""
    val = sums.reshape(-1, 16)
    return np.stack([math.pi - val, val + math.pi], axis=-1)


def _least_slack(val: np.ndarray) -> np.ndarray:
    """min(pi - max v, min v + pi) over the last axis of the sums v: as
    rounding is monotone, exactly the least entry of ``_necessary_slacks``."""
    return np.minimum(math.pi - val.max(axis=-1), val.min(axis=-1) + math.pi)


def _criterion_holds(sums: np.ndarray) -> np.ndarray:
    """(N, 8): the criterion equality holds in all four sectors, per sign pattern."""
    val = sums[:, :, _PATTERN_ROW] * _PATTERN_SIGN
    return ~(np.abs(val - math.pi) > TOL_EQ).any(axis=1)


def necessary_conditions_check(p: Behavior, side: str = "alice") -> tuple[bool, np.ndarray]:
    """Necessary condition for pure projective two-qubit realizations.

    Checks the 32 inequalities |sum of signed asin of steered correlators| <= pi
    over all (s, t) sign choices and single-minus placements.  Returns the
    verdict and a (16, 2) array of signed slacks (pi - value, value + pi);
    nonnegative slacks mean the inequality holds.  Raises
    InvalidBehaviorError for a behavior that ``validate`` rejects.
    """
    if side not in ("alice", "bob"):
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    _require_valid(p)
    c = _steered_c(p.vector if side == "alice" else p.vector[_PARTY_SWAP])
    residuals = _necessary_slacks(_asin_sums(np.arcsin(c)))[0]
    return bool(residuals.min() >= -TOL_EQ), residuals


def masanes_check(p: Behavior) -> bool:
    """Zero-marginal boundary criterion: the 8 inequalities
    |sum of signed asin <A_x B_y>| <= pi with a single minus.  Raises
    InvalidBehaviorError for a behavior that ``validate`` rejects."""
    _require_valid(p)
    v = p.vector
    if np.max(np.abs(v[:4])) > TOL_EQ:
        raise NonzeroMarginalsError(f"marginals {v[:4].tolist()!r} are not all zero")
    over = np.max(np.abs(v[4:])) - 1.0
    if over > TOL_CLAMP:
        raise CorrelatorRangeError(f"asin argument exceeds [-1,1] by {float(over)!r}")
    # with zero marginals both alpha halves of the steered table are the correlators
    asin = np.broadcast_to(np.arcsin(np.clip(v[4:], -1.0, 1.0)), (2, 4))
    return bool(_least_slack(_asin_sums(asin).reshape(16)) >= -TOL_EQ)


def selftest_conditions_check(p: Behavior) -> tuple[bool, np.ndarray]:
    """Self-test equality conditions with the reference sign placement:

        asin c[s,0,0] + asin c[t,1,0] - asin c[s,0,1] + asin c[t,1,1] = pi

    for all four (s, t).  Returns the verdict and the 4 signed residuals
    (value - pi) in (s,t) order (+,+), (+,-), (-,+), (-,-).
    Raises LocalInputError for local behaviors.  Reads the batch of one that
    ``classify(p)`` keeps.
    """
    batch = _steered_batch(p, "self-test conditions require a nonlocal behavior")
    res = batch.residuals[0].copy()
    return bool(np.abs(res).max() <= TOL_EQ), res


def extremality_criterion_check(p: Behavior) -> tuple[bool, SignPattern | None]:
    """Behavior-level extremality criterion for nonlocal points.

    True iff a single sign pattern eps with prod(eps) = -1 satisfies
    sum_xy eps_xy asin c[u_x, x, y] = pi for all four u in {+-1}^2.
    The +pi target suffices: the flipped pattern covers -pi.  The first such
    pattern in SIGN_PATTERNS order is returned.  Reads the batch of one that
    ``classify(p)`` keeps.
    """
    batch = _steered_batch(p, "extremality criterion applies to nonlocal behaviors")
    k = int(batch.pattern[0])
    return (False, None) if k < 0 else (True, _pattern(k))


def full_alternation_check(r: QubitRealization, strict: bool) -> tuple[bool, np.ndarray]:
    """Full alternation of the modified angles against Bob's angles:

        0 <= [atilde_0^s]_pi <= b0 <= [atilde_1^t]_pi <= b1 <= pi   for all s, t,

    where [x]_pi is x mod pi, so the leading inequality holds by construction.
    Returns the verdict and 8 signed slack margins, ordered
    (b0 - [a~0+], b0 - [a~0-], [a~1+] - b0, [a~1-] - b0,
     b1 - [a~1+], b1 - [a~1-], b0, pi - b1).
    Every margin must be >= -TOL_EQ.  The strict variant requires the six
    inner margins > TOL_EQ; the last two, b0 and pi - b1, stay non-strict
    (>= -TOL_EQ) in both variants.

    The verdict characterizes extremality of the behavior for canonical
    realizations with theta in (0, pi/2); for theta beyond pi/2 canonicalize
    into the theta <= pi/4 sector first (the extremality statement is about
    the existence of an alternating image, not about every representative).
    """
    margins, errors = alternation_margins(np.array([r.params()]))
    if errors:
        raise errors[0]
    return bool(_alternating(margins)[0 if strict else 1][0]), margins[0]


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
    reconstruction of its relabeled image stopped (codes 1 to 4, from the
    error its ``Reconstructions.errors`` keeps), or its result does not
    alternate.  These are the only sources of Indeterminate."""

    NONE = 0
    NOT_SELF_TESTING = 1
    INCONSISTENT_GAUGE = 2
    NO_THETA_BRANCH = 3
    DEGENERATE_THETA = 4
    NOT_ALTERNATING = 6


#: Failure of each error that stops a reconstruction.
_FAILURE_OF = {
    NotSelfTestingError: Failure.NOT_SELF_TESTING,
    InconsistentGaugeError: Failure.INCONSISTENT_GAUGE,
    NoThetaBranchError: Failure.NO_THETA_BRANCH,
    DegenerateThetaError: Failure.DEGENERATE_THETA,
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
    """Per-row outcome of ``classify_many``: the input rows ``vectors`` and
    the arrays the stages write.

    Every batch has run all four stages.  ``verdict`` indexes VERDICTS, or
    is -1 where ``classify`` raises for the row; ``errors`` maps each such
    row, and only those, to its exception.  ``failure`` is the Failure code
    of Indeterminate rows (0 elsewhere).
    ``residuals`` are the self-test residuals of the input rows and
    ``steered`` their steered correlators (Alice's side), NaN where a row is
    invalid, local or not steerable.  ``reconstructions`` holds stage 4,
    once: the ``selftest.Reconstructions`` of the rows whose criterion holds,
    in row order, each of the row's image under the relabeling of its
    ``pattern``, with its alternation margins and the error that stopped
    it, if any (None where there are no such rows).  The other arrays hold
    the details of ``classification(i)``; they are NaN (-1 for ``pattern``)
    where a row has none.
    """

    def __init__(self, v: np.ndarray):
        n = len(v)
        nan = np.full((n, 14), np.nan)
        self.vectors = v
        self.verdict = np.full(n, -1, np.int8)
        self.failure = np.zeros(n, np.int8)
        self.errors: dict[int, Exception] = {}
        self.residuals = nan[:, 0:4]
        self.chsh_max = nan[:, 4]
        self.pattern = np.full(n, -1, np.int8)         # index into SIGN_PATTERNS
        self.necessary = np.zeros((n, 2), bool)         # Alice's and Bob's conditions
        self.necessary_min_slack = nan[:, 5]
        self.steered = nan[:, 6:14].reshape(n, 2, 2, 2)
        self.reconstructions = None

    def labels(self) -> list[str]:
        """Verdict names per row; ``Error:<exception class>`` where ``classify`` raises."""
        names = [v.value for v in VERDICTS]
        return [names[code] if code >= 0 else f"Error:{type(self.errors[i]).__name__}"
                for i, code in enumerate(self.verdict.tolist())]

    def classification(self, i: int) -> Classification:
        """What ``classify`` returns for row ``i``; raises what it raises,
        with a fresh traceback on each call."""
        code = int(self.verdict[i])
        if code < 0:
            raise self.errors[i].with_traceback(None)
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
        rec = self.reconstructions
        j = int(np.searchsorted((self.pattern >= 0).nonzero()[0], i))  # row i's entry in rec
        if j in rec.errors:
            details["error"] = repr(rec.errors[j])
            return Classification(verdict, details)
        details.update({
            "realization": rec.realization(j),
            "alternation_margins": rec.margins[j].copy(),
            "asin_residuals": rec.residuals[j].copy(),
            "roundtrip_error": float(rec.roundtrip[j]),
        })
        if self.failure[i] == Failure.NOT_ALTERNATING:
            details["error"] = "criterion holds but reconstruction is not alternating"
        return Classification(verdict, details)


# --- the stages of a batch: screen, steer, sums, then reconstruct and decide --


def _screen(v: np.ndarray, invalid: np.ndarray) -> tuple[BatchClassification, np.ndarray]:
    """Stage 1: the InvalidBehaviorError of each row ``validate`` rejects
    (given as invalid), and Fine's criterion on the others.  Returns the batch
    and its valid nonlocal rows."""
    out = BatchClassification(v)
    with np.errstate(invalid="ignore"):
        out.chsh_max[:] = chsh_values(v).max(axis=1)
    local = ~invalid & (out.chsh_max <= 2.0 + TOL_EQ)
    out.verdict[local] = _CODE[Verdict.LOCAL]
    for i in invalid.nonzero()[0].tolist():
        out.errors[i] = InvalidBehaviorError(validate(Behavior.from_vector(v[i])))
    return out, (~invalid & ~local).nonzero()[0]


def _steer(out: BatchClassification, rows: np.ndarray):
    """Stage 2: steered correlators of the given rows for both parties in one
    ``steered_many`` call: Alice's (M, 2, 2, 2) stacked over Bob's, which are
    those of the party-swapped rows.

    A row whose Alice side cannot be steered is dropped, its error recorded;
    Alice's tables of the rows kept go to ``out.steered``.  Returns the rows
    kept, their (2M, 2, 2, 2) table and the steering error of each kept row's
    Bob side (row of the batch -> exception), which counts only where the
    criterion fails.
    """
    m = len(rows)
    c, failures = steered_many(out.vectors[rows[:, None], _PARTIES].reshape(-1, 8))
    if failures:
        keep = np.ones(m, bool)
        for k, exc in failures.items():
            if k < m:
                out.errors[int(rows[k])] = exc
                keep[k] = False
        failures = {int(rows[k - m]): exc for k, exc in failures.items()
                    if k >= m and keep[k - m]}
        rows, c = rows[keep], c[np.tile(keep, 2)]
    out.steered[rows] = c[:len(rows)]
    return rows, c, failures


def _sums(out: BatchClassification, rows: np.ndarray, c: np.ndarray,
          bob_failures: dict) -> None:
    """Stage 3: one ``_asin_sums`` table over the steered table c of
    ``_steer``.  Alice's half gives the self-test residuals and each row's
    first criterion pattern.  Where no pattern holds, both halves' necessary
    conditions decide NonExtremalInQ, or FailsNecessaryQ2Pure when both fail,
    each side by the ``_least_slack`` of its 16 sums; there a row in
    bob_failures gets its Bob side's error instead.
    """
    m = len(rows)
    sums = _asin_sums(np.arcsin(c))
    out.residuals[rows] = sums[:m, :, 2] - math.pi
    holds = _criterion_holds(sums[:m])
    extremal = holds.any(axis=1)
    out.pattern[rows] = np.where(extremal, holds.argmax(axis=1), -1)
    non = (~extremal).nonzero()[0]
    if not non.size:
        return
    slack = _least_slack(sums.reshape(2, m, 16)[:, non])  # (2, K)
    rows = rows[non]
    if bob_failures:
        keep = ~np.isin(rows, list(bob_failures))
        for i in rows[~keep].tolist():
            out.errors[i] = bob_failures[i]
        rows, slack = rows[keep], slack[:, keep]
    ok = slack >= -TOL_EQ
    out.necessary[rows] = ok.T
    out.necessary_min_slack[rows] = slack.min(axis=0)
    out.verdict[rows] = np.where(ok[0] | ok[1], _CODE[Verdict.NON_EXTREMAL_IN_Q],
                                 _CODE[Verdict.FAILS_NECESSARY_Q2_PURE])


def _reconstruct(out: BatchClassification, rows: np.ndarray) -> None:
    """Stage 4 on the rows whose criterion holds: relabel onto the reference
    placement, reconstruct, and decide every row in one pass by the
    alternation margins ``reconstruct_rows`` keeps.  A row whose
    reconstruction stopped has NaN margins, so it is Indeterminate, and its
    Failure code comes from its error, which stays in the reconstructions.

    Reference-pattern rows keep their residuals: their relabeling is the
    identity, so their relabeled steered table c_ref is the kept one.  Other
    rows take a second ``_asin_sums`` table over their c_ref: a gather of the
    first sums the same terms in another order, which moves the last bits
    (up to 8.9e-16) and so can move a residual across TOL_EQ.
    """
    from .selftest import reconstruct_rows

    _, perms, signs = _reference_relabelings()
    pats = out.pattern[rows]
    v_ref = out.vectors[rows[:, None], perms[pats]] * signs[pats]
    c_ref = _reference_steered(out.steered[rows], pats)
    residuals = out.residuals[rows]
    other = (pats != _REFERENCE).nonzero()[0]
    if other.size:
        residuals[other] = _asin_sums(np.arcsin(c_ref[other]))[:, :, 2] - math.pi
    rec = out.reconstructions = reconstruct_rows(v_ref, c_ref, residuals)
    strict, alternating = _alternating(rec.margins)
    verdict = np.where(strict, _CODE[Verdict.EXTREMAL_EXPOSED],
                       np.where(alternating, _CODE[Verdict.EXTREMAL_NON_EXPOSED],
                                _CODE[Verdict.INDETERMINATE]))
    out.verdict[rows] = verdict
    out.failure[rows[verdict == _CODE[Verdict.INDETERMINATE]]] = Failure.NOT_ALTERNATING
    for k, exc in rec.errors.items():
        out.failure[rows[k]] = _FAILURE_OF[type(exc)]


def _classify_rows(v: np.ndarray, invalid: np.ndarray) -> BatchClassification:
    """The four stages of ``classify_many``, given the rows ``validate`` rejects."""
    out, rows = _screen(v, invalid)
    if rows.size:
        _sums(out, *_steer(out, rows))
        rows = (out.pattern >= 0).nonzero()[0]
        if rows.size:
            _reconstruct(out, rows)
    return out


def classify_many(v) -> BatchClassification:
    """Classify the behaviors given as the rows of an (N, 8) array.

    The four stages each run once, as array operations over the rows that
    reach them: validation and Fine's criterion; one steering pass for both
    parties, Alice's rows stacked over their party swaps; the asin of that
    table and its one table of signed asin sums (``_asin_sums``), giving the
    self-test residuals and the criterion on Alice's side over 8 sign
    patterns x 4 sectors, and both sides' necessary conditions where the
    criterion fails; and where it holds, reconstruction of the relabeled
    behavior, canonicalization and the alternation margins.  Row i gives
    what ``classify(Behavior.from_vector(v[i]))`` gives, through
    ``classification(i)``: ``classify`` is this call on a batch of one.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != 8:
        raise ValueError(f"behavior vectors must have shape (N, 8), got {v.shape}")
    return _classify_rows(v, invalid_rows(v))


#: The last batch of one ``_classified`` built, keyed by its vector's bytes.
_kept: dict[bytes, BatchClassification] = {}


def _classified(p: Behavior) -> BatchClassification:
    """The batch of one p, kept until another behavior's batch replaces it.
    Distinct float64 bytes (0.0 and -0.0 included) never share a batch.  Only
    a new batch ``validate``s p, raising as ``classify`` does: a kept one was
    valid."""
    key = np.asarray(p.vector, dtype=float).tobytes()
    batch = _kept.get(key)
    if batch is None:
        _require_valid(p)
        _kept.clear()
        batch = _kept[key] = _classify_rows(np.frombuffer(key)[None], np.zeros(1, bool))
    return batch


def _steered_batch(p: Behavior, local_message: str) -> BatchClassification:
    """The batch of one ``classify(p)`` keeps, for a p that is nonlocal and
    whose Alice side is steered; raises InvalidBehaviorError, LocalInputError
    with ``local_message``, or the error that stopped Alice's steering."""
    batch = _classified(p)
    if batch.verdict[0] == _CODE[Verdict.LOCAL]:
        raise LocalInputError(local_message)
    if np.isnan(batch.steered[0]).any():
        raise batch.errors[0].with_traceback(None)
    return batch


def classify(p: Behavior) -> Classification:
    """Compose the certification pipeline into a verdict: ``classify_many``
    on a batch of one row, kept and shared with ``selftest_conditions_check``,
    ``extremality_criterion_check``, ``selftest_certificate`` and
    ``reconstruct_realization`` of the same behavior, whichever comes first.

    Local / ExtremalExposed / ExtremalNonExposed / NonExtremalInQ /
    FailsNecessaryQ2Pure, with Indeterminate reserved for the reconstruction
    dead ends listed in Failure.  NonExtremalInQ and FailsNecessaryQ2Pure
    never assert Q-membership; their caveat records that.
    """
    return _classified(p).classification(0)

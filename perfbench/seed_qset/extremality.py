"""Extremality certification for CHSH behaviors.

Necessary conditions for pure-qubit realizations, the self-test equality
conditions, the full-alternation criterion on realizations, and the verdict
composition.  All asin-based checks clamp their arguments within TOL_CLAMP
and treat larger excursions as invalid data.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .behavior import Behavior, validate, is_local
from .errors import (
    CorrelatorRangeError,
    InvalidBehaviorError,
    LocalInputError,
    NonzeroMarginalsError,
)
from .realization import QubitRealization
from .steering import (
    modified_angles,
    pi_interval,
    steered_correlators,
    bob_steered_correlators,
)
from .symmetry import SymmetryElement, apply_symmetry
from .tolerances import TOL_CLAMP, TOL_EQ

__all__ = [
    "SignPattern",
    "Verdict",
    "Classification",
    "necessary_conditions_check",
    "masanes_check",
    "selftest_conditions_check",
    "extremality_criterion_check",
    "full_alternation_check",
    "classify",
    "pattern_to_reference_relabeling",
]

SECTOR_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

#: Sign rows of the necessary-condition block: one minus per position.
_SIGN_ROWS = ((-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1))


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


def necessary_conditions_check(p: Behavior, side: str = "alice") -> tuple[bool, np.ndarray]:
    """Necessary condition for pure projective two-qubit realizations.

    Checks the 32 inequalities |sum of signed asin of steered correlators| <= pi
    over all (s, t) sign choices and single-minus placements.  Returns the
    verdict and a (16, 2) array of signed slacks (pi - value, value + pi);
    nonnegative slacks mean the inequality holds.
    """
    if side not in ("alice", "bob"):
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    sc = steered_correlators(p) if side == "alice" else bob_steered_correlators(p)
    asin = asin_clamped(sc.c)  # [alpha][x][y]
    residuals = np.empty((16, 2))
    i = 0
    for s, t in SECTOR_PAIRS:
        si, ti = (0 if s == 1 else 1), (0 if t == 1 else 1)
        terms = np.array([asin[si, 0, 0], asin[ti, 1, 0], asin[si, 0, 1], asin[ti, 1, 1]])
        for row in _SIGN_ROWS:
            val = float(np.dot(row, terms))
            residuals[i] = (math.pi - val, val + math.pi)
            i += 1
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
    if is_local(p):
        raise LocalInputError("self-test conditions require a nonlocal behavior")
    asin = asin_clamped(steered_correlators(p).c)
    res = np.empty(4)
    for i, (s, t) in enumerate(SECTOR_PAIRS):
        si, ti = (0 if s == 1 else 1), (0 if t == 1 else 1)
        res[i] = asin[si, 0, 0] + asin[ti, 1, 0] - asin[si, 0, 1] + asin[ti, 1, 1] - math.pi
    return bool(np.max(np.abs(res)) <= TOL_EQ), res


def extremality_criterion_check(p: Behavior) -> tuple[bool, SignPattern | None]:
    """Behavior-level extremality criterion for nonlocal points.

    True iff a single sign pattern eps with prod(eps) = -1 satisfies
    sum_xy eps_xy asin c[u_x, x, y] = pi for all four u in {+-1}^2.
    The +pi target suffices: the flipped pattern covers -pi.
    """
    if is_local(p):
        raise LocalInputError("extremality criterion applies to nonlocal behaviors")
    asin = asin_clamped(steered_correlators(p).c)
    for e00, e01, e10 in itertools.product((1, -1), repeat=3):
        e11 = -e00 * e01 * e10
        ok = True
        for s, t in SECTOR_PAIRS:
            si, ti = (0 if s == 1 else 1), (0 if t == 1 else 1)
            val = (e00 * asin[si, 0, 0] + e01 * asin[si, 0, 1]
                   + e10 * asin[ti, 1, 0] + e11 * asin[ti, 1, 1])
            if abs(val - math.pi) > TOL_EQ:
                ok = False
                break
        if ok:
            return True, SignPattern(eps=((e00, e01), (e10, e11)))
    return False, None


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
    if not r.is_canonical():
        raise ValueError("full_alternation_check requires a canonical realization")
    at = pi_interval(modified_angles(r))
    b0, b1 = r.b
    margins = np.array([
        b0 - at[0, 0], b0 - at[1, 0],
        at[0, 1] - b0, at[1, 1] - b0,
        b1 - at[0, 1], b1 - at[1, 1],
        b0, math.pi - b1,
    ])
    if strict:
        ok = bool(np.min(margins[:6]) > TOL_EQ and np.min(margins[6:]) >= -TOL_EQ)
    else:
        ok = bool(np.min(margins) >= -TOL_EQ)
    return ok, margins


class Verdict(enum.Enum):
    LOCAL = "Local"
    EXTREMAL_EXPOSED = "ExtremalExposed"
    EXTREMAL_NON_EXPOSED = "ExtremalNonExposed"
    NON_EXTREMAL_IN_Q = "NonExtremalInQ"
    FAILS_NECESSARY_Q2_PURE = "FailsNecessaryQ2Pure"
    INDETERMINATE = "Indeterminate"


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


def classify(p: Behavior) -> Classification:
    """Compose the certification pipeline into a verdict.

    Local / ExtremalExposed / ExtremalNonExposed / NonExtremalInQ /
    FailsNecessaryQ2Pure, with Indeterminate reserved for numerical dead ends.
    NonExtremalInQ never asserts Q-membership; the caveat flag records that.
    """
    violations = validate(p)
    if violations:
        raise InvalidBehaviorError(violations)
    if is_local(p):
        from .behavior import chsh_all

        return Classification(Verdict.LOCAL, {"chsh_max": float(np.max(chsh_all(p)))})
    extremal, pattern = extremality_criterion_check(p)
    if not extremal:
        ok_a, res_a = necessary_conditions_check(p, "alice")
        ok_b, res_b = necessary_conditions_check(p, "bob")
        details = {
            "necessary_alice": ok_a,
            "necessary_bob": ok_b,
            "necessary_min_slack": float(min(res_a.min(), res_b.min())),
        }
        if not ok_a and not ok_b:
            return Classification(Verdict.FAILS_NECESSARY_Q2_PURE, details)
        details["caveat"] = "membership in Q not certified"
        return Classification(Verdict.NON_EXTREMAL_IN_Q, details)

    relabel = pattern_to_reference_relabeling(pattern)
    p_ref = apply_symmetry(relabel, p)
    details: dict = {"pattern": pattern.flat, "relabeling": relabel}
    try:
        from .selftest import reconstruct_realization

        rec, trace = reconstruct_realization(p_ref)
        strict_ok, margins = full_alternation_check(rec, strict=True)
        nonstrict_ok, _ = full_alternation_check(rec, strict=False)
        _, res = selftest_conditions_check(p_ref)
        details.update({
            "realization": rec,
            "alternation_margins": margins,
            "asin_residuals": res,
            "roundtrip_error": trace.roundtrip_error,
        })
    except Exception as exc:  # numerical dead end; never silently misclassify
        details["error"] = repr(exc)
        return Classification(Verdict.INDETERMINATE, details)
    if strict_ok:
        return Classification(Verdict.EXTREMAL_EXPOSED, details)
    if nonstrict_ok:
        return Classification(Verdict.EXTREMAL_NON_EXPOSED, details)
    details["error"] = "criterion holds but reconstruction is not alternating"
    return Classification(Verdict.INDETERMINATE, details)

"""Behaviors, probabilities, Bell functionals, and locality tests.

A behavior is the 8-component correlation vector of the CHSH scenario:
two marginals per party plus the four correlators, i.e. the 3x3 table
with identity row/column flattened.  The componentwise vector order used
everywhere in this package is

    (mA0, mA1, mB0, mB1, c00, c01, c10, c11)

with c_xy = <A_x B_y> in row-major (x, y) order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidBehaviorError
from .tolerances import TOL_EQ

__all__ = [
    "Behavior",
    "BellFunctional",
    "CHSH",
    "SIGN_PATTERNS",
    "probabilities",
    "validate",
    "bell_value",
    "chsh_all",
    "chsh_values",
    "invalid_rows",
    "is_local",
]


@dataclass(frozen=True)
class Behavior:
    """Immutable CHSH behavior: marginals and correlators, all in [-1, 1]."""

    marg_a: tuple[float, float]
    marg_b: tuple[float, float]
    corr: tuple[tuple[float, float], tuple[float, float]]

    @staticmethod
    def from_vector(v: Sequence[float]) -> "Behavior":
        v = [float(x) for x in v]
        if len(v) != 8:
            raise ValueError(f"behavior vector must have 8 components, got {len(v)}")
        return Behavior(
            marg_a=(v[0], v[1]),
            marg_b=(v[2], v[3]),
            corr=((v[4], v[5]), (v[6], v[7])),
        )

    @property
    def vector(self) -> np.ndarray:
        a, b, c = self.marg_a, self.marg_b, self.corr
        return np.array([a[0], a[1], b[0], b[1], c[0][0], c[0][1], c[1][0], c[1][1]])

    def to_json_dict(self) -> dict:
        return {
            "margA": [self.marg_a[0], self.marg_a[1]],
            "margB": [self.marg_b[0], self.marg_b[1]],
            "corr": [list(self.corr[0]), list(self.corr[1])],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Behavior":
        return Behavior(
            marg_a=(float(d["margA"][0]), float(d["margA"][1])),
            marg_b=(float(d["margB"][0]), float(d["margB"][1])),
            corr=(
                (float(d["corr"][0][0]), float(d["corr"][0][1])),
                (float(d["corr"][1][0]), float(d["corr"][1][1])),
            ),
        )


@dataclass(frozen=True)
class BellFunctional:
    """Linear functional on behaviors.

    ``coeffs`` is ordered (bA0, bA1, bB0, bB1, b00, b10, b01, b11) -- note
    the correlator block is x-fast / y-slow, matching the conventional
    measurement-vector ordering, not the behavior vector's row-major block.
    ``offset`` multiplies the constant table entry.
    """

    coeffs: tuple[float, float, float, float, float, float, float, float]
    offset: float = 0.0

    def __post_init__(self):
        if len(self.coeffs) != 8:
            raise ValueError("BellFunctional needs 8 coefficients")
        if not all(math.isfinite(c) for c in self.coeffs) or not math.isfinite(self.offset):
            raise ValueError("BellFunctional coefficients must be finite")

    @property
    def vector(self) -> np.ndarray:
        """Coefficients permuted into behavior-vector component order."""
        c = self.coeffs
        return np.array([c[0], c[1], c[2], c[3], c[4], c[6], c[5], c[7]], dtype=float)

    @staticmethod
    def from_vector(v: Sequence[float], offset: float = 0.0) -> "BellFunctional":
        v = [float(x) for x in v]
        return BellFunctional(coeffs=(v[0], v[1], v[2], v[3], v[4], v[6], v[5], v[7]), offset=offset)


#: The CHSH expression <A0B0> + <A1B0> + <A0B1> - <A1B1>; local bound 2.
CHSH = BellFunctional(coeffs=(0, 0, 0, 0, 1, 1, 1, -1))


#: Outcome signs a (axis -4) and b (axis -3) of the probability table, and their products.
_A = np.array([1.0, -1.0])[:, None, None, None]
_B = np.array([1.0, -1.0])[None, :, None, None]
_AB = _A * _B


def _probability_table(v: np.ndarray) -> np.ndarray:
    """Outcome tables of behavior vectors: shape (..., 8) -> (..., 2, 2, 2, 2)."""
    ma = v[..., None, None, :2, None]
    mb = v[..., None, None, None, 2:4]
    c = v[..., None, None, 4:].reshape(v.shape[:-1] + (1, 1, 2, 2))
    return (1.0 + _A * ma + _B * mb + _AB * c) / 4.0


def probabilities(p: Behavior) -> np.ndarray:
    """Full outcome table p(ab|xy) as an array indexed [ai, bi, x, y].

    Index 0 means outcome +1 and index 1 means outcome -1, so
    ``probabilities(p)[0, 1, x, y]`` is p(+1, -1 | x, y).
    """
    return _probability_table(p.vector)


def _out_of_range(v: np.ndarray) -> np.ndarray:
    """Components that are not finite or leave [-1, 1] by more than TOL_EQ."""
    return ~(np.abs(v) <= 1.0 + TOL_EQ)


_COMPONENT_NAMES = ("<A0>", "<A1>", "<B0>", "<B1>", "<A0B0>", "<A0B1>", "<A1B0>", "<A1B1>")


def validate(p: Behavior) -> list[str]:
    """Return all contract violations (empty list means the behavior is valid)."""
    v = p.vector
    violations = [
        f"component {name} is not finite" if not math.isfinite(x)
        else f"component {name} = {x!r} out of range [-1, 1]"
        for name, x, bad in zip(_COMPONENT_NAMES, v, _out_of_range(v)) if bad]
    if violations:
        return violations
    probs = _probability_table(v)
    if probs.min() < -TOL_EQ:
        idx = np.unravel_index(np.argmin(probs), probs.shape)
        ai, bi, x, y = idx
        violations.append(
            f"probability p({'+-'[ai]}1,{'+-'[bi]}1|{x},{y}) = {probs[idx]!r} negative"
        )
    return violations


def invalid_rows(v: np.ndarray) -> np.ndarray:
    """Rows of an (N, 8) array of behavior vectors that ``validate`` rejects."""
    with np.errstate(invalid="ignore"):
        lowest = _probability_table(v).reshape(len(v), 16).min(axis=1)
    return _out_of_range(v).any(axis=1) | (lowest < -TOL_EQ)


def bell_value(beta: BellFunctional, p: Behavior) -> float:
    """Scalar product of the functional with the behavior, plus the offset."""
    return float(beta.vector @ p.vector) + beta.offset


def _chsh_patterns() -> list[tuple[int, int, int, int]]:
    pats = []
    for e00, e01, e10 in itertools.product((1, -1), repeat=3):
        pats.append((e00, e01, e10, -e00 * e01 * e10))
    return pats


#: The 8 sign patterns (e00, e01, e10, e11) with product -1, row-major (x, y).
SIGN_PATTERNS: tuple[tuple[int, int, int, int], ...] = tuple(_chsh_patterns())


_SIGNS = np.array(SIGN_PATTERNS, dtype=float)


def chsh_values(v: np.ndarray) -> np.ndarray:
    """The 8 CHSH sign-variant values of behavior vectors: (..., 8) -> (..., 8)."""
    c = v[..., 4:, None]
    return _SIGNS[:, 0] * c[..., 0, :] + _SIGNS[:, 1] * c[..., 1, :] \
        + _SIGNS[:, 2] * c[..., 2, :] + _SIGNS[:, 3] * c[..., 3, :]


def chsh_all(p: Behavior) -> np.ndarray:
    """The 8 CHSH sign-variant values sum_xy e_xy <A_x B_y>, product(e) = -1."""
    return chsh_values(p.vector)


def is_local(p: Behavior) -> bool:
    """Fine criterion: a valid behavior is local iff all 8 CHSH values <= 2."""
    violations = validate(p)
    if violations:
        raise InvalidBehaviorError(violations)
    return _fine_local(p.vector)


def _fine_local(v: np.ndarray) -> bool:
    """``is_local`` of a behavior vector that ``validate`` accepts."""
    return bool(np.max(chsh_values(v)) <= 2.0 + TOL_EQ)


def mix(behaviors: Iterable[Behavior], weights: Iterable[float]) -> Behavior:
    """Convex combination of behaviors (weights are not re-normalized)."""
    vs = [b.vector for b in behaviors]
    ws = list(weights)
    if len(vs) != len(ws):
        raise ValueError("behaviors and weights must have equal length")
    acc = np.zeros(8)
    for w, v in zip(ws, vs):
        acc += w * v
    return Behavior.from_vector(acc)

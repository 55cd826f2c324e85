"""Relabeling symmetry group of the CHSH scenario.

Elements combine a party swap, per-party input swaps, and per-measurement
output flips.  The action on a behavior applies the stages in the order
party swap -> input swaps -> output flips, with the flips indexed by the
*final* measurement labels (A0, A1, B0, B1).  Every element acts as a
signed permutation on the 8-component behavior vector, so orbits are exact
in floating point.  ``signed_permutation`` reads that action from one table
built once from the elements' fields; every relabeling in the package,
here and in the other modules, applies it from there.

The group is generated programmatically by closure over the three
generator families rather than hardcoding its order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .behavior import Behavior

__all__ = [
    "SymmetryElement",
    "apply_symmetry",
    "signed_permutation",
    "group_elements",
    "generators",
    "generated_closure",
    "compose",
    "inverse",
    "canonical_behavior",
]


@dataclass(frozen=True)
class SymmetryElement:
    party_swap: bool = False
    input_swap_a: bool = False
    input_swap_b: bool = False
    output_flip: tuple[bool, bool, bool, bool] = (False, False, False, False)

    @staticmethod
    def identity() -> "SymmetryElement":
        return SymmetryElement()

    def is_identity(self) -> bool:
        return self == SymmetryElement()


def apply_symmetry(g: SymmetryElement, p: Behavior) -> Behavior:
    """Relabeled behavior g . p."""
    perm, sign = signed_permutation(g)
    return Behavior.from_vector(sign * p.vector[perm])


def _action(g: SymmetryElement) -> tuple[list[int], list[float]]:
    """Signed permutation (perm, sign) of g: the image of v is sign * v[perm]."""
    ma, mb, c = [0, 1], [2, 3], [[4, 5], [6, 7]]
    if g.party_swap:
        ma, mb = mb, ma
        c = [[c[0][0], c[1][0]], [c[0][1], c[1][1]]]
    if g.input_swap_a:
        ma, c = ma[::-1], c[::-1]
    if g.input_swap_b:
        mb, c = mb[::-1], [row[::-1] for row in c]
    sa = [-1.0 if f else 1.0 for f in g.output_flip[:2]]
    sb = [-1.0 if f else 1.0 for f in g.output_flip[2:]]
    return ma + mb + c[0] + c[1], sa + sb + [x * y for x in sa for y in sb]


def _all_tuples() -> Iterator[SymmetryElement]:
    for p in (False, True):
        for ia in (False, True):
            for ib in (False, True):
                for f in range(16):
                    flips = tuple(bool((f >> k) & 1) for k in range(4))
                    yield SymmetryElement(p, ia, ib, flips)


@functools.lru_cache(maxsize=1)
def _tables() -> tuple[tuple[SymmetryElement, ...], dict, np.ndarray, np.ndarray, dict]:
    """The elements in enumeration order, their indices, the (128, 8) perm and
    sign arrays of their actions, and the element of each (perm, sign)."""
    elems = tuple(_all_tuples())
    perm, sign = (np.array(rows) for rows in zip(*map(_action, elems)))
    perm.flags.writeable = sign.flags.writeable = False
    index = {g: k for k, g in enumerate(elems)}
    by_action = {(perm[k].tobytes(), sign[k].tobytes()): g for k, g in enumerate(elems)}
    return elems, index, perm, sign, by_action


def signed_permutation(g: SymmetryElement) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (perm, sign) of g's action: g . v = sign * v[perm]."""
    _, index, perm, sign, _ = _tables()
    k = index[g]
    return perm[k], sign[k]


def group_elements() -> tuple[SymmetryElement, ...]:
    """All distinct relabeling elements, in fixed enumeration order."""
    return _tables()[0]


def generators() -> list[SymmetryElement]:
    """One representative per generator family: party swap, an input swap, an output flip."""
    return [
        SymmetryElement(party_swap=True),
        SymmetryElement(input_swap_a=True),
        SymmetryElement(output_flip=(True, False, False, False)),
    ]


def generated_closure() -> set[SymmetryElement]:
    """Close the generator families under composition (no order assumption)."""
    frontier = set(generators()) | {SymmetryElement.identity()}
    closed: set[SymmetryElement] = set()
    while frontier:
        closed |= frontier
        nxt = set()
        for g in frontier:
            for h in list(closed):
                for comp in (compose(g, h), compose(h, g)):
                    if comp not in closed:
                        nxt.add(comp)
        frontier = nxt - closed
    return closed


def compose(g2: SymmetryElement, g1: SymmetryElement) -> SymmetryElement:
    """Element acting as g2 after g1."""
    p2, s2 = signed_permutation(g2)
    p1, s1 = signed_permutation(g1)
    return _tables()[4][(p1[p2].tobytes(), (s2 * s1[p2]).tobytes())]


def inverse(g: SymmetryElement) -> SymmetryElement:
    perm, sign = signed_permutation(g)
    back = np.argsort(perm)
    return _tables()[4][(back.tobytes(), sign[back].tobytes())]


def canonical_behavior(p: Behavior) -> tuple[Behavior, SymmetryElement]:
    """Lexicographically minimal orbit representative and a witnessing element.

    The witness g satisfies apply_symmetry(g, p) == returned behavior, exactly
    (signed permutations involve no rounding); among elements reaching the
    minimum it is the first in ``group_elements()`` order.
    """
    elems, _, perm, sign, _ = _tables()
    orbit = sign * p.vector[perm]
    # lexsort is stable and its last key is the primary one
    k = np.lexsort(orbit.T[::-1])[0]
    return Behavior.from_vector(orbit[k]), elems[k]

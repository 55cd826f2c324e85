"""Relabeling symmetry group of the CHSH scenario.

Elements combine a party swap, per-party input swaps, and per-measurement
output flips.  The action on a behavior applies the stages in the order
party swap -> input swaps -> output flips, with the flips indexed by the
*final* measurement labels (A0, A1, B0, B1).  Every element acts as a
signed permutation on the 8-component behavior vector, so orbits are exact
in floating point.

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
    ma = list(p.marg_a)
    mb = list(p.marg_b)
    c = [list(p.corr[0]), list(p.corr[1])]
    if g.party_swap:
        ma, mb = mb, ma
        c = [[c[0][0], c[1][0]], [c[0][1], c[1][1]]]
    if g.input_swap_a:
        ma = [ma[1], ma[0]]
        c = [c[1], c[0]]
    if g.input_swap_b:
        mb = [mb[1], mb[0]]
        c = [[c[0][1], c[0][0]], [c[1][1], c[1][0]]]
    sa = [-1.0 if g.output_flip[x] else 1.0 for x in range(2)]
    sb = [-1.0 if g.output_flip[2 + y] else 1.0 for y in range(2)]
    return Behavior(
        marg_a=(sa[0] * ma[0], sa[1] * ma[1]),
        marg_b=(sb[0] * mb[0], sb[1] * mb[1]),
        corr=(
            (sa[0] * sb[0] * c[0][0], sa[0] * sb[1] * c[0][1]),
            (sa[1] * sb[0] * c[1][0], sa[1] * sb[1] * c[1][1]),
        ),
    )


def matrix(g: SymmetryElement) -> np.ndarray:
    """8x8 signed permutation matrix of the action on behavior vectors."""
    cols = []
    for k in range(8):
        e = np.zeros(8)
        e[k] = 1.0
        cols.append(apply_symmetry(g, Behavior.from_vector(e)).vector)
    return np.array(cols).T


def _all_tuples() -> Iterator[SymmetryElement]:
    for p in (False, True):
        for ia in (False, True):
            for ib in (False, True):
                for f in range(16):
                    flips = tuple(bool((f >> k) & 1) for k in range(4))
                    yield SymmetryElement(p, ia, ib, flips)


def _key(m: np.ndarray) -> bytes:
    return np.asarray(np.rint(m), dtype=np.int8).tobytes()


@functools.lru_cache(maxsize=1)
def _tables() -> tuple[tuple[SymmetryElement, ...], dict[bytes, SymmetryElement], dict]:
    elems = tuple(_all_tuples())
    by_key = {_key(matrix(g)): g for g in elems}
    mats = {g: matrix(g) for g in elems}
    return elems, by_key, mats


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
    _, by_key, mats = _tables()
    return by_key[_key(mats[g2] @ mats[g1])]


def inverse(g: SymmetryElement) -> SymmetryElement:
    _, by_key, mats = _tables()
    return by_key[_key(mats[g].T)]


def canonical_behavior(p: Behavior) -> tuple[Behavior, SymmetryElement]:
    """Lexicographically minimal orbit representative and a witnessing element.

    The witness g satisfies apply_symmetry(g, p) == returned behavior, exactly
    (signed permutations involve no rounding).
    """
    best: tuple | None = None
    best_g = SymmetryElement.identity()
    best_b = p
    for g in group_elements():
        q = apply_symmetry(g, p)
        key = tuple(q.vector)
        if best is None or key < best:
            best, best_g, best_b = key, g, q
    return best_b, best_g

"""Seeded inputs for the three workloads, built without calling qset.

Every behavior here comes from the benchmark's own closed form and every
alternation label from its own atan2 modified angles, so a change to
``qset.born_point``, ``qset.modified_angles`` or ``qset.sample_realization``
cannot change what a workload feeds the library.  The same seed gives
byte-identical inputs (see ``digest``).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

PI = math.pi

#: Clearance kept between a drawn realization and the alternation boundary it
#: is meant to lie off, so its label does not depend on rounding.
MARGIN = 0.01

#: Behaviors per certify pass, by kind.  The kinds decide which qset stages a
#: call runs; the counts put the median inside the non-extremal group and the
#: 99th percentile inside the non-exposed group (see README.md).
CERTIFY_MIX = {
    "exposed": 150,    # strictly alternating: ExtremalExposed
    "boundary": 60,    # b0 = atilde_1^+: ExtremalNonExposed
    "nonalt": 150,     # not alternating, nonlocal: NonExtremalInQ
    "mixture": 100,    # Dirichlet mixture of the 16 vertices: Local
    "cube": 110,       # valid uniform-cube draw
    "invalid": 30,     # negative probability: must raise
}

#: Crosscheck pass: LP calls, Bell maximizations (CHSH first), decompositions.
CROSSCHECK_SIZES = {"lp": 2000, "bell": 20, "extremal": 3, "nonalt": 8}
EXTREMAL_TRIALS = 1000
NONALT_TRIALS = 200

#: Crosscheck's non-alternating points are drawn from this fixed seed, with
#: a0, a1, b0, b1 and pi at least SEPARATION apart.  The search cost there
#: ranges from 0.05 s (one short polish) to 15 s depending on the point, so
#: points drawn from the run's seed made crosscheck's pass time depend on
#: the seed more than on the code.
NONALT_SEED = 0
SEPARATION = 0.2

#: Boundary non-exposed point of the crosscheck edge call:
#: theta = 0.33, a = (0, 1.9), b = (atilde_1^+, 2.9); (trials, seed).
EDGE = {"theta": 0.33, "a1": 1.9, "b1": 2.9}
EDGE_CALL = (200, 9)

#: A non-alternating point whose a1, b0 and b1 lie within 0.1 of each other
#: near pi.  At commit 0919adf the search with a hint runs about 20 s there
#: and finds no split (residual 1.5e-7); SEPARATION keeps such points out of
#: the timed passes, and traced runs make this call.  (trials, seed).
HARD = (0.671953533568655, 0.41641406478734183, 3.0459034798488647,
        2.9833928229489652, 3.034202363464429)
HARD_CALL = (200, 6)


def born(theta, a0, a1, b0, b1) -> np.ndarray:
    """Closed-form behavior (mA0, mA1, mB0, mB1, c00, c01, c10, c11)."""
    c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
    ca = (np.cos(a0), np.cos(a1))
    sa = (np.sin(a0), np.sin(a1))
    cb = (np.cos(b0), np.cos(b1))
    sb = (np.sin(b0), np.sin(b1))
    comps = [c2 * ca[0], c2 * ca[1], c2 * cb[0], c2 * cb[1]]
    comps += [ca[x] * cb[y] + s2 * sa[x] * sb[y] for x in range(2) for y in range(2)]
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def modified_angles(theta: float, a: float) -> tuple[float, float]:
    """(atilde^+, atilde^-) of one of Alice's angles, reduced to [0, pi)."""
    s, c = math.sin(a / 2), math.cos(a / 2)
    plus = 2 * math.atan2(s * math.sin(theta), c * math.cos(theta))
    minus = 2 * math.atan2(s * math.cos(theta), c * math.sin(theta))
    return plus % PI, minus % PI


def alternation_margins(theta, a0, a1, b0, b1) -> np.ndarray:
    """The six inner full-alternation margins of a canonical realization:
    b0 - a~0^s, a~1^t - b0, b1 - a~1^t.  All positive means strictly
    alternating."""
    p0, m0 = modified_angles(theta, a0)
    p1, m1 = modified_angles(theta, a1)
    return np.array([b0 - p0, b0 - m0, p1 - b0, m1 - b0, b1 - p1, b1 - m1])


def _signs() -> np.ndarray:
    return np.array([(e00, e01, e10, -e00 * e01 * e10)
                     for e00, e01, e10 in itertools.product((1, -1), repeat=3)], float)


CHSH_SIGNS = _signs()
VERTICES = np.array([[a0, a1, b0, b1, a0 * b0, a0 * b1, a1 * b0, a1 * b1]
                     for a0, a1, b0, b1 in itertools.product((1, -1), repeat=4)], float)


def chsh_max(v: np.ndarray) -> float:
    """Largest of the 8 CHSH variants (Fine: local iff <= 2)."""
    return float(np.max(CHSH_SIGNS @ np.asarray(v)[4:]))


def min_probability(v: np.ndarray) -> float:
    """Smallest outcome probability p(ab|xy) of a behavior vector."""
    v = np.asarray(v, float)
    ma, mb, c = v[:2], v[2:4], v[4:].reshape(2, 2)
    return float(min(np.min((1 + a * ma[:, None] + b * mb[None, :] + a * b * c) / 4)
                     for a in (1, -1) for b in (1, -1)))


#: Rounding allowed when judging a behavior vector valid.
TOL_VALID = 1e-9


def is_valid(v: np.ndarray) -> bool:
    v = np.asarray(v, float)
    return bool(np.all(np.isfinite(v)) and np.max(np.abs(v)) <= 1 + TOL_VALID
                and min_probability(v) >= -TOL_VALID)


@dataclass(frozen=True)
class Item:
    """One generated input: its kind, behavior vector and, when drawn from a
    realization, the canonical parameters (theta, a0, a1, b0, b1)."""

    kind: str
    vector: tuple[float, ...]
    params: tuple[float, ...] | None = None


def _item(kind, params=None, vector=None) -> Item:
    if vector is None:
        vector = born(*params)
    return Item(kind, tuple(float(x) for x in vector),
                None if params is None else tuple(float(x) for x in params))


def draw_exposed(rng) -> Item:
    """Canonical strictly alternating realization, every margin >= MARGIN."""
    while True:
        theta = rng.uniform(0.1, PI / 4)
        a0 = rng.uniform(0.0, 0.8)
        a1 = rng.uniform(a0 + 0.2, PI - 0.05)
        p0, m0 = modified_angles(theta, a0)
        p1, m1 = modified_angles(theta, a1)
        lo, hi = max(p0, m0, a0) + MARGIN, min(p1, m1) - MARGIN
        top = max(p1, m1) + MARGIN
        if hi <= lo or top >= PI - MARGIN:
            continue
        b0 = rng.uniform(lo, hi)
        b1 = rng.uniform(top, PI - MARGIN)
        return _item("exposed", (theta, a0, a1, b0, b1))


def draw_boundary(rng) -> Item:
    """a0 = 0 and b0 = atilde_1^+: one margin exactly zero, the rest >= MARGIN."""
    while True:
        theta = rng.uniform(0.15, 0.7)
        a1 = rng.uniform(0.8, PI - 0.3)
        p1, m1 = modified_angles(theta, a1)
        if m1 - p1 < MARGIN or m1 + MARGIN >= PI - MARGIN:
            continue
        b1 = rng.uniform(m1 + MARGIN, PI - MARGIN)
        return _item("boundary", (theta, 0.0, a1, p1, b1))


def draw_nonalt(rng, separation: float = 0.0) -> Item:
    """Canonical realization off full alternation by at least MARGIN, nonlocal
    by at least MARGIN, with a0, a1, b0, b1 and pi at least ``separation``
    apart."""
    while True:
        theta = rng.uniform(0.1, PI / 4)
        a0, a1 = np.sort(rng.uniform(0.0, PI, 2))
        b0, b1 = np.sort(rng.uniform(0.0, PI, 2))
        if a0 > b0 or alternation_margins(theta, a0, a1, b0, b1).min() > -MARGIN:
            continue
        if np.min(np.diff(np.sort([a0, a1, b0, b1, PI]))) < separation:
            continue
        item = _item("nonalt", (theta, a0, a1, b0, b1))
        if chsh_max(item.vector) > 2 + MARGIN:
            return item


def draw_mixture(rng) -> Item:
    return _item("mixture", vector=rng.dirichlet(np.ones(16)) @ VERTICES)


def draw_cube(rng) -> Item:
    while True:
        v = rng.uniform(-1.0, 1.0, 8)
        if min_probability(v) >= 0.0:
            return _item("cube", vector=v)


def draw_invalid(rng) -> Item:
    while True:
        v = rng.uniform(-1.0, 1.0, 8)
        if min_probability(v) < -MARGIN:
            return _item("invalid", vector=v)


def draw_realization(rng) -> Item:
    """Behavior of an arbitrary (not canonical) realization; always valid."""
    return _item("realization", rng.uniform(0.0, PI, 5))


DRAW = {
    "exposed": draw_exposed, "boundary": draw_boundary, "nonalt": draw_nonalt,
    "mixture": draw_mixture, "cube": draw_cube, "invalid": draw_invalid,
    "realization": draw_realization,
}


def certify_inputs(seed: int) -> list[Item]:
    """One certify pass: the fixed mix of kinds in a seeded order."""
    rng = np.random.default_rng(seed)
    items = [DRAW[kind](rng) for kind, n in CERTIFY_MIX.items() for _ in range(n)]
    return [items[i] for i in rng.permutation(len(items))]


def edge_item() -> Item:
    theta, a1 = EDGE["theta"], EDGE["a1"]
    return _item("edge", (theta, 0.0, a1, modified_angles(theta, a1)[0], EDGE["b1"]))


@dataclass(frozen=True)
class CrosscheckInputs:
    lp: list[Item]
    bell: list[tuple[float, ...]]   # functionals in behavior-vector order
    extremal: list[Item]
    nonalt: list[Item]
    edge: Item
    hard: Item


def crosscheck_inputs(seed: int) -> CrosscheckInputs:
    rng = np.random.default_rng(seed)
    lp_kinds = ("realization", "mixture", "cube")
    lp = [DRAW[lp_kinds[int(rng.integers(0, 3))]](rng) for _ in range(CROSSCHECK_SIZES["lp"])]
    chsh = (0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0)
    bell = [chsh] + [tuple(float(x) for x in rng.normal(0.0, 1.0, 8))
                     for _ in range(CROSSCHECK_SIZES["bell"] - 1)]
    extremal = [draw_exposed(rng) for _ in range(CROSSCHECK_SIZES["extremal"])]
    fixed = np.random.default_rng(NONALT_SEED)
    nonalt = [draw_nonalt(fixed, SEPARATION) for _ in range(CROSSCHECK_SIZES["nonalt"])]
    return CrosscheckInputs(lp, bell, extremal, nonalt, edge_item(), _item("nonalt", HARD))


@dataclass(frozen=True)
class Grid:
    """One ``qset scan`` call: (min, max, steps) per ranged parameter and the
    value of every fixed one."""

    ranges: dict
    fixed: dict

    def argv(self, output: str) -> list[str]:
        out = ["scan"]
        for name, (lo, hi, steps) in self.ranges.items():
            out += ["--range", f"{name}={lo!r}:{hi!r}:{steps}"]
        for name, value in self.fixed.items():
            out += [f"--{name}", repr(value)]
        return out + ["--output", output]

    @property
    def rows(self) -> int:
        return math.prod(steps for _, _, steps in self.ranges.values())


def scan_inputs(seed: int) -> list[Grid]:
    """Twelve 200-row grids, alternately over (theta, a1, b0) and
    (theta, a1, b1).

    Theta runs from about 0 to about pi/2, across the pi/8 threshold and the
    Local region.  The (theta, a1, b0) grids have a0 = 0 and start b0 at 0,
    so a fifth of their rows lie on the a0 = b0 face, where reconstruction
    can end Indeterminate.  Many short calls rather than a few long ones give
    the per-call percentiles enough samples.  The k-th grid of each kind
    draws every bound from the k-th sixth of its range (stratified), so the
    grids' mix of verdicts, and with it their cost, is about the same for
    every seed."""
    rng = np.random.default_rng(seed)
    grids = []
    for k in range(6):
        u = lambda lo, hi: float(lo + (hi - lo) * (k + rng.uniform()) / 6)
        grids.append(Grid(
            {"theta": (u(0.0, 0.05), u(1.45, PI / 2), 10), "a1": (u(0.2, 1.3), u(2.2, 3.0), 4),
             "b0": (0.0, u(2.0, 3.0), 5)},
            {"a0": 0.0, "b1": u(2.3, 3.1)}))
        grids.append(Grid(
            {"theta": (u(0.0, 0.05), u(1.45, PI / 2), 10), "a1": (u(1.0, 1.3), u(2.2, 2.6), 4),
             "b1": (u(1.0, 1.4), u(2.8, 3.1), 5)},
            {"a0": u(0.0, 0.3), "b0": u(0.5, 1.0)}))
    return grids


def digest(obj) -> str:
    """Hash of the exact float bits of a workload's inputs."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()

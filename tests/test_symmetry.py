import functools
import math

import numpy as np
import pytest

from qset import Behavior, InvalidBehaviorError, born_point, validate
from qset.behavior import chsh_values
from qset.symmetry import (
    SymmetryElement,
    apply_symmetry,
    canonical_behavior,
    compose,
    group_elements,
    inverse,
    signed_permutation,
)

from conftest import PI8_EDGE, random_valid_behavior


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


def test_generated_closure_matches_enumeration():
    closure = generated_closure()
    assert closure == set(group_elements())
    assert len(closure) == 128


def test_identity_and_inverses():
    e = SymmetryElement.identity()
    for g in group_elements()[:40]:
        assert compose(g, inverse(g)) == e
        assert compose(inverse(g), g) == e


def test_party_swap_moves_marginal():
    p = Behavior(marg_a=(0.3, 0.0), marg_b=(0.0, 0.0), corr=((0, 0), (0, 0)))
    q = apply_symmetry(SymmetryElement(party_swap=True), p)
    assert q.marg_b == (0.3, 0.0)
    assert q.marg_a == (0.0, 0.0)


def test_output_flip_negates_row():
    p = born_point(PI8_EDGE)
    g = SymmetryElement(output_flip=(True, False, False, False))
    q = apply_symmetry(g, p)
    assert q.marg_a[0] == -p.marg_a[0]
    assert q.corr[0][0] == -p.corr[0][0]
    assert q.corr[0][1] == -p.corr[0][1]
    assert q.corr[1][0] == p.corr[1][0]
    assert q.marg_b == p.marg_b


def test_input_swap_b_exchanges_columns():
    p = born_point(PI8_EDGE)
    q = apply_symmetry(SymmetryElement(input_swap_b=True), p)
    assert q.marg_b == (p.marg_b[1], p.marg_b[0])
    assert q.corr[0] == (p.corr[0][1], p.corr[0][0])
    assert q.corr[1] == (p.corr[1][1], p.corr[1][0])


def test_action_is_involutive_on_generators():
    rng = np.random.default_rng(0)
    p = random_valid_behavior(rng)
    for g in (SymmetryElement(party_swap=True), SymmetryElement(input_swap_a=True),
              SymmetryElement(output_flip=(True, False, True, False))):
        assert np.array_equal(apply_symmetry(g, apply_symmetry(g, p)).vector, p.vector)


def test_group_action_preserves_validity_and_chsh():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = random_valid_behavior(rng)
        base = np.max(np.abs(chsh_values(p.vector)))
        for g in group_elements()[::13]:
            q = apply_symmetry(g, p)
            assert validate(q) == []
            assert np.max(np.abs(chsh_values(q.vector))) == pytest.approx(base, abs=1e-12)


def test_canonical_behavior_identity_on_minimal():
    p, g = canonical_behavior(born_point(PI8_EDGE))
    p2, g2 = canonical_behavior(p)
    assert g2 == SymmetryElement.identity()
    assert np.array_equal(p2.vector, p.vector)


def test_canonical_behavior_orbit_invariance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = random_valid_behavior(rng)
        cp, _ = canonical_behavior(p)
        for g in group_elements()[::17]:
            cq, _ = canonical_behavior(apply_symmetry(g, p))
            assert np.array_equal(cp.vector, cq.vector)


def test_canonical_behavior_witness_consistency():
    rng = np.random.default_rng(9)
    p = random_valid_behavior(rng)
    cp, g = canonical_behavior(p)
    assert np.array_equal(apply_symmetry(g, p).vector, cp.vector)


def test_canonical_behavior_pi8_edge_stable():
    cp1, _ = canonical_behavior(born_point(PI8_EDGE))
    cp2, _ = canonical_behavior(born_point(PI8_EDGE))
    assert np.array_equal(cp1.vector, cp2.vector)
    # lexicographic minimum over the explicit orbit agrees
    orbit_min = min(tuple(apply_symmetry(g, born_point(PI8_EDGE)).vector)
                    for g in group_elements())
    assert tuple(cp1.vector) == orbit_min


def _apply_symmetry_reference(g: SymmetryElement, p: Behavior) -> Behavior:
    """The action written out stage by stage on the nested marginal and
    correlator lists: party swap, input swaps, then output flips."""
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


def _canonical_behavior_reference(p: Behavior) -> tuple[Behavior, SymmetryElement]:
    """Lexicographic minimum over the orbit, element by element; ties keep the
    first element in enumeration order."""
    best, best_g, best_b = None, None, None
    for g in group_elements():
        q = _apply_symmetry_reference(g, p)
        key = tuple(q.vector)
        if best is None or key < best:
            best, best_g, best_b = key, g, q
    return best_b, best_g


def _tie_vectors() -> list[np.ndarray]:
    """Vectors with signed zeros and repeated (also sign-repeated) entries, so
    many orbit points tie on leading components."""
    rng = np.random.default_rng(21)
    vecs = [np.zeros(8), -np.zeros(8), np.array([0.5, -0.5] * 4),
            np.array([0.0, -0.0, 0.3, -0.3, 0.3, 0.0, -0.0, 0.3])]
    for _ in range(12):
        v = rng.choice([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5], size=8)
        vecs.append(v)
        vecs.append(np.where(rng.random(8) < 0.5, v, rng.uniform(-1, 1, 8)))
    return vecs


def test_apply_symmetry_matches_reference_bitwise():
    for v in _tie_vectors():
        p = Behavior.from_vector(v)
        for g in group_elements():
            got = apply_symmetry(g, p).vector
            assert got.tobytes() == _apply_symmetry_reference(g, p).vector.tobytes()


def test_canonical_behavior_matches_reference_loop():
    rng = np.random.default_rng(22)
    vecs = _tie_vectors() + [random_valid_behavior(rng).vector for _ in range(10)]
    for v in vecs:
        p = Behavior.from_vector(v)
        for g in group_elements()[::9]:
            q = apply_symmetry(g, p)
            got, got_g = canonical_behavior(q)
            ref, ref_g = _canonical_behavior_reference(q)
            assert got.vector.tobytes() == ref.vector.tobytes()
            assert got_g == ref_g


@functools.lru_cache(maxsize=1)
def _reference_composites() -> tuple[tuple[int, ...], ...]:
    """[g][h]: the index of the element acting as h after g, read off the
    reference action on a probe whose components differ in magnitude."""
    elems = group_elements()
    probe = Behavior.from_vector(np.arange(1.0, 9.0) / 10)
    images = [_apply_symmetry_reference(g, probe) for g in elems]
    index = {tuple(q.vector): i for i, q in enumerate(images)}
    return tuple(tuple(index[tuple(_apply_symmetry_reference(h, q).vector)] for h in elems)
                 for q in images)


def _reference_canonical_of_every_image(p: Behavior) -> list[tuple[Behavior, SymmetryElement]]:
    """``_canonical_behavior_reference(g . p)`` for every element g, in order.
    h . (g . p) is p's reference image under the composite, exactly (signed
    permutations do not round), so the loop over h reads p's 128 images."""
    elems = group_elements()
    images = [_apply_symmetry_reference(k, p) for k in elems]
    keys = [tuple(q.vector) for q in images]
    out = []
    for row in _reference_composites():
        best = 0
        for h in range(1, len(elems)):
            if keys[row[h]] < keys[row[best]]:
                best = h
        out.append((images[row[best]], elems[best]))
    return out


def test_canonical_behavior_matches_reference_on_every_image():
    # the table-driven loop gives what the reference loop gives
    for v in _tie_vectors()[:4]:
        p = Behavior.from_vector(v)
        for g, (want, want_g) in zip(group_elements(), _reference_canonical_of_every_image(p)):
            ref, ref_g = _canonical_behavior_reference(apply_symmetry(g, p))
            assert ref.vector.tobytes() == want.vector.tobytes() and ref_g == want_g
    rng = np.random.default_rng(23)
    for v in _tie_vectors() + [random_valid_behavior(rng).vector for _ in range(300)]:
        p = Behavior.from_vector(v)
        for g, (want, want_g) in zip(group_elements(), _reference_canonical_of_every_image(p)):
            got, got_g = canonical_behavior(apply_symmetry(g, p))
            assert got.vector.tobytes() == want.vector.tobytes() and got_g == want_g


@pytest.mark.parametrize("k, x", [(0, math.nan), (5, math.nan), (2, math.inf), (7, -math.inf)])
def test_canonical_behavior_rejects_non_finite(k, x):
    v = np.full(8, 0.25)
    v[k] = x
    with pytest.raises(InvalidBehaviorError, match="not finite"):
        canonical_behavior(Behavior.from_vector(v))


def test_compose_and_inverse_act_as_the_composite():
    p = Behavior.from_vector(np.arange(1.0, 9.0) / 10)
    images = {g: apply_symmetry(g, p).vector for g in group_elements()}
    for g2 in group_elements():
        assert np.array_equal(apply_symmetry(inverse(g2), Behavior.from_vector(images[g2])).vector,
                              p.vector)
        for g1 in group_elements():
            composite = apply_symmetry(g2, Behavior.from_vector(images[g1])).vector
            assert np.array_equal(images[compose(g2, g1)], composite)


def test_signed_permutation_is_read_only():
    perm, sign = signed_permutation(SymmetryElement(party_swap=True))
    assert perm.tolist() == [2, 3, 0, 1, 4, 6, 5, 7]
    assert sign.tolist() == [1.0] * 8
    with pytest.raises(ValueError):
        perm[0] = 0
    with pytest.raises(ValueError):
        sign[0] = -1.0

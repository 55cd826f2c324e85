import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qset import (
    CHSH,
    Behavior,
    BellFunctional,
    InvalidBehaviorError,
    bell_value,
    born_point,
    enumerate_vertices,
    is_local,
    probabilities,
    validate,
)
from qset.behavior import chsh_values, mix

from conftest import PI8_EDGE, TSIRELSON, random_valid_behavior

SQ2 = math.sqrt(2.0)
ZERO = Behavior.from_vector(np.zeros(8))


def kron_probability_oracle(r):
    """p(ab|xy) directly from projectors (1 +- M)/2 on the 4-dim state."""
    theta = r.theta
    phi = np.array([math.cos(theta), 0, 0, math.sin(theta)])
    out = np.empty((2, 2, 2, 2))
    for ai, a in enumerate((1, -1)):
        for bi, b in enumerate((1, -1)):
            for x in range(2):
                for y in range(2):
                    ma = math.cos(r.a[x]) * np.array([[1, 0], [0, -1]]) \
                        + math.sin(r.a[x]) * np.array([[0, 1], [1, 0]])
                    mb = math.cos(r.b[y]) * np.array([[1, 0], [0, -1]]) \
                        + math.sin(r.b[y]) * np.array([[0, 1], [1, 0]])
                    proj = np.kron((np.eye(2) + a * ma) / 2, (np.eye(2) + b * mb) / 2)
                    out[ai, bi, x, y] = phi @ proj @ phi
    return out


def test_probabilities_uniform():
    assert np.allclose(probabilities(ZERO), 0.25)


def test_probabilities_deterministic_marginal():
    p = Behavior.from_vector([1, 0, 0, 0, 0, 0, 0, 0])
    probs = probabilities(p)
    assert np.allclose(probs[0, :, 0, :], 0.5)   # alpha = +1 on x = 0
    assert np.allclose(probs[1, :, 0, :], 0.0)   # alpha = -1 impossible
    assert np.allclose(probs[:, :, 1, :], 0.25)


def test_probabilities_pi8_edge_against_projector_oracle():
    probs = probabilities(born_point(PI8_EDGE))
    assert np.max(np.abs(probs - kron_probability_oracle(PI8_EDGE))) < 1e-14


def test_probabilities_normalization_and_marginals():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = random_valid_behavior(rng)
        probs = probabilities(p)
        assert np.allclose(probs.sum(axis=(0, 1)), 1.0, atol=1e-12)
        v = p.vector
        for x in range(2):
            marg = probs[0, :, x, :].sum(axis=0) - probs[1, :, x, :].sum(axis=0)
            assert np.allclose(marg, v[x], atol=1e-12)


def test_validate_empty_and_out_of_range():
    assert validate(ZERO) == []
    bad = Behavior.from_vector([0, 0, 0, 0, 1.5, 0, 0, 0])
    assert any("out of range" in v for v in validate(bad))


def test_validate_negative_probability_edge():
    p = Behavior(marg_a=(0, 0), marg_b=(0, 0), corr=((1, 1), (1, 1.0000001)))
    # p(+,-|1,1) = (1 - 1.0000001)/4 = -2.5e-8 < -1e-8
    assert validate(p)


def test_bell_value_examples():
    # marginal-free Tsirelson point with corr (s, s, s, -s), s = sqrt(2)/2:
    # the variant aligned with the plain CHSH sign choice
    pt = Behavior.from_vector([0, 0, 0, 0, SQ2 / 2, SQ2 / 2, SQ2 / 2, -SQ2 / 2])
    assert bell_value(CHSH, pt) == pytest.approx(2 * SQ2, abs=1e-12)
    beta = BellFunctional(coeffs=(0.3,) * 8, offset=1.25)
    assert bell_value(beta, ZERO) == 1.25
    all_plus = Behavior.from_vector(np.ones(8))
    assert bell_value(CHSH, all_plus) == pytest.approx(2.0)


@given(lam=st.floats(0.0, 1.0), seed=st.integers(0, 2**31))
def test_bell_value_linearity(lam, seed):
    rng = np.random.default_rng(seed)
    p1 = random_valid_behavior(rng)
    p2 = random_valid_behavior(rng)
    mixed = mix([p1, p2], [lam, 1 - lam])
    lhs = bell_value(CHSH, mixed)
    rhs = lam * bell_value(CHSH, p1) + (1 - lam) * bell_value(CHSH, p2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_chsh_all_examples():
    pr = Behavior(marg_a=(0, 0), marg_b=(0, 0), corr=((1, 1), (1, -1)))
    assert chsh_values(pr.vector).max() == pytest.approx(4.0)
    assert np.allclose(chsh_values(ZERO.vector), 0.0)
    assert chsh_values(born_point(TSIRELSON).vector).max() == pytest.approx(2 * SQ2)


def test_is_local_examples():
    assert is_local(Behavior.from_vector(np.ones(8)))
    assert not is_local(born_point(TSIRELSON))
    from qset import QubitRealization
    product = born_point(QubitRealization(0.0, (0.0, 1.0), (0.5, 2.0)))
    assert abs(product.marg_a[0] - 1.0) < 1e-12
    assert is_local(product)


def test_is_local_rejects_invalid():
    bad = Behavior.from_vector([0, 0, 0, 0, 1.5, 0, 0, 0])
    with pytest.raises(InvalidBehaviorError):
        is_local(bad)


def test_deterministic_vertices_are_local():
    for v in enumerate_vertices():
        p = v.behavior
        assert validate(p) == []
        assert is_local(p)
        corr = p.vector[4:].reshape(2, 2)
        outer = np.outer(p.vector[:2], p.vector[2:4])
        assert np.array_equal(corr, outer)


def test_behavior_json_roundtrip():
    p = born_point(PI8_EDGE)
    q = Behavior.from_json_dict(p.to_json_dict())
    assert np.array_equal(p.vector, q.vector)


@pytest.mark.parametrize("build, message", [
    (lambda: Behavior.from_vector(np.zeros(7)), "behavior vector must have 8 components, got 7"),
    (lambda: BellFunctional(coeffs=(1.0,) * 7), "BellFunctional needs 8 coefficients"),
    (lambda: BellFunctional(coeffs=(0.0,) * 7 + (math.nan,)),
     "BellFunctional coefficients must be finite"),
    (lambda: BellFunctional(coeffs=CHSH.coeffs, offset=math.inf),
     "BellFunctional coefficients must be finite"),
    (lambda: mix([ZERO, ZERO], [1.0]), "behaviors and weights must have equal length"),
], ids=["vector-length", "functional-length", "functional-nan", "functional-offset", "mix-lengths"])
def test_constructors_reject_malformed_input(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_functional_vector_ordering():
    # coeffs order (bA0,bA1,bB0,bB1,b00,b10,b01,b11): b10 weights <A1B0>
    beta = BellFunctional(coeffs=(0, 0, 0, 0, 0, 1, 0, 0))
    p = Behavior.from_vector([0, 0, 0, 0, 0, 0, 0.75, 0])  # c10 slot
    assert bell_value(beta, p) == pytest.approx(0.75)

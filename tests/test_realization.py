import math

import numpy as np
import pytest

from qset import (
    DegenerateThetaError,
    QubitRealization,
    SamplingError,
    apply_symmetry,
    born_point,
    born_point_matrix,
    canonicalize,
    full_alternation_check,
    sample_realization,
)
from qset.realization import apply_relabeling, born_jacobian, born_vector
from qset.symmetry import group_elements

from conftest import PI8_EDGE

PI = math.pi
SQ2 = math.sqrt(2.0)


def test_born_point_maximally_entangled():
    r = QubitRealization(PI / 4, (0, PI / 2), (PI / 4, 3 * PI / 4))
    v = born_point(r).vector
    assert np.allclose(v[:4], 0.0, atol=1e-15)
    # corr_xy = cos(a_x - b_y), row-major order (00, 01, 10, 11)
    assert np.allclose(v[4:], [SQ2 / 2, -SQ2 / 2, SQ2 / 2, SQ2 / 2], atol=1e-15)


def test_born_point_product_state():
    r = QubitRealization(0.0, (0.7, 2.1), (1.3, 0.4))
    v = born_point(r).vector
    for x in range(2):
        for y in range(2):
            assert v[4 + 2 * x + y] == pytest.approx(math.cos(r.a[x]) * math.cos(r.b[y]))


def test_born_point_pi8_edge_frozen_values():
    v = born_point(PI8_EDGE).vector
    expected = [SQ2 / 2, 0.0, 0.5, -0.5, SQ2 / 2, -SQ2 / 2, 0.5, 0.5]
    assert np.allclose(v, expected, atol=1e-15)
    assert np.max(np.abs(v - born_point_matrix(PI8_EDGE).vector)) < 1e-14


def test_matrix_oracle_special_cases():
    r = QubitRealization(PI / 4, (0.0, 0.0), (0.0, 0.0))
    v = born_point_matrix(r).vector
    assert np.allclose(v[:4], 0.0, atol=1e-15)
    assert np.allclose(v[4:], 1.0, atol=1e-15)
    r2 = QubitRealization(PI / 2, (0.6, 2.2), (0.1, 1.0))
    v2 = born_point_matrix(r2).vector
    assert v2[0] == pytest.approx(-math.cos(0.6))
    assert v2[1] == pytest.approx(-math.cos(2.2))


def test_born_closed_form_matches_matrix_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10000):
        r = QubitRealization(rng.uniform(0, PI),
                             tuple(rng.uniform(0, 2 * PI, 2)),
                             tuple(rng.uniform(0, 2 * PI, 2)))
        diff = np.max(np.abs(born_point(r).vector - born_point_matrix(r).vector))
        worst = max(worst, diff)
    assert worst < 1e-12


def test_born_vector_bit_identical_to_expanded_form():
    # each sine and cosine is computed once; every product keeps its order
    rng = np.random.default_rng(11)
    theta, a0, a1, b0, b1 = rng.uniform(-2 * PI, 2 * PI, (1000, 5)).T
    c2 = np.cos(2 * theta)
    s2 = np.sin(2 * theta)
    expected = np.stack([
        c2 * np.cos(a0), c2 * np.cos(a1), c2 * np.cos(b0), c2 * np.cos(b1),
        np.cos(a0) * np.cos(b0) + s2 * np.sin(a0) * np.sin(b0),
        np.cos(a0) * np.cos(b1) + s2 * np.sin(a0) * np.sin(b1),
        np.cos(a1) * np.cos(b0) + s2 * np.sin(a1) * np.sin(b0),
        np.cos(a1) * np.cos(b1) + s2 * np.sin(a1) * np.sin(b1),
    ], axis=-1)
    assert np.array_equal(born_vector(theta, a0, a1, b0, b1), expected)


def test_born_vector_stays_float32_only_for_all_float32_inputs():
    rng = np.random.default_rng(12)
    params = rng.uniform(-2 * PI, 2 * PI, (5, 100))
    reference = born_vector(*params)
    single = born_vector(*params.astype(np.float32))
    assert single.dtype == np.float32
    assert np.max(np.abs(single - reference)) < 1e-5
    assert born_vector(*(np.float32(v) for v in params[:, 0])).dtype == np.float32
    # float64 arrays, Python floats, ints and any mix with float32 give float64
    mixed = [params.astype(np.float32)[0], *params[1:]]
    for args in (params, params[:, 0].tolist(), (0, 1, 2, 3, 4), mixed,
                 [*params.astype(np.float32)[:4], 0.5]):
        assert born_vector(*args).dtype == np.float64


def born_jacobian_central_differences(params: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """(..., 8, 5) central differences of born_vector over the last axis of params."""
    cols = []
    for k in range(5):
        step = np.zeros(5)
        step[k] = h
        hi = born_vector(*np.moveaxis(params + step, -1, 0))
        lo = born_vector(*np.moveaxis(params - step, -1, 0))
        cols.append((hi - lo) / (2 * h))
    return np.stack(cols, axis=-1)


def test_born_jacobian_matches_central_differences_scalar():
    rng = np.random.default_rng(12)
    for _ in range(50):
        params = rng.uniform(-PI, PI, 5)
        jac = born_jacobian(*params)
        assert jac.shape == (8, 5)
        assert np.max(np.abs(jac - born_jacobian_central_differences(params))) < 1e-7


def test_born_jacobian_matches_central_differences_batched():
    rng = np.random.default_rng(13)
    params = rng.uniform(-PI, PI, (200, 5))
    jac = born_jacobian(*params.T)
    assert jac.shape == (200, 8, 5)
    assert np.max(np.abs(jac - born_jacobian_central_differences(params))) < 1e-7
    # broadcasting a scalar against a batch agrees with the full batch
    mixed = born_jacobian(0.4, params[:, 1], params[:, 2], 1.1, params[:, 4])
    full = params.copy()
    full[:, 0], full[:, 3] = 0.4, 1.1
    assert np.array_equal(mixed, born_jacobian(*full.T))


def test_born_periodicity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = QubitRealization(rng.uniform(0, PI), tuple(rng.uniform(0, PI, 2)),
                             tuple(rng.uniform(0, PI, 2)))
        shifted = QubitRealization(r.theta + PI, r.a, r.b)
        assert np.allclose(born_point(r).vector, born_point(shifted).vector, atol=1e-12)
        shifted_a = QubitRealization(r.theta, (r.a[0] + 2 * PI, r.a[1]), r.b)
        assert np.allclose(born_point(r).vector, born_point(shifted_a).vector, atol=1e-12)


def test_marginals_strictly_inside_for_entangled_theta():
    rng = np.random.default_rng(4)
    for _ in range(300):
        theta = rng.uniform(0.05, PI / 2 - 0.05)
        r = QubitRealization(theta, tuple(rng.uniform(0, PI, 2)), tuple(rng.uniform(0, PI, 2)))
        assert np.max(np.abs(born_point(r).vector[:4])) < 1.0


def test_apply_relabeling_commutes_with_born():
    rng = np.random.default_rng(6)
    r = QubitRealization(rng.uniform(0, PI), tuple(rng.uniform(0, PI, 2)),
                         tuple(rng.uniform(0, PI, 2)))
    for g in group_elements():
        lhs = born_point(apply_relabeling(g, r)).vector
        rhs = apply_symmetry(g, born_point(r)).vector
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_canonicalize_identity_on_generic_canonical():
    r = QubitRealization(0.31, (0.2, 1.9), (0.9, 2.5))
    rc, g = canonicalize(r)
    assert rc == r
    assert g == type(g)()  # identity element


def test_canonicalize_orders_swapped_inputs():
    r = QubitRealization(0.31, (1.9, 0.2), (0.9, 2.5))
    rc, g = canonicalize(r)
    assert rc.a == (0.2, 1.9)
    assert g.input_swap_a


def test_canonicalize_equivariance_random():
    rng = np.random.default_rng(8)
    for _ in range(200):
        r = QubitRealization(rng.uniform(0, PI), tuple(rng.uniform(0, 2 * PI, 2)),
                             tuple(rng.uniform(0, 2 * PI, 2)))
        rc, g = canonicalize(r)
        assert rc.is_canonical()
        assert 0.0 <= rc.theta <= PI / 4 + 1e-12
        lhs = born_point(rc).vector
        rhs = apply_symmetry(g, born_point(r)).vector
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_canonicalize_sector_from_large_theta():
    r = QubitRealization(3 * PI / 5, (0.3, 2.0), (0.9, 2.6))
    rc, g = canonicalize(r, sector=True)
    assert 0.0 < rc.theta <= PI / 4 + 1e-12
    assert np.allclose(born_point(rc).vector,
                       apply_symmetry(g, born_point(r)).vector, atol=1e-12)


def test_canonicalize_sector_rejects_product_state():
    with pytest.raises(DegenerateThetaError):
        canonicalize(QubitRealization(0.0, (0.3, 1.0), (0.5, 2.0)), sector=True)


def test_sample_determinism():
    r1 = sample_realization(123, {"canonical"})
    r2 = sample_realization(123, {"canonical"})
    assert r1 == r2
    assert r1.is_canonical()


def test_sample_strictly_alternating():
    for seed in range(30):
        r = sample_realization(seed, {"strictly-alternating"})
        ok, margins = full_alternation_check(r, strict=True)
        assert ok
        assert np.min(margins[:6]) > 0


def test_sample_non_alternating():
    for seed in range(30):
        r = sample_realization(seed, {"non-alternating"})
        ok, _ = full_alternation_check(r, strict=False)
        assert not ok


def test_sample_unknown_constraint():
    with pytest.raises(ValueError):
        sample_realization(0, {"bogus"})


def test_sample_conflicting_constraints():
    with pytest.raises(ValueError):
        sample_realization(0, {"strictly-alternating", "non-alternating"})


def test_sample_exhaustion():
    with pytest.raises(SamplingError):
        sample_realization(0, {"strictly-alternating"}, theta_range=(1e-7, 2e-7),
                           max_tries=25)


def test_realization_json_roundtrip():
    r = QubitRealization(0.3, (0.1, 1.2), (0.2, 2.2))
    assert QubitRealization.from_json_dict(r.to_json_dict()) == r

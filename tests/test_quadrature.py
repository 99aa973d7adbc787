import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agediff.errors import DimensionMismatch, InvalidParameter
from agediff.quadrature import (
    InteriorVector,
    l2_norm,
    qh,
    star_norm,
    weights,
)


def interior_x(m_prime, a_dagger=1.0):
    m_total = 2 * (m_prime + 3)
    h = a_dagger / m_total
    return np.arange(1, m_total) * h, h


@pytest.mark.parametrize("m_prime", [1, 2, 7, 17])
@pytest.mark.parametrize("a_dagger", [1.0, 0.8])
def test_exact_on_constants(m_prime, a_dagger):
    x, h = interior_x(m_prime, a_dagger)
    assert qh(InteriorVector(np.ones_like(x), h)) == pytest.approx(a_dagger, abs=1e-15)


@pytest.mark.parametrize("m_prime", [1, 2, 7, 17])
@pytest.mark.parametrize("degree,integral", [(0, 1.0), (1, 0.5), (2, 1.0 / 3.0), (3, 0.25)])
def test_degree_three_exactness(m_prime, degree, integral):
    x, h = interior_x(m_prime)
    value = qh(InteriorVector(x**degree, h))
    assert abs(value - integral) <= 1e-12 * max(1.0, abs(integral))


def test_quartic_is_not_exact():
    x, h = interior_x(7)
    assert abs(qh(InteriorVector(x**4, h)) - 0.2) > 1e-12


def test_smooth_integrand_error_is_fourth_order_bounded():
    errors = []
    for m_prime in (7, 17, 37):
        x, h = interior_x(m_prime)
        error = abs(qh(InteriorVector(np.exp(x), h)) - (math.e - 1.0))
        assert error <= 0.06 * h**4
        errors.append(error)
    assert errors[0] > errors[1] > errors[2]


def test_fourth_order_ratio_in_asymptotic_regime():
    # The end rules contribute an O(h^5) term of opposite sign to the
    # Simpson O(h^4) term; for exp it dominates until h ~ 0.008, so the
    # clean factor-16 regime sits at finer meshes.
    errors = []
    for m_total in (640, 1280):
        h = 1.0 / m_total
        x = np.arange(1, m_total) * h
        errors.append(abs(qh(InteriorVector(np.exp(x), h)) - (math.e - 1.0)))
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0


def test_linearity_within_ulps():
    rng = np.random.default_rng(2024)
    x, h = interior_x(7)
    for _ in range(20):
        u = InteriorVector(rng.uniform(0.5, 1.5, size=x.shape), h)
        v = InteriorVector(rng.uniform(0.5, 1.5, size=x.shape), h)
        alpha, beta = rng.uniform(0.5, 2.0, size=2)
        combined = qh(InteriorVector(alpha * u.values + beta * v.values, h))
        split = alpha * qh(u) + beta * qh(v)
        assert abs(combined - split) <= 4.0 * math.ulp(max(abs(combined), abs(split)))


def test_linearity_with_cancelling_coefficients():
    # when alpha*qh(u) and beta*qh(v) nearly cancel, rounding lives at the
    # scale of the terms, not of the difference
    rng = np.random.default_rng(2025)
    x, h = interior_x(7)
    for _ in range(20):
        u = InteriorVector(rng.uniform(0.5, 1.5, size=x.shape), h)
        v = InteriorVector(rng.uniform(0.5, 1.5, size=x.shape), h)
        alpha, beta = rng.uniform(-2.0, 2.0, size=2)
        combined = qh(InteriorVector(alpha * u.values + beta * v.values, h))
        split = alpha * qh(u) + beta * qh(v)
        scale = abs(alpha) * abs(qh(u)) + abs(beta) * abs(qh(v))
        assert abs(combined - split) <= 4.0 * math.ulp(scale)


@pytest.mark.parametrize("m_prime", [1, 2, 3, 7])
def test_weights_match_basis_vectors_exactly(m_prime):
    x, h = interior_x(m_prime)
    n = x.shape[0]
    w = weights(n, h)
    for i in range(n):
        basis = np.zeros(n)
        basis[i] = 1.0
        assert qh(InteriorVector(basis, h)) == w[i]


def test_weight_vector_shape():
    x, h = interior_x(7)
    w = weights(x.shape[0], h)
    four_thirds = 4.0 * h / 3.0
    assert w[0] == w[2] == w[-3] == w[-1] == four_thirds * 2.0
    assert w[1] == w[-2] == four_thirds * -1.0
    assert w[1] < 0.0 and w[-2] < 0.0
    # interior Simpson weights alternate h/3 * (2, 4, 2, 4, ..., 2) between
    # the panels, with the shared panel endpoints carrying 2h/3
    third = h / 3.0
    assert w[4] == 4.0 * third
    assert w[5] == 2.0 * third
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-14)


def test_weights_m_prime_one_skips_node_four():
    x, h = interior_x(1)
    w = weights(7, h)
    assert w[3] == 0.0
    basis = np.zeros(7)
    basis[3] = 1.0
    assert qh(InteriorVector(basis, h)) == 0.0


def test_rule_is_not_monotone():
    x, h = interior_x(7)
    basis = np.zeros(x.shape[0])
    basis[1] = 1.0
    assert qh(InteriorVector(basis, h)) < 0.0


def test_qh_is_deterministic():
    rng = np.random.default_rng(7)
    x, h = interior_x(17)
    values = rng.standard_normal(x.shape[0])
    first = qh(InteriorVector(values, h))
    second = qh(InteriorVector(values.copy(), h))
    assert first == second


def test_interior_vector_validation():
    with pytest.raises(DimensionMismatch):
        InteriorVector(np.ones(8), 0.05)
    with pytest.raises(DimensionMismatch):
        InteriorVector(np.ones(5), 0.05)
    with pytest.raises(DimensionMismatch):
        InteriorVector(np.ones((7, 1)), 0.05)
    with pytest.raises(InvalidParameter):
        InteriorVector(np.ones(7), 0.0)
    with pytest.raises(InvalidParameter):
        InteriorVector(np.ones(7), math.nan)
    assert len(InteriorVector(np.ones(7), 0.125)) == 7


def test_weights_validation():
    with pytest.raises(DimensionMismatch):
        weights(8, 0.05)
    with pytest.raises(DimensionMismatch):
        weights(5, 0.05)


def test_l2_norm_values():
    x, h = interior_x(7)
    assert l2_norm(InteriorVector(np.zeros_like(x), h)) == 0.0
    assert l2_norm(InteriorVector(np.ones_like(x), h)) == pytest.approx(math.sqrt(0.95), rel=1e-15)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(x.shape[0])
    c = -3.25
    assert l2_norm(InteriorVector(c * v, h)) == pytest.approx(abs(c) * l2_norm(InteriorVector(v, h)), rel=1e-14)


def test_inf_norm_values():
    v = InteriorVector(np.array([1.0, -3.0, 2.0, 0.0, 0.0, 0.0, 0.0]), 0.125)
    assert np.max(np.abs(v.values)) == 3.0
    # the max norm is bounded by the l2 norm over sqrt(h)
    rng = np.random.default_rng(13)
    x, h = interior_x(7)
    w = InteriorVector(rng.standard_normal(x.shape[0]), h)
    assert np.max(np.abs(w.values)) <= l2_norm(w) / math.sqrt(h) + 1e-15


def test_star_norm_values():
    assert star_norm(np.zeros(201), 0.001) == 0.0
    assert star_norm(np.ones(201), 0.001) == pytest.approx(math.sqrt(0.201), rel=1e-14)
    rng = np.random.default_rng(17)
    trace = rng.standard_normal(50)
    assert star_norm(2.0 * trace, 0.01) == pytest.approx(2.0 * star_norm(trace, 0.01), rel=1e-14)
    with pytest.raises(DimensionMismatch):
        star_norm(np.ones((3, 3)), 0.01)
    with pytest.raises(InvalidParameter):
        star_norm(np.ones(5), 0.0)


@pytest.mark.parametrize("m_prime", [1, 2, 7, 37])
def test_qh_is_the_weight_vector_dot_product(m_prime):
    x, h = interior_x(m_prime)
    values = np.exp(x) * np.sin(7.0 * x)
    assert qh(InteriorVector(values, h)) == float(weights(x.shape[0], h) @ values)


def test_equal_lengths_with_different_spacing_get_their_own_weights():
    # qh caches weights per mesh; the spacing is part of the key.
    values = np.ones(19)
    assert qh(InteriorVector(values, 0.05)) == pytest.approx(1.0, abs=1e-15)
    assert qh(InteriorVector(values, 0.1)) == pytest.approx(2.0, abs=1e-15)
    assert qh(InteriorVector(values, 0.05)) == pytest.approx(1.0, abs=1e-15)


def test_bound_weights_leave_equality_repr_and_pickling_unchanged():
    x, h = interior_x(7)
    values = np.sin(3.0 * x)
    vector = InteriorVector(values, h)
    assert [field.name for field in dataclasses.fields(vector) if field.init] == ["values", "h"]
    assert vector == InteriorVector(values, h)
    assert vector != InteriorVector(values, 2.0 * h)
    assert repr(vector) == f"InteriorVector(values={values!r}, h={h!r})"
    copy = pickle.loads(pickle.dumps(vector))
    assert repr(copy) == repr(vector)
    assert np.array_equal(copy.values.view(np.int64), values.view(np.int64)) and copy.h == h
    assert np.array_equal(copy._weights, vector._weights)
    assert np.float64(qh(copy)).view(np.int64) == np.float64(qh(vector)).view(np.int64)
    # replace rebuilds through __init__, so the weights follow h
    assert qh(dataclasses.replace(vector, h=2.0 * h)) == float(weights(len(x), 2.0 * h) @ values)


def test_mutating_returned_weights_does_not_change_qh():
    x, h = interior_x(7)
    v = InteriorVector(np.exp(x), h)
    before = qh(v)
    w = weights(x.shape[0], h)
    w[:] = 0.0
    assert qh(v) == before


@settings(max_examples=300, deadline=None)
@given(
    half=st.integers(min_value=3, max_value=159),
    h=st.floats(min_value=1e-4, max_value=1.0),
    exponent=st.integers(min_value=-300, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_qh_is_the_weight_vector_product_bit_for_bit(half, h, exponent, seed):
    # odd lengths 7..319, entries of magnitude 1e-300..1e300 and both signs
    n = 2 * half + 1
    values = np.random.default_rng(seed).uniform(-10.0, 10.0, n) * 10.0**exponent
    expected = float(weights(n, h) @ values)
    assert math.isfinite(expected)
    assert np.float64(qh(InteriorVector(values, h))).view(np.int64) == np.float64(expected).view(np.int64)

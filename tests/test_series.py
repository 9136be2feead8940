import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskvolterra.series import TruncatedSeries

from conftest import random_self_map, random_series

finite_complex = st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                    allow_infinity=False)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=8)


def test_eval_linear():
    assert TruncatedSeries([1, 1])(0.5) == pytest.approx(1.5)


def test_eval_square_at_i():
    assert TruncatedSeries([0, 0, 1])(1j) == pytest.approx(-1.0)


def test_eval_exponential_series():
    s = TruncatedSeries([1.0 / math.factorial(k) for k in range(21)])
    assert abs(s(1.0) - math.e) < 1e-12


def test_eval_rejects_outside_disk():
    s = TruncatedSeries([0, 1])
    with pytest.raises(ValueError):
        s(1.1)
    with pytest.raises(ValueError):
        s(np.array([0.5, 1.0 + 1e-9]))
    # boundary itself is fine
    s(1.0)
    s(np.exp(0.3j))


def test_eval_vectorized_matches_scalar():
    s = TruncatedSeries([1, -2j, 0.5, 0.25j])
    zs = 0.7 * np.exp(2j * np.pi * np.linspace(0, 1, 13))
    vec = s(zs)
    for z, v in zip(zs, vec):
        assert abs(s(complex(z)) - v) < 1e-14


def test_eval_arrays_equal_polyval(rng):
    for degree in (0, 1, 7, 512):
        s = random_series(rng, degree)
        for z in (0.95 * rng.random((5, 9)) * np.exp(2j * np.pi * rng.random((5, 9))),
                  rng.uniform(-1.0, 1.0, 33), np.array(0.3 - 0.4j), np.array(-0.5)):
            want = np.polynomial.polynomial.polyval(z, s.coeffs)
            got = s(z)
            if z.ndim == 0:
                assert isinstance(got, complex) and got == complex(want)
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_derivative_examples():
    assert TruncatedSeries([0, 0, 1]).derivative() == TruncatedSeries([0, 2])
    assert TruncatedSeries([5]).derivative() == TruncatedSeries([0])
    assert TruncatedSeries([1, 1, 1, 1]).derivative() == TruncatedSeries([1, 2, 3])


def test_integrate_examples():
    assert TruncatedSeries([1]).integrate() == TruncatedSeries([0, 1])
    assert TruncatedSeries([0, 2]).integrate() == TruncatedSeries([0, 0, 1])


@given(coeff_lists)
def test_derivative_of_antiderivative_is_identity(coeffs):
    s = TruncatedSeries(coeffs)
    rt = s.integrate().derivative()
    n = max(len(s), len(rt))
    a = np.zeros(n, complex)
    a[:len(s.coeffs)] = s.coeffs
    b = np.zeros(n, complex)
    b[:len(rt.coeffs)] = rt.coeffs
    assert np.allclose(a, b, rtol=1e-13, atol=1e-13)


def test_multiply_examples():
    assert TruncatedSeries([1, 1]).mul(TruncatedSeries([1, -1])) == TruncatedSeries([1, 0, -1])
    a = TruncatedSeries([2, 0, 3j])
    assert a.mul(TruncatedSeries([1])) == a


def test_multiply_pointwise_oracle(rng):
    z = complex(0.3, 0.2)
    for _ in range(25):
        a = random_series(rng, 10)
        b = random_series(rng, 10)
        assert abs(a.mul(b)(z) - a(z) * b(z)) < 1e-10


@given(coeff_lists, coeff_lists)
def test_multiply_commutative(ca, cb):
    a, b = TruncatedSeries(ca), TruncatedSeries(cb)
    assert np.allclose(a.mul(b).coeffs, b.mul(a).coeffs, rtol=1e-12, atol=1e-12)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=50)
def test_multiply_associative(ca, cb, cc):
    a, b, c = TruncatedSeries(ca), TruncatedSeries(cb), TruncatedSeries(cc)
    left = a.mul(b).mul(c).coeffs
    right = a.mul(b.mul(c)).coeffs
    n = max(len(left), len(right))
    lpad = np.zeros(n, complex)
    lpad[:len(left)] = left
    rpad = np.zeros(n, complex)
    rpad[:len(right)] = right
    scale = 1.0 + np.max(np.abs(lpad))
    assert np.allclose(lpad / scale, rpad / scale, atol=1e-12)


@given(coeff_lists, coeff_lists)
def test_addition_linearity_pointwise(ca, cb):
    a, b = TruncatedSeries(ca), TruncatedSeries(cb)
    for z in (0.0, 0.5, -0.3 + 0.4j, 0.9j):
        scale = 1.0 + abs(a(z)) + abs(b(z))
        assert abs(((a + b)(z) - (a(z) + b(z))) / scale) < 1e-13


def test_compose_examples():
    f = TruncatedSeries([0, 0, 1])
    phi = TruncatedSeries([0, 0.5])
    assert f.compose(phi) == TruncatedSeries([0, 0, 0.25])
    g = TruncatedSeries([1, 2, 3, 4])
    assert g.compose(TruncatedSeries([0, 1])) == g


def test_compose_pointwise_oracle():
    f = TruncatedSeries([0, 1, 1])
    phi = TruncatedSeries([0.1, 0.3])
    z = 0.4
    assert abs(f.compose(phi)(z) - f(phi(z))) < 1e-10


def test_compose_associativity_pointwise(rng):
    for _ in range(10):
        f = random_series(rng, 8)
        phi = random_self_map(rng, 8)
        psi = random_self_map(rng, 8)
        left = f.compose(phi).compose(psi)
        right = f.compose(phi.compose(psi))
        for z in (0.2, -0.5j, 0.3 + 0.3j):
            scale = 1.0 + abs(left(z))
            budget = 1e-9 + left.tail_bound + right.tail_bound
            assert abs(left(z) - right(z)) <= budget + 1e-9 * scale


def test_integer_power_examples():
    z = TruncatedSeries([0, 1])
    assert z.pow(5) == TruncatedSeries([0, 0, 0, 0, 0, 1])
    anything = TruncatedSeries([3, 1, 4])
    assert anything.pow(0) == TruncatedSeries([1])
    half = TruncatedSeries([0, 0.5])
    assert half.pow(3) == TruncatedSeries([0, 0, 0, 0.125])


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        TruncatedSeries([0, 1]).pow(-1)


def test_canonical_trimming_and_zero():
    assert TruncatedSeries([1, 0, 0]) == TruncatedSeries([1])
    zero = TruncatedSeries([0, 0, 0])
    assert zero.degree == 0
    assert zero == TruncatedSeries([0])


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        TruncatedSeries([1.0, float("nan")])
    with pytest.raises(ValueError):
        TruncatedSeries([complex(float("inf"), 0)])


def test_coefficients_read_only():
    s = TruncatedSeries([1, 2])
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


def test_truncation_tail_bound():
    # deg 400 * deg 400 = deg 800 > 512: mass beyond 512 is recorded
    a = TruncatedSeries(np.ones(401) * 0.01)
    prod = a.mul(a)
    assert prod.degree <= 512
    assert prod.tail_bound > 0
    exact = TruncatedSeries([1, 1]).mul(TruncatedSeries([1, 1]))
    assert exact.tail_bound == 0.0


def test_serialization_round_trip():
    s = TruncatedSeries([1 + 2j, -0.5, 3j])
    assert TruncatedSeries.from_pairs(s.to_pairs()) == s

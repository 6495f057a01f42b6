"""Hermite series algebra, Mehler action, and heat flow identities."""
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from identity_checks import (
    gaussian_rotation_check,
    heat_quadrature,
    mehler_apply_series,
    mehler_fourier_check,
    mehler_kernel_check,
)
from hypflow.hermite import (
    HermiteSeries,
    PolySeries,
    basis_convert,
    gaussian_smooth,
    heat_poly_series,
    hermite_scaled_sum,
)
from hypflow.quadrature import gh_rule


def hermite_eval(ell, x):
    """H_ell(x), numpy's probabilists' Hermite series with one unit coefficient."""
    return hermeval(x, [0] * ell + [1])


def test_hermite_basic_values():
    assert hermite_eval(0, 7 + 3j) == 1
    assert hermite_eval(2, 0.0) == -1.0
    assert hermite_eval(3, 2.0) == 2.0


def test_hermite_matches_gaussian_average_definition():
    # H_m(x) = E (x + i G)^m, the defining integral
    rule = gh_rule(32)
    rng = np.random.default_rng(3)
    for m in range(9):
        for _ in range(4):
            x = complex(rng.normal(), rng.normal())
            oracle = rule.integrate(lambda y, x=x, m=m: (x + 1j * y) ** m)
            assert abs(hermite_eval(m, x) - oracle) <= 1e-11 * max(1.0, abs(oracle))


def test_hermite_orthogonality():
    rule = gh_rule(16)
    for j in range(8):
        for k in range(8):
            val = rule.integrate(lambda x: hermite_eval(j, x) * hermite_eval(k, x))
            exact = math.factorial(j) if j == k else 0.0
            assert abs(val - exact) <= 1e-10 * max(1.0, exact)


def test_hermite_scaled_sum_is_branch_free():
    # h_ell(x; sigma) must be a polynomial in sigma; sigma = 0 gives monomials
    x = np.array([1.7 - 0.3j])
    unit = lambda ell: np.eye(ell + 1, dtype=complex)[ell]
    assert hermite_scaled_sum(unit(2), x, 0.0)[0] == x[0] ** 2
    # and must reproduce sigma^{l/2} H_l(x/sqrt(sigma)) for positive sigma
    sigma = 0.37
    for ell in range(7):
        direct = sigma ** (ell / 2) * hermite_eval(ell, x / np.sqrt(sigma))
        assert abs(hermite_scaled_sum(unit(ell), x, sigma)[0] - direct[0]) <= 1e-12 * max(
            1.0, abs(direct[0])
        )


def test_basis_convert_examples():
    h = basis_convert(PolySeries([0, 0, 1]))  # x^2 = H_2 + H_0
    np.testing.assert_allclose(h.coeffs, [1, 0, 1], atol=1e-14)
    p = basis_convert(HermiteSeries([0, 1]))  # H_1 = x
    np.testing.assert_allclose(p.coeffs, [0, 1], atol=1e-14)
    h3 = basis_convert(PolySeries([0, 0, 0, 1]))  # x^3 = H_3 + 3 H_1
    np.testing.assert_allclose(h3.coeffs, [0, 3, 0, 1], atol=1e-14)


def test_basis_convert_round_trip_random():
    # relative to the largest coefficient met on the trip: the Hermite
    # coefficients of a degree-12 monomial polynomial are ~5e4 times larger
    # than the inputs, and storing them in float64 is what bounds the error
    rng = np.random.default_rng(11)
    for _ in range(10):
        coeffs = rng.normal(size=13) + 1j * rng.normal(size=13)
        mid = basis_convert(PolySeries(coeffs))
        back = basis_convert(mid).coeffs
        scale = max(np.max(np.abs(coeffs)), np.max(np.abs(mid.coeffs)))
        assert np.max(np.abs(back - coeffs)) <= 1e-12 * scale
    # low degrees round-trip at full float precision
    for _ in range(10):
        coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
        back = basis_convert(basis_convert(PolySeries(coeffs))).coeffs
        assert np.max(np.abs(back - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))


def test_gaussian_smooth():
    assert gaussian_smooth(PolySeries([5.0]))(0.9) == 5.0
    x = 1.37
    assert abs(gaussian_smooth(PolySeries([0, 0, 1]))(x) - (x**2 - 1)) <= 1e-14
    assert abs(gaussian_smooth(PolySeries([0, 0, 0, 1]))(x) - (x**3 - 3 * x)) <= 1e-14


def test_mehler_series_examples():
    gt = HermiteSeries([1.0, -2.0, 0.5j])
    np.testing.assert_allclose(mehler_apply_series(1.0, gt).coeffs, gt.coeffs, atol=0)
    killed = mehler_apply_series(0.0, gt).coeffs
    assert killed[0] == 1.0 and np.all(killed[1:] == 0)
    flipped = mehler_apply_series(1j, HermiteSeries([0, 0, 1.0])).coeffs
    np.testing.assert_allclose(flipped, [0, 0, -1.0], atol=1e-15)


def test_mehler_rejects_expansion():
    with pytest.raises(ValueError):
        mehler_apply_series(1.0 + 1e-6, HermiteSeries([1.0]))


def test_mehler_semigroup_law_exact_on_coefficients():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
    w1, w2 = 0.6 + 0.3j, -0.2 + 0.7j
    once = mehler_apply_series(w1, mehler_apply_series(w2, HermiteSeries(coeffs)))
    direct = mehler_apply_series(w1 * w2, HermiteSeries(coeffs))
    np.testing.assert_allclose(once.coeffs, direct.coeffs, rtol=1e-14, atol=1e-16)


def test_mehler_kernel_check_examples():
    rule = gh_rule(96)
    sv, kv = mehler_kernel_check(0.3 - 0.6j, HermiteSeries([1.0]), 0.8, rule)
    assert abs(sv - 1) < 1e-12 and abs(kv - 1) < 1e-10
    sv, kv = mehler_kernel_check(0.5, HermiteSeries([0, 1.0]), 1.0, rule)
    assert abs(sv - 0.5) < 1e-14 and abs(kv - 0.5) < 1e-10
    sv, kv = mehler_kernel_check(0.3 + 0.4j, HermiteSeries([0, 0, 1.0]), 2.0, rule)
    assert abs(sv - kv) <= 1e-9 * max(1.0, abs(sv))


def test_mehler_kernel_singular_parameter_rejected():
    with pytest.raises(ValueError):
        mehler_kernel_check(1.0, HermiteSeries([1.0]), 0.0, gh_rule(8))


def test_heat_poly_examples():
    h = PolySeries([1.0, 0.5, 2.0, -1.0])
    x = 0.3 + 0.9j
    assert abs(heat_poly_series(0.0, h)(x) - h(x)) <= 1e-14
    assert abs(heat_poly_series(0.7j, PolySeries([0, 0, 1]))(x) - (x**2 + 0.7j)) <= 1e-14


def test_heat_poly_time_minus_one_is_hermite():
    rng = np.random.default_rng(13)
    for m in range(9):
        mono = PolySeries([0.0] * m + [1.0])
        for _ in range(3):
            x = complex(rng.normal(), rng.normal())
            want = hermite_eval(m, x)
            assert abs(heat_poly_series(-1.0, mono)(x) - want) <= 1e-11 * max(1.0, abs(want))


def test_heat_semigroup_on_coefficients():
    rng = np.random.default_rng(17)
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    s1, s2 = 0.4 - 0.2j, -0.9 + 1.1j
    twice = heat_poly_series(s1, heat_poly_series(s2, PolySeries(coeffs)))
    direct = heat_poly_series(s1 + s2, PolySeries(coeffs))
    np.testing.assert_allclose(twice.coeffs, direct.coeffs, rtol=1e-12, atol=1e-12)


def test_heat_quadrature_examples():
    rule = gh_rule(64)
    assert abs(heat_quadrature(0.5, lambda t: np.full_like(t, 3.3), 1.0, rule) - 3.3) < 1e-14
    assert abs(heat_quadrature(1.0, lambda t: t**2, 0.0, rule) - 1.0) < 1e-12
    # |t| has a kink: plain rule error decays slowly, so the bound is loose
    val = heat_quadrature(1.0, np.abs, 0.0, gh_rule(200))
    assert abs(val - np.sqrt(2 / np.pi)) < 5e-3


def test_heat_quadrature_rejects_bad_time():
    with pytest.raises(ValueError):
        heat_quadrature(0.0, np.abs, 0.0, gh_rule(8))
    with pytest.raises(ValueError):
        heat_quadrature(-1.0, np.abs, 0.0, gh_rule(8))
    with pytest.raises(ValueError):
        heat_quadrature(1.0 + 1j, np.abs, 0.0, gh_rule(8))


def test_gaussian_rotation_examples():
    rule = gh_rule(12)
    lhs, rhs = gaussian_rotation_check(PolySeries([0, 0, 1]), 1.0, 1.0, rule)
    assert abs(lhs - 2.0) < 1e-12 and abs(rhs - 2.0) < 1e-14
    lhs, rhs = gaussian_rotation_check(PolySeries([0, 1, 0, 2.0]), 0.7, 0.4j, rule)
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-14  # odd polynomial
    lhs, rhs = gaussian_rotation_check(PolySeries([0, 0, 0, 0, 1]), 1.0, 1j, rule)
    assert abs(lhs) < 1e-11 and abs(rhs) < 1e-14


def test_gaussian_rotation_random_complex_scales():
    rng = np.random.default_rng(23)
    rule = gh_rule(16)
    for _ in range(10):
        coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
        z1 = complex(rng.normal(), rng.normal()) * 0.8
        z2 = complex(rng.normal(), rng.normal()) * 0.8
        lhs, rhs = gaussian_rotation_check(PolySeries(coeffs), z1, z2, rule)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_mehler_fourier_examples():
    rule = gh_rule(96)
    lhs, rhs = mehler_fourier_check(0.5, HermiteSeries([1.0]), 0.0, rule)
    assert abs(lhs - 1) < 1e-14 and abs(rhs - 1) < 1e-10
    lhs, rhs = mehler_fourier_check(0.5, HermiteSeries([1.0]), 1.0, rule)
    assert abs(lhs - 1) < 1e-14 and abs(rhs - 1) < 1e-10
    lhs, rhs = mehler_fourier_check(0.4, HermiteSeries([0, 1.0]), 1.3, rule)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def _exact_conversion(coeffs, to_hermite):
    # x^n = sum_j n! / ((n-2j)! j! 2^j) H_{n-2j}; H_n has the same
    # coefficients with sign (-1)^j.  Fractions, so the sums are exact.
    out = [Fraction(0)] * len(coeffs)
    for n, c in enumerate(coeffs):
        for j in range(n // 2 + 1):
            coeff = Fraction(math.factorial(n), math.factorial(n - 2 * j) * math.factorial(j) * 2**j)
            out[n - 2 * j] += (coeff if to_hermite else coeff * (-1) ** j) * Fraction(c)
    return [float(v) for v in out]  # Fraction -> float rounds once, correctly


def test_basis_convert_is_correctly_rounded_through_degree_20():
    # mixed magnitudes make the sums cancel, which is where a float or
    # extended-precision accumulation would miss the correctly rounded value
    rng = np.random.default_rng(2020)
    for degree in range(21):
        for _ in range(5):
            scale = 10.0 ** rng.integers(-6, 7, size=degree + 1)
            coeffs = (rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)) * scale
            for series, to_hermite in ((PolySeries(coeffs), True), (HermiteSeries(coeffs), False)):
                got = basis_convert(series).coeffs
                assert got.real.tolist() == _exact_conversion(coeffs.real.tolist(), to_hermite)
                assert got.imag.tolist() == _exact_conversion(coeffs.imag.tolist(), to_hermite)
    # beyond float range the result saturates to +-inf; non-finite inputs propagate
    big = basis_convert(HermiteSeries([1e308, 0.0, 0.0, 1e308])).coeffs
    assert big[1].real == -math.inf and big[3].real == 1e308
    assert math.isnan(basis_convert(HermiteSeries([math.nan, 1.0])).coeffs[0].real)

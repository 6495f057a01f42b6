"""Quadrature rules: exactness, symmetry, and the recentred line integral."""
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_hermitenorm

from hypflow.quadrature import _gh_rule_cached, converged_value, gh_rule, integrate_entire


def gaussian_moment(m: int) -> float:
    # E G^m = (m-1)!! for even m, 0 for odd
    if m % 2:
        return 0.0
    out = 1.0
    for i in range(1, m, 2):
        out *= i
    return out


def monomial(m: int):
    # iterated multiplication keeps x^m exactly odd/even in x, unlike np.power
    def f(x):
        out = np.ones_like(x)
        for _ in range(m):
            out = out * x
        return out

    return f


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 20, 64])
def test_exactness_through_degree_2n_minus_1(n):
    rule = gh_rule(n)
    for m in range(2 * n):
        got = rule.integrate(monomial(m))
        exact = gaussian_moment(m)
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), (n, m, got, exact)


def test_one_point_rule_is_the_mean():
    rule = gh_rule(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [1.0]


def test_two_point_rule():
    rule = gh_rule(2)
    np.testing.assert_allclose(rule.nodes, [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)
    assert abs(rule.integrate(lambda x: x**2) - 1.0) <= 1e-15


def test_three_point_rule_fourth_moment():
    assert abs(gh_rule(3).integrate(lambda x: x**4) - 3.0) <= 1e-12


@pytest.mark.parametrize("n", [2, 7, 16, 33])
def test_symmetry_and_normalization(n):
    rule = gh_rule(n)
    np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=0)
    np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=0)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [150, 513, 1024, 4096])
def test_rule_matches_independent_scipy_rule(n):
    # roots_hermitenorm uses its own asymptotic method above 150 nodes
    rule = gh_rule(n)
    nodes, weights = roots_hermitenorm(n)
    weights = weights / weights.sum()
    np.testing.assert_allclose(rule.nodes, nodes, rtol=0, atol=1e-12)
    big = weights > 1e-250
    np.testing.assert_allclose(rule.weights[big], weights[big], rtol=1e-10, atol=0)


@pytest.mark.parametrize("n", [150, 151, 512, 513, 4095, 4096])
def test_large_rules_are_exactly_symmetric_and_normalized(n):
    # past ~300 nodes the extreme weights underflow to exact zeros
    rule = gh_rule(n)
    np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
    np.testing.assert_array_equal(rule.weights, rule.weights[::-1])
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights >= 0)
    assert abs(rule.weights.sum() - 1.0) <= 1e-14


def test_cold_build_of_large_rule_stays_small_in_memory():
    # forming the 4096 x 4096 eigenvector matrix alone would take 128 MiB
    _gh_rule_cached.cache_clear()
    tracemalloc.start()
    try:
        gh_rule(4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_invalid_node_count_rejected():
    with pytest.raises(ValueError):
        gh_rule(0)


def test_integrate_entire_matches_closed_form():
    rng = np.random.default_rng(7)
    rule = gh_rule(128)
    for _ in range(25):
        a = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
        b = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        got = integrate_entire(lambda y: np.ones_like(y), a, b, rule)
        exact = np.sqrt(np.pi / a) * np.exp(b * b / (4.0 * a))
        assert abs(got - exact) <= 1e-10 * abs(exact)


def test_integrate_entire_polynomial_factor():
    # int y^2 exp(-y^2) dy = sqrt(pi)/2
    rule = gh_rule(48)
    got = integrate_entire(lambda y: y**2, 1.0, 0.0, rule)
    assert abs(got - np.sqrt(np.pi) / 2.0) <= 1e-12


def test_integrate_entire_requires_damping():
    with pytest.raises(ValueError):
        integrate_entire(lambda y: y, -1.0, 0.0, gh_rule(8))


def test_converged_value_stops_on_stability():
    val, n, ok = converged_value(lambda r: r.integrate(lambda x: np.cos(x)), start=8)
    assert ok
    assert abs(val - np.exp(-0.5)) <= 1e-10  # E cos(G) = exp(-1/2)


def test_rules_are_immutable():
    rule = gh_rule(5)
    with pytest.raises(ValueError):
        rule.nodes[0] = 99.0

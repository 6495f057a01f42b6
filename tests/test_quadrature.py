"""Quadrature rules: exactness, symmetry, and the recentred line integral."""
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import roots_hermitenorm

from hypflow.quadrature import (
    MAX_NODES,
    Estimate,
    _gh_rule_cached,
    doubled,
    gh_rule,
    integrate_entire,
)

import gh_rule_reference


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


@pytest.mark.parametrize("n", [150, MAX_NODES])
def test_rule_matches_independent_scipy_rule(n):
    # roots_hermitenorm uses its own asymptotic method above 150 nodes
    rule = gh_rule(n)
    nodes, weights = roots_hermitenorm(n)
    weights = weights / weights.sum()
    np.testing.assert_allclose(rule.nodes, nodes, rtol=0, atol=1e-12)
    big = weights > 1e-250
    np.testing.assert_allclose(rule.weights[big], weights[big], rtol=1e-10, atol=0)


@pytest.mark.parametrize("n", [150, 151, MAX_NODES])
def test_large_rules_are_exactly_symmetric_and_normalized(n):
    # past ~300 nodes the extreme weights underflow to exact zeros
    rule = gh_rule(n)
    np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
    np.testing.assert_array_equal(rule.weights, rule.weights[::-1])
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights >= 0)
    assert abs(rule.weights.sum() - 1.0) <= 1e-14


def _assert_matches_reference_rule(n):
    rule, ref = gh_rule(n), gh_rule_reference._gh_rule_cached(n)
    ulps = np.abs(rule.nodes - ref.nodes) / np.spacing(np.abs(ref.nodes))
    assert ulps.max() <= 8, (n, ulps.max())
    big = ref.weights > 1e-250
    np.testing.assert_allclose(rule.weights[big], ref.weights[big], rtol=1e-12, atol=0, err_msg=str(n))
    np.testing.assert_array_equal(rule.weights == 0.0, ref.weights == 0.0, err_msg=str(n))


def test_rules_match_the_eigenvalue_rules_through_300_nodes():
    for n in range(1, 301):
        _assert_matches_reference_rule(n)


@pytest.mark.parametrize("n", [MAX_NODES])
def test_large_rules_match_the_eigenvalue_rules(n):
    _assert_matches_reference_rule(n)


def _hermite_zero(n: int, guess: float) -> Decimal:
    """The zero of He_n nearest guess, by Newton on the recurrence in 40-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(guess)
        for _ in range(6):
            prev, last = Decimal(0), Decimal(1)
            for m in range(n):
                prev, last = last, x * last - m * prev
            x -= last / (n * prev)  # He_n' = n He_{n-1}
        return x


@pytest.mark.parametrize("n", [2, 3, 20, 21, 150, 511, 512])
def test_nodes_match_40_digit_zeros(n):
    # the smallest positive, the middle and the largest nonnegative node
    positive = gh_rule(n).nodes[(n + 1) // 2 :]
    for x in positive[[0, positive.size // 2, -1]]:
        exact = _hermite_zero(n, float(x))
        assert abs(Decimal(float(x)) - exact) <= 4 * Decimal(math.ulp(float(exact))), (n, x, exact)


def test_integrate_ignores_nodes_with_zero_weight():
    rule = gh_rule(MAX_NODES)
    dead = rule.weights == 0.0
    assert dead.sum() > 0
    vals = np.cos(rule.nodes)
    half = rule.node_count // 2
    expected = complex(np.dot(rule.weights[:half], vals[:half] + vals[::-1][:half]))
    assert rule.integrate(np.cos) == expected  # bit for bit where f is finite
    for bad in (np.inf, np.nan):
        assert rule.integrate(lambda x: np.where(dead, bad, np.cos(x))) == expected


def test_cold_build_of_large_rule_stays_small_in_memory():
    # the eigenproblem is half size and asks for no eigenvectors
    _gh_rule_cached.cache_clear()
    tracemalloc.start()
    try:
        gh_rule(MAX_NODES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_invalid_node_count_rejected():
    with pytest.raises(ValueError):
        gh_rule(0)


def test_rules_stop_at_max_nodes():
    assert gh_rule(MAX_NODES).node_count == MAX_NODES
    with pytest.raises(ValueError, match=str(MAX_NODES)):
        gh_rule(MAX_NODES + 1)


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


def _ladder(values: dict[int, float], calls: list[int]):
    """An evaluate that looks its value up by rule size and logs the sizes."""

    def evaluate(rule):
        calls.append(rule.node_count)
        return values[rule.node_count]

    return evaluate


def test_doubled_returns_the_later_value_of_the_first_agreeing_pair():
    calls = []
    values = {4: 1.0, 8: 1.5, 16: 1.5 + 1e-12, 32: 7.0, 64: 7.0}
    est = doubled(_ladder(values, calls), 4, 64, 1e-10)
    assert est == Estimate(1.5 + 1e-12, 16, (1.5 + 1e-12) - 1.5, True)
    assert calls == [4, 8, 16]


def test_doubled_tolerance_is_inclusive_and_relative_to_the_later_value():
    # step 0.25 against rtol * |later| = 0.25 * 1.0: converged
    est = doubled(_ladder({2: 0.75, 4: 1.0}, []), 2, 64, 0.25)
    assert est == Estimate(1.0, 4, 0.25, True)
    # 1.0 then 0.75 is the same step against rtol * 0.75: not converged
    # (against the earlier value 1.0 it would be)
    est = doubled(_ladder({2: 1.0, 4: 0.75, 8: 0.5, 16: 0.25}, []), 2, 16, 0.25)
    assert not est.converged
    # two zeros agree (the relative floor is 1e-300, not 0)
    assert doubled(_ladder({8: 0.0, 16: 0.0}, []), 8, 64, 1e-10) == Estimate(0.0, 16, 0.0, True)


def test_doubled_at_the_cap_returns_the_last_value_unconverged():
    calls = []
    values = {4: 1.0, 8: 2.0, 16: 1.0, 32: 2.5}
    est = doubled(_ladder(values, calls), 4, 32, 1e-10)
    assert est == Estimate(2.5, 32, 1.5, False)
    assert calls == [4, 8, 16, 32]
    # a start at the cap evaluates once and has no step yet
    est = doubled(_ladder({32: 3.0}, []), 32, 32, 1e-10)
    assert est == Estimate(3.0, 32, math.inf, False)


def test_doubled_stops_on_stability():
    est = doubled(lambda r: float(r.integrate(np.cos).real), 8, 512, 1e-10)
    assert est.converged and est.nodes < 512
    assert est.step <= 1e-10 * abs(est.value)
    assert abs(est.value - np.exp(-0.5)) <= 1e-10  # E cos(G) = exp(-1/2)


def test_rules_are_immutable():
    rule = gh_rule(5)
    with pytest.raises(ValueError):
        rule.nodes[0] = 99.0

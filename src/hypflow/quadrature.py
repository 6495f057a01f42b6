"""Gauss-Hermite quadrature for the standard Gaussian measure.

Everything in this package integrates against

    dgamma(x) = exp(-x^2/2) dx / sqrt(2*pi),

so the rules produced here are stated directly for that measure: nodes are
real, weights are positive and sum to 1, and an N-point rule integrates
polynomials up to degree 2N-1 exactly.

The nodes are the zeros of He_N, the monic orthogonal polynomials for dgamma
(He_{m+1} = x He_m - m He_{m-1}).  Only the nonnegative half is computed.
First guesses come from closed-form asymptotics of the zeros (Tricomi's
formula in the interior, Gatteschi's Airy-zero formula near the largest
zero; see Townsend, Trogdon and Olver, IMA J. Numer. Anal. 36 (2016), and
chebfun's hermpts).  Newton passes on the orthonormal recurrence polish them
to a few ulp, and the last pass also gives the weights by
Christoffel-Darboux, w_i = 1 / (N phat_{N-1}(x_i)^2).  The rule is then
mirrored, so its symmetry is exact.  No eigenproblem is solved and nothing
beyond numpy is needed.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np


class QuadratureRule(NamedTuple):
    """Nodes and weights for expectation against dgamma.

    Built from the nonnegative half of the rule (asymptotic first guesses,
    Newton polish, Christoffel-Darboux weights) and then mirrored, so nodes
    and weights are exactly symmetric about 0.  Weights sum to 1, and the
    rule is exact on polynomials of degree <= 2*node_count - 1.  Past ~300
    nodes the extreme-node weights fall below float64 range and round to
    exact zeros.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def node_count(self) -> int:
        return self.nodes.size

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> complex:
        """E[f] against dgamma for a vectorized callable.

        Symmetric node pairs are summed together first, so the odd part of f
        integrates to exactly zero (the nodes are exactly mirrored); this is
        what makes huge odd moments come out as 0 rather than cancellation
        noise.  A node whose weight underflowed to zero contributes exactly
        0, even where f is infinite or NaN there.
        """
        vals = np.where(self.weights > 0.0, np.asarray(f(self.nodes)), 0.0)
        half = self.node_count // 2
        total = np.dot(self.weights[:half], vals[:half] + vals[::-1][:half])
        if self.node_count % 2:
            total = total + self.weights[half] * vals[half]
        return complex(total)


def _orthonormal_ladder(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal (phat_{n-1}(x), phat_n(x)) as (prev, last, exponent).

    The true values are prev and last times 2**exponent.  Every 32 steps,
    and after the last, the pair is rescaled by a power of two so that the
    larger of the two lies in [0.5, 1).  That is exact, and keeps the pair in
    float range for extreme nodes of any rule size: one step grows it by at
    most a factor |x| + 1.
    """
    root = np.sqrt(np.arange(n + 1.0))
    prev = np.zeros_like(x)
    last = np.ones_like(x)
    spare = np.empty_like(x)
    exponent = np.zeros(x.shape, dtype=np.int64)
    for m in range(n):
        # (x last - root[m] prev) / root[m+1], in place on three rotating buffers
        np.multiply(prev, root[m], out=prev)
        np.multiply(x, last, out=spare)
        np.subtract(spare, prev, out=spare)
        np.divide(spare, root[m + 1], out=spare)
        prev, last, spare = last, spare, prev
        if m % 32 == 31 or m == n - 1:
            _, e = np.frexp(np.maximum(np.abs(prev), np.abs(last)))
            np.ldexp(prev, -e, out=prev)
            np.ldexp(last, -e, out=last)
            exponent += e
    return prev, last, exponent


def gh_rule(n: int) -> QuadratureRule:
    """N-point Gauss rule for dgamma, exact through degree 2N-1.

    Raises ValueError for n < 1.  Rules are cached and immutable, so a rule
    may be shared freely across threads.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return _gh_rule_cached(int(n))


def _first_guesses(n: int) -> np.ndarray:
    """The nonnegative zeros of He_n, ascending, to 1.5e-3 relative (1.3e-6 from 50 nodes).

    He_{2m}(x) and He_{2m+1}(x)/x are Laguerre polynomials L_m^(-1/2),
    L_m^(1/2) in x^2/2, so with nu = 2n+1 the Laguerre asymptotics give the
    squares of the physicists' zeros y_k = x_k/sqrt(2), k = 1..m, m = n//2:
    - Tricomi: y_k^2 = nu c - (5/(4(1-c)^2) - 1/(1-c) - 1/4)/(3 nu) with
      c = cos^2(theta/2), theta - sin(theta) = (4m - 4k + 3) pi / nu;
    - Gatteschi, for the j-th largest zero, from the j-th zero a_j of Ai.
    Tricomi's formula is used where c <= 0.64 (y_k up to about 0.8 sqrt(nu)),
    and Gatteschi's above, nearer the largest zero.
    """
    m = n // 2
    nu = 2.0 * n + 1.0
    k = np.arange(1.0, m + 1.0)
    kepler = (4.0 * m - 4.0 * k + 3.0) * math.pi / nu
    theta = np.full(m, math.pi / 2.0)
    for _ in range(8):
        theta -= (theta - np.sin(theta) - kepler) / (1.0 - np.cos(theta))
    c = np.cos(theta / 2.0) ** 2
    inner = c <= 0.64
    ci = c[inner]
    y2 = np.empty(m)
    y2[inner] = nu * ci - (1.25 / (1.0 - ci) ** 2 - 1.0 / (1.0 - ci) - 0.25) / (3.0 * nu)
    j = m + 1.0 - k[~inner]
    t = 3.0 * math.pi / 8.0 * (4.0 * j - 1.0)
    a = -t ** (2.0 / 3.0) * (
        1.0 + 5.0 / 48.0 * t**-2 - 5.0 / 36.0 * t**-4 + 77125.0 / 82944.0 * t**-6
        - 108056875.0 / 6967296.0 * t**-8 + 162375596875.0 / 334430208.0 * t**-10
    )
    # the series is 2.8e-3 off at the first zero of Ai, and within 6e-7 beyond it
    a[j == 1.0] = -2.338107410459767
    y2[~inner] = (
        nu + 2.0 ** (2.0 / 3.0) * a * nu ** (1.0 / 3.0) + 0.2 * 2.0 ** (4.0 / 3.0) * a**2 * nu ** (-1.0 / 3.0)
        + (11.0 / 35.0 - 0.25 - 12.0 / 175.0 * a**3) / nu
        + (16.0 / 1575.0 * a + 92.0 / 7875.0 * a**4) * 2.0 ** (2.0 / 3.0) * nu ** (-5.0 / 3.0)
        - (15152.0 / 3031875.0 * a**5 + 1088.0 / 121275.0 * a**2) * 2.0 ** (1.0 / 3.0) * nu ** (-7.0 / 3.0)
    )
    x = np.sqrt(2.0 * y2)
    return np.concatenate(([0.0], x)) if n % 2 else x


@lru_cache(maxsize=None)
def _gh_rule_cached(n: int) -> QuadratureRule:
    x = _first_guesses(n)
    # Newton on phat_n, whose derivative is sqrt(n) phat_{n-1}: from 1e-3
    # relative, the third pass reaches a few ulp, and the fourth gives the
    # weights at polished nodes.  At a node |phat_n| << |phat_{n-1}|, so the
    # scaled prev lies in [0.5, 1), and the tiny weights underflow to exact
    # zeros in the final ldexp.
    for _ in range(4):
        prev, last, exponent = _orthonormal_ladder(x, n)
        x = x - last / (math.sqrt(n) * prev)
    w = np.ldexp(1.0 / (n * prev * prev), -2 * exponent)
    half = n // 2
    nodes = np.concatenate((-x[::-1][:half], x))
    weights = np.concatenate((w[::-1][:half], w))
    weights /= weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


def resolve_rule(rule: QuadratureRule | int) -> QuadratureRule:
    """Accept a rule or a node count."""
    return gh_rule(rule) if isinstance(rule, int) else rule


class Estimate(NamedTuple):
    """A quadrature value, the nodes it took and its error estimate.

    From doubled Gauss rules (doubled): value is the last evaluation, on a
    rule of `nodes` nodes; step is its distance from the evaluation before
    it (inf after a single evaluation); converged says whether step met the
    relative tolerance.  flows._auto_outer flags an unconverged value in
    OuterStats.capped (the cap_hits of janson_flow, phi_flow and
    exp_flow_phi), or raises AccuracyError when asked to and the last step
    exceeds 1e-4 relative or is NaN (exp_flow_phi at interior s).

    From the graded 1-D engine (gaussian_atoms.recentred_lr_norm): value is
    an L^r norm, nodes the panel nodes evaluated, step the norm's error
    estimate, and converged says whether the relative estimate of the
    integral of |h|^r is at most gaussian_atoms.LR_RTOL.  exp_flow_phi
    lists an unconverged s = 0, 1 end in cap_hits; the norms raise
    AccuracyError (gaussian_atoms._resolved).  No caller reads nodes yet.
    """

    value: float
    nodes: int
    step: float
    converged: bool


def doubled(evaluate: Callable[[QuadratureRule], float], start: int, cap: int, rtol: float) -> Estimate:
    """Evaluate on start, 2 start, ... nodes until two successive values agree.

    Stops at the first pair that differs by at most rtol times the later
    value, and returns that later value with converged=True.  Otherwise the sizes double until they
    reach cap, and the value at the cap comes back with converged=False.
    """
    n = start
    value = evaluate(gh_rule(n))
    step = math.inf
    while n < cap:
        n *= 2
        prev, value = value, evaluate(gh_rule(n))
        step = abs(value - prev)
        if step <= rtol * max(abs(value), 1e-300):
            return Estimate(value, n, step, True)
    return Estimate(value, n, step, False)


def integrate_entire(
    f: Callable[[np.ndarray], np.ndarray],
    quad_coeff: complex,
    lin_coeff: complex,
    rule: QuadratureRule,
) -> complex:
    """integral over R of f(y) * exp(-a*y^2 + b*y) dy for complex a, b with Re a > 0.

    The integrand is recentred on the real Gaussian envelope
    exp(-Re(a)*(y - m)^2) with m = Re(b)/(2*Re(a)), and the residual complex
    exponent is combined analytically before exponentiation so nothing
    overflows.  f must be slowly growing (polynomial or exp-linear); the
    caller controls accuracy through the rule size.
    """
    a = complex(quad_coeff)
    b = complex(lin_coeff)
    ra = a.real
    if ra <= 0.0:
        raise ValueError("integrate_entire requires Re(quad_coeff) > 0")
    m = b.real / (2.0 * ra)
    scale = np.sqrt(2.0 * ra)
    y = m + rule.nodes / scale
    # Re part of the exponent is constant by construction of m.
    expo = -a * y * y + b * y + 0.5 * rule.nodes**2
    vals = f(y) * np.exp(expo)
    return complex(np.sqrt(2.0 * np.pi) / scale * np.dot(rule.weights, vals))

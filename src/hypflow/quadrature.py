"""Gauss-Hermite quadrature for the standard Gaussian measure.

Everything in this package integrates against

    dgamma(x) = exp(-x^2/2) dx / sqrt(2*pi),

so the rules produced here are stated directly for that measure: nodes are
real, weights are positive and sum to 1, and an N-point rule integrates
polynomials up to degree 2N-1 exactly.

The nodes are the zeros of He_N, the monic orthogonal polynomials for dgamma
(He_{m+1} = x He_m - m He_{m-1}).  Only the nonnegative half is computed.
Its squares are twice the zeros of a Laguerre polynomial of degree N // 2,
the eigenvalues of a half-size Jacobi matrix (numpy's eigvalsh, O(N^2)
memory).  Two Newton passes on the plain orthonormal recurrence polish them
to a few ulp, and the last pass also gives the weights by Christoffel-Darboux,
w_i = 1 / (N phat_{N-1}(x_i)^2).  The rule is then mirrored, so its symmetry
is exact.  Rules stop at MAX_NODES nodes, the largest any caller doubles to.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

# The unscaled recurrence stays finite at the edge nodes up to 700 nodes and
# overflows by 750, so the cap must stay below that.
MAX_NODES = 512


class QuadratureRule(NamedTuple):
    """Nodes and weights for expectation against dgamma.

    Built from the nonnegative half of the rule (eigenvalue starts, Newton
    polish, Christoffel-Darboux weights) and then mirrored, so nodes
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


def gh_rule(n: int) -> QuadratureRule:
    """N-point Gauss rule for dgamma, exact through degree 2N-1.

    Raises ValueError unless 1 <= n <= MAX_NODES.  Rules are cached and
    immutable, so a rule may be shared freely across threads.
    """
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must lie in [1, {MAX_NODES}], got {n}")
    return _gh_rule_cached(int(n))


@lru_cache(maxsize=None)
def _gh_rule_cached(n: int) -> QuadratureRule:
    # He_{2m}(x) and He_{2m+1}(x)/x are multiples of L_m^(a)(x^2/2), a = -1/2
    # and +1/2, and the zeros of L_m^(a) are the eigenvalues of its Jacobi
    # matrix (Golub and Welsch, Math. Comp. 23, 1969).
    m, a = n // 2, n % 2 - 0.5
    k = np.arange(m, dtype=float)
    jacobi = np.diag(2.0 * k + a + 1.0) + np.diag(np.sqrt(k[1:] * (k[1:] + a)), -1)
    x = np.sqrt(2.0 * np.linalg.eigvalsh(jacobi))
    if n % 2:
        x = np.concatenate(([0.0], x))
    # Newton on phat_n, whose derivative is sqrt(n) phat_{n-1}: the second
    # pass gives the weights at nodes already polished to a few ulp.  phat
    # stays below 1e215 at 512 nodes, but phat_{n-1}^2 overflows at the edge
    # nodes from 374 nodes, so the weights come from its mantissa and
    # exponent, and the tiny ones underflow to exact zeros in the ldexp.
    root = np.sqrt(np.arange(n + 1.0))
    for _ in range(2):
        prev, last = np.zeros_like(x), np.ones_like(x)
        for j in range(n):
            prev, last = last, (x * last - root[j] * prev) / root[j + 1]
        x = x - last / (math.sqrt(n) * prev)
    frac, e = np.frexp(prev)
    w = np.ldexp(1.0 / (n * frac * frac), -2 * e)
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

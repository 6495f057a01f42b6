"""Discrete and continuous hypercontractive flows and their convergence.

The discrete flow evaluates, on the cube,

    k  ->  E^k ( E_{n-k} |T_z^k f|^q )^{p/q},      k = 0..n,

which is nondecreasing whenever the two-point inequality holds at (p, q, z).
Its Gaussian limit (k/n -> s) is

    J(s) = E_u ( E_x | E_v E_y  g((u+iv) sqrt(s) + z (x+iy) sqrt(1-s)) |^q )^{p/q}

for polynomial g.  J is evaluated by three independent routes:

  * janson_quadrature - the inner double Gaussian average is itself done by
    a product quadrature (exact for polynomials once the rule covers the
    degree); nothing but the defining integrals is used.
  * janson_mehler - the inner average collapses to the scaled-Hermite sum
    sum a_l h_l(X; sigma) with X = u sqrt(s) + z x sqrt(1-s) and
    sigma = s + (1-s) z^2, where h_l(X; sigma) = sigma^{l/2} H_l(X/sqrt(sigma))
    is evaluated by the branch-free recurrence h_{l+1} = X h_l - l sigma h_{l-1}.
    This removes the removable singularity at sigma = 0 that the closed
    form with explicit square roots exhibits.
  * janson_heat - the inner average is the heat flow of g~ at complex time
    (1-s)(1-z^2) evaluated at u + z x, and the two outer averages are heat
    flows at real times s and 1-s evaluated at 0.

Any disagreement between evaluators beyond tolerance is an error, never
averaged away.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .cube import (
    BlockCounts,
    CubeFunction,
    SymmetricSpec,
    TailCut,
    apply_Tzk,
    log_binomial_weights,
    mixed_norm,
    mixed_norm_collapsed,
    phi_block_eval,
    symmetric_tzk_table,
)
from .errors import EvaluatorMismatchError
from .hermite import (
    HermiteSeries,
    PolySeries,
    basis_convert,
    gaussian_smooth,
    heat_poly_series,
    hermite_scaled_sum,
)
from .quadrature import QuadratureRule, gh_rule, resolve_rule
from .reporting import ConvergenceRow, ConvergenceTable, FlowReport
from .two_point import ExponentTriple

DEFAULT_S_GRID_POINTS = 21
_AUTO_START = 32
_AUTO_CAP = 512
_AUTO_RTOL = 1e-10


def default_s_grid(points: int = DEFAULT_S_GRID_POINTS) -> np.ndarray:
    return np.linspace(0.0, 1.0, points)


def discrete_flow(
    f: CubeFunction | SymmetricSpec,
    t: ExponentTriple,
    ks: Sequence[int] | None = None,
    backend: str = "auto",
) -> FlowReport:
    """The discrete monotone map over the requested split indices.

    CubeFunction inputs are enumerated (n <= 24); SymmetricSpec inputs go to
    the collapsed block-count backend and scale to n in the thousands.  Its
    report's diagnostics give the largest certified relative effect of the
    dropped binomial tails over k (tail_bound) and the share of table cells
    kept (cells_kept_share).
    Endpoints satisfy value(n) = E|f|^p and value(0) = (E|T_z f|^q)^{p/q}.
    """
    t.require_ordered()
    n = f.n
    if ks is None:
        ks = range(n + 1)
    ks = sorted(set(int(k) for k in ks))
    if ks[0] < 0 or ks[-1] > n:
        raise ValueError(f"split indices must lie in [0, {n}]")
    if backend == "auto":
        backend = "collapsed" if isinstance(f, SymmetricSpec) else "naive"
    diagnostics = {}
    if backend == "naive":
        cube = f.materialize() if isinstance(f, SymmetricSpec) else f
        samples = [
            (k, mixed_norm(apply_Tzk(cube, t.z, k).values(), k, t.p, t.q)) for k in ks
        ]
    elif backend == "collapsed":
        if not isinstance(f, SymmetricSpec):
            raise ValueError("collapsed backend requires a SymmetricSpec input")
        cuts: list[TailCut] = []
        samples = [
            (k, mixed_norm_collapsed(symmetric_tzk_table(f, t.z, k), n, k, t.p, t.q, cuts=cuts))
            for k in ks
        ]
        diagnostics = {
            "tail_bound": max(cut.bound for cut in cuts),
            "cells_kept_share": sum(cut.cells_kept for cut in cuts) / sum(cut.cells for cut in cuts),
        }
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return FlowReport(parameter_name="k", samples=tuple(samples), diagnostics=diagnostics)


def _outer_average(inner: np.ndarray, rule: QuadratureRule, p: float, q: float) -> float:
    """E_u (E_x |inner(u, x)|^q)^{p/q} on the shared outer node grid."""
    x_avg = (np.abs(inner) ** q) @ rule.weights
    return float(np.dot(rule.weights, x_avg ** (p / q)))


def _auto_outer(evaluate, rule, raise_on_failure: bool = False) -> float:
    """Run an outer-rule-dependent evaluation with node doubling to stability.

    Doubling targets 1e-10 relative agreement between successive sizes.
    Integrands with absolute-value kinks only converge algebraically and
    wobble around their accuracy plateau, so reaching the node cap is fine
    as long as the final doubling step stayed small; with raise_on_failure,
    a final step above the coarse floor (value still undetermined at the
    1e-4 level) fails loudly instead of reporting garbage.
    """
    if rule is not None:
        return evaluate(resolve_rule(rule))
    n = _AUTO_START
    prev = evaluate(gh_rule(n))
    last_diff = np.inf
    while n < _AUTO_CAP:
        n *= 2
        cur = evaluate(gh_rule(n))
        last_diff = abs(cur - prev)
        if last_diff <= _AUTO_RTOL * max(abs(cur), 1e-300):
            return cur
        prev = cur
    if raise_on_failure and last_diff > 1e-4 * max(abs(prev), 1e-300):
        from .errors import AccuracyError

        raise AccuracyError(f"outer quadrature did not stabilize below {_AUTO_CAP} nodes")
    return prev


def janson_quadrature(
    g: PolySeries,
    t: ExponentTriple,
    s: float,
    rule: QuadratureRule | int | None = None,
) -> float:
    """J(s) with the inner double average done by product quadrature.

    The inner rule only needs to cover deg(g); the outer rule handles the
    non-polynomial |.|^q layers and is doubled until stable when not given.
    """
    t.require_ordered()
    if not 0.0 <= s <= 1.0:
        raise ValueError("flow parameter s must lie in [0, 1]")
    inner_rule = gh_rule(g.degree // 2 + 2)
    rs, rc = math.sqrt(s), math.sqrt(1.0 - s)
    inner_shift = (
        1j * rs * inner_rule.nodes[:, None] + 1j * t.z * rc * inner_rule.nodes[None, :]
    ).ravel()
    inner_w = (inner_rule.weights[:, None] * inner_rule.weights[None, :]).ravel()

    def evaluate(rule: QuadratureRule) -> float:
        base = rs * rule.nodes[:, None] + t.z * rc * rule.nodes[None, :]
        inner = np.zeros(base.shape, dtype=complex)
        for shift, weight in zip(inner_shift, inner_w):
            inner += weight * g(base + shift)
        return _outer_average(inner, rule, t.p, t.q)

    return _auto_outer(evaluate, rule)


def janson_mehler(
    g: PolySeries,
    t: ExponentTriple,
    s: float,
    rule: QuadratureRule | int | None = None,
) -> float:
    """J(s) with the inner average in scaled-Hermite closed form."""
    t.require_ordered()
    if not 0.0 <= s <= 1.0:
        raise ValueError("flow parameter s must lie in [0, 1]")
    coeffs = gaussian_smooth(g).coeffs
    sigma = s + (1.0 - s) * t.z * t.z
    rs, rc = math.sqrt(s), math.sqrt(1.0 - s)

    def evaluate(rule: QuadratureRule) -> float:
        big_x = rs * rule.nodes[:, None] + t.z * rc * rule.nodes[None, :]
        inner = hermite_scaled_sum(coeffs, big_x, sigma)
        return _outer_average(inner, rule, t.p, t.q)

    return _auto_outer(evaluate, rule)


def janson_heat(
    gt: HermiteSeries,
    t: ExponentTriple,
    s: float,
    rule: QuadratureRule | int | None = None,
) -> float:
    """J(s) as a composition of three heat flows.

    Inner: the heat extension of g~ at complex time (1-s)(1-z^2), taken at
    u + z*x (a polynomial identity, so the complex time is branch-free).
    Outer: heat averages at real times 1-s (in x, at 0) and s (in u, at 0),
    which reduce to scaled Gauss-Hermite sums.  Interior s only; the s = 0, 1
    limits are delegated to the scaled-Hermite evaluator.
    """
    t.require_ordered()
    if s in (0.0, 1.0):
        return janson_mehler(PolySeries(gt.coeffs), t, s, rule)
    if not 0.0 < s < 1.0:
        raise ValueError("flow parameter s must lie in [0, 1]")
    poly = basis_convert(gt, "hermite_to_monomial")
    evolved = heat_poly_series((1.0 - s) * (1.0 - t.z * t.z), poly)
    rs, rc = math.sqrt(s), math.sqrt(1.0 - s)

    def evaluate(rule: QuadratureRule) -> float:
        arg = rs * rule.nodes[:, None] + t.z * rc * rule.nodes[None, :]
        inner = evolved(arg)
        return _outer_average(inner, rule, t.p, t.q)

    return _auto_outer(evaluate, rule)


_EVALUATORS = {
    "quadrature": lambda g, t, s, rule: janson_quadrature(g, t, s, rule),
    "mehler": lambda g, t, s, rule: janson_mehler(g, t, s, rule),
    "heat": lambda g, t, s, rule: janson_heat(gaussian_smooth(g), t, s, rule),
}


def janson_flow(
    g: PolySeries,
    t: ExponentTriple,
    s_grid: Sequence[float] | None = None,
    evaluator: str = "mehler",
    rule: QuadratureRule | int | None = None,
    spot_check: bool = True,
    spot_tol: float = 1e-6,
) -> FlowReport:
    """J over an s-grid, with cross-evaluator spot checks.

    Three grid points (ends and middle) are re-evaluated by the product
    quadrature; disagreement beyond spot_tol relative raises
    EvaluatorMismatchError rather than being averaged.
    """
    if evaluator not in _EVALUATORS:
        raise ValueError(f"unknown evaluator {evaluator!r}; expected one of {sorted(_EVALUATORS)}")
    grid = default_s_grid() if s_grid is None else np.asarray(list(s_grid), dtype=float)
    values = [_EVALUATORS[evaluator](g, t, float(s), rule) for s in grid]
    if spot_check and evaluator != "quadrature":
        for i in sorted({0, len(grid) // 2, len(grid) - 1}):
            ref = janson_quadrature(g, t, float(grid[i]), rule)
            if abs(ref - values[i]) > spot_tol * max(abs(ref), 1e-300):
                raise EvaluatorMismatchError(
                    f"evaluators disagree at s = {grid[i]}: "
                    f"{evaluator} gave {values[i]!r}, quadrature gave {ref!r}"
                )
    return FlowReport(parameter_name="s", samples=tuple(zip(grid, values)))


def mixed_moment_check(
    x: BlockCounts | Sequence[int],
    k: int,
    n: int,
    z: complex,
    big_l: int,
) -> tuple[complex, complex, float]:
    """Both sides of the mixed-moment identity at one cube point.

    Left: the exact average over the second cube copy y of
    (xi + i zeta + z (eta + i tau))^L, where xi, eta are the fixed block
    sums of x over sqrt(n) and zeta, tau the block sums of y; the average
    depends on y only through its two block counts, so it is an exact
    binomially-weighted double sum.  Right: phi_L at the damped block point.
    Returns (left, right, |difference|); the gap decays like a power of n on
    bounded-sum points.
    """
    if big_l > 12:
        raise ValueError("moment degree capped at 12")
    if isinstance(x, BlockCounts):
        counts = x
    else:
        arr = np.asarray(x)
        if arr.size != n or not np.all(np.abs(arr) == 1):
            raise ValueError("explicit point must be a length-n array of +-1")
        counts = BlockCounts(k=k, a=int(np.sum(arr[:k] == 1)), b=int(np.sum(arr[k:] == 1)))
    if counts.k != k:
        raise ValueError("block counts disagree with the split index")
    counts.validate(n)
    m = n - k
    rn = math.sqrt(n)
    xi = (2 * counts.a - k) / rn
    eta = (2 * counts.b - m) / rn
    zeta = (2 * np.arange(k + 1) - k) / rn
    tau = (2 * np.arange(m + 1) - m) / rn
    grid = xi + complex(z) * eta + 1j * (zeta[:, None] + complex(z) * tau[None, :])
    w_first = log_binomial_weights(k)
    w_second = log_binomial_weights(m)
    lhs = complex(w_first @ (grid**big_l) @ w_second)
    rhs = phi_block_eval(big_l, n, counts, z)
    return lhs, rhs, abs(lhs - rhs)


def convergence_experiment(
    a: Sequence[complex],
    t: ExponentTriple,
    s: float,
    n_list: Sequence[int],
    rule: QuadratureRule | int | None = None,
) -> ConvergenceTable:
    """Discrete flow at k = round(s*n) against the continuous limit J(s).

    The discrete side runs the collapsed backend (block-symmetric inputs
    only); the continuous side is the scaled-Hermite evaluator with the same
    exponents and damping.
    """
    n_list = [int(n) for n in n_list]
    if any(b <= a_ for a_, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    continuous = janson_mehler(PolySeries(np.asarray(a, dtype=complex)), t, s, rule)
    rows = []
    for n in n_list:
        k = round(s * n)
        spec = SymmetricSpec(n=n, a=np.asarray(a, dtype=complex))
        discrete = discrete_flow(spec, t, ks=[k]).values[0]
        rows.append(ConvergenceRow(n=n, k=k, discrete=discrete, continuous=continuous))
    return ConvergenceTable(rows=tuple(rows))

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

The outer averages run on the product u-by-x grid of one Gauss-Hermite rule,
doubled until the value is stable.  Past ~100 nodes most of that grid carries
weights too small to matter, so each evaluator also supplies a separable
majorant |inner(u, x)| <= M_u(|u|) + M_x(|x|), and only a centred block of
the grid is formed; the dropped cells are bounded and the bound is checked
against the kept value by cube.cut_mixed_norm, the kernel that cuts the
discrete flow's tables too (its docstring holds the proof).  Each evaluator
passes its inner average as a function of X = u sqrt(s) + z x sqrt(1-s)
and a bound P with |inner| <= P(|X|).  With P nonnegative and
nondecreasing on [0, inf) and |X| <= sqrt(s)|u| + |z| sqrt(1-s)|x|:

    M_u(a) = P(2 sqrt(s) a),   M_x(b) = P(2 |z| sqrt(1-s) b),

since P of a sum is at most P of twice the larger term (at s = 0, s = 1 or
z = 0 one axis drops out of X, takes P alone and the other 0).  Per
evaluator:

  * mehler: P(t) = sum |c_l| Hbar_l(t; |sigma|), with the absolute-value
    recurrence Hbar_{m+1} = t Hbar_m + m |sigma| Hbar_{m-1}.
  * quadrature: P(t) = sum_k w_k sum |a_l| (t + |shift_k|)^l over the
    inner rule's imaginary shifts and weights.
  * heat: P(t) = sum |a_l| t^l on the evolved coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as _poly

from .cube import (
    CubeFunction,
    SymmetricSpec,
    TailCut,
    apply_Tzk,
    cut_mixed_norm,
    cut_summary,
    mixed_norm,
    mixed_norm_collapsed,
    symmetric_tzk_table,
)
from .errors import AccuracyError, EvaluatorMismatchError
from .hermite import (
    HermiteSeries,
    PolySeries,
    basis_convert,
    gaussian_smooth,
    heat_poly_series,
    hermite_scaled_sum,
)
from .quadrature import QuadratureRule, doubled, gh_rule, resolve_rule
from .reporting import ConvergenceRow, ConvergenceTable, FlowReport
from .two_point import ExponentTriple

DEFAULT_S_GRID_POINTS = 21
_AUTO_START = 32
_AUTO_CAP = 512
_AUTO_RTOL = 1e-10
# Share of an axis' majorant mass a dropped tail may hold (the cube's tables
# use 1e-20).  The majorants overestimate the grid by many orders of
# magnitude, so this sits far below cube.TAIL_RTOL.
_GRID_SHARE = 1e-28


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
        diagnostics = cut_summary(cuts)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return FlowReport(parameter_name="k", samples=tuple(samples), diagnostics=diagnostics)


@dataclass
class OuterStats:
    """What the outer grids of one flow sample did, for the diagnostics.

    cuts holds one TailCut per grid formed (bound 0 for a full grid);
    capped says that the node doubling stopped at its cap (_AUTO_CAP for
    the outer grids) without meeting its tolerance.
    """

    cuts: list[TailCut] = field(default_factory=list)
    capped: bool = False


def _separable_majorant(
    bound: Callable[[np.ndarray], np.ndarray], rs: float, zrc: complex, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(M_u, M_x) at the nodes for |inner(u, x)| <= P(|rs u + zrc x|).

    P (`bound`) must be nonnegative and nondecreasing on [0, inf).  Then
    P(a + b) <= P(2 max(a, b)) <= P(2a) + P(2b).  When rs or zrc is 0
    (s = 1, s = 0 or z = 0), X depends on one axis at most and that axis
    takes P(a) alone, the other 0.
    """
    a = np.abs(nodes)
    if rs and zrc:
        return bound(2.0 * rs * a), bound(2.0 * abs(zrc) * a)
    if zrc:
        return np.zeros_like(a), bound(abs(zrc) * a)
    return bound(rs * a), np.zeros_like(a)


def _monomial_majorant(coeffs: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """t -> sum |a_l| t^l, which bounds |sum a_l w^l| for |w| <= t."""
    abs_coeffs = np.abs(coeffs)
    return lambda t: _poly.polyval(t, abs_coeffs)


def _outer_average(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rule: QuadratureRule,
    p: float,
    q: float,
    majorant: tuple[np.ndarray, np.ndarray] | None = None,
    cuts: list[TailCut] | None = None,
) -> float:
    """E_u (E_x |inner(u, x)|^q)^{p/q} on the rule's product grid.

    integrand(u, x) gives inner on the product of the node arrays u (rows)
    and x (columns).  Without a majorant every cell is formed.  With
    majorant = (M_u, M_x) at the nodes, |inner(u_i, x_j)| <= M_u[i] + M_x[j],
    cut_mixed_norm forms only the block that carries weight under the
    rank-2 majorant |inner|^q <= 2^{q-1} (M_u[i]^q * 1 + 1 * M_x[j]^q) of
    the power mean inequality.  If `cuts` is given, the TailCut of this
    grid is appended to it.
    """
    nodes, w = rule.nodes, rule.weights
    bound = None
    if majorant is not None:
        ones = np.ones_like(w)
        with np.errstate(over="ignore", invalid="ignore"):
            mu_q, mx_q = majorant[0] ** q, majorant[1] ** q
        bound = (2.0 ** (q - 1.0), np.stack((mu_q, ones), axis=1), np.stack((ones, mx_q)))

    def abs_q(rows: slice, cols: slice) -> np.ndarray:
        return np.abs(integrand(nodes[rows], nodes[cols])) ** q

    value, cut = cut_mixed_norm(abs_q, w, w, p, q, bound, share=_GRID_SHARE)
    if cuts is not None:
        cuts.append(cut)
    return value


def _auto_outer(evaluate, rule, raise_on_failure: bool = False, stats: OuterStats | None = None) -> float:
    """evaluate on `rule` if given, else doubled (see Estimate for the policy).

    Kinked integrands converge only algebraically, so the doubling can stop
    at _AUTO_CAP without meeting _AUTO_RTOL.
    """
    if rule is not None:
        return evaluate(resolve_rule(rule))
    est = doubled(evaluate, _AUTO_START, _AUTO_CAP, _AUTO_RTOL)
    if not est.converged:
        # written so that a NaN step or value raises as well
        if raise_on_failure and not est.step <= 1e-4 * max(abs(est.value), 1e-300):
            raise AccuracyError(f"outer quadrature did not stabilize below {_AUTO_CAP} nodes")
        if stats is not None:
            stats.capped = True
    return est.value


def _janson_outer(inner, bound, s: float, t: ExponentTriple, rule, stats) -> float:
    """J(s) on the outer grids of inner(X), X = sqrt(s) u + z sqrt(1-s) x,
    with the majorant of P = bound (see _separable_majorant)."""
    rs, zrc = math.sqrt(s), t.z * math.sqrt(1.0 - s)
    cuts = None if stats is None else stats.cuts

    def integrand(u: np.ndarray, x: np.ndarray) -> np.ndarray:
        return inner(rs * u[:, None] + zrc * x[None, :])

    def evaluate(rule: QuadratureRule) -> float:
        majorant = _separable_majorant(bound, rs, zrc, rule.nodes)
        return _outer_average(integrand, rule, t.p, t.q, majorant, cuts)

    return _auto_outer(evaluate, rule, stats=stats)


def janson_quadrature(
    g: PolySeries,
    t: ExponentTriple,
    s: float,
    rule: QuadratureRule | int | None = None,
    stats: OuterStats | None = None,
) -> float:
    """J(s) with the inner double average done by product quadrature.

    The inner rule only needs to cover deg(g); the outer rule handles the
    non-polynomial |.|^q layers and is doubled until stable when not given.
    If `stats` is given, it records the outer grids (see OuterStats).
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
    poly_bound = _monomial_majorant(g.coeffs)
    abs_shift = np.abs(inner_shift)[:, None]

    def bound(radius: np.ndarray) -> np.ndarray:
        # |inner| <= sum_k w_k |g(X + shift_k)| <= sum_k w_k P(|X| + |shift_k|)
        return inner_w @ poly_bound(radius + abs_shift)

    def inner(base: np.ndarray) -> np.ndarray:
        out = np.zeros(base.shape, dtype=complex)
        for shift, weight in zip(inner_shift, inner_w):
            out += weight * g(base + shift)
        return out

    return _janson_outer(inner, bound, s, t, rule, stats)


def _scaled_hermite_majorant(coeffs: np.ndarray, sigma: complex) -> Callable[[np.ndarray], np.ndarray]:
    """t -> sum |c_l| Hbar_l(t), Hbar_{m+1} = t Hbar_m + m |sigma| Hbar_{m-1}.

    By induction |h_l(X; sigma)| <= Hbar_l(|X|), and Hbar_l has nonnegative
    coefficients, so the sum bounds |sum c_l h_l(X; sigma)| for |X| <= t.
    """
    abs_coeffs, abs_sigma = np.abs(coeffs), abs(sigma)

    def bound(t: np.ndarray) -> np.ndarray:
        out, prev, cur = np.zeros_like(t), np.zeros_like(t), np.ones_like(t)
        for m, c in enumerate(abs_coeffs):
            out += c * cur
            prev, cur = cur, t * cur + m * abs_sigma * prev
        return out

    return bound


def janson_mehler(
    g: PolySeries,
    t: ExponentTriple,
    s: float,
    rule: QuadratureRule | int | None = None,
    stats: OuterStats | None = None,
) -> float:
    """J(s) with the inner average in scaled-Hermite closed form."""
    t.require_ordered()
    if not 0.0 <= s <= 1.0:
        raise ValueError("flow parameter s must lie in [0, 1]")
    coeffs = gaussian_smooth(g).coeffs
    sigma = s + (1.0 - s) * t.z * t.z
    bound = _scaled_hermite_majorant(coeffs, sigma)
    return _janson_outer(lambda x: hermite_scaled_sum(coeffs, x, sigma), bound, s, t, rule, stats)


def janson_heat(
    gt: HermiteSeries,
    t: ExponentTriple,
    s: float,
    rule: QuadratureRule | int | None = None,
    stats: OuterStats | None = None,
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
        return janson_mehler(PolySeries(gt.coeffs), t, s, rule, stats)
    if not 0.0 < s < 1.0:
        raise ValueError("flow parameter s must lie in [0, 1]")
    poly = basis_convert(gt, "hermite_to_monomial")
    evolved = heat_poly_series((1.0 - s) * (1.0 - t.z * t.z), poly)
    return _janson_outer(evolved, _monomial_majorant(evolved.coeffs), s, t, rule, stats)


_EVALUATORS = {
    "quadrature": lambda g, t, s, rule, stats: janson_quadrature(g, t, s, rule, stats),
    "mehler": lambda g, t, s, rule, stats: janson_mehler(g, t, s, rule, stats),
    "heat": lambda g, t, s, rule, stats: janson_heat(gaussian_smooth(g), t, s, rule, stats),
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
    EvaluatorMismatchError rather than being averaged.  The report's
    diagnostics give, over every outer grid formed (spot checks included),
    the largest certified relative bound of the dropped cells (tail_bound)
    and the share of cells kept (cells_kept_share), and the s-samples whose
    node doubling stopped at the cap without meeting its tolerance
    (cap_hits).
    """
    if evaluator not in _EVALUATORS:
        raise ValueError(f"unknown evaluator {evaluator!r}; expected one of {sorted(_EVALUATORS)}")
    grid = default_s_grid() if s_grid is None else np.asarray(list(s_grid), dtype=float)
    stats = [OuterStats() for _ in grid]
    values = [_EVALUATORS[evaluator](g, t, float(s), rule, st) for s, st in zip(grid, stats)]
    spot = OuterStats()
    if spot_check and evaluator != "quadrature":
        for i in sorted({0, len(grid) // 2, len(grid) - 1}):
            ref = janson_quadrature(g, t, float(grid[i]), rule, spot)
            if abs(ref - values[i]) > spot_tol * max(abs(ref), 1e-300):
                raise EvaluatorMismatchError(
                    f"evaluators disagree at s = {grid[i]}: "
                    f"{evaluator} gave {values[i]!r}, quadrature gave {ref!r}"
                )
    diagnostics = {
        **cut_summary([cut for st in (*stats, spot) for cut in st.cuts]),
        "cap_hits": [float(s) for s, st in zip(grid, stats) if st.capped],
    }
    return FlowReport(parameter_name="s", samples=tuple(zip(grid, values)), diagnostics=diagnostics)


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

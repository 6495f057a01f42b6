"""The continuous hypercontractive flow and its convergence from the discrete one.

The discrete flow on the cube,

    k  ->  E^k ( E_{n-k} |T_z^k f|^q )^{p/q},      k = 0..n,

nondecreasing whenever the two-point inequality holds at (p, q, z), is
cube.discrete_flow; it is imported here for convergence_experiment, so
flows.discrete_flow names it too.  Its Gaussian limit (k/n -> s) is

    J(s) = E_u ( E_x | E_v E_y  g((u+iv) sqrt(s) + z (x+iy) sqrt(1-s)) |^q )^{p/q}

for polynomial g.  J is evaluated by three independent routes:

  * janson_quadrature - the inner double Gaussian average is itself done by
    a product quadrature (exact for polynomials once the rule covers the
    degree); nothing but the defining integrals is used: the moments of
    the inner rule's shifts give the inner polynomial's coefficients.
  * janson_mehler - the inner average collapses to the scaled-Hermite sum
    sum a_l h_l(X; sigma) with X = u sqrt(s) + z x sqrt(1-s) and
    sigma = s + (1-s) z^2, where h_l(X; sigma) = sigma^{l/2} H_l(X/sqrt(sigma)).
    It splits into H_j(u) and H_m(x) factors (below), so no square root of
    sigma is taken, and sigma = 0, a removable singularity of the closed
    form with explicit square roots, is regular.
  * janson_heat - the inner average is the heat flow of g~ at complex time
    (1-s)(1-z^2) evaluated at u + z x, and the two outer averages are heat
    flows at real times s and 1-s evaluated at 0.

Any disagreement between evaluators beyond tolerance is an error, never
averaged away.

The outer averages run on the product u-by-x grid of one Gauss-Hermite rule,
doubled until the value is stable.  Each evaluator reduces its inner average
to a polynomial sum_l c_l P_l(X) in X = sqrt(s) u + z sqrt(1-s) x, in the
basis P_{l+1} = X P_l - l kappa P_{l-1}: the scaled Hermite polynomials
h_l(X; sigma), sigma = s + (1-s) z^2, for mehler (kappa = 1), the monomials
for quadrature and heat (kappa = 0).  Both split across the two axes by
the binomial identity, so the grid is the Gaussian limit of the discrete
flow's collapsed table (cube.coupling_matrix):

    inner(u_i, x_k) = sum_{j,m} P_j(u_i) s^{j/2} c_{j+m} C(j+m, m) (z sqrt(1-s))^m P_m(x_k),

with P at kappa = 1 the Hermite polynomials He.  That rank-(d+1) table is
built as a factor pair by cube.coupled_factors and goes through
cube.factored_mixed_norm, the kernel that cuts the cube's tables too:
the power-mean majorant (d+1)^{q-1} |left|^q |right|^q chooses the centred
block of cells that carries weight, the dropped cells are bounded, and the
full grid is formed if the bound exceeds cube.TAIL_RTOL (the proof is in
cube.cut_mixed_norm).  No cell is evaluated by a per-cell recurrence.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .cube import (
    SymmetricSpec,
    TailCut,
    coupled_factors,
    coupling_matrix,
    cut_summary,
    discrete_flow,
    factored_mixed_norm,
)
from .errors import AccuracyError, EvaluatorMismatchError
from .exponents import ExponentTriple
from .hermite import (
    HermiteSeries,
    PolySeries,
    basis_convert,
    gaussian_smooth,
    heat_poly_series,
    hermite_scaled_sum,
)
from .quadrature import MAX_NODES, QuadratureRule, doubled, gh_rule, resolve_rule
from .reporting import ConvergenceRow, ConvergenceTable, FlowReport

_AUTO_START = 32
_AUTO_RTOL = 1e-10
# Share of an axis' majorant mass a dropped tail may hold (the cube's tables
# use 1e-20).  The majorants overestimate the grid by many orders of
# magnitude, so this sits far below cube.TAIL_RTOL.
_GRID_SHARE = 1e-28


def s_samples(s_grid: Sequence[float] | None) -> np.ndarray:
    """The flows' s-grid as a float array: 21 equispaced samples of [0, 1] when None."""
    return np.linspace(0.0, 1.0, 21) if s_grid is None else np.asarray(list(s_grid), dtype=float)


class OuterStats:
    """What the outer grids of one flow sample did, for the diagnostics.

    cuts holds one TailCut per grid formed (bound 0 for a full grid);
    capped says that the node doubling stopped at its cap (MAX_NODES for
    the outer grids) without meeting its tolerance, or, at the 1-D ends of
    exp_flow_phi, that the graded estimate exceeded its tolerance.
    """

    __slots__ = ("cuts", "capped")

    def __init__(self, cuts: list[TailCut] | None = None, capped: bool = False):
        self.cuts = [] if cuts is None else cuts
        self.capped = capped


def outer_diagnostics(samples: Sequence[tuple[float, OuterStats]], *extra: OuterStats) -> dict:
    """The parameters of the samples left unresolved, OuterStats.capped
    (cap_hits), and, if any grid was cut, cut_summary over the grids of the
    samples and of `extra` (tail_bound, cells_kept_share)."""
    cuts = [cut for st in (*(st for _, st in samples), *extra) for cut in st.cuts]
    hits = {"cap_hits": [float(s) for s, st in samples if st.capped]}
    return {**cut_summary(cuts), **hits} if cuts else hits


def _auto_outer(evaluate, rule, raise_on_failure: bool = False, stats: OuterStats | None = None) -> float:
    """evaluate on `rule` if given, else doubled (see Estimate for the policy).

    Kinked integrands converge only algebraically, so the doubling can stop
    at MAX_NODES without meeting _AUTO_RTOL.
    """
    if rule is not None:
        return evaluate(resolve_rule(rule))
    est = doubled(evaluate, _AUTO_START, MAX_NODES, _AUTO_RTOL)
    if not est.converged:
        # written so that a NaN step or value raises as well
        if raise_on_failure and not est.step <= 1e-4 * max(abs(est.value), 1e-300):
            raise AccuracyError(f"outer quadrature did not stabilize below {MAX_NODES} nodes")
        if stats is not None:
            stats.capped = True
    return est.value


def _basis(nodes: np.ndarray, kappa: float, degree: int) -> np.ndarray:
    """Rows P_0..P_degree at the nodes, P_{j+1} = y P_j - j kappa P_{j-1}."""
    unit = np.eye(degree + 1)
    return np.array([hermite_scaled_sum(unit[j, : j + 1], nodes, kappa).real for j in range(degree + 1)])


def _grid_norm(left: np.ndarray, right: np.ndarray, rule: QuadratureRule, p: float, q: float, stats) -> float:
    """factored_mixed_norm of the grid left @ right under the product of `rule`
    with itself, cut at _GRID_SHARE; its TailCut goes to `stats` if given."""
    value, cut = factored_mixed_norm(left, right, rule.weights, rule.weights, p, q, share=_GRID_SHARE)
    if stats is not None:
        stats.cuts.append(cut)
    return value


def _janson_outer(coeffs: np.ndarray, kappa: float, s: float, t: ExponentTriple, rule, stats) -> float:
    """J(s) for the inner average sum_l coeffs[l] P_l(X), X = sqrt(s) u + z sqrt(1-s) x,
    as the factored table P(u)^T diag(sqrt(s)^j) mix P(x) (see the module docstring)."""
    scale = math.sqrt(s) ** np.arange(coeffs.size)
    mix = scale[:, None] * coupling_matrix(coeffs, t.z * math.sqrt(1.0 - s))

    def evaluate(rule: QuadratureRule) -> float:
        basis = _basis(rule.nodes, kappa, coeffs.size - 1)
        return _grid_norm(*coupled_factors(basis, basis, mix), rule, t.p, t.q, stats)

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
    degrees = np.arange(g.degree + 1)
    moments = (inner_shift[None, :] ** degrees[:, None]) @ inner_w
    # E g(X + shift) = sum_m X^m sum_l a_l C(l, m) E[shift^(l-m)]
    coeffs = np.array(
        [sum(g.coeffs[l] * math.comb(l, m) * moments[l - m] for l in range(m, g.degree + 1)) for m in degrees]
    )
    return _janson_outer(coeffs, 0.0, s, t, rule, stats)


def janson_mehler(
    g: PolySeries,
    t: ExponentTriple,
    s: float,
    rule: QuadratureRule | int | None = None,
    stats: OuterStats | None = None,
) -> float:
    """J(s) with the inner average in scaled-Hermite closed form,
    sum a_l h_l(X; sigma) with sigma = s + (1-s) z^2 (see hermite_scaled_sum)."""
    t.require_ordered()
    if not 0.0 <= s <= 1.0:
        raise ValueError("flow parameter s must lie in [0, 1]")
    return _janson_outer(gaussian_smooth(g).coeffs, 1.0, s, t, rule, stats)


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
    poly = basis_convert(gt)
    evolved = heat_poly_series((1.0 - s) * (1.0 - t.z * t.z), poly)
    return _janson_outer(evolved.coeffs, 0.0, s, t, rule, stats)


def janson_flow(g: PolySeries, t: ExponentTriple, s_grid: Sequence[float] | None = None) -> FlowReport:
    """J over an s-grid by the scaled-Hermite evaluator, with spot checks.

    Three grid points (ends and middle) are re-evaluated by the product
    quadrature; disagreement beyond 1e-6 relative raises
    EvaluatorMismatchError rather than being averaged.  The report's
    diagnostics give, over every outer grid formed (spot checks included),
    the largest certified relative bound of the dropped cells (tail_bound)
    and the share of cells kept (cells_kept_share), and the s-samples whose
    node doubling stopped at the cap without meeting its tolerance
    (cap_hits).
    """
    grid = s_samples(s_grid)
    stats = [OuterStats() for _ in grid]
    values = [janson_mehler(g, t, float(s), stats=st) for s, st in zip(grid, stats)]
    spot = OuterStats()
    for i in sorted({0, len(grid) // 2, len(grid) - 1}):
        ref = janson_quadrature(g, t, float(grid[i]), stats=spot)
        if abs(ref - values[i]) > 1e-6 * max(abs(ref), 1e-300):
            raise EvaluatorMismatchError(
                f"evaluators disagree at s = {grid[i]}: mehler gave {values[i]!r}, quadrature gave {ref!r}"
            )
    diagnostics = outer_diagnostics(list(zip(grid, stats)), spot)
    return FlowReport(parameter_name="s", samples=tuple(zip(grid, values)), diagnostics=diagnostics)


def convergence_experiment(
    a: Sequence[complex],
    t: ExponentTriple,
    s: float,
    n_list: Sequence[int],
) -> ConvergenceTable:
    """Discrete flow at k = round(s*n) against the continuous limit J(s).

    The discrete side runs the collapsed backend (block-symmetric inputs
    only); the continuous side is janson_flow(g, t, [s]), with its spot
    check at s (EvaluatorMismatchError), and the table's diagnostics are
    that report's: cap_hits, tail_bound and cells_kept_share, the spot
    check's grids included.
    """
    if not 0.0 <= s <= 1.0:  # before round(s*n): NaN fails too
        raise ValueError("flow parameter s must lie in [0, 1]")
    n_list = [int(n) for n in n_list]
    if not n_list or any(b <= a_ for a_, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be nonempty and strictly increasing")
    # the discrete side first: it rejects a degree out of float range
    ks = [round(s * n) for n in n_list]
    discrete = [
        discrete_flow(SymmetricSpec(n=n, a=np.asarray(a, dtype=complex)), t, ks=[k]).values[0]
        for n, k in zip(n_list, ks)
    ]
    report = janson_flow(PolySeries(np.asarray(a, dtype=complex)), t, [s])
    rows = [ConvergenceRow(n=n, k=k, discrete=d, continuous=report.values[0]) for n, k, d in zip(n_list, ks, discrete)]
    return ConvergenceTable(rows=tuple(rows), diagnostics=report.diagnostics)

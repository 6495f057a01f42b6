"""Frozen reference: the 2-D node-doubling loops as they were before
quadrature.doubled, with the code they fed.

`converged_value` and `_auto_outer` are kept verbatim, with
`mehler_atom_scaled` and `_mehler_atom_log_abs`, for tests that require the
shared doubling and the Mehler-atom formula to return the same values.
`atom_phi_flow` (with `_outer_average_log`) is phi_flow's atom route as it
was before its closed form: log|inner| on doubled product grids.  (The 1-D
ladders of the L^r norms and of the exp_flow_phi ends are gone from the
package; tests hold their successor to scipy's quad.)  `exp_grid_value` and `exp_flow_interior` are the
interior samples of `exp_flow_phi` as they were before the factored grids:
`phi_s_closed` on every cell of every grid.  `janson_quadrature`,
`janson_mehler` and `janson_heat` (with `_janson_outer`, `_outer_average`
and the separable majorants they pass) are the Janson evaluators as they
were before their grids became factored tables: the inner polynomial by a
per-cell recurrence on every cell formed, under the rank-2 majorant
M_u(|u|) + M_x(|x|).  Not collected by pytest (no test_ prefix).
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as _poly

from identity_checks import phi_s_closed
from hypflow.cube import TailCut, cut_mixed_norm
from hypflow.errors import AccuracyError, DomainError
from hypflow.flows import OuterStats
from hypflow.gaussian_atoms import DOMAIN_EPS, GaussianAtom, _require_damping
from hypflow.hausdorff_young import ExpFamily, _g_tilde_atom, conjugate_exponent, hy_exponents
from hypflow.hermite import (
    HermiteSeries,
    PolySeries,
    basis_convert,
    gaussian_smooth,
    heat_poly_series,
    hermite_scaled_sum,
)
from hypflow.quadrature import QuadratureRule, gh_rule, resolve_rule
from hypflow.two_point import ExponentTriple

MAX_NODES = 512
_AUTO_START = 32
_AUTO_CAP = 512
_AUTO_RTOL = 1e-10
_GRID_SHARE = 1e-28


def converged_value(
    evaluate: Callable[[QuadratureRule], complex],
    start: int = 32,
    cap: int = MAX_NODES,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    raise_on_failure: bool = False,
) -> tuple[complex, int, bool]:
    """Evaluate a rule-dependent quantity at N and 2N nodes until stable.

    Returns (value, nodes_used, converged).  The doubling stops as soon as
    two successive evaluations differ by less than atol + rtol*|value|.
    """
    n = start
    prev = evaluate(gh_rule(n))
    while n < cap:
        n *= 2
        cur = evaluate(gh_rule(n))
        if abs(cur - prev) <= atol + rtol * abs(cur):
            return cur, n, True
        prev = cur
    if raise_on_failure:
        raise AccuracyError(f"quadrature did not stabilize below {cap} nodes")
    return prev, n, False


def _auto_outer(evaluate, rule, raise_on_failure: bool = False, stats: OuterStats | None = None) -> float:
    """Run an outer-rule-dependent evaluation with node doubling to stability.

    Doubling targets 1e-10 relative agreement between successive sizes and
    stops at _AUTO_CAP nodes.  Integrands with absolute-value kinks only
    converge algebraically, so the cap can be reached without meeting that
    target; the value at the cap is then returned whatever the last doubling
    step was, and `stats.capped` is set.  With raise_on_failure, a final step
    above the coarse floor (value still undetermined at the 1e-4 level)
    raises AccuracyError instead.
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
        raise AccuracyError(f"outer quadrature did not stabilize below {_AUTO_CAP} nodes")
    if stats is not None:
        stats.capped = True
    return prev


def mehler_atom_scaled(sigma: complex, atom: GaussianAtom, arg: complex) -> complex:
    """The composite M_{sqrt(sigma)} atom (arg / sqrt(sigma)), branch-free.

    Written out, the square root of sigma cancels: with
    s_k = 1/(2(1-sigma)), A = quad + s_k, B = lin + 2*s_k*arg,

        value = amplitude * sqrt(s_k / A) * exp(B^2/(4A) - s_k*arg^2),

    which depends on sigma alone.  sigma = 1 is the identity.
    """
    sigma = complex(sigma)
    arg = complex(arg)
    if sigma == 1.0:
        return complex(atom(arg))
    s_k = 1.0 / (2.0 * (1.0 - sigma))
    big_a = atom.quad + s_k
    _require_damping(big_a, "Mehler image of atom")
    big_b = atom.lin + 2.0 * s_k * arg
    val = atom.amplitude * np.sqrt(s_k / big_a) * np.exp(
        big_b * big_b / (4.0 * big_a) - s_k * arg * arg
    )
    return complex(val)


def _mehler_atom_log_abs(sigma: complex, atom: GaussianAtom, arg: np.ndarray) -> np.ndarray:
    """log |scaled Mehler image of one atom| over an argument array, in closed form.

    With s_k, A and B as in mehler_atom_scaled, this is the real part of
    log(amplitude * sqrt(s_k / A)) + B^2/(4A) - s_k*arg^2; the magnitude
    itself overflows where the image grows like exp(+c arg^2).
    """
    sigma = complex(sigma)
    with np.errstate(divide="ignore"):  # a zero atom has log-magnitude -inf
        log_amp = np.log(abs(atom.amplitude))
    if sigma == 1.0:
        return log_amp + np.real(-atom.quad * arg * arg + atom.lin * arg)
    s_k = 1.0 / (2.0 * (1.0 - sigma))
    big_a = atom.quad + s_k
    if big_a.real <= DOMAIN_EPS:
        raise DomainError("Mehler image of atom outside its convergence domain")
    big_b = atom.lin + 2.0 * s_k * arg
    return log_amp + 0.5 * math.log(abs(s_k / big_a)) + np.real(
        big_b * big_b / (4.0 * big_a) - s_k * arg * arg
    )


def _outer_average_log(log_abs: np.ndarray, rule: QuadratureRule, p: float, q: float) -> float:
    """E_u (E_x |inner(u, x)|^q)^{p/q} for an integrand given as log|inner(u, x)|.

    The weights enter as logs, so a node whose weight underflowed to zero
    contributes exactly 0 however large |inner| is there.
    """
    with np.errstate(divide="ignore"):
        log_w = np.log(rule.weights)
    x_avg = np.exp(q * log_abs + log_w).sum(axis=1)
    return float(np.dot(rule.weights, x_avg ** (p / q)))


def atom_phi_flow(p, f, s_grid) -> list[float]:
    """phi(s) of an atom input f: _mehler_atom_log_abs on grids doubled by _auto_outer."""
    t = hy_exponents(p)
    q, z = t.q, t.z
    atom = _g_tilde_atom(f, p)
    bridge = math.sqrt(p) / q ** (p / (2.0 * q))
    values = []
    for s in s_grid:
        sigma = s + (1.0 - s) * z * z
        rs, rc = math.sqrt(s), math.sqrt(1.0 - s)

        def evaluate(r: QuadratureRule, sigma=sigma, rs=rs, rc=rc) -> float:
            big_x = rs * r.nodes[:, None] + z * rc * r.nodes[None, :]
            return _outer_average_log(_mehler_atom_log_abs(sigma, atom, big_x), r, p, q)

        values.append((_auto_outer(evaluate, None) * bridge) ** (1.0 / p))
    return values


def exp_grid_value(fam: ExpFamily, p: float, s: float, rule: QuadratureRule) -> float:
    """E_x (E_u |Phi_s(x, u)|^q)^{p/q} on every cell of the rule's product grid."""
    q = conjugate_exponent(p)
    z = 1j * math.sqrt(p / q)
    table = np.abs(phi_s_closed(fam, s, z, rule.nodes[:, None], rule.nodes[None, :])) ** q
    return float(np.dot(rule.weights, (table @ rule.weights) ** (p / q)))


def exp_flow_interior(fam: ExpFamily, p: float, s: float) -> float:
    """exp_flow_phi at one interior s: exp_grid_value doubled by _auto_outer."""
    return _auto_outer(lambda rule: exp_grid_value(fam, p, s, rule), None, raise_on_failure=True)


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
    poly = basis_convert(gt)
    evolved = heat_poly_series((1.0 - s) * (1.0 - t.z * t.z), poly)
    return _janson_outer(evolved, _monomial_majorant(evolved.coeffs), s, t, rule, stats)

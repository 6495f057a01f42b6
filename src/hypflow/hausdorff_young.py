"""The sharp Hausdorff-Young pipeline.

For 1 < p <= 2 and conjugate q = p/(p-1), the interpolation map

    phi(s) = ( J(s) * p^{1/2} / q^{p/2q} )^{1/p},     z = i sqrt(p-1),

bridges the Fourier side and the function side: phi(0) = ||fhat||_q and
phi(1) = (p^{1/p}/q^{1/q})^{1/2} ||f||_p under the substitution
g~(y) = f(y) exp(y^2/2p) (2 pi)^{1/2p}.  Monotonicity of J in s therefore
yields the sharp constant, with Gaussians as extremizers (constant flow).

phi is never computed from its literal definition (a Fourier transform at
complex-shifted arguments); it always goes through J, which has stable
evaluators.  The endpoint identities *are* computed independently
(hy_endpoints) so the bridge is genuinely tested, not assumed.

The exponential-family route uses tilted exponentials instead of
polynomials: Phi_s(x, u) factorizes atom by atom, the flow value
phi_exp(s) = E_x ( E_u |Phi_s(x, u)|^q )^{p/q} satisfies
phi_exp(0) <= phi_exp(1), and unwinding the endpoint change of variables
gives the sharp inequality for sums of modulated Gaussians directly.
Here the damping is z = i sqrt(p/q).
"""
from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import AccuracyError
from .exponents import ExponentTriple, conjugate_exponent
from .gaussian_atoms import (
    GaussianAtom,
    atom_lp_norm,
    atom_lr_estimate,
    fourier_transform_atom,
    mehler_atom_log_abs,
    poly_gaussian_lr_norm,
)
from .hermite import HermiteSeries, PolySeries, basis_convert, heat_poly_series
from .quadrature import QuadratureRule, gh_rule, integrate_entire
from .reporting import FlowReport
from .flows import OuterStats, _auto_outer, _grid_norm, default_s_grid, janson_mehler, outer_diagnostics


def sharp_constant(p: float) -> float:
    """(p^{1/p} / q^{1/q})^{1/2}, the best constant in ||fhat||_q <= C ||f||_p."""
    q = conjugate_exponent(p)
    return math.sqrt(p ** (1.0 / p) / q ** (1.0 / q))


class HYInput:
    """Test function for the flow, as either a Hermite series g~ or a Gaussian atom f.

    The two representations are linked by g~(y) = f(y) exp(y^2/2p) (2 pi)^{1/2p}.
    Exactly one of g_tilde / f_atom is given.
    """

    __slots__ = ("p", "g_tilde", "f_atom")

    def __init__(self, p: float, g_tilde: HermiteSeries | None = None, f_atom: GaussianAtom | None = None):
        if not 1.0 < p <= 2.0:
            raise ValueError(f"p must lie in (1, 2], got {p}")
        if (g_tilde is None) == (f_atom is None):
            raise ValueError("provide exactly one of g_tilde or f_atom")
        self.p = p
        self.g_tilde = g_tilde
        self.f_atom = f_atom

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)

    @property
    def z(self) -> complex:
        return 1j * math.sqrt(self.p - 1.0)

    def g_tilde_atom(self) -> GaussianAtom:
        """g~ as an atom (atom representation only)."""
        if self.f_atom is None:
            raise ValueError("input has no atom representation")
        scale = (2.0 * np.pi) ** (1.0 / (2.0 * self.p))
        return GaussianAtom(
            self.f_atom.amplitude * scale,
            self.f_atom.quad - 1.0 / (2.0 * self.p),
            self.f_atom.lin,
        )


def gaussian_extremizer_input(p: float) -> HYInput:
    """f(y) = exp(-pi y^2), the extremizing Gaussian, as an HYInput."""
    return HYInput(p=p, f_atom=GaussianAtom(1.0, np.pi, 0.0))


def _outer_average_log(log_abs: np.ndarray, rule: QuadratureRule, p: float, q: float) -> float:
    """_outer_average for an integrand given as log|inner(u, x)|.

    The weights enter as logs, so a node whose weight underflowed to zero
    contributes exactly 0 however large |inner| is there.
    """
    with np.errstate(divide="ignore"):
        log_w = np.log(rule.weights)
    x_avg = np.exp(q * log_abs + log_w).sum(axis=1)
    return float(np.dot(rule.weights, x_avg ** (p / q)))


def phi_flow(inp: HYInput, s_grid: Sequence[float] | None = None) -> FlowReport:
    """phi(s) = (J(s) p^{1/2} / q^{p/2q})^{1/p} over the grid, z = i sqrt(p-1).

    The report's diagnostics are flows.outer_diagnostics of the samples:
    cap_hits on both routes, tail_bound and cells_kept_share on the
    polynomial route, whose grids are cut.
    """
    grid = default_s_grid() if s_grid is None else np.asarray(list(s_grid), dtype=float)
    p, q = inp.p, inp.q
    bridge = math.sqrt(p) / q ** (p / (2.0 * q))
    values = []
    stats = [OuterStats() for _ in grid]
    for s, st in zip(grid, stats):
        s = float(s)
        if inp.g_tilde is not None:
            j_val = janson_mehler(PolySeries(inp.g_tilde.coeffs), ExponentTriple(p, q, inp.z), s, stats=st)
        else:
            atom = inp.g_tilde_atom()
            z = inp.z
            sigma = s + (1.0 - s) * z * z
            rs, rc = math.sqrt(s), math.sqrt(1.0 - s)

            def evaluate(r: QuadratureRule, sigma=sigma, rs=rs, rc=rc, atom=atom) -> float:
                big_x = rs * r.nodes[:, None] + z * rc * r.nodes[None, :]
                return _outer_average_log(mehler_atom_log_abs(sigma, atom, big_x), r, p, q)

            j_val = _auto_outer(evaluate, None, stats=st)
        values.append((j_val * bridge) ** (1.0 / p))
    diagnostics = outer_diagnostics(list(zip(grid, stats)))
    return FlowReport(parameter_name="s", samples=tuple(zip(grid, values)), diagnostics=diagnostics)


def hy_endpoints(inp: HYInput) -> tuple[float, float]:
    """(||fhat||_q,  (p^{1/p}/q^{1/q})^{1/2} ||f||_p), both by direct quadrature.

    The transform uses the convention fhat(x) = int f(y) exp(-2 pi i x y) dy.
    The sharp inequality itself, first <= second, is judged by the caller.
    """
    p, q = inp.p, inp.q
    if inp.f_atom is not None:
        norm_f = atom_lp_norm([inp.f_atom], p)
        norm_fhat = atom_lp_norm([fourier_transform_atom(inp.f_atom)], q)
    else:
        poly = basis_convert(inp.g_tilde)
        a = 1.0 / (2.0 * p)
        log_amp = -math.log(2.0 * np.pi) / (2.0 * p)
        norm_f = poly_gaussian_lr_norm(poly, a, log_amp, p)
        # fhat(x) = amp * sqrt(pi/a) * exp(c^2/4a) * (P_{1/2a} poly)(c/2a), c = -2 pi i x.
        evolved = heat_poly_series(1.0 / (2.0 * a), poly)
        hat_poly = PolySeries(
            evolved.coeffs * (-2.0j * np.pi / (2.0 * a)) ** np.arange(evolved.coeffs.size)
        )
        # |exp(c^2/4a)| = exp(-pi^2 x^2 / a): a Gaussian envelope in x.
        hat_log_amp = log_amp + 0.5 * math.log(np.pi / a)
        norm_fhat = poly_gaussian_lr_norm(hat_poly, np.pi**2 / a, hat_log_amp, q)
    return norm_fhat, sharp_constant(p) * norm_f


def lemma_A_check(zeta: complex, x: complex) -> tuple[complex, complex]:
    """(96-node quadrature, closed form) of E_y exp(zeta (x + i y)) = exp(zeta x - zeta^2/2)."""
    r = gh_rule(96)
    zeta = complex(zeta)
    x = complex(x)
    quad_val = complex(np.dot(r.weights, np.exp(zeta * (x + 1j * r.nodes))))
    closed = complex(np.exp(zeta * x - zeta * zeta / 2.0))
    return quad_val, closed


def lemma_F_check(t: complex, p: float, u: float) -> tuple[complex, complex]:
    """Fourier image of one modulated Gaussian: quadrature vs closed form.

    Left: int exp(-pi x^2 + t sqrt(2 pi p) x - t^2/2) exp(-2 pi i u x) dx by
    recentred 96-node quadrature.  Right: exp(-i sqrt(2 pi p) t u + t^2 (p/q)/2 - pi u^2)
    with q the conjugate exponent.
    """
    q = conjugate_exponent(p)
    r = gh_rule(96)
    t = complex(t)
    b = t * math.sqrt(2.0 * np.pi * p) - 2.0j * np.pi * u
    quad_val = np.exp(-t * t / 2.0) * integrate_entire(
        lambda x: np.ones_like(x), np.pi, b, r
    )
    closed = np.exp(
        -1j * math.sqrt(2.0 * np.pi * p) * t * u + t * t * (p / q) / 2.0 - np.pi * u**2
    )
    return complex(quad_val), complex(closed)


class ExpFamily:
    """g(w) = sum_l c_l exp(t_l w), the exponential-class test functions."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: tuple[tuple[complex, complex], ...]):
        self.atoms = tuple((complex(c), complex(t)) for c, t in atoms)


def _exp_flow_factors(
    fam: ExpFamily, s: float, z: complex, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(R, C) with Phi_s(x_i, u_j) = (R @ C)[i, j] on the nodes, one column of R per atom.

    R[i, l] = c_l exp(zx_l x_i - zx_l^2 / 2 - k_l) and C[l, j] =
    exp(zu_l u_j - zu_l^2 / 2 + k_l), zx_l = t_l sqrt(s), zu_l = t_l z sqrt(1-s).
    The real shift k_l splits the largest real exponent of each atom evenly
    between its two factors, so neither overflows where their product
    (Phi_s(x_i, u_j) formed with one exp per atom) stays in range.
    """
    amps = np.array([c for c, _ in fam.atoms])
    freqs = np.array([t for _, t in fam.atoms])
    zx, zu = freqs * math.sqrt(s), freqs * z * math.sqrt(1.0 - s)
    left = nodes[:, None] * zx - zx * zx / 2.0
    right = zu[:, None] * nodes - (zu * zu / 2.0)[:, None]
    shift = 0.5 * (left.real.max(axis=0) - right.real.max(axis=1))
    return amps * np.exp(left - shift), np.exp(right + shift[:, None])


def exp_flow_phi(fam: ExpFamily, p: float, s_grid: Sequence[float] | None = None) -> FlowReport:
    """The exponential-family flow phi_exp(s) = E_x (E_u |Phi_s(x,u)|^q)^{p/q}.

    Damping is z = i sqrt(p/q); the inner average runs over the z-coupled
    variable and the outer over the sqrt(s)-coupled one, matching the flow's
    displayed nesting.  At interior s each grid is the rank-L table of
    _exp_flow_factors, cut as the Janson grids are (flows._grid_norm).  At
    s = 0, 1 the flow is a one-variable average, an atom norm
    (atom_lr_estimate) on panels graded toward the zeros, where |.|^r is
    kinked.  The endpoint
    comparison phi_exp(0) <= phi_exp(1) is left to the caller; a non-finite
    endpoint raises AccuracyError.  The report's diagnostics give, over
    every interior grid formed (none: no entry), the largest certified
    relative bound of the dropped cells (tail_bound) and the share of cells
    kept (cells_kept_share), and every interior s whose doubling stopped at
    its cap unconverged and every end whose error estimate exceeds
    gaussian_atoms.LR_RTOL (cap_hits).
    """
    q = conjugate_exponent(p)
    z = 1j * math.sqrt(p / q)
    grid = default_s_grid() if s_grid is None else np.asarray(list(s_grid), dtype=float)
    stats: dict[float, OuterStats] = {}

    @functools.cache  # the ends are asked for twice: on the grid and for the finiteness check
    def value_at(s: float) -> float:
        st = stats[s] = OuterStats()
        if not fam.atoms:
            return 0.0
        # the ends degenerate to one-variable averages E|h(G)|^r of
        # h = sum_l c_l exp(w_l y - w_l^2 / 2), with w_l = t_l at s = 1 (r = p)
        # and t_l z at s = 0 (r = q); E|h(G)|^r = (2 pi)^(-1/2) ||h exp(-y^2/2r)||_r^r,
        # an atom norm, and phi = (E|h(G)|^r)^(p/r)
        if s in (0.0, 1.0):
            r, scale = (p, 1.0) if s == 1.0 else (q, z)
            freqs = [(c, t * scale) for c, t in fam.atoms]
            atoms = [GaussianAtom(c * np.exp(-w * w / 2.0), 1.0 / (2.0 * r), w) for c, w in freqs]
            est = atom_lr_estimate(atoms, r)
            st.capped = not est.converged
            with np.errstate(over="ignore"):
                return float(np.float64(est.value) ** p * (2.0 * math.pi) ** (-p / (2.0 * r)))

        def evaluate(r: QuadratureRule) -> float:
            return _grid_norm(*_exp_flow_factors(fam, s, z, r.nodes), r, p, q, st)

        return _auto_outer(evaluate, None, raise_on_failure=True, stats=st)

    values = [value_at(float(s)) for s in grid]
    phi0, phi1 = value_at(0.0), value_at(1.0)
    if not (math.isfinite(phi0) and math.isfinite(phi1)):
        raise AccuracyError(f"exponential flow endpoints are not finite: phi(0) = {phi0}, phi(1) = {phi1}")
    diagnostics = outer_diagnostics(sorted(stats.items()))
    return FlowReport(parameter_name="s", samples=tuple(zip(grid, values)), diagnostics=diagnostics)


def exp_family_final_atoms(fam: ExpFamily, p: float) -> list[GaussianAtom]:
    """The modulated-Gaussian family x -> exp(-pi x^2) sum_l c_l exp(t_l sqrt(2 pi p) x - t_l^2/2)."""
    out = []
    for c, t in fam.atoms:
        out.append(
            GaussianAtom(
                c * np.exp(-t * t / 2.0),
                np.pi,
                t * math.sqrt(2.0 * np.pi * p),
            )
        )
    return out


def hy_verify(fam: ExpFamily, p: float) -> tuple[float, float]:
    """Sharp transform bound for a modulated-Gaussian family with real frequencies.

    Returns (||Fhat||_q, (p^{1/p}/q^{1/q})^{1/2} ||F||_p); whether the first
    is at most the second is judged by the caller.  The transform is exact
    atom by atom; both norms are recentred quadratures.
    """
    q = conjugate_exponent(p)
    for _, t in fam.atoms:
        if abs(t.imag) > 1e-12:
            raise ValueError("final-form verification requires real frequencies t_l")
    if not fam.atoms:
        return 0.0, 0.0
    f_atoms = exp_family_final_atoms(fam, p)
    fhat_atoms = [fourier_transform_atom(atom) for atom in f_atoms]
    return atom_lp_norm(fhat_atoms, q), sharp_constant(p) * atom_lp_norm(f_atoms, p)

"""The sharp Hausdorff-Young pipeline.

For 1 < p <= 2 and conjugate q = p/(p-1), the interpolation map

    phi(s) = ( J(s) * p^{1/2} / q^{p/2q} )^{1/p},     z = i sqrt(p-1),

bridges the Fourier side and the function side: phi(0) = ||fhat||_q and
phi(1) = (p^{1/p}/q^{1/q})^{1/2} ||f||_p under the substitution
g~(y) = f(y) exp(y^2/2p) (2 pi)^{1/2p}.  Monotonicity of J in s therefore
yields the sharp constant, with Gaussians as extremizers (constant flow).

phi is never computed from its literal definition (a Fourier transform at
complex-shifted arguments); it always goes through J, which has stable
evaluators: flows.janson_flow for a HermiteSeries g~, and for a GaussianAtom
f a closed form (_atom_flow), as |inner|^q is then the exponential of a
real quadratic form and both averages are Gaussian integrals.  phi_flow and
hy_endpoints take g~ or f itself and dispatch on its type.  The endpoint
identities *are* computed independently (hy_endpoints) so the bridge is
genuinely tested, not assumed.

The exponential-family route uses tilted exponentials instead of
polynomials: Phi_s(x, u) factorizes atom by atom, the flow value
phi_exp(s) = E_x ( E_u |Phi_s(x, u)|^q )^{p/q} satisfies
phi_exp(0) <= phi_exp(1), and unwinding the endpoint change of variables
gives the sharp inequality for sums of modulated Gaussians directly.
Here the damping is z = i sqrt(p/q).  Each route's q and z come from one
function, hy_exponents and exp_flow_exponents.
"""
from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import AccuracyError, DomainError
from .exponents import ExponentTriple, conjugate_exponent
from .gaussian_atoms import (
    GaussianAtom,
    _require_damping,
    atom_lp_norm,
    atom_lr_estimate,
    fourier_transform_atom,
    poly_gaussian_lr_norm,
)
from .hermite import HermiteSeries, PolySeries, basis_convert, heat_poly_series
from .quadrature import QuadratureRule, gh_rule, integrate_entire
from .reporting import FlowReport
from .flows import OuterStats, _auto_outer, _grid_norm, janson_flow, outer_diagnostics, s_samples


def sharp_constant(p: float) -> float:
    """(p^{1/p} / q^{1/q})^{1/2}, the best constant in ||fhat||_q <= C ||f||_p."""
    q = conjugate_exponent(p)
    return math.sqrt(p ** (1.0 / p) / q ** (1.0 / q))


GAUSSIAN_EXTREMIZER = GaussianAtom(1.0, np.pi, 0.0)  # f(y) = exp(-pi y^2), for every p


def hy_exponents(p: float) -> ExponentTriple:
    """(p, q, z) of the flow phi: q = p/(p-1) and z = i sqrt(p-1)."""
    return ExponentTriple(p, conjugate_exponent(p), 1j * math.sqrt(p - 1.0))


def exp_flow_exponents(p: float) -> ExponentTriple:
    """(p, q, z) of the exponential-family flow: q = p/(p-1) and z = i sqrt(p/q), a
    formula of its own: it rounds apart from hy_exponents' z at some p (1.81)."""
    q = conjugate_exponent(p)
    return ExponentTriple(p, q, 1j * math.sqrt(p / q))


def _g_tilde_atom(f: GaussianAtom, p: float) -> GaussianAtom:
    """g~(y) = f(y) exp(y^2/2p) (2 pi)^{1/2p}, again an atom."""
    scale = (2.0 * np.pi) ** (1.0 / (2.0 * p))
    return GaussianAtom(f.amplitude * scale, f.quad - 1.0 / (2.0 * p), f.lin)


def _sharp_sides(f_atoms: Sequence[GaussianAtom], t: ExponentTriple) -> tuple[float, float]:
    """(||Fhat||_q, C_p ||F||_p) of F = sum f_atoms: exact transforms, recentred norms."""
    fhat_atoms = [fourier_transform_atom(atom) for atom in f_atoms]
    return atom_lp_norm(fhat_atoms, t.q), sharp_constant(t.p) * atom_lp_norm(f_atoms, t.p)


def _log_gaussian_mean(a: float, b: float, s: float) -> float:
    """log E exp(a G^2 + b G) = b^2 / (2(1 - 2a)) - log(1 - 2a) / 2 for a standard normal G.

    Where 1 - 2a <= 0 the average diverges: DomainError names the flow parameter s.
    """
    spread = 1.0 - 2.0 * a
    if not spread > 0.0:
        raise DomainError(f"the atom flow's Gaussian average diverges at s = {s}")
    return b * b / (2.0 * spread) - 0.5 * math.log(spread)


def _atom_flow(atom: GaussianAtom, p: float, q: float, z: complex, s: float) -> float:
    """J(s) = E_u (E_x |inner(X)|^q)^{p/q} of one atom g~ in closed form, X = sqrt(s) u + z sqrt(1-s) x.

    The inner average is the atom's heat image at time t = (1-s)(1-z^2):
    amplitude d^{-1/2} exp((-quad X^2 + lin X + lin^2 t / 2) / d) with
    d = 1 + 2 quad t, regular at t = 0.  So |inner|^q is the exponential of
    a real quadratic form in (u, x), and both averages are Gaussian
    integrals (_log_gaussian_mean), taken in logs and exponentiated once.
    The heat image needs Re(quad + 1/(2t)) > 0 (DomainError otherwise).
    """
    t = 1.0 - (s + (1.0 - s) * z * z)
    if t != 0.0:
        _require_damping(atom.quad + 1.0 / (2.0 * t), "Mehler image of atom")
    if atom.amplitude == 0.0:
        return 0.0
    d = 1.0 + 2.0 * atom.quad * t
    c, e = -atom.quad / d, atom.lin / d
    rs, w = math.sqrt(s), z * math.sqrt(1.0 - s)
    # q log|inner| = log_c + a_uu u^2 + 2 a_ux u x + a_xx x^2 + b_u u + b_x x
    log_c = q * (math.log(abs(atom.amplitude)) - 0.5 * math.log(abs(d)) + (atom.lin**2 * t / (2.0 * d)).real)
    a_uu, a_ux, a_xx = q * s * c.real, q * rs * (c * w).real, q * (c * w * w).real
    b_u, b_x = q * rs * e.real, q * (e * w).real
    # log E_x |inner|^q at u is its value at u = 0 plus (2 a_ux u)(a_ux u + b_x) / (1 - 2 a_xx)
    log_x = log_c + _log_gaussian_mean(a_xx, b_x, s)
    spread, r = 1.0 - 2.0 * a_xx, p / q
    a_outer, b_outer = r * (a_uu + 2.0 * a_ux * a_ux / spread), r * (b_u + 2.0 * a_ux * b_x / spread)
    return math.exp(r * log_x + _log_gaussian_mean(a_outer, b_outer, s))


def phi_flow(p: float, g: HermiteSeries | GaussianAtom, s_grid: Sequence[float] | None = None) -> FlowReport:
    """phi(s) = (J(s) p^{1/2} / q^{p/2q})^{1/p} over the grid, (q, z) = hy_exponents(p).

    g is g~ as a HermiteSeries, or f as a GaussianAtom.  On the polynomial
    route J is flows.janson_flow of g~'s coefficients, with its spot checks
    (EvaluatorMismatchError) and its diagnostics (cap_hits, tail_bound,
    cells_kept_share).  The atom route (_atom_flow) forms no grid: its
    diagnostics are {"cap_hits": []}.  Any other g raises TypeError.
    """
    t = hy_exponents(p)
    grid = s_samples(s_grid)
    bridge = math.sqrt(p) / t.q ** (p / (2.0 * t.q))
    if isinstance(g, HermiteSeries):
        janson = janson_flow(PolySeries(g.coeffs), t, grid)
        j_values, diagnostics = janson.values, janson.diagnostics
    elif isinstance(g, GaussianAtom):
        atom = _g_tilde_atom(g, p)
        j_values = [_atom_flow(atom, p, t.q, t.z, float(s)) for s in grid]
        diagnostics = {"cap_hits": []}
    else:
        raise TypeError(f"phi_flow takes a HermiteSeries g~ or a GaussianAtom f, got {type(g).__name__}")
    values = [(j_val * bridge) ** (1.0 / p) for j_val in j_values]
    return FlowReport(parameter_name="s", samples=tuple(zip(grid, values)), diagnostics=diagnostics)


def hy_endpoints(p: float, g: HermiteSeries | GaussianAtom) -> tuple[float, float]:
    """(||fhat||_q,  (p^{1/p}/q^{1/q})^{1/2} ||f||_p), both by direct quadrature.

    g is g~ as a HermiteSeries, or f as a GaussianAtom (_sharp_sides); any
    other g raises TypeError.  The transform uses the convention
    fhat(x) = int f(y) exp(-2 pi i x y) dy.  The sharp inequality itself,
    first <= second, is judged by the caller.
    """
    t = hy_exponents(p)
    if isinstance(g, GaussianAtom):
        return _sharp_sides([g], t)
    if not isinstance(g, HermiteSeries):
        raise TypeError(f"hy_endpoints takes a HermiteSeries g~ or a GaussianAtom f, got {type(g).__name__}")
    poly = basis_convert(g)
    a = 1.0 / (2.0 * p)
    log_amp = -math.log(2.0 * np.pi) / (2.0 * p)
    norm_f = poly_gaussian_lr_norm(poly, a, log_amp, p)
    # fhat(x) = amp * sqrt(pi/a) * exp(c^2/4a) * (P_{1/2a} poly)(c/2a), c = -2 pi i x.
    evolved = heat_poly_series(1.0 / (2.0 * a), poly)
    hat_poly = PolySeries(evolved.coeffs * (-2.0j * np.pi / (2.0 * a)) ** np.arange(evolved.coeffs.size))
    # |exp(c^2/4a)| = exp(-pi^2 x^2 / a): a Gaussian envelope in x.
    hat_log_amp = log_amp + 0.5 * math.log(np.pi / a)
    norm_fhat = poly_gaussian_lr_norm(hat_poly, np.pi**2 / a, hat_log_amp, t.q)
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

    Damping is z = i sqrt(p/q) (exp_flow_exponents); the inner average runs
    over the z-coupled variable and the outer over the sqrt(s)-coupled one,
    matching the flow's displayed nesting.  At interior s each grid is the
    rank-L table of _exp_flow_factors, cut as the Janson grids are
    (flows._grid_norm).  At s = 0, 1 the flow is a one-variable average, an
    atom norm (atom_lr_estimate) on panels graded toward the zeros, where
    |.|^r is kinked.  The endpoint comparison phi_exp(0) <= phi_exp(1) is
    left to the caller; a non-finite endpoint raises AccuracyError.  The
    report's diagnostics give, over every interior grid formed (none: no
    entry), the largest certified relative bound of the dropped cells
    (tail_bound) and the share of cells kept (cells_kept_share), and every
    interior s whose doubling stopped at its cap unconverged and every end
    whose error estimate exceeds gaussian_atoms.LR_RTOL (cap_hits).
    """
    t = exp_flow_exponents(p)
    q, z = t.q, t.z
    grid = s_samples(s_grid)
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
    return [GaussianAtom(c * np.exp(-t * t / 2.0), np.pi, t * math.sqrt(2.0 * np.pi * p)) for c, t in fam.atoms]


def hy_verify(fam: ExpFamily, p: float) -> tuple[float, float] | None:
    """Sharp transform bound for the final form of a family: its modulated Gaussians.

    Returns (||Fhat||_q, (p^{1/p}/q^{1/q})^{1/2} ||F||_p) by _sharp_sides;
    whether the first is at most the second is judged by the caller.  A
    family with no atoms, or with a frequency t_l off the real line
    (|Im t_l| > 1e-12), has no final form: None.
    """
    t = exp_flow_exponents(p)
    if not fam.atoms or any(abs(freq.imag) > 1e-12 for _, freq in fam.atoms):
        return None
    return _sharp_sides(exp_family_final_atoms(fam, p), t)

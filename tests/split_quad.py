"""Split-quad references for the 1-D L^r norms: scipy's quad on pieces split
at the real zeros and the local minima of |h|.

Nothing here calls the package's quadrature.  The zeros of a real h are
bracketed on a fine grid and found by brentq; the local minima of |h| are
bracketed on the same grid and refined by a bounded minimization; quad then
integrates each piece to 2e-14 relative.  `atom_flow` nests quad twice for
the flow of one Gaussian atom, each integral split at the peak of its
integrand.  Not collected by pytest (no test_ prefix).
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.polynomial import hermite_e, polynomial
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq, minimize_scalar

from hypflow.gaussian_atoms import GaussianAtom
from hypflow.hausdorff_young import ExpFamily, _g_tilde_atom, conjugate_exponent, hy_exponents, sharp_constant


def _breakpoints(h, lo: float, hi: float) -> list[float]:
    grid = np.linspace(lo, hi, 20001)
    vals = h(grid)
    mag = np.abs(vals)
    points = []
    for i in np.flatnonzero((mag[1:-1] <= mag[:-2]) & (mag[1:-1] < mag[2:])) + 1:
        res = minimize_scalar(
            lambda x: abs(complex(h(np.array([x]))[0])), bounds=(grid[i - 1], grid[i + 1]),
            method="bounded", options={"xatol": 1e-13},
        )
        points.append(float(res.x))
    if np.all(vals.imag == 0.0):
        re = vals.real
        for i in np.flatnonzero(np.sign(re[:-1]) * np.sign(re[1:]) < 0):
            points.append(brentq(lambda x: float(h(np.array([x]))[0].real), grid[i], grid[i + 1], xtol=1e-15))
    return sorted(x for x in set(points) if lo < x < hi)


def abs_power_integral(h, r: float, lo: float, hi: float, log_weight) -> float:
    """The integral of |h(x)|^r exp(log_weight(x)) over [lo, hi], split at the zeros and minima of |h|."""
    edges = [lo, *_breakpoints(h, lo, hi), hi]

    def integrand(x: float) -> float:
        mag = abs(complex(h(np.array([x]))[0]))
        return math.exp(r * math.log(mag) + log_weight(x)) if mag > 0.0 else 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return sum(quad(integrand, a, b, epsabs=0.0, epsrel=2e-14, limit=500)[0] for a, b in zip(edges, edges[1:]))


def _log_gauss(x: float) -> float:
    return -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)


def exp_flow_ends(fam: ExpFamily, p: float) -> tuple[float, float]:
    """(phi_exp(0), phi_exp(1)): E|Phi_0(u)|^q to the power p/q, and E|Phi_1(x)|^p."""
    q = conjugate_exponent(p)
    z = 1j * math.sqrt(p / q)
    spread = 14.0 + 2.0 * q * max(abs(t) for _, t in fam.atoms)
    out = []
    for scale, r in ((z, q), (1.0, p)):
        freqs = [(c, t * scale) for c, t in fam.atoms]

        def h(x, freqs=freqs):
            return sum(c * np.exp(w * x - w * w / 2.0) for c, w in freqs)
        out.append(abs_power_integral(h, r, -spread, spread, _log_gauss))
    return out[0] ** (p / q), out[1]


def final_form(fam: ExpFamily, p: float) -> tuple[float, float]:
    """(||Fhat||_q, C_p ||F||_p) for F(x) = exp(-pi x^2) sum_l c_l exp(t_l sqrt(2 pi p) x - t_l^2 / 2).

    Fhat(xi) = sum_l c_l exp(-t_l^2 / 2) exp((b_l - 2 pi i xi)^2 / (4 pi)), b_l = t_l sqrt(2 pi p).
    """
    q = conjugate_exponent(p)
    amp = [c * np.exp(-t * t / 2.0) for c, t in fam.atoms]
    lin = [t * math.sqrt(2.0 * math.pi * p) for _, t in fam.atoms]
    centers = [b.real / (2.0 * math.pi) for b in lin]

    def f(x):
        return sum(a * np.exp(-math.pi * x * x + b * x) for a, b in zip(amp, lin))

    def fhat(xi):
        return sum(a * np.exp((b - 2j * math.pi * xi) ** 2 / (4.0 * math.pi)) for a, b in zip(amp, lin))

    flat = lambda x: 0.0  # noqa: E731 - Lebesgue measure
    norm_f = abs_power_integral(f, p, min(centers) - 10.0, max(centers) + 10.0, flat) ** (1.0 / p)
    norm_fhat = abs_power_integral(fhat, q, -10.0, 10.0, flat) ** (1.0 / q)
    return norm_fhat, sharp_constant(p) * norm_f


def atom_norm(atoms, r: float) -> float:
    """The L^r(R) norm of a sum of Gaussian atoms, on a window 12 standard deviations past every peak."""
    modes = [a.lin.real / (2.0 * a.quad.real) for a in atoms]
    reach = max(12.0 / math.sqrt(2.0 * r * a.quad.real) for a in atoms)

    def h(y):
        return sum(a(y) for a in atoms)

    return abs_power_integral(h, r, min(modes) - reach, max(modes) + reach, lambda x: 0.0) ** (1.0 / r)


def hermite_endpoints(p: float, coeffs) -> tuple[float, float]:
    """(||fhat||_q, C_p ||f||_p) for f(y) = g~(y) exp(-y^2 / 2p) (2 pi)^(-1/2p), g~ = sum_m a_m He_m.

    ||f||_p is integrated directly.  ||fhat||_q comes from the flow's s = 0
    identity: ||fhat||_q^p = J(0) sqrt(p) / q^(p/2q), with
    J(0) = (E|sum_m a_m z^m He_m(G)|^q)^(p/q) and z = i sqrt(p - 1).
    """
    q = conjugate_exponent(p)
    z = 1j * math.sqrt(p - 1.0)
    a = np.asarray(coeffs, dtype=complex)
    f1 = hermite_e.herme2poly(a)
    f0 = hermite_e.herme2poly(a * z ** np.arange(a.size))

    def poly(c):
        c = c.real if np.all(c.imag == 0.0) else c
        return lambda x: polynomial.polyval(x, c)

    # |f|^p = |g~|^p times the Gaussian density
    norm_f = abs_power_integral(poly(f1), p, -40.0, 40.0, _log_gauss) ** (1.0 / p)
    j0 = abs_power_integral(poly(f0), q, -40.0, 40.0, _log_gauss) ** (p / q)
    return (j0 * math.sqrt(p) / q ** (p / (2.0 * q))) ** (1.0 / p), sharp_constant(p) * norm_f


def _log_peak_integral(log_f) -> float:
    """The log of the integral of exp(log_f) over R, for a unimodal log_f.

    The peak comes from Brent's method; the window reaches, doubling, until
    log_f is 80 below the peak on each side, and quad integrates each half.
    """
    mode = minimize_scalar(lambda x: -log_f(x), bracket=(-1.0, 1.0), tol=1e-12).x
    top = log_f(mode)
    total = 0.0
    for side in (-1.0, 1.0):
        reach = 1.0
        while log_f(mode + side * reach) > top - 80.0:
            reach *= 2.0
        total += quad(lambda x: math.exp(log_f(x) - top), *sorted((mode, mode + side * reach)),
                      epsabs=0.0, epsrel=2e-14, limit=500)[0]
    return top + math.log(total)


def atom_flow(p: float, f: GaussianAtom, s: float) -> float:
    """phi(s) of an atom input f at interior s, by quad nested in x and u.

    J(s) = E_u (E_x |inner(X)|^q)^{p/q}, X = sqrt(s) u + z sqrt(1-s) x, with
    inner the Mehler-kernel image of g~ in its completed-square form:
    amplitude sqrt(s_k / A) exp(B^2 / 4A - s_k X^2), s_k = 1 / (2 (1 - sigma)),
    A = quad + s_k, B = lin + 2 s_k X, sigma = s + (1 - s) z^2.
    """
    t = hy_exponents(p)
    q, z = t.q, t.z
    atom = _g_tilde_atom(f, p)
    s_k = 1.0 / (2.0 * (1.0 - (s + (1.0 - s) * z * z)))
    big_a = atom.quad + s_k
    log_amp = math.log(abs(atom.amplitude)) + 0.5 * math.log(abs(s_k / big_a))
    rs, w = math.sqrt(s), z * math.sqrt(1.0 - s)

    def log_inner(big_x: complex) -> float:
        big_b = atom.lin + 2.0 * s_k * big_x
        return log_amp + (big_b * big_b / (4.0 * big_a) - s_k * big_x * big_x).real

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)

        def log_moment(u: float) -> float:  # log E_x |inner|^q at u
            return _log_peak_integral(lambda x: q * log_inner(rs * u + w * x) + _log_gauss(x))

        log_j = _log_peak_integral(lambda u: (p / q) * log_moment(u) + _log_gauss(u))
    bridge = math.sqrt(p) / q ** (p / (2.0 * q))
    return math.exp((log_j + math.log(bridge)) / p)

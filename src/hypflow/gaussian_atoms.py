"""Closed-form algebra for Gaussian atoms c * exp(-alpha*y^2 + beta*y).

Atoms are the exponential-class test functions of the sharp Hausdorff-Young
pipeline: the tilted exponentials exp(zeta*x - zeta^2/2) are atoms with
alpha = 0, and Gaussian extremizers are atoms with beta = 0.  All the
Gaussian integrals an atom meets (average against dgamma, Mehler image,
Fourier transform) complete the square and stay in the atom class.

Every closed form requires the effective quadratic coefficient to have real
part > DOMAIN_EPS; below that the defining integral diverges (or is too
close to divergence to trust), and a DomainError is raised rather than
silently falling back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .quadrature import QuadratureRule, doubled

DOMAIN_EPS = 1e-12


@dataclass(frozen=True)
class GaussianAtom:
    """y -> amplitude * exp(-quad * y^2 + lin * y), all parameters complex."""

    amplitude: complex
    quad: complex
    lin: complex

    def __call__(self, y):
        y = np.asarray(y, dtype=complex)
        return self.amplitude * np.exp(-self.quad * y * y + self.lin * y)


def exp_tilt(zeta: complex) -> GaussianAtom:
    """The tilted exponential x -> exp(zeta*x - zeta^2/2) as an atom."""
    zeta = complex(zeta)
    return GaussianAtom(np.exp(-zeta * zeta / 2.0), 0.0, zeta)


def _require_damping(coeff: complex, what: str) -> None:
    if coeff.real <= DOMAIN_EPS:
        raise DomainError(
            f"{what} diverges: Re(effective quadratic coefficient) = {coeff.real:.3e} <= {DOMAIN_EPS}"
        )


def gamma_integral(atom: GaussianAtom) -> complex:
    """E[atom(G)] for standard Gaussian G, in closed form."""
    a_eff = atom.quad + 0.5
    _require_damping(a_eff, "Gaussian average of atom")
    return complex(atom.amplitude * np.exp(atom.lin**2 / (4.0 * a_eff)) / np.sqrt(2.0 * a_eff))


def smooth_imaginary(atom: GaussianAtom, t_squared: complex) -> GaussianAtom:
    """E_v[atom(A + i*t*v)] as an atom in A, for standard Gaussian v.

    Only t^2 enters (the Gaussian is symmetric), so the parameter is passed
    squared and no branch of t is chosen.  Requires Re(1 - 2*quad*t^2) > 0.
    """
    a, b, c = atom.quad, atom.lin, atom.amplitude
    d = 1.0 - 2.0 * a * t_squared
    _require_damping(d, "imaginary-direction Gaussian smoothing")
    amp = c / np.sqrt(d) * np.exp(-t_squared * b * b / (2.0 * d))
    return GaussianAtom(complex(amp), a / d, b / d)


def mehler_apply_atom(w: complex, atom: GaussianAtom, x: complex) -> complex:
    """Mehler image M_w atom evaluated at x, in closed form.

    Defined through the Gaussian kernel
        M_w f(x) = int f(y) exp(-(x*w - y)^2 / (2(1-w^2))) dy / sqrt(2 pi (1-w^2));
    completing the square gives the value below.  Requires
    Re(quad + 1/(2(1-w^2))) > 0, the convergence condition of the integral.
    """
    w = complex(w)
    if w * w == 1.0:
        raise ValueError("Mehler kernel is singular at w^2 = 1")
    return mehler_atom_scaled(w * w, atom, complex(x) * w)


def _mehler_atom_parts(sigma: complex, atom: GaussianAtom, arg):
    """(s_k / A, B^2/(4A) - s_k*arg^2) as in mehler_atom_scaled, sigma != 1."""
    s_k = 1.0 / (2.0 * (1.0 - sigma))
    big_a = atom.quad + s_k
    _require_damping(big_a, "Mehler image of atom")
    big_b = atom.lin + 2.0 * s_k * arg
    return s_k / big_a, big_b * big_b / (4.0 * big_a) - s_k * arg * arg


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
    ratio, expo = _mehler_atom_parts(sigma, atom, arg)
    return complex(atom.amplitude * np.sqrt(ratio) * np.exp(expo))


def mehler_atom_log_abs(sigma: complex, atom: GaussianAtom, arg: np.ndarray) -> np.ndarray:
    """log |mehler_atom_scaled(sigma, atom, arg)| over an argument array.

    The real part of log(amplitude * sqrt(s_k / A)) + B^2/(4A) - s_k*arg^2;
    the magnitude itself overflows where the image grows like exp(+c arg^2).
    """
    sigma = complex(sigma)
    with np.errstate(divide="ignore"):  # a zero atom has log-magnitude -inf
        log_amp = np.log(abs(atom.amplitude))
    if sigma == 1.0:
        return log_amp + np.real(-atom.quad * arg * arg + atom.lin * arg)
    ratio, expo = _mehler_atom_parts(sigma, atom, arg)
    return log_amp + 0.5 * math.log(abs(ratio)) + np.real(expo)


def fourier_transform_atom(atom: GaussianAtom) -> GaussianAtom:
    """ahat(xi) = int atom(y) exp(-2 pi i xi y) dy, again a Gaussian atom.

    Completing the square in int exp(-a y^2 + (b - 2 pi i xi) y) dy gives
    amplitude' = amplitude * sqrt(pi/a) * exp(b^2/(4a)),
    quad' = pi^2 / a,  lin' = -pi i b / a.
    """
    a, b, c = atom.quad, atom.lin, atom.amplitude
    _require_damping(a, "Fourier transform of atom")
    amp = c * np.sqrt(np.pi / a) * np.exp(b * b / (4.0 * a))
    return GaussianAtom(complex(amp), np.pi**2 / a, -1.0j * np.pi * b / a)


def recentred_lr_norm(
    log_abs: Callable[[np.ndarray], np.ndarray],
    center: float,
    decay: float,
    r: float,
) -> float:
    """L^r(R) norm of h, given log|h| (-inf at zeros), by recentred quadrature.

    |h|^r must decay at least like exp(-r*decay*(y - center)^2), decay > 0.
    The rule's weight is that envelope widened by half,
    exp(-r*decay*(y - center)^2 / 2), so the integrand keeps strict Gaussian
    decay relative to it; the rule is doubled from 64 nodes up to 512
    until two values agree to 1e-11.
    """
    scale = np.sqrt(r * decay)

    def moment(rule: QuadratureRule) -> float:
        y = center + rule.nodes / scale
        vals = np.exp(r * log_abs(y) + 0.5 * rule.nodes**2)
        return float(np.sqrt(2.0 * np.pi) / scale * np.dot(rule.weights, vals))

    return doubled(moment, 64, 512, 1e-11).value ** (1.0 / r)


def atom_lp_norm(atoms: Sequence[GaussianAtom], r: float) -> float:
    """L^r(R) norm of a finite sum of Gaussian atoms, by recentred_lr_norm.

    The envelope is the slowest-decaying atom, centred midway between the
    atoms' peaks.
    """
    if r < 1.0:
        raise ValueError("norm exponent must be >= 1")
    if not atoms:
        return 0.0
    decay = min(atom.quad.real for atom in atoms)
    if decay <= DOMAIN_EPS:
        raise DomainError("atom sum is not integrable: an atom has Re(quad) <= 0")
    peaks = [atom.lin.real / (2.0 * atom.quad.real) for atom in atoms]

    def log_abs(y: np.ndarray) -> np.ndarray:
        # the largest per-atom real exponent is factored out before
        # exponentiation, so huge amplitudes (e.g. Fourier images) never overflow
        expos = np.stack([(-atom.quad * y * y + atom.lin * y) for atom in atoms])
        peak = np.max(expos.real, axis=0)
        reduced = np.zeros(y.shape, dtype=complex)
        for atom, expo in zip(atoms, expos):
            reduced += atom.amplitude * np.exp(expo - peak)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(reduced)) + peak

    return recentred_lr_norm(log_abs, 0.5 * (min(peaks) + max(peaks)), decay, r)

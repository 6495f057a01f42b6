"""Closed-form algebra for Gaussian atoms c * exp(-alpha*y^2 + beta*y).

Atoms are the exponential-class test functions of the sharp Hausdorff-Young
pipeline: the tilted exponentials exp(zeta*x - zeta^2/2) are atoms with
alpha = 0, and Gaussian extremizers are atoms with beta = 0.  All the
Gaussian integrals an atom meets (Mehler image, Fourier transform)
complete the square and stay in the atom class.

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


def _require_damping(coeff: complex, what: str) -> None:
    if coeff.real <= DOMAIN_EPS:
        raise DomainError(
            f"{what} diverges: Re(effective quadratic coefficient) = {coeff.real:.3e} <= {DOMAIN_EPS}"
        )


def _mehler_atom_parts(sigma: complex, atom: GaussianAtom, arg):
    """(s_k / A, B^2/(4A) - s_k*arg^2) for the composite M_{sqrt(sigma)} atom (arg / sqrt(sigma)).

    Written out, the square root of sigma cancels: with
    s_k = 1/(2(1-sigma)), A = quad + s_k, B = lin + 2*s_k*arg, the image is

        amplitude * sqrt(s_k / A) * exp(B^2/(4A) - s_k*arg^2),

    which depends on sigma alone; sigma = 1 (the identity) is excluded.
    Requires Re(A) > DOMAIN_EPS, the convergence condition of the Mehler
    kernel integral.
    """
    s_k = 1.0 / (2.0 * (1.0 - sigma))
    big_a = atom.quad + s_k
    _require_damping(big_a, "Mehler image of atom")
    big_b = atom.lin + 2.0 * s_k * arg
    return s_k / big_a, big_b * big_b / (4.0 * big_a) - s_k * arg * arg


def mehler_atom_log_abs(sigma: complex, atom: GaussianAtom, arg: np.ndarray) -> np.ndarray:
    """log |M_{sqrt(sigma)} atom (arg / sqrt(sigma))| over an argument array.

    The real part of log(amplitude * sqrt(s_k / A)) + B^2/(4A) - s_k*arg^2
    (see _mehler_atom_parts); the magnitude itself overflows where the
    image grows like exp(+c arg^2).
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

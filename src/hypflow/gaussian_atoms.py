"""Closed-form algebra for Gaussian atoms c * exp(-alpha*y^2 + beta*y).

Atoms are the exponential-class test functions of the sharp Hausdorff-Young
pipeline: the tilted exponentials exp(zeta*x - zeta^2/2) are atoms with
alpha = 0, and Gaussian extremizers are atoms with beta = 0.  All the
Gaussian integrals an atom meets (average against dgamma, Mehler image,
Fourier transform, Lebesgue integral) complete the square and stay in the
atom class.

Every closed form requires the effective quadratic coefficient to have real
part > DOMAIN_EPS; below that the defining integral diverges (or is too
close to divergence to trust), and a DomainError is raised rather than
silently falling back.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .quadrature import QuadratureRule, gh_rule

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


def lebesgue_integral(atom: GaussianAtom) -> complex:
    """int_R atom(y) dy, in closed form."""
    _require_damping(atom.quad, "Lebesgue integral of atom")
    return complex(
        atom.amplitude * np.sqrt(np.pi / atom.quad) * np.exp(atom.lin**2 / (4.0 * atom.quad))
    )


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


def _atom_sum_abs_pow_times_exp(
    atoms: Sequence[GaussianAtom], y: np.ndarray, r: float, extra_exponent: np.ndarray
) -> np.ndarray:
    """|sum_l atom_l(y)|^r * exp(extra_exponent), overflow-safe.

    The largest per-atom real exponent is factored out before
    exponentiation, so huge amplitudes (e.g. Fourier images) and the
    envelope-compensating exp(u^2/2) factor never overflow individually.
    """
    y = np.asarray(y, dtype=float)
    expos = np.stack([(-atom.quad * y * y + atom.lin * y) for atom in atoms])
    peak = np.max(expos.real, axis=0)
    reduced = np.zeros(y.shape, dtype=complex)
    for atom, expo in zip(atoms, expos):
        reduced += atom.amplitude * np.exp(expo - peak)
    mag = np.abs(reduced)
    out = np.zeros_like(mag)
    pos = mag > 0.0
    out[pos] = np.exp(r * (np.log(mag[pos]) + peak[pos]) + extra_exponent[pos])
    return out


def atom_lp_norm(
    atoms: Sequence[GaussianAtom],
    r: float,
    start: int = 64,
    cap: int = 512,
    rtol: float = 1e-11,
) -> float:
    """L^r(R) norm of a finite sum of Gaussian atoms, by recentred quadrature.

    The envelope is the slowest-decaying atom, widened by half so that the
    combined integrand keeps strict Gaussian decay relative to the rule's
    weight; the rule is doubled until the value stabilizes.
    """
    if r < 1.0:
        raise ValueError("norm exponent must be >= 1")
    if not atoms:
        return 0.0
    min_decay = min(atom.quad.real for atom in atoms)
    if min_decay <= DOMAIN_EPS:
        raise DomainError("atom sum is not integrable: an atom has Re(quad) <= 0")
    peaks = [atom.lin.real / (2.0 * atom.quad.real) for atom in atoms]
    center = 0.5 * (min(peaks) + max(peaks))
    envelope = 0.5 * r * min_decay
    scale = np.sqrt(2.0 * envelope)

    def moment(rule: QuadratureRule) -> float:
        y = center + rule.nodes / scale
        vals = _atom_sum_abs_pow_times_exp(atoms, y, r, 0.5 * rule.nodes**2)
        return float(np.sqrt(2.0 * np.pi) / scale * np.dot(rule.weights, vals))

    n = start
    prev = moment(gh_rule(n))
    while n < cap:
        n *= 2
        cur = moment(gh_rule(n))
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
            prev = cur
            break
        prev = cur
    return prev ** (1.0 / r)

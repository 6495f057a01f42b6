"""Identity checks and reference evaluations that only the tests use.

Each check evaluates both sides of one documented identity (Mehler kernel
and Fourier forms, heat flow by quadrature, Gaussian rotation, the block
convolution of phi_L, the mixed-moment identity, the exponential-flow
endpoints) and returns them for the caller to compare.  The reference
evaluations compute, by a route of their own, what code in the package
computes another way: the Mehler image of a Hermite series or of one
Gaussian atom, phi_L at a block point of the cube, the defining double
Gaussian average of an exponential family, and its flow Phi_s in closed
form with one exp per atom (phi_s_closed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hypflow.cube import log_binomial_weights, phi_symmetric
from hypflow.gaussian_atoms import (
    GaussianAtom,
    _require_damping,
    atom_lp_norm,
    fourier_transform_atom,
)
from hypflow.hausdorff_young import (
    ExpFamily,
    conjugate_exponent,
    exp_family_final_atoms,
    exp_flow_phi,
)
from hypflow.hermite import HermiteSeries, PolySeries, heat_poly_series
from hypflow.quadrature import QuadratureRule, integrate_entire


def mehler_apply_series(w: complex, gt: HermiteSeries) -> HermiteSeries:
    """Mehler semigroup on coefficients: a_ell -> w^ell a_ell, for |w| <= 1."""
    w = complex(w)
    if abs(w) > 1.0 + 1e-12:
        raise ValueError(f"Mehler parameter must satisfy |w| <= 1, got |w| = {abs(w)}")
    return HermiteSeries(gt.coeffs * w ** np.arange(gt.coeffs.size))


def mehler_atom_scaled(sigma: complex, atom: GaussianAtom, arg: complex) -> complex:
    """The composite M_{sqrt(sigma)} atom (arg / sqrt(sigma)), branch-free.

    It is the atom's heat image at time t = 1 - sigma, again an atom:
    (amplitude d^{-1/2} exp(lin^2 t / 2d), quad / d, lin / d) with
    d = 1 + 2 quad t, so sigma = 1 (t = 0) is the identity.  For t != 0 it
    requires Re(quad + 1/(2t)) > DOMAIN_EPS, the convergence condition of
    the Mehler kernel integral.
    """
    t = 1.0 - complex(sigma)
    if t != 0.0:
        _require_damping(atom.quad + 1.0 / (2.0 * t), "Mehler image of atom")
    d = 1.0 + 2.0 * atom.quad * t
    amp = atom.amplitude * np.sqrt(1.0 / d) * np.exp(atom.lin * atom.lin * t / (2.0 * d))
    return complex(GaussianAtom(amp, atom.quad / d, atom.lin / d)(complex(arg)))


def mehler_apply_atom(w: complex, atom: GaussianAtom, x: complex) -> complex:
    """Mehler image M_w atom evaluated at x, in closed form.

    Defined through the Gaussian kernel
        M_w f(x) = int f(y) exp(-(x*w - y)^2 / (2(1-w^2))) dy / sqrt(2 pi (1-w^2));
    completing the square gives mehler_atom_scaled(w^2, atom, x w).  Requires
    Re(quad + 1/(2(1-w^2))) > 0, the convergence condition of the integral.
    """
    w = complex(w)
    if w * w == 1.0:
        raise ValueError("Mehler kernel is singular at w^2 = 1")
    return mehler_atom_scaled(w * w, atom, complex(x) * w)


@dataclass(frozen=True)
class BlockCounts:
    """Counts of +1 coordinates in the two blocks split at index k."""

    k: int
    a: int
    b: int

    def validate(self, n: int) -> None:
        if not (0 <= self.k <= n and 0 <= self.a <= self.k and 0 <= self.b <= n - self.k):
            raise ValueError(f"invalid block counts {self} for n = {n}")


def block_sum(j: int, plus: int, minus: int) -> int:
    """e_j of `plus` entries +1 and `minus` entries -1, exactly: the t^j coefficient of (1+t)^plus (1-t)^minus."""
    return sum(math.comb(plus, i) * math.comb(minus, j - i) * (-1) ** (j - i) for i in range(j + 1))


def phi_block_eval(ell: int, n: int, counts: BlockCounts, z: complex) -> complex:
    """phi_ell at the block point (x'/sqrt(n), z x''/sqrt(n)) with given counts.

    Any representative with `a` of +1 among the first k coordinates and `b`
    of +1 among the rest gives the same value,

        ell! n^{-ell/2} sum_m z^m E_{ell-m}(a, k-a) E_m(b, n-k-b),

    with the block sums E_j = block_sum taken in Python integers, so only
    the powers of z and the final scaling are rounded.
    """
    counts.validate(n)
    first = [block_sum(j, counts.a, counts.k - counts.a) for j in range(ell + 1)]
    second = [block_sum(m, counts.b, n - counts.k - counts.b) for m in range(ell + 1)]
    total = sum(complex(z) ** m * (first[ell - m] * second[m]) for m in range(ell + 1))
    return complex(math.factorial(ell) * total / math.sqrt(n) ** ell)


def _exp_family_value(fam: ExpFamily, w) -> np.ndarray:
    """g(w) = sum_l c_l exp(t_l w), elementwise."""
    w = np.asarray(w, dtype=complex)
    total = np.zeros_like(w)
    for c, t in fam.atoms:
        total = total + c * np.exp(t * w)
    return total


def phi_s_closed(fam: ExpFamily, s: float, z: complex, x, u) -> np.ndarray:
    """Phi_s(x, u) = sum_l c_l A_{t_l sqrt(s)}(x) A_{t_l z sqrt(1-s)}(u), one exp per atom."""
    x = np.asarray(x, dtype=complex)
    u = np.asarray(u, dtype=complex)
    rs, rc = math.sqrt(s), math.sqrt(1.0 - s)
    total = np.zeros(np.broadcast(x, u).shape, dtype=complex)
    for c, t in fam.atoms:
        zx = t * rs
        zu = t * z * rc
        total = total + c * np.exp(zx * x - zx * zx / 2.0 + zu * u - zu * zu / 2.0)
    return total


def exp_family_double_average(
    fam: ExpFamily, s: float, z: complex, x: complex, u: complex, rule: QuadratureRule
) -> complex:
    """Phi_s(x, u) as the defining double Gaussian average of the family g."""
    rs, rc = math.sqrt(s), math.sqrt(1.0 - s)
    y = rule.nodes[:, None]
    v = rule.nodes[None, :]
    vals = _exp_family_value(fam, (x + 1j * y) * rs + z * (u + 1j * v) * rc)
    return complex(rule.weights @ vals @ rule.weights)


def lebesgue_integral(atom: GaussianAtom) -> complex:
    """int_R atom(y) dy, in closed form."""
    _require_damping(atom.quad, "Lebesgue integral of atom")
    return complex(
        atom.amplitude * np.sqrt(np.pi / atom.quad) * np.exp(atom.lin**2 / (4.0 * atom.quad))
    )


def mehler_kernel_check(
    w: complex, gt: HermiteSeries, x: complex, rule: QuadratureRule
) -> tuple[complex, complex]:
    """(series value, kernel-integral value) of the Mehler action at x.

    The kernel form is int g~(y) exp(-(x*w - y)^2 / (2*(1-w^2))) dy
    normalized by sqrt(2*pi*(1-w^2)); it converges for |w| < 1 and is
    evaluated by recentred quadrature with the complex-variance Gaussian.
    The caller asserts agreement of the two returned values.
    """
    w = complex(w)
    if w * w == 1.0:
        raise ValueError("kernel form is singular at w^2 = 1; use the series form")
    series_val = complex(mehler_apply_series(w, gt)(x))
    a = 1.0 / (2.0 * (1.0 - w * w))
    b = 2.0 * a * x * w
    integral = integrate_entire(gt, a, b, rule)
    kernel_val = np.exp(-a * (x * w) ** 2) / np.sqrt(2.0 * np.pi * (1.0 - w * w)) * integral
    return series_val, complex(kernel_val)


def mehler_fourier_check(
    w: complex, h: HermiteSeries, x: float, rule: QuadratureRule
) -> tuple[complex, complex]:
    """Mehler action versus its Fourier-transform expression.

    With the transform convention fhat(xi) = int f(y) exp(-2*pi*i*xi*y) dy,
    the Mehler image satisfies

        M_w h(x) = exp(-x^2 w^2 / (2(1-w^2))) / sqrt(2*pi*(1-w^2))
                   * (h * exp(-y^2/(2(1-w^2))))^hat ( -x*w / (2*pi*i*(1-w^2)) ).

    The left value is the coefficient-map series; the right value evaluates
    the transform at the complex frequency by Gaussian-damped quadrature.
    """
    w = complex(w)
    if w * w == 1.0:
        raise ValueError("Fourier form is singular at w^2 = 1")
    lhs = complex(mehler_apply_series(w, h)(x))
    one_minus = 1.0 - w * w
    freq = -x * w / (2.0j * np.pi * one_minus)
    damped_transform = integrate_entire(h, 1.0 / (2.0 * one_minus), -2.0j * np.pi * freq, rule)
    rhs = np.exp(-(x**2) * w * w / (2.0 * one_minus)) / np.sqrt(2.0 * np.pi * one_minus)
    return lhs, complex(rhs * damped_transform)


def heat_quadrature(s: float, f, x: float, rule: QuadratureRule) -> complex:
    """P_s f (x) for real s > 0 by the substitution t = x + sqrt(s) u.

    Only the real-time numeric path lives here; complex times go through
    hermite.heat_poly_series.
    """
    if not (np.isreal(s) and float(np.real(s)) > 0.0):
        raise ValueError(f"heat_quadrature requires real s > 0, got {s}")
    s = float(np.real(s))
    vals = f(x + np.sqrt(s) * rule.nodes)
    return complex(np.dot(rule.weights, vals))


def gaussian_rotation_check(
    p: PolySeries, z1: complex, z2: complex, rule: QuadratureRule
) -> tuple[complex, complex]:
    """Two evaluations of E_u E_v P(z1*u + z2*v) that must agree.

    Left: double quadrature over independent Gaussians (exact when the rule
    covers deg P).  Right: moment expansion of E P(x*sqrt(z1^2+z2^2)), where
    only integer powers of z1^2 + z2^2 appear, so no square-root branch is
    involved; this equals the heat flow of P at time z1^2+z2^2 evaluated
    at 0.
    """
    u = rule.nodes[:, None]
    v = rule.nodes[None, :]
    grid = p(z1 * u + z2 * v)
    lhs = complex(rule.weights @ grid @ rule.weights)
    rhs = complex(heat_poly_series(z1 * z1 + z2 * z2, p)(0.0))
    return lhs, rhs


def binomial_split_check(big_l: int, k: int, x, z: complex) -> tuple[complex, complex]:
    """Both sides of the block convolution identity for phi_L.

    Left: phi_L(x_1..x_k, z*x_{k+1}..z*x_n) directly.  Right:
    sum_m binom(L,m) phi_{L-m}(x_1..x_k) phi_m(x_{k+1}..x_n) z^m, i.e. the
    first factor runs over the first block only.  The caller asserts
    equality.
    """
    x = np.asarray(x, dtype=complex).ravel()
    if not 0 <= k <= x.size:
        raise ValueError("split index out of range")
    scaled = np.concatenate((x[:k], complex(z) * x[k:]))
    lhs = phi_symmetric(big_l, scaled)
    rhs = 0.0 + 0.0j
    for m in range(big_l + 1):
        rhs += (
            math.comb(big_l, m)
            * phi_symmetric(big_l - m, x[:k])
            * phi_symmetric(m, x[k:])
            * complex(z) ** m
        )
    return lhs, rhs


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


def exp_phi_endpoint_identities(fam: ExpFamily, p: float) -> dict:
    """Endpoint values of the exponential flow against their change-of-variable forms.

    phi_exp(1) = sqrt(p) ||F||_p^p and phi_exp(0) = sqrt(q)^{p/q} ||Fhat||_q^p,
    where F is the modulated-Gaussian family and Fhat its transform (closed
    form per atom).  Returns all four numbers for the caller to compare.
    """
    q = conjugate_exponent(p)
    report = exp_flow_phi(fam, p, s_grid=[0.0, 1.0])
    phi0, phi1 = report.values
    f_atoms = exp_family_final_atoms(fam, p)
    fhat_atoms = [fourier_transform_atom(atom) for atom in f_atoms]
    phi1_cov = math.sqrt(p) * atom_lp_norm(f_atoms, p) ** p if f_atoms else 0.0
    phi0_cov = math.sqrt(q) ** (p / q) * atom_lp_norm(fhat_atoms, q) ** p if f_atoms else 0.0
    return {
        "phi0": phi0,
        "phi1": phi1,
        "phi0_change_of_variables": phi0_cov,
        "phi1_change_of_variables": phi1_cov,
    }

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

recentred_lr_norm is the one engine for 1-D L^r norms: Gauss-Legendre
panels over a window, graded geometrically toward the zeros of h near the
real line, where |h|^r is kinked (the hp treatment of algebraic
singularities; Schwab, p- and hp-Finite Element Methods, 1998, section 4.5).
Atom sums (atom_lr_estimate, atom_lp_norm) and a polynomial times a
Gaussian (poly_gaussian_lr_norm) feed it their zeros, window and tail bound.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, DomainError
from .quadrature import Estimate

DOMAIN_EPS = 1e-12


class GaussianAtom(NamedTuple):
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


# The 1-D L^r engine.  Each panel is integrated by two Gauss-Legendre rules;
# the gap between them is the panel's error estimate.
_PANEL_RULES = (16, 24)
_GRADING = 0.25  # width ratio of successive panels toward a singular point
_LEVELS = 8  # graded panels on each side of one
_PANEL_SDS = 3.0  # widest panel, in standard deviations of |h|^r's envelope or beats
_TAIL_LOG = 75.0  # the window ends where the majorant is e^-75 below the peak of |h|^r
LR_RTOL = 1e-10  # largest relative error estimate of a resolved integral of |h|^r
_GRADES = _GRADING ** np.arange(_LEVELS + 1.0)
_GRADES = np.concatenate((-_GRADES, [0.0], _GRADES[::-1]))
_legendre_rule = lru_cache(maxsize=None)(leggauss)  # (nodes, weights) on [-1, 1]


def _panel_edges(lo: float, hi: float, points: np.ndarray, width: float) -> np.ndarray:
    """Edges of panels at most `width` wide over [lo, hi], graded toward each point.

    Around a point c the edges are c +- d * _GRADING^k, k = 0.._LEVELS, and c
    itself, with d at most half the distance to the next point or window end;
    the plain edges inside those reaches are dropped.
    """
    edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / width)) + 1)
    points = np.sort(points[(points > lo) & (points < hi)])
    if points.size:
        gaps = np.diff(np.concatenate(([lo], points, [hi])))
        reach = np.minimum(np.minimum(gaps[:-1], gaps[1:]) / 2.0, width)
        near = (np.abs(edges[:, None] - points) < reach).any(axis=1)
        graded = points[:, None] + reach[:, None] * _GRADES
        edges = np.sort(np.concatenate((edges[~near], graded.ravel())))
        edges = edges[np.concatenate(([True], np.diff(edges) > 0.0))]
    return edges


def recentred_lr_norm(
    log_abs: Callable[[np.ndarray], np.ndarray],
    r: float,
    window: tuple[float, float],
    points: np.ndarray,
    width: float,
    log_tail: float,
) -> Estimate:
    """L^r(R) norm of h, given log|h| (-inf at zeros), on graded Gauss-Legendre panels.

    The panels cover the window, are at most `width` wide and are graded
    geometrically toward `points`, the real parts of the zeros of h near
    the real line, where |h|^r is kinked or nearly so.  log_tail bounds the
    log of the integral of |h|^r outside the window.  The largest r log|h|
    is factored out before exponentiation, so |h|^r may lie far outside
    float range.  The value is the norm from the 24-point rules.  The
    relative error estimate of the integral of |h|^r is the 16/24-point gap
    summed over panels, plus the tail bound; step is the error it gives the
    norm, and converged says whether it is at most LR_RTOL.  A NaN or
    infinite log|h| gives a NaN value, never converged; an h that is 0 at
    every node has norm 0.
    """
    edges = _panel_edges(*window, points, width)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    (x_coarse, w_coarse), (x_fine, w_fine) = (_legendre_rule(n) for n in _PANEL_RULES)
    y = np.concatenate([(mid[:, None] + half[:, None] * x).ravel() for x in (x_coarse, x_fine)])
    expo = r * log_abs(y)
    top = expo.max()
    if top == -math.inf:
        return Estimate(0.0, y.size, 0.0, True)
    vals = np.exp(expo - top)
    split = half.size * x_coarse.size
    coarse = half * (vals[:split].reshape(half.size, -1) @ w_coarse)
    fine = half * (vals[split:].reshape(half.size, -1) @ w_fine)
    total = fine.sum()
    rel = (np.abs(fine - coarse).sum() + np.exp(log_tail - top)) / total
    with np.errstate(over="ignore"):
        value = float(np.exp((top + np.log(total)) / r)) if total > 0.0 else math.nan
    return Estimate(value, y.size, float(value * rel / r), bool(rel <= LR_RTOL))


def _log_peak(log_abs, r: float, lo: float, hi: float, fallback: float) -> float:
    """The largest r log|h| on 257 points of [lo, hi], a lower bound on the log peak of |h|^r.

    `fallback` is returned where h vanishes at every point.
    """
    top = float(r * log_abs(np.linspace(lo, hi, 257)).max())
    return top if top > -math.inf else fallback


def _near_zeros(terms, lo: float, hi: float, spacing: float) -> np.ndarray:
    """Real parts of the zeros of h = sum_l h_l near [lo, hi], where |h|^r is singular.

    terms(y) gives the rows h_l(y) scaled by the largest |h_l(y)|, that
    log modulus and the rows h_l'(y) / h_l(y).  A scan at the given spacing
    finds the dips of |h| relative to its largest term, where the terms
    cancel; six Newton steps on h in the complex plane then take each to
    its zero.  A start whose iterate leaves the scan interval around it is
    kept as it was.
    """
    y = np.linspace(lo, hi, min(max(math.ceil((hi - lo) / spacing), 64), 1 << 16) + 1)
    with np.errstate(divide="ignore"):
        dips = np.log(np.abs(terms(y)[0].sum(axis=0)))
    left, mid, right = dips[:-2], dips[1:-1], dips[2:]
    # a dip is a minimum lower than one of its neighbours by more than rounding
    low = (mid <= left) & (mid < right) & (mid < np.maximum(left, right) - 1e-9)
    starts = y[np.flatnonzero(low) + 1]
    zeros = starts.astype(complex)
    with np.errstate(all="ignore"):
        for _ in range(6):
            scaled, _, slopes = terms(zeros)  # a common factor per point leaves h / h' alone
            zeros = zeros - scaled.sum(axis=0) / (slopes * scaled).sum(axis=0)
        settled = np.abs(zeros.real - starts) <= y[1] - y[0]
    return np.where(settled, zeros.real, starts)


def atom_lr_estimate(atoms: Sequence[GaussianAtom], r: float) -> Estimate:
    """The L^r(R) norm of a finite sum of Gaussian atoms, by recentred_lr_norm.

    The per-atom power-mean majorant |h|^r <= L^(r-1) sum_l |atom_l|^r is a
    sum of real Gaussians: the window reaches, for each atom, until its
    term of the majorant is e^-75 below the peak of |h|^r (_log_peak), and
    the majorant's mass outside it is the tail bound.  The panels are graded
    toward the zeros of h near the real line (_near_zeros), scanned at an
    eighth of the narrowest atom's standard deviation and at most a
    sixteenth of the shortest beat period of two atoms.  Zero atoms are
    dropped; a non-finite amplitude gives a NaN estimate.
    """
    if r < 1.0:
        raise ValueError("norm exponent must be >= 1")
    atoms = [atom for atom in atoms if atom.amplitude != 0.0]
    if not atoms:
        return Estimate(0.0, 0, 0.0, True)
    amp, quad, lin = (
        np.array([getattr(atom, name) for atom in atoms], dtype=complex)[:, None]
        for name in ("amplitude", "quad", "lin")
    )
    decay = quad.real.ravel()
    if decay.min() <= DOMAIN_EPS:
        raise DomainError("atom sum is not integrable: an atom has Re(quad) <= 0")
    if not np.isfinite(amp).all():
        return Estimate(math.nan, 0, math.nan, False)
    log_mod, phase = np.log(np.abs(amp)), amp / np.abs(amp)  # exact phases keep exact cancellations

    def terms(y):
        expo = log_mod - quad * y * y + lin * y
        top = expo.real.max(axis=0)
        return phase * np.exp(expo - top), top, lin - 2.0 * quad * y

    def log_abs(y):
        scaled, top, _ = terms(y)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(scaled.sum(axis=0))) + top

    # r Re e_l(y) = peak_l - r decay_l (y - mode_l)^2; the majorant's term l
    # is L^(r-1) times its exponential, and reaches e^-75 below the peak of
    # |h|^r, measured on the window where the largest term has fallen by e^-75
    mode = lin.real.ravel() / (2.0 * decay)
    peak = r * (log_mod.ravel() + decay * mode * mode)
    power_mean = (r - 1.0) * math.log(len(atoms))
    reach = np.sqrt(_TAIL_LOG / (r * decay))
    top = _log_peak(log_abs, r, (mode - reach).min(), (mode + reach).max(), peak.max())
    reach = np.sqrt(np.maximum(_TAIL_LOG + power_mean + peak - top, 1.0) / (r * decay))
    lo, hi = float((mode - reach).min()), float((mode + reach).max())
    # Mills' ratio: exp(peak - rate t^2) integrates over t > dist > 0 to at
    # most exp(peak - rate dist^2) / (2 rate dist)
    dist, rate = np.concatenate((mode - lo, hi - mode)), np.tile(r * decay, 2)
    tails = np.tile(peak, 2) - rate * dist * dist - np.log(2.0 * rate * dist)
    log_tail = power_mean + float(np.logaddexp.reduce(tails))
    # |h|^2 beats at up to `beat` radians per unit; |h|^r peaks at a beat's
    # maximum with standard deviation at least sqrt(2 / r) / beat
    beat = max(np.ptp(lin.imag) + 2.0 * np.ptp(quad.imag) * max(abs(lo), abs(hi)), 1e-300)
    spacing = min(1.0 / math.sqrt(2.0 * decay.max()), math.pi / beat) / 8.0
    width = _PANEL_SDS * min(1.0 / math.sqrt(2.0 * r * decay.max()), math.sqrt(2.0 / r) / beat)
    points = _near_zeros(terms, lo, hi, spacing)
    return recentred_lr_norm(log_abs, r, (lo, hi), points, width, log_tail)


def _resolved(est: Estimate, what: str) -> float:
    """est.value; AccuracyError if it is finite and its relative error estimate exceeds LR_RTOL.

    A value that is not finite is passed on: every check on it fails.
    """
    if math.isfinite(est.value) and not est.converged:
        raise AccuracyError(f"{what} is not resolved: {est.value!r} has error estimate {est.step:.3g}")
    return est.value


def poly_gaussian_lr_norm(poly, quad: float, log_amp: float, r: float) -> float:
    """L^r norm of y -> poly(y) * exp(log_amp - quad y^2), quad > 0, by recentred_lr_norm.

    poly is a callable polynomial with monomial coefficients poly.coeffs
    (hermite.PolySeries).  |poly|^r is kinked or nearly so only at the real parts of its near-real
    roots, so the panels are graded toward those.  With rho the largest root
    modulus, |poly(y)| <= |lead| (|y| + rho)^d gives the majorant of |h|^r:
    its log is concave with curvature below -2 r quad, so the window
    reaches past its mode until it is e^-75 below the peak of |h|^r
    (_log_peak), and the tangent there bounds the tail.  Raises
    AccuracyError when the error estimate exceeds LR_RTOL.
    """
    nonzero = np.flatnonzero(poly.coeffs)
    if not nonzero.size:
        return 0.0
    coeffs = poly.coeffs[: nonzero[-1] + 1]
    roots = np.roots(coeffs[::-1])
    degree, rho = coeffs.size - 1, float(np.abs(roots).max(initial=0.0))
    width = _PANEL_SDS / math.sqrt(2.0 * r * quad)

    def log_abs(y: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(poly(y))) + (log_amp - quad * y * y)

    def log_majorant(y: float) -> float:  # y >= 0
        growth = degree * math.log(y + rho) if degree else 0.0
        return r * (log_amp + math.log(abs(coeffs[-1])) + growth - quad * y * y)

    mode = 0.5 * (math.sqrt(rho * rho + 2.0 * degree / quad) - rho)
    edge = mode + math.sqrt(_TAIL_LOG / (r * quad))
    top = _log_peak(log_abs, r, -edge, edge, log_majorant(mode))
    edge = mode + math.sqrt((_TAIL_LOG + log_majorant(mode) - top) / (r * quad))
    slope = r * (2.0 * quad * edge - degree / (edge + rho))
    log_tail = log_majorant(edge) - math.log(0.5 * slope)
    points = roots.real[np.abs(roots.imag) < width]
    est = recentred_lr_norm(log_abs, r, (-edge, edge), points, width, log_tail)
    return _resolved(est, "L^r norm of a polynomial times a Gaussian")


def atom_lp_norm(atoms: Sequence[GaussianAtom], r: float) -> float:
    """L^r(R) norm of a finite sum of Gaussian atoms (atom_lr_estimate).

    Raises AccuracyError when its relative error estimate exceeds LR_RTOL.
    """
    return _resolved(atom_lr_estimate(atoms, r), "L^r norm of an atom sum")

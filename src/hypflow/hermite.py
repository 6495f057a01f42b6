"""Probabilists' Hermite polynomials, series algebra, scaled-Hermite sums, heat flow.

The Hermite normalization used everywhere is the probabilists' one,

    H_0 = 1,  H_1 = x,  H_{m+1} = x*H_m - m*H_{m-1},

which is the unique normalization matching the Gaussian-average definition
H_m(x) = E[(x + i*G)^m] for standard Gaussian G, with orthogonality
E[H_j H_k] = j! delta_{jk}.  The physicists' convention is deliberately not
exposed anywhere in the API.

Two coefficient containers are provided: PolySeries (monomial basis) and
HermiteSeries (Hermite basis).  Smoothing a polynomial against a Gaussian in
the imaginary direction, g~(x) = E[g(x + i*G)], turns monomial coefficients
into Hermite coefficients verbatim, so the two containers share their raw
storage layout and conversion between the bases is an exact triangular map.
"""
from __future__ import annotations

import math
from functools import lru_cache as _lru_cache
from typing import Union

import numpy as np
from numpy.polynomial import hermite_e as _herme
from numpy.polynomial import polynomial as _poly


def hermite_eval(ell: int, x: complex | np.ndarray) -> complex | np.ndarray:
    """H_ell(x) by the three-term recurrence; x may be complex or an array."""
    if ell < 0:
        raise ValueError("Hermite degree must be nonnegative")
    x = np.asarray(x)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for m in range(ell):
        prev, cur = cur, x * cur - m * prev
    return cur if cur.ndim else cur[()]


def hermite_scaled_sum(coeffs: np.ndarray, x: np.ndarray, sigma: complex) -> np.ndarray:
    """sum_ell c_ell h_ell(x; sigma), h_ell(x; sigma) = sigma^{ell/2} H_ell(x / sqrt(sigma)).

    One pass of the recurrence h_{m+1} = x*h_m - m*sigma*h_{m-1}, a
    polynomial in (x, sigma): no square root is taken, so sigma = 0 (or any
    complex sigma) is regular.
    """
    x = np.asarray(x, dtype=complex)
    out = np.zeros_like(x)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for m, c in enumerate(coeffs):
        if c != 0:
            out = out + c * cur
        prev, cur = cur, x * cur - m * sigma * prev
    return out


def _as_coeff_array(coeffs) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(coeffs, dtype=complex)).copy()
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficient list must be one-dimensional and nonempty")
    return arr


class PolySeries:
    """Complex polynomial in the monomial basis: sum_ell coeffs[ell] * x^ell."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = _as_coeff_array(coeffs)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        return _poly.polyval(np.asarray(x, dtype=complex), self.coeffs)


class HermiteSeries:
    """Complex series in the probabilists' Hermite basis: sum_ell coeffs[ell] * H_ell."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = _as_coeff_array(coeffs)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        return _herme.hermeval(np.asarray(x, dtype=complex), self.coeffs)


Series = Union[PolySeries, HermiteSeries]


@_lru_cache(maxsize=None)
def _conversion_matrix(size: int, to_hermite: bool) -> tuple[tuple[int, ...], ...]:
    """Exact integer change-of-basis matrix, as rows of Python ints.

    x^n = sum_j n! / ((n-2j)! j! 2^j) H_{n-2j} and H_n carries the same
    coefficients with alternating sign, so both matrices are integer.
    """
    mat = [[0] * size for _ in range(size)]
    for n in range(size):
        for j in range(n // 2 + 1):
            coeff = math.factorial(n) // (math.factorial(n - 2 * j) * math.factorial(j) * 2**j)
            mat[n - 2 * j][n] = coeff if to_hermite else coeff * (-1) ** j
    return tuple(tuple(row) for row in mat)


def _exact_matvec(mat: tuple[tuple[int, ...], ...], values: np.ndarray) -> np.ndarray:
    """mat @ values in exact arithmetic, each entry rounded once to float64.

    Every finite float is an integer over a power of two, so the inputs are
    scaled to integers over one common power of two; the integer sums are
    exact and int / int true division rounds correctly.  Non-finite inputs
    give the float product, and a sum beyond float range gives +-inf.
    """
    if not np.all(np.isfinite(values)):
        return np.array(mat, dtype=float) @ values
    ratios = [float(v).as_integer_ratio() for v in values]
    denom = max(d for _, d in ratios)
    nums = [n * (denom // d) for n, d in ratios]
    out = []
    for row in mat:
        total = sum(m * v for m, v in zip(row, nums) if m)
        try:
            out.append(total / denom)
        except OverflowError:
            out.append(math.inf if total > 0 else -math.inf)
    return np.array(out)


def _apply_conversion(coeffs: np.ndarray, to_hermite: bool) -> np.ndarray:
    mat = _conversion_matrix(coeffs.size, to_hermite)
    out = np.empty(coeffs.size, dtype=complex)
    out.real = _exact_matvec(mat, coeffs.real)
    out.imag = _exact_matvec(mat, coeffs.imag)
    return out


def basis_convert(series: Series) -> Series:
    """Exact change of basis: a PolySeries to Hermite coefficients, a
    HermiteSeries to monomial coefficients.

    Each output coefficient is the exact image of the inputs, rounded once
    to float64, on every platform (no extended precision is assumed).
    """
    if isinstance(series, PolySeries):
        return HermiteSeries(_apply_conversion(series.coeffs, True))
    return PolySeries(_apply_conversion(series.coeffs, False))


def gaussian_smooth(g: PolySeries) -> HermiteSeries:
    """g~(x) = E[g(x + i*G)]: monomial coefficients become Hermite coefficients.

    Term by term, E[(x + i*G)^ell] = H_ell(x), so the coefficient table is
    reused unchanged.
    """
    return HermiteSeries(g.coeffs.copy())


def heat_poly_series(s: complex, h: PolySeries) -> PolySeries:
    """Heat flow at complex time s on a polynomial, as a polynomial.

    P_s(x^m) = E[(x + sqrt(s)*G)^m] expands through Gaussian moments
    (odd vanish, E G^{2j} = (2j-1)!!), giving

        P_s(x^m) = sum_j  binom(m, 2j) (2j-1)!! s^j x^{m-2j},

    a polynomial in s: no square-root branch is ever exercised.
    """
    s = complex(s)
    src = h.coeffs
    out = np.zeros_like(src)
    for m in range(src.size):
        c = src[m]
        if c == 0:
            continue
        sj = 1.0 + 0.0j
        for j in range(m // 2 + 1):
            out[m - 2 * j] += c * math.comb(m, 2 * j) * _double_factorial_odd(j) * sj
            sj *= s
    return PolySeries(out)


def _double_factorial_odd(j: int) -> int:
    """(2j-1)!! with the empty-product convention (j=0 -> 1)."""
    val = 1
    for i in range(1, j + 1):
        val *= 2 * i - 1
    return val


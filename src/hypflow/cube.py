"""Function algebra on the Hamming cube {-1,1}^n.

Conventions
-----------
Points and Walsh subsets are both encoded as bitmasks in [0, 2^n).  Bit j of
a point mask corresponds to coordinate x_{j+1}, with bit 0 meaning x = +1 and
bit 1 meaning x = -1, so the Walsh character is

    W_S(x_m) = prod_{j in S} x_j = (-1)^{popcount(S & m)}.

The damping operator T_z^k multiplies the Walsh coefficient of S by
z^{|S & {k+1..n}|}, i.e. only the coordinates *after* the split index k are
damped; with the little-endian layout that intersection is just S >> k.

The symmetric functions phi_ell are ell! times the elementary symmetric
polynomials.  Functions of the form sum_ell a_ell phi_ell(x_1/sqrt(n), ...)
depend on a point only through block counts of +1 coordinates, which is what
lets the flow experiments reach n in the thousands: all norms collapse to
binomially-weighted tables over (count in first block, count in second
block).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

ENUMERATION_CAP = 24  # 2^n complex values; above this only collapsed inputs


def hadamard_transform(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterfly: out[m] = sum_S (-1)^{popcount(m&S)} v[S]."""
    size = values.size
    if size & (size - 1) or size == 0:
        raise ValueError(f"table length must be a power of two, got {size}")
    out = np.array(values, dtype=complex).reshape(size)
    scratch = np.empty(size // 2, dtype=complex)
    h = 1
    while h < size:
        # In place on the two halves of each butterfly, with one half-size
        # temporary for the differences.
        pairs = out.reshape(-1, 2, h)
        top, bot = pairs[:, 0, :], pairs[:, 1, :]
        diff = scratch.reshape(-1, h)
        np.subtract(top, bot, out=diff)
        top += bot
        bot[...] = diff
        h *= 2
    return out


class CubeFunction:
    """f: {-1,1}^n -> C stored through its Walsh coefficients fhat(S)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: np.ndarray):
        if not (1 <= n <= ENUMERATION_CAP):
            raise ValueError(f"dimension must be in [1, {ENUMERATION_CAP}], got {n}")
        arr = np.asarray(coeffs, dtype=complex)
        if arr.shape != (1 << n,):
            raise ValueError(f"coefficient table must have length 2^{n}")
        self.n = n
        self.coeffs = arr

    def values(self) -> np.ndarray:
        """Function values at all 2^n points (index = point mask)."""
        return hadamard_transform(self.coeffs)


def walsh_analyze(values: np.ndarray) -> CubeFunction:
    """Recover Walsh coefficients from the full value table (inverse synthesis)."""
    values = np.asarray(values, dtype=complex)
    size = values.size
    if size & (size - 1) or size < 2:
        raise ValueError(f"value table length must be a power of two >= 2, got {size}")
    n = size.bit_length() - 1
    return CubeFunction(n, hadamard_transform(values) / size)


def apply_Tzk(f: CubeFunction, z: complex, k: int) -> CubeFunction:
    """fhat(S) -> z^{|S & {k+1..n}|} fhat(S); k = n is the identity, k = 0 full damping."""
    if not 0 <= k <= f.n:
        raise ValueError(f"split index must satisfy 0 <= k <= {f.n}, got {k}")
    counts = np.bitwise_count(np.arange(1 << f.n, dtype=np.uint64) >> np.uint64(k))
    return CubeFunction(f.n, f.coeffs * complex(z) ** counts)


def phi_symmetric(ell: int, inputs) -> complex:
    """ell! * e_ell(inputs) via the truncated generating product prod(1 + t*x_j).

    Returns 0 when ell exceeds the number of inputs.  The naive backend's only phi_ell.
    """
    if ell < 0:
        raise ValueError("symmetric-function degree must be nonnegative")
    inputs = np.asarray(inputs, dtype=complex).ravel()
    if ell > inputs.size:
        return 0.0 + 0.0j
    partial = np.zeros(ell + 1, dtype=complex)
    partial[0] = 1.0
    for v in inputs:
        partial[1:] += v * partial[:-1]
    return complex(math.factorial(ell) * partial[ell])


class BecknerExpansion(NamedTuple):
    """phi_ell(x/sqrt(n)) = sum_m coeffs[m] H_m((x_1+..+x_n)/sqrt(n)) on the cube.

    max_residual is the worst error of the expansion with these (rounded)
    coefficients over all n+1 sum levels, taken exactly and rounded once,
    relative to max(1, |level value|).
    """

    n: int
    ell: int
    coeffs: np.ndarray
    max_residual: float


def beckner_expand(n: int, ell: int) -> BecknerExpansion:
    """Hermite expansion of the normalized symmetric function across sum levels.

    With S = (x_1+..+x_n)/sqrt(n) on the cube, the scaled Krawtchouk
    recurrence phi_{l+1} = S phi_l - l(n-l+1)/n phi_{l-1} and the Hermite
    relation S H_m = H_{m+1} + m H_{m-1} give the coefficients exactly: they
    are run as integers over the common denominator n^l and each is rounded
    once, so the wrong-parity ones are exact zeros.  At the level of j (+1)s,
    with t = 2j - n, phi_ell is an integer ell! e_ell over n^{ell/2}, and so
    is H_m(t / sqrt(n)) = P_m(t) / n^{m/2} with P_{m+1} = t P_m - m n P_{m-1};
    max_residual takes their difference in integers.  Degrees above 20 are
    rejected.
    """
    if ell > 20:
        raise ValueError("expansion degree above 20 rejected")
    if not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n, got ell = {ell}, n = {n}")
    prev: list[int] = []
    cur = [1]  # numerators of phi_l over n^l, in the Hermite basis
    for deg in range(ell):
        nxt = [0] * (deg + 2)
        for m, c in enumerate(cur):
            nxt[m + 1] += c
            if m:
                nxt[m - 1] += m * c
        for m, c in enumerate(prev):
            nxt[m] -= deg * (n - deg + 1) * c
        prev, cur = cur, [n * c for c in nxt]
    coeffs = np.array([c / n**ell for c in cur])

    ratios = [float(c).as_integer_ratio() for c in coeffs]
    den = max(d for _, d in ratios)
    # den n^{(ell-m)/2} coeffs[m]; (ell - m) // 2 is exact wherever coeffs[m] != 0
    nums = [a * (den // d) * n ** ((ell - m) // 2) for m, (a, d) in enumerate(ratios)]
    residual = 0.0
    for j in range(n + 1):
        # e_ell of j entries +1 and n - j entries -1: the y^ell coefficient of (1 + y)^j (1 - y)^(n-j)
        level = math.factorial(ell) * sum(
            math.comb(j, i) * math.comb(n - j, ell - i) * (-1) ** (ell - i) for i in range(ell + 1)
        )
        recon, h_prev, h = 0, 0, 1
        for m, a in enumerate(nums):
            recon += a * h
            h_prev, h = h, (2 * j - n) * h - m * n * h_prev
        residual = max(residual, abs(recon - den * level) / den / max(math.sqrt(n) ** ell, abs(level)))
    return BecknerExpansion(n=n, ell=ell, coeffs=coeffs, max_residual=residual)


def mixed_norm(values: np.ndarray, k: int, p: float, q: float) -> float:
    """E^k ( E_{n-k} |f|^q )^{p/q} over the full 2^n value table.

    The inner average runs over the last n-k coordinates (high mask bits),
    the outer over the first k.  Requires 1 <= p <= q.
    """
    _check_exponents(p, q)
    values = np.asarray(values, dtype=complex)
    size = values.size
    if size & (size - 1) or size == 0:
        raise ValueError("value table length must be a power of two")
    n = size.bit_length() - 1
    if not 0 <= k <= n:
        raise ValueError(f"split index must satisfy 0 <= k <= {n}")
    table = np.abs(values.reshape(1 << (n - k), 1 << k)) ** q
    inner = table.mean(axis=0)
    return float(np.mean(inner ** (p / q)))


def _check_exponents(p: float, q: float) -> None:
    if not 1.0 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got p = {p}, q = {q}")


class SymmetricSpec:
    """f_n = sum_ell a[ell] * phi_ell(x_1/sqrt(n), ..., x_n/sqrt(n)); n unbounded."""

    __slots__ = ("n", "a")

    def __init__(self, n: int, a: np.ndarray):
        arr = np.atleast_1d(np.asarray(a, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient list must be one-dimensional and nonempty")
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        self.a = arr

    @property
    def degree(self) -> int:
        return self.a.size - 1

    def level_values(self) -> np.ndarray:
        """f_n by its count j = 0..n of +1 coordinates: phi_symmetric at a point of j entries 1/sqrt(n)
        and n - j entries -1/sqrt(n), sharing nothing with the collapsed backend's Krawtchouk matrices."""
        out = np.zeros(self.n + 1, dtype=complex)
        for j in range(self.n + 1):
            point = np.r_[np.ones(j), -np.ones(self.n - j)] / math.sqrt(self.n)
            out[j] = sum(c * phi_symmetric(ell, point) for ell, c in enumerate(self.a) if c != 0)
        return out

    def materialize(self) -> CubeFunction:
        """Explicit CubeFunction (n <= 24 only), spread from level_values by the count of +1s."""
        if self.n > ENUMERATION_CAP:
            raise ValueError(f"cannot enumerate 2^{self.n} points; use the collapsed backend")
        return walsh_analyze(self.level_values()[self.n - np.bitwise_count(np.arange(1 << self.n, dtype=np.uint32))])


# ------------------------------------------------- collapsed backend
#
# A block-symmetric function takes one value per pair (a, b) of +1 counts in
# the two blocks, so the mixed norm becomes a binomially weighted double sum
# over a (k+1) x (n-k+1) table.  The table is kept factored as U^T M V and
# only the rows and columns that carry weight are formed; what is dropped is
# bounded and the bound is checked against the kept value (cut_mixed_norm,
# which the Gaussian outer grids of flows and the exponential-family grids
# of hausdorff_young use as well).

# Certified relative effect the dropped cells may have on one value.
TAIL_RTOL = 1e-15
# Share of an axis' bound mass a dropped tail may hold when the cut is
# chosen.  The bound overestimates the value by orders of magnitude, so this
# sits far below TAIL_RTOL, and the check after the fact rarely fails.
_CUT_SHARE = 1e-20


def log_binomial_weights(count: int) -> np.ndarray:
    """Probabilities C(count, j) / 2^count for j = 0..count.

    Products of the exact ratios C(T, j+1) / C(T, j) = (T - j) / (j + 1),
    taken outward from the mode j = T // 2 in both directions, then
    normalised to sum 1.  An entry's rounding errors come from the ratios
    between it and the mode and partly cancel: every entry above the
    underflow range is within a few 1e-15 relative of the exact value
    (4.1e-15 at T = 4096).  Entries below ~1e-308 go subnormal or to zero.
    """
    mode = count // 2
    down = np.arange(mode, 0, -1)
    up = np.arange(mode, count)
    w = np.concatenate(
        (
            np.cumprod(down / (count - down + 1.0))[::-1],
            [1.0],
            np.cumprod((count - up) / (up + 1.0)),
        )
    )
    return w / w.sum()


def _block_phi_matrix(l_max: int, n: int, total: int) -> np.ndarray:
    """U[j, c] = phi_j of a block with c entries 1/sqrt(n) and total-c entries -1/sqrt(n).

    U[j, c] = j! n^{-j/2} K_j(c), where K_j(c) = e_j of the block's +-1
    entries (a Krawtchouk polynomial in c) is an integer.  With S = 2c - total,

        (j+1) K_{j+1} = S K_j - (total - j + 1) K_{j-1},   K_0 = 1,  K_1 = S.

    |K_j| <= C(total, j), so every intermediate is an integer of size at most
    (total + j) C(total, j).  While that stays below 2^53 the recurrence runs
    exactly in float64, above it on Python ints.  So U is exact up to the one
    rounding of the scale j! n^{-j/2} and of the final product: bit-identical
    to the binomial double sum wherever that sum was exact (total <= 2000 at
    l_max = 5), and correctly rounded K_j beyond.  ValueError where j! or a
    K_j leaves float range (every degree from 171, and C(total, j) > 1.8e308).
    """
    exact_in_float = all((total + j) * math.comb(total, j) < 2**53 for j in range(l_max))
    dtype = float if exact_in_float else object
    s = np.arange(-total, total + 1, 2).astype(dtype)
    kraw = np.zeros((l_max + 1, total + 1), dtype=dtype)
    kraw[0] = 1
    if l_max:
        kraw[1] = s
    for j in range(1, l_max):
        step = s * kraw[j] - (total - j + 1) * kraw[j - 1]
        kraw[j + 1] = step / (j + 1) if exact_in_float else step // (j + 1)
    scale = 1.0 / math.sqrt(n)
    out = np.empty((l_max + 1, total + 1))
    for j in range(l_max + 1):
        try:
            out[j] = (math.factorial(j) * scale**j) * kraw[j].astype(float)
        except OverflowError:
            raise ValueError(
                f"degree {l_max} at n = {n} is out of float range: {j}! or K_{j} of a "
                f"{total}-coordinate block exceeds the largest float"
            ) from None
    return out


def _real_gemm(coeffs: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re, Im) of coeffs @ v for complex coeffs and real v, by one real GEMM."""
    stacked = np.concatenate((coeffs.real, coeffs.imag)) @ v
    return stacked[: len(coeffs)], stacked[len(coeffs) :]


class TailCut(NamedTuple):
    """What one cut_mixed_norm dropped.

    bound is the certified relative effect of the dropped cells on the value
    (0 when every cell was kept); cells_kept of the grid's cells were kept.
    """

    bound: float
    cells_kept: int
    cells: int


def _window(mass: np.ndarray, share: float) -> tuple[slice, np.ndarray]:
    """The narrowest index window each of whose two tails holds at most
    share / 2 of every row of `mass` (nonnegative, one row per constraint),
    and each row's sum outside it.  The whole range if a row sum is not
    finite.  A row that is symmetric about the middle gets a centred window."""
    left = np.cumsum(mass, axis=1)
    right = np.cumsum(mass[:, ::-1], axis=1)
    size = mass.shape[1]
    budget = 0.5 * share * left[:, -1:]
    lo = int(np.min(np.sum(left <= budget, axis=1), initial=size))
    hi = size - int(np.min(np.sum(right <= budget, axis=1), initial=size))
    if lo >= hi or not np.all(np.isfinite(budget)):
        return slice(0, size), np.zeros(mass.shape[0])
    tail = np.zeros(mass.shape[0])
    if lo:
        tail += left[:, lo - 1]
    if hi < size:
        tail += right[:, size - hi - 1]
    return slice(lo, hi), tail


def cut_mixed_norm(
    abs_q, w_rows: np.ndarray, w_cols: np.ndarray, p: float, q: float, bound=None, *, share: float
) -> tuple[float, TailCut]:
    """sum_i w_rows[i] (sum_j w_cols[j] F[i, j])^{p/q} for F = |f|^q >= 0, and its TailCut.

    abs_q(rows, cols) forms F on a block of two slices.  Without `bound`
    every cell is formed.  With bound = (spread, R, C), any nonnegative
    rank-K majorant F <= spread * R @ C (R rows x K, C K x columns), only
    the rows and columns chosen by _window (tails of at most `share` of the
    majorant mass) are formed.  With G = w_cols * C and r = p/q <= 1, a kept
    row i with kept inner sum A_i misses at most B_i = spread R[i] @ G', G'
    the sums of G over the dropped columns, so its term w_i A_i^r moves by at
    most w_i min(B_i^r, r A_i^{r-1} B_i) (subadditivity and concavity of
    x^r); a dropped row adds at most w_i (spread R[i] @ G'')^r, G'' the sums
    over all columns.  Dropping cells only lowers the value.  If the summed
    bound exceeds TAIL_RTOL times the kept value, or a majorant is not
    finite, every cell is formed instead.
    """
    r = p / q
    rows = slice(0, len(w_rows))
    cols = slice(0, len(w_cols))
    if bound is not None:
        spread, big_r, big_c = bound
        with np.errstate(over="ignore", invalid="ignore"):
            col_mass = w_cols * big_c
            cols, col_tail = _window(col_mass, share)
            rows, row_tail = _window((w_rows * (spread * big_r @ col_mass.sum(axis=1)) ** r)[None, :], share)
    kept = (rows.stop - rows.start) * (cols.stop - cols.start)
    cells = len(w_rows) * len(w_cols)
    inner = abs_q(rows, cols) @ w_cols[cols]
    value = float(np.dot(w_rows[rows], inner**r))
    if kept == cells:
        return value, TailCut(0.0, cells, cells)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        col_bound = spread * big_r[rows] @ col_tail
        tangent = r * col_bound / inner ** (1.0 - r)
        dropped = float(row_tail[0]) + float(np.dot(w_rows[rows], np.fmin(col_bound**r, tangent)))
    rel = 0.0 if not dropped else dropped / value if value > 0 else math.inf
    if rel <= TAIL_RTOL:
        return value, TailCut(rel, kept, cells)
    return cut_mixed_norm(abs_q, w_rows, w_cols, p, q, share=share)


def cut_summary(cuts: list[TailCut]) -> dict:
    """The largest bound (tail_bound) and the share of cells kept (cells_kept_share) over `cuts`."""
    cells = sum(cut.cells for cut in cuts)
    return {
        "tail_bound": max((cut.bound for cut in cuts), default=0.0),
        "cells_kept_share": sum(cut.cells_kept for cut in cuts) / cells if cells else 1.0,
    }


def _abs_q(re: np.ndarray, im: np.ndarray, q: float) -> np.ndarray:
    """|re + i im|^q, overwriting re and im."""
    re *= re
    im *= im
    re += im
    return np.power(re, q / 2.0, out=re)


def factored_mixed_norm(
    left: np.ndarray, right: np.ndarray, w_rows: np.ndarray, w_cols: np.ndarray, p: float, q: float, *, share: float
) -> tuple[float, TailCut]:
    """cut_mixed_norm of the table f = left @ right (rows x K times K x columns).

    |f|^q <= K^{q-1} |left|^q @ |right|^q by the power mean inequality over
    the K terms of each cell, and that rank-K majorant chooses the cells
    formed.  A real `right` is multiplied by one real GEMM.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (float(left.shape[1]) ** (q - 1.0), np.abs(left) ** q, np.abs(right) ** q)

    def abs_q(rows: slice, cols: slice) -> np.ndarray:
        if np.isrealobj(right):
            return _abs_q(*_real_gemm(left[rows], right[:, cols]), q)
        cells = left[rows] @ right[:, cols]
        return _abs_q(cells.real.copy(), cells.imag.copy(), q)

    return cut_mixed_norm(abs_q, w_rows, w_cols, p, q, bound, share=share)


def mixed_norm_collapsed(
    factors: tuple[np.ndarray, np.ndarray],
    n: int,
    k: int,
    p: float,
    q: float,
    cuts: list[TailCut] | None = None,
) -> float:
    """Collapsed mixed norm for block-symmetric functions.

    The table left @ right of the factor pair (from symmetric_tzk_table)
    holds at [a, b] the function value at any point with a (+1)s in the
    first block and b in the second; the averages become binomially
    weighted sums over the counts, cut by factored_mixed_norm.  If `cuts`
    is given, the TailCut of this call is appended to it.
    """
    _check_exponents(p, q)
    left, right = factors
    if left.shape[0] != k + 1 or right.shape[1] != n - k + 1:
        raise ValueError(f"collapsed table must have shape ({k+1}, {n-k+1})")
    value, cut = factored_mixed_norm(
        left, right, log_binomial_weights(k), log_binomial_weights(n - k), p, q, share=_CUT_SHARE
    )
    if cuts is not None:
        cuts.append(cut)
    return value


def symmetric_tzk_table(spec: SymmetricSpec, z: complex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Values of T_z^k f_n on the collapsed (a, b) grid, shape (k+1, n-k+1), as a factor pair.

    Uses the block convolution identity: with u_j = phi_j(first block) and
    v_m = phi_m(second block, undamped), the damped symmetric function is
    sum_{j,m} a_{j+m} C(j+m, m) z^m u_j v_m, i.e. a small matrix sandwich
    U^T C V, returned as coupled_factors(U, V, C).  Each block matrix takes
    O(L n): the integer Krawtchouk recurrence (j+1) K_{j+1} = S K_j -
    (T - j + 1) K_{j-1} in the block's count sum S and size T, scaled once
    by j! n^{-j/2}, so it is exact up to that one rounding (see
    _block_phi_matrix).
    """
    n = spec.n
    if not 0 <= k <= n:
        raise ValueError(f"split index must satisfy 0 <= k <= {n}")
    l_max = spec.degree
    return coupled_factors(
        _block_phi_matrix(l_max, n, k), _block_phi_matrix(l_max, n, n - k), coupling_matrix(spec.a, z)
    )


def coupled_factors(first: np.ndarray, second: np.ndarray, mix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table first^T mix second as the pair (left, right) that factored_mixed_norm takes.

    left = first^T mix and right = second, over the columns m of mix that
    are not all zero.  The cube tables (real block matrices of the first k
    and the last n - k coordinates) and the Janson grids of flows (Hermite
    polynomials or monomials at Gauss nodes, their Gaussian limit) are both
    built this way.
    """
    active = np.any(mix != 0, axis=0)
    return (first.T @ mix)[:, active], second[active]


def coupling_matrix(a: np.ndarray, z: complex) -> np.ndarray:
    """mix[j, m] = a_{j+m} C(j+m, m) z^m, zero for j + m > deg.

    By the binomial identity B_l(x + z y) = sum_m C(l, m) B_{l-m}(x) z^m B_m(y),
    sum_l a_l B_l(x + z y) = sum_{j,m} B_j(x) mix[j, m] B_m(y).  It holds for
    the block symmetric functions (symmetric_tzk_table), for the monomials,
    and for the scaled Hermite polynomials when sigma splits into the two
    blocks' variances (the Janson grids of flows).
    """
    l_max = len(a) - 1
    mix = np.zeros((l_max + 1, l_max + 1), dtype=complex)
    for j in range(l_max + 1):
        for m in range(l_max + 1 - j):
            mix[j, m] = a[j + m] * math.comb(j + m, m) * complex(z) ** m
    return mix

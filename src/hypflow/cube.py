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

The discrete flow k -> E^k (E_{n-k} |T_z^k f|^q)^{p/q} itself is here too
(discrete_flow), so the discrete-flow command loads this module alone; the
flows module imports it for its convergence experiment.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .exponents import ExponentTriple
from .reporting import FlowReport

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
        # trailing zeros would only raise the degree the tables are built for
        self.a = arr[: max(np.flatnonzero(arr), default=0) + 1]

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
# Rows at least this share as wide as the widest of a stack share its
# zero padding (_by_width): the padding at most doubles a stack's work.
_SIMILAR_WIDTH = 0.5


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
    """U[j, c] = phi_j of a block with c entries 1/sqrt(n) and total-c entries -1/sqrt(n)."""
    return _block_phi_matrices(l_max, n, (total,))[total]


def _block_phi_matrices(l_max: int, n: int, sizes) -> dict[int, np.ndarray]:
    """_block_phi_matrix of each distinct block size T of `sizes`.

    U[j, c] = j! n^{-j/2} K_j(c), where K_j(c) = e_j of the block's +-1
    entries (a Krawtchouk polynomial in c) is an integer.  With S = 2c - T,

        (j+1) K_{j+1} = S K_j - (T - j + 1) K_{j-1},   K_0 = 1,  K_1 = S.

    |K_j| <= C(T, j), so every intermediate is an integer of size at most
    (T + j) C(T, j).  While that stays below 2^53 the recurrence runs
    exactly in float64, above it on Python ints.  So U is exact up to the one
    rounding of the scale j! n^{-j/2} and of the final product: bit-identical
    to the binomial double sum wherever that sum was exact (T <= 2000 at
    l_max = 5), and correctly rounded K_j beyond.  The sizes exact in float64
    (the smallest ones) run the recurrence together, on one stack per group
    of similar sizes (_by_width) zero-padded to its largest: exact integers
    do not depend on that, and the padding's values are cut off.  ValueError
    where j! or a K_j leaves float range (every degree from 171, and
    C(T, j) > 1.8e308).
    """
    sizes = sorted(set(sizes))
    exact = [T for T in sizes if all((T + j) * math.comb(T, j) < 2**53 for j in range(l_max))]
    scale = 1.0 / math.sqrt(n)
    out = {}

    def scaled(j: int, total: int, kraw) -> np.ndarray:
        try:
            return (math.factorial(j) * scale**j) * kraw.astype(float, copy=False)
        except OverflowError:
            raise ValueError(
                f"degree {l_max} at n = {n} is out of float range: {j}! or K_{j} of a "
                f"{total}-coordinate block exceeds the largest float"
            ) from None

    for group in _by_width([T + 1 for T in exact]):
        group = [exact[i] for i in group]
        totals = np.array(group, dtype=float)[:, None]
        s = 2.0 * np.arange(group[0] + 1) - totals
        kraw = np.zeros((l_max + 1, *s.shape))
        kraw[0] = 1
        if l_max:
            kraw[1] = s
        with np.errstate(over="ignore", invalid="ignore"):  # only the padding can leave float range
            for j in range(1, l_max):
                kraw[j + 1] = (s * kraw[j] - (totals - j + 1) * kraw[j - 1]) / (j + 1)
            stack = np.stack([scaled(j, group[0], kraw[j]) for j in range(l_max + 1)])
        out.update((T, np.ascontiguousarray(stack[:, b, : T + 1])) for b, T in enumerate(group))
    for total in sizes[len(exact) :]:
        s = np.arange(-total, total + 1, 2).astype(object)
        kraw = np.zeros((l_max + 1, total + 1), dtype=object)
        kraw[0] = 1
        if l_max:
            kraw[1] = s
        for j in range(1, l_max):
            kraw[j + 1] = (s * kraw[j] - (total - j + 1) * kraw[j - 1]) // (j + 1)
        out[total] = np.stack([scaled(j, total, kraw[j]) for j in range(l_max + 1)])
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


def _by_width(widths: list[int]) -> list[list[int]]:
    """The indices of `widths` in groups of similar widths, widest first:
    each at least _SIMILAR_WIDTH times the widest of its group, so padding a
    group to its widest at most doubles it."""
    groups: list[list[int]] = []
    for i in sorted(range(len(widths)), key=lambda i: -widths[i]):
        if not groups or widths[i] < _SIMILAR_WIDTH * widths[groups[-1][0]]:
            groups.append([])
        groups[-1].append(i)
    return groups


def _windows(masses: list[np.ndarray], share: float) -> list[tuple[slice, np.ndarray]]:
    """For each mass (nonnegative, one row per constraint): the narrowest
    index window each of whose two tails holds at most share / 2 of every
    row, and each row's sum outside it.  The whole range if a row sum is not
    finite.  A row that is symmetric about the middle gets a centred window.

    Masses of similar widths (_by_width) go through one vectorized pass,
    zero-padded to one shape.  Padding leaves
    every window and tail bit for bit as for the mass alone: cumulative sums
    of a padded row repeat those of the row; the padding of a left sum
    equals the row sum, above the budget unless the row is all zero, which
    cannot lower the minimum over rows; and the padding of a right sum adds
    to its count exactly the number of entries padded.
    """
    out: list = [None] * len(masses)
    for group in _by_width([mass.shape[1] for mass in masses]):
        _window_pass(masses, group, share, out)
    return out


def _window_pass(masses: list[np.ndarray], group: list[int], share: float, out: list) -> None:
    """_windows of the masses of `group`, by one vectorized pass, into out."""
    size = masses[group[0]].shape[1]
    if len(group) == 1:
        stack = masses[group[0]][None]
    else:
        stack = np.zeros((len(group), max(masses[i].shape[0] for i in group), size))
        for row, i in enumerate(group):
            stack[row, : masses[i].shape[0], : masses[i].shape[1]] = masses[i]
    left = np.cumsum(stack, axis=2)
    right = np.cumsum(stack[:, :, ::-1], axis=2)
    budget = 0.5 * share * left[:, :, -1:]
    los = np.min(np.sum(left <= budget, axis=2), axis=1, initial=size).tolist()
    his = (size - np.min(np.sum(right <= budget, axis=2), axis=1, initial=size)).tolist()
    finite = np.all(np.isfinite(budget), axis=(1, 2)).tolist()
    for row, i in enumerate(group):
        count, width = masses[i].shape
        lo, hi = los[row], his[row]
        if lo >= hi or not finite[row]:
            out[i] = slice(0, width), np.zeros(count)
            continue
        tail = np.zeros(count)
        if lo:
            tail += left[row, :count, lo - 1]
        if hi < width:
            tail += right[row, :count, size - hi - 1]
        out[i] = slice(lo, hi), tail


class _Plan(NamedTuple):
    """The block of a grid that cut_mixed_norm forms, and what bounds the
    cells it drops: each axis' majorant mass outside its window (row_tail,
    col_tail) and the row majorant spread * R."""

    rows: slice
    cols: slice
    row_tail: float
    col_tail: np.ndarray
    majorant: np.ndarray


def _plan_cuts(bounds, w_rows, w_cols, r: float, share: float) -> list[_Plan]:
    """The _Plan of each grid of a stack.

    For the grid with majorant bound (spread, R, C) and weights w_rows,
    w_cols (see cut_mixed_norm): the columns kept by _windows on the
    masses w_cols * C, the rows kept by _windows on w_rows (spread R @
    G)^r, G the row sums of those masses, each axis' tail outside its
    window, and the row majorant spread * R.  One call of _windows chooses
    the columns of all grids, one the rows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        col_masses = [wc * big_c for (_, _, big_c), wc in zip(bounds, w_cols)]
        majorants = [spread * big_r for spread, big_r, _ in bounds]
        row_masses = [
            (wr * (major @ mass.sum(axis=1)) ** r)[None, :] for wr, major, mass in zip(w_rows, majorants, col_masses)
        ]
        col_windows = _windows(col_masses, share)
        row_windows = _windows(row_masses, share)
    return [
        _Plan(rows, cols, row_tail[0], col_tail, major)
        for (rows, row_tail), (cols, col_tail), major in zip(row_windows, col_windows, majorants)
    ]


def _kept_norm(
    abs_q, w_rows: np.ndarray, w_cols: np.ndarray, r: float, plan: _Plan | None = None
) -> tuple[float, TailCut]:
    """cut_mixed_norm's value and TailCut on the block that `plan` keeps, or
    on every cell without a plan or where the bound of the dropped cells
    exceeds TAIL_RTOL times the kept value."""
    rows, cols = (slice(0, len(w_rows)), slice(0, len(w_cols))) if plan is None else (plan.rows, plan.cols)
    kept = (rows.stop - rows.start) * (cols.stop - cols.start)
    cells = len(w_rows) * len(w_cols)
    inner = abs_q(rows, cols) @ w_cols[cols]
    weights = w_rows[rows]
    value = float(np.dot(weights, inner**r))
    if kept == cells:
        return value, TailCut(0.0, cells, cells)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        col_bound = plan.majorant[rows] @ plan.col_tail
        tangent = r * col_bound / inner ** (1.0 - r)
        dropped = float(plan.row_tail) + float(np.dot(weights, np.fmin(col_bound**r, tangent)))
    rel = 0.0 if not dropped else dropped / value if value > 0 else math.inf
    if rel <= TAIL_RTOL:
        return value, TailCut(rel, kept, cells)
    return _kept_norm(abs_q, w_rows, w_cols, r)


def cut_mixed_norm(
    abs_q, w_rows: np.ndarray, w_cols: np.ndarray, p: float, q: float, bound=None, *, share: float
) -> tuple[float, TailCut]:
    """sum_i w_rows[i] (sum_j w_cols[j] F[i, j])^{p/q} for F = |f|^q >= 0, and its TailCut.

    abs_q(rows, cols) forms F on a block of two slices.  Without `bound`
    every cell is formed.  With bound = (spread, R, C), any nonnegative
    rank-K majorant F <= spread * R @ C (R rows x K, C K x columns), only
    the rows and columns chosen by _windows (tails of at most `share` of
    the majorant mass) are formed.  With G = w_cols * C and r = p/q <= 1, a
    kept row i with kept inner sum A_i misses at most B_i = spread R[i] @ G',
    G' the sums of G over the dropped columns, so its term w_i A_i^r moves
    by at most w_i min(B_i^r, r A_i^{r-1} B_i) (subadditivity and concavity
    of x^r); a dropped row adds at most w_i (spread R[i] @ G'')^r, G'' the
    sums over all columns.  Dropping cells only lowers the value.  If the
    summed bound exceeds TAIL_RTOL times the kept value, or a majorant is
    not finite, every cell is formed instead.
    """
    r = p / q
    plan = None if bound is None else _plan_cuts([bound], [w_rows], [w_cols], r, share)[0]
    return _kept_norm(abs_q, w_rows, w_cols, r, plan)


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


def _factored_bound(left: np.ndarray, right: np.ndarray, q: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The majorant |left @ right|^q <= K^{q-1} |left|^q @ |right|^q, by the
    power mean inequality over the K terms of each cell, as (spread, R, C)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(left.shape[1]) ** (q - 1.0), np.abs(left) ** q, np.abs(right) ** q


def _factored_abs_q(left: np.ndarray, right: np.ndarray, q: float):
    """abs_q(rows, cols) of the table left @ right; a real `right` is multiplied by one real GEMM."""

    def abs_q(rows: slice, cols: slice) -> np.ndarray:
        if np.isrealobj(right):
            return _abs_q(*_real_gemm(left[rows], right[:, cols]), q)
        cells = left[rows] @ right[:, cols]
        return _abs_q(cells.real.copy(), cells.imag.copy(), q)

    return abs_q


def factored_mixed_norm(
    left: np.ndarray, right: np.ndarray, w_rows: np.ndarray, w_cols: np.ndarray, p: float, q: float, *, share: float
) -> tuple[float, TailCut]:
    """cut_mixed_norm of the table f = left @ right (rows x K times K x
    columns), whose rank-K majorant (_factored_bound) chooses the cells formed."""
    bound = _factored_bound(left, right, q)
    return cut_mixed_norm(_factored_abs_q(left, right, q), w_rows, w_cols, p, q, bound, share=share)


def mixed_norm_collapsed(
    tables: Sequence[tuple[np.ndarray, np.ndarray]],
    n: int,
    ks: Sequence[int],
    p: float,
    q: float,
    cuts: list[TailCut] | None = None,
) -> list[float]:
    """Collapsed mixed norms of block-symmetric functions, one per split index of ks.

    The table left @ right of each factor pair (from symmetric_tzk_table)
    holds at [a, b] the function value at any point with a (+1)s in the
    first block and b in the second; the averages become binomially
    weighted sums over the counts, cut as factored_mixed_norm cuts them.
    The weights are built once per block size, so k and n - k share them,
    and the windows of all tables are chosen in one pass (_plan_cuts).  If
    `cuts` is given, the TailCut of each table is appended to it in the
    order of ks.
    """
    _check_exponents(p, q)
    if len(tables) != len(ks):
        raise ValueError(f"{len(tables)} tables for {len(ks)} split indices")
    for (left, right), k in zip(tables, ks):
        if left.shape[0] != k + 1 or right.shape[1] != n - k + 1:
            raise ValueError(f"collapsed table must have shape ({k+1}, {n-k+1})")
    weights = {size: log_binomial_weights(size) for size in sorted({*ks, *(n - k for k in ks)})}
    r = p / q
    plans = _plan_cuts(
        [_factored_bound(left, right, q) for left, right in tables],
        [weights[k] for k in ks],
        [weights[n - k] for k in ks],
        r,
        _CUT_SHARE,
    )
    values = []
    for (left, right), k, plan in zip(tables, ks, plans):
        value, cut = _kept_norm(_factored_abs_q(left, right, q), weights[k], weights[n - k], r, plan)
        values.append(value)
        if cuts is not None:
            cuts.append(cut)
    return values


class _SharedBlocks(NamedTuple):
    """What the tables of several split indices share: the block matrices
    by block size, the coupling matrix and its nonzero columns (None: not
    yet found)."""

    phi: dict[int, np.ndarray]
    mix: np.ndarray
    active: np.ndarray | None


def symmetric_tzk_table(
    spec: SymmetricSpec, z: complex, k: int, blocks: _SharedBlocks | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Values of T_z^k f_n on the collapsed (a, b) grid, shape (k+1, n-k+1), as a factor pair.

    Uses the block convolution identity: with u_j = phi_j(first block) and
    v_m = phi_m(second block, undamped), the damped symmetric function is
    sum_{j,m} a_{j+m} C(j+m, m) z^m u_j v_m, i.e. a small matrix sandwich
    U^T C V, returned as coupled_factors(U, V, C).  Each block matrix takes
    O(L n): the integer Krawtchouk recurrence (j+1) K_{j+1} = S K_j -
    (T - j + 1) K_{j-1} in the block's count sum S and size T, scaled once
    by j! n^{-j/2}, so it is exact up to that one rounding (see
    _block_phi_matrix).  `blocks`, when given, holds the blocks of sizes k
    and n - k and the coupling matrix of spec at z (discrete_flow shares
    them between the split indices of a chunk); otherwise they are built here.
    """
    n = spec.n
    if not 0 <= k <= n:
        raise ValueError(f"split index must satisfy 0 <= k <= {n}")
    if blocks is None:
        blocks = _SharedBlocks(_block_phi_matrices(spec.degree, n, (k, n - k)), coupling_matrix(spec.a, z), None)
    return coupled_factors(blocks.phi[k], blocks.phi[n - k], blocks.mix, blocks.active)


def coupled_factors(
    first: np.ndarray, second: np.ndarray, mix: np.ndarray, active: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The table first^T mix second as the pair (left, right) that factored_mixed_norm takes.

    left = first^T mix and right = second, over the columns m of mix that
    are not all zero (`active`, found here when not given).  The cube
    tables (real block matrices of the first k and the last n - k
    coordinates) and the Janson grids of flows (Hermite polynomials or
    monomials at Gauss nodes, their Gaussian limit) are both built this way.
    """
    if active is None:
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


# ------------------------------------------------------ the discrete flow

# Elements the stacked majorant masses of one chunk of split indices may
# hold, about (degree + 1)(n + 1) per table: it bounds the memory of a
# chunk (its blocks, tables and masses are a few times this) and leaves
# the per-chunk work small beside the per-table work.
_CHUNK_ELEMENTS = 1 << 16


def _chunks(ks: list[int], n: int, l_max: int) -> list[list[int]]:
    """ks in chunks of at most _CHUNK_ELEMENTS table elements each, ordered
    so that k and n - k fall in one chunk and share their blocks and weights."""
    per_chunk = max(1, _CHUNK_ELEMENTS // ((l_max + 1) * (n + 1)))
    chunks: list[list[int]] = [[]]
    for k in sorted(ks, key=lambda k: (min(k, n - k), k)):
        if len(chunks[-1]) >= per_chunk and chunks[-1][-1] != n - k:
            chunks.append([])
        chunks[-1].append(k)
    return chunks


def discrete_flow(
    f: CubeFunction | SymmetricSpec,
    t: ExponentTriple,
    ks: Sequence[int] | None = None,
    backend: str = "auto",
) -> FlowReport:
    """The discrete monotone map k -> E^k (E_{n-k} |T_z^k f|^q)^{p/q} over the requested split indices.

    CubeFunction inputs are enumerated (n <= 24); SymmetricSpec inputs go to
    the collapsed block-count backend and scale to n in the thousands.  The
    collapsed backend builds the coupling matrix once, then takes the split
    indices in chunks (_chunks): each block matrix and weight vector of a
    chunk is built once, for k and n - k alike, and the windows of all its
    tables are chosen in one pass (mixed_norm_collapsed).  Its report's
    diagnostics give the largest certified relative effect of the dropped
    binomial tails over k (tail_bound) and the share of table cells kept
    (cells_kept_share).  Endpoints satisfy value(n) = E|f|^p and value(0) =
    (E|T_z f|^q)^{p/q}, and the flow is nondecreasing whenever the
    two-point inequality holds at (p, q, z).
    """
    t.require_ordered()
    n = f.n
    if ks is None:
        ks = range(n + 1)
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 0 or ks[-1] > n:
        raise ValueError(f"split indices must be given and lie in [0, {n}]")
    if backend == "auto":
        backend = "collapsed" if isinstance(f, SymmetricSpec) else "naive"
    diagnostics = {}
    if backend == "naive":
        cube = f.materialize() if isinstance(f, SymmetricSpec) else f
        values = [mixed_norm(apply_Tzk(cube, t.z, k).values(), k, t.p, t.q) for k in ks]
    elif backend == "collapsed":
        if not isinstance(f, SymmetricSpec):
            raise ValueError("collapsed backend requires a SymmetricSpec input")
        mix = coupling_matrix(f.a, t.z)
        active = np.any(mix != 0, axis=0)
        cuts: list[TailCut] = []
        by_k = {}
        for chunk in _chunks(ks, n, f.degree):
            blocks = _SharedBlocks(_block_phi_matrices(f.degree, n, (*chunk, *(n - k for k in chunk))), mix, active)
            tables = [symmetric_tzk_table(f, t.z, k, blocks) for k in chunk]
            by_k.update(zip(chunk, mixed_norm_collapsed(tables, n, chunk, t.p, t.q, cuts)))
        values = [by_k[k] for k in ks]
        diagnostics = cut_summary(cuts)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return FlowReport(parameter_name="k", samples=tuple(zip(ks, values)), diagnostics=diagnostics)

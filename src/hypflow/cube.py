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
from dataclasses import dataclass

import numpy as np
from scipy.special import binom as _binom
from scipy.special import gammaln as _gammaln

from .hermite import hermite_eval

ENUMERATION_CAP = 24  # 2^n complex values; above this only collapsed inputs


def _popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks)


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


@dataclass(frozen=True)
class CubeFunction:
    """f: {-1,1}^n -> C stored through its Walsh coefficients fhat(S)."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not (1 <= self.n <= ENUMERATION_CAP):
            raise ValueError(f"dimension must be in [1, {ENUMERATION_CAP}], got {self.n}")
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (1 << self.n,):
            raise ValueError(f"coefficient table must have length 2^{self.n}")
        object.__setattr__(self, "coeffs", arr)

    def values(self) -> np.ndarray:
        """Function values at all 2^n points (index = point mask)."""
        return hadamard_transform(self.coeffs)


def walsh_synthesize(f: CubeFunction, x) -> complex:
    """sum_S fhat(S) W_S(x) at one explicit point x in {-1,1}^n."""
    x = np.asarray(x)
    if x.shape != (f.n,):
        raise ValueError(f"point must have {f.n} coordinates")
    if not np.all(np.abs(x) == 1):
        raise ValueError("point coordinates must be +1 or -1")
    mask = 0
    for j in range(f.n):
        if x[j] == -1:
            mask |= 1 << j
    masks = np.arange(1 << f.n, dtype=np.uint32)
    signs = 1.0 - 2.0 * (_popcount(masks & np.uint32(mask)) & 1)
    return complex(np.dot(signs, f.coeffs))


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
    masks = np.arange(1 << f.n, dtype=np.uint64)
    counts = _popcount(masks >> np.uint64(k))
    return CubeFunction(f.n, f.coeffs * complex(z) ** counts)


def phi_symmetric(ell: int, inputs) -> complex:
    """ell! * e_ell(inputs) via the truncated generating product prod(1 + t*x_j).

    Returns 0 when ell exceeds the number of inputs.
    """
    if ell < 0:
        raise ValueError("symmetric-function degree must be nonnegative")
    inputs = np.asarray(inputs, dtype=complex).ravel()
    if ell > inputs.size:
        return 0.0 + 0.0j
    partial = np.zeros(ell + 1, dtype=complex)
    partial[0] = 1.0
    for v in inputs:
        upper = min(ell, inputs.size)
        partial[1 : upper + 1] = partial[1 : upper + 1] + v * partial[0:upper]
    return complex(math.factorial(ell) * partial[ell])


@dataclass(frozen=True)
class BlockCounts:
    """Counts of +1 coordinates in the two blocks split at index k."""

    k: int
    a: int
    b: int

    def validate(self, n: int) -> None:
        if not (0 <= self.k <= n and 0 <= self.a <= self.k and 0 <= self.b <= n - self.k):
            raise ValueError(f"invalid block counts {self} for n = {n}")


def _truncated_binomial(count: int, coeff: complex, ell: int) -> np.ndarray:
    """Coefficients of (1 + coeff*t)^count through degree ell."""
    out = np.zeros(ell + 1, dtype=complex)
    out[0] = 1.0
    term = 1.0 + 0.0j
    for j in range(1, min(ell, count) + 1):
        term *= coeff * (count - j + 1) / j
        out[j] = term
    return out


def _truncated_product(factors, ell: int) -> np.ndarray:
    acc = np.zeros(ell + 1, dtype=complex)
    acc[0] = 1.0
    for fac in factors:
        acc = np.convolve(acc, fac)[: ell + 1]
    return acc


def phi_block_eval(ell: int, n: int, counts: BlockCounts, z: complex) -> complex:
    """phi_ell at the block point (x'/sqrt(n), z x''/sqrt(n)) with given counts.

    Any representative with `a` of +1 among the first k coordinates and `b`
    of +1 among the rest gives the same value; the generating polynomial
    (1+t/sn)^a (1-t/sn)^{k-a} (1+zt/sn)^b (1-zt/sn)^{n-k-b} with
    sn = sqrt(n) is truncated at degree ell and the coefficient of t^ell is
    scaled by ell!.
    """
    counts.validate(n)
    c = 1.0 / math.sqrt(n)
    zc = complex(z) * c
    prod = _truncated_product(
        (
            _truncated_binomial(counts.a, c, ell),
            _truncated_binomial(counts.k - counts.a, -c, ell),
            _truncated_binomial(counts.b, zc, ell),
            _truncated_binomial(n - counts.k - counts.b, -zc, ell),
        ),
        ell,
    )
    return complex(math.factorial(ell) * prod[ell])


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


def _phi_level_value(ell: int, n: int, j: int) -> float:
    """phi_ell(x/sqrt(n)) at any point with j coordinates equal to +1."""
    c = 1.0 / math.sqrt(n)
    prod = _truncated_product(
        (_truncated_binomial(j, c, ell), _truncated_binomial(n - j, -c, ell)), ell
    )
    return float(np.real(math.factorial(ell) * prod[ell]))


@dataclass(frozen=True)
class BecknerExpansion:
    """phi_ell(x/sqrt(n)) = sum_m coeffs[m] H_m((x_1+..+x_n)/sqrt(n)) on the cube.

    max_residual is the worst reconstruction error over all n+1 sum levels,
    scaled by max(1, |level value|) so extreme levels (where the values grow
    like powers of sqrt(n)) do not drown the comparison in float noise.
    """

    n: int
    ell: int
    coeffs: np.ndarray
    max_residual: float


def beckner_expand(n: int, ell: int) -> BecknerExpansion:
    """Hermite expansion of the normalized symmetric function across sum levels.

    Solves the (ell+1) x (ell+1) interpolation system at central sum levels,
    then reports the worst residual over *all* n+1 levels.  The levels are
    spread over a fixed O(1) range of the normalized sum: levels packed at
    spacing 2/sqrt(n) around zero make the system ill-conditioned for large
    n, while extreme levels blow up the right-hand side, so neither is used.
    Coefficients of the wrong parity come out as exact zeros of the linear
    solve.  Degrees above 20 are rejected: the interpolation system is no
    longer trustworthy there.
    """
    if ell > 20:
        raise ValueError("expansion degree above 20 rejected (ill-conditioned system)")
    if not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n, got ell = {ell}, n = {n}")
    half_range = min(max(2.0, 0.5 * ell), 0.95 * math.sqrt(n))
    targets = np.linspace(-half_range, half_range, ell + 1) if ell else np.array([0.0])
    levels: list[int] = []
    for t in targets:
        j = int(round((n + t * math.sqrt(n)) / 2.0))
        j = min(max(j, 0), n)
        while j in levels and j < n:
            j += 1
        while j in levels and j > 0:
            j -= 1
        levels.append(j)
    levels.sort()
    sums = np.array([(2 * j - n) / math.sqrt(n) for j in levels])
    rhs = np.array([_phi_level_value(ell, n, j) for j in levels])
    vander = np.stack([np.real(hermite_eval(m, sums)) for m in range(ell + 1)], axis=1)
    coeffs = np.linalg.solve(vander, rhs)

    all_sums = np.array([(2 * j - n) / math.sqrt(n) for j in range(n + 1)])
    all_phi = np.array([_phi_level_value(ell, n, j) for j in range(n + 1)])
    recon = np.zeros_like(all_sums)
    for m in range(ell + 1):
        recon += coeffs[m] * np.real(hermite_eval(m, all_sums))
    residual = float(np.max(np.abs(recon - all_phi) / np.maximum(1.0, np.abs(all_phi))))
    return BecknerExpansion(n=n, ell=ell, coeffs=coeffs, max_residual=residual)


def log_binomial_weights(count: int) -> np.ndarray:
    """Probabilities binom(count, j) / 2^count for j = 0..count, computed in log space.

    Stable up to count ~ 10^4, where the raw binomials overflow long before
    the probabilities do.
    """
    j = np.arange(count + 1)
    logw = (
        _gammaln(count + 1.0)
        - _gammaln(j + 1.0)
        - _gammaln(count - j + 1.0)
        - count * math.log(2.0)
    )
    w = np.exp(logw)
    return w / w.sum()


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


def mixed_norm_collapsed(table: np.ndarray, n: int, k: int, p: float, q: float) -> float:
    """Collapsed mixed norm for block-symmetric functions.

    `table[a, b]` holds the function value at any point with a (+1)s in the
    first block and b in the second; the averages become binomially weighted
    sums over the counts.
    """
    _check_exponents(p, q)
    table = np.asarray(table, dtype=complex)
    if table.shape != (k + 1, n - k + 1):
        raise ValueError(f"collapsed table must have shape ({k+1}, {n-k+1})")
    w_first = log_binomial_weights(k)
    w_second = log_binomial_weights(n - k)
    inner = (np.abs(table) ** q) @ w_second
    return float(np.dot(w_first, inner ** (p / q)))


def _check_exponents(p: float, q: float) -> None:
    if not 1.0 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got p = {p}, q = {q}")


@dataclass(frozen=True)
class SymmetricSpec:
    """f_n = sum_ell a[ell] * phi_ell(x_1/sqrt(n), ..., x_n/sqrt(n)); n unbounded."""

    n: int
    a: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.a, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient list must be one-dimensional and nonempty")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "a", arr)

    @property
    def degree(self) -> int:
        return self.a.size - 1

    def materialize(self) -> CubeFunction:
        """Explicit CubeFunction (n <= 24 only); values depend on the sum level alone."""
        if self.n > ENUMERATION_CAP:
            raise ValueError(f"cannot enumerate 2^{self.n} points; use the collapsed backend")
        level_values = np.zeros(self.n + 1, dtype=complex)
        for j in range(self.n + 1):
            for ell, c in enumerate(self.a):
                if c != 0:
                    level_values[j] += c * _phi_level_value(ell, self.n, j)
        masks = np.arange(1 << self.n, dtype=np.uint32)
        plus_counts = self.n - _popcount(masks)
        return walsh_analyze(level_values[plus_counts])


def _block_phi_matrix(l_max: int, n: int, total: int, scale: complex) -> np.ndarray:
    """U[j, c] = phi_j of a block with c entries scale and total-c entries -scale.

    Expanded binomially: phi_j = j! * sum_i C(c, i) C(total-c, j-i)
    scale^j (-1)^{j-i}, vectorized over the whole count range c = 0..total.
    """
    counts = np.arange(total + 1, dtype=float)
    out = np.zeros((l_max + 1, total + 1), dtype=complex)
    for j in range(l_max + 1):
        acc = np.zeros(total + 1, dtype=complex)
        for i in range(j + 1):
            acc += _binom(counts, i) * _binom(total - counts, j - i) * (-1.0) ** (j - i)
        out[j] = math.factorial(j) * scale**j * acc
    return out


def symmetric_tzk_table(spec: SymmetricSpec, z: complex, k: int) -> np.ndarray:
    """Values of T_z^k f_n on the collapsed (a, b) grid, shape (k+1, n-k+1).

    Uses the block convolution identity: with u_j = phi_j(first block) and
    v_m = phi_m(second block, undamped), the damped symmetric function is
    sum_{j,m} a_{j+m} C(j+m, m) z^m u_j v_m, i.e. a small matrix sandwich
    U^T C V.  Cost O(L^2 * n) instead of O(L^2) per cell.
    """
    n = spec.n
    if not 0 <= k <= n:
        raise ValueError(f"split index must satisfy 0 <= k <= {n}")
    l_max = spec.degree
    c = 1.0 / math.sqrt(n)
    u = _block_phi_matrix(l_max, n, k, c)
    v = _block_phi_matrix(l_max, n, n - k, c)
    mix = np.zeros((l_max + 1, l_max + 1), dtype=complex)
    for j in range(l_max + 1):
        for m in range(l_max + 1 - j):
            mix[j, m] = spec.a[j + m] * math.comb(j + m, m) * complex(z) ** m
    return u.T @ mix @ v

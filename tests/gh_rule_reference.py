"""Frozen reference: the Gauss-Hermite rule builder as it was before the
asymptotic first guesses.

`_gh_rule_cached` is kept verbatim.  It takes the squared nonnegative nodes
from the eigenvalues of the even block of J^2 (a half-size symmetric
tridiagonal matrix, through scipy), then runs two Newton passes on the
orthonormal recurrence and takes the Christoffel-Darboux weights from the
last one.  `_orthonormal_ladder` is kept verbatim too; it rescales the pair
by powers of two every 32 steps.  Tests compare the production rules with it.
Not collected by pytest (no test_ prefix).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from hypflow.quadrature import QuadratureRule


def _orthonormal_ladder(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal (phat_{n-1}(x), phat_n(x)) as (prev, last, exponent).

    The true values are prev and last times 2**exponent.  Every 32 steps,
    and after the last, the pair is rescaled by a power of two so that the
    larger of the two lies in [0.5, 1).  That is exact, and keeps the pair in
    float range for extreme nodes of any rule size: one step grows it by at
    most a factor |x| + 1.
    """
    root = np.sqrt(np.arange(n + 1.0))
    prev = np.zeros_like(x)
    last = np.ones_like(x)
    exponent = np.zeros(x.shape, dtype=np.int64)
    for m in range(n):
        prev, last = last, (x * last - root[m] * prev) / root[m + 1]
        if m % 32 == 31 or m == n - 1:
            _, e = np.frexp(np.maximum(np.abs(prev), np.abs(last)))
            prev = np.ldexp(prev, -e)
            last = np.ldexp(last, -e)
            exponent += e
    return prev, last, exponent


@lru_cache(maxsize=None)
def _gh_rule_cached(n: int) -> QuadratureRule:
    # scipy is imported here, at the first rule built, so that commands which
    # build no rule (discrete-flow, two-point-scan) never load it.
    from scipy.linalg import eigvalsh_tridiagonal

    # Even block of J^2: diagonal 2i+1 (n-1 in the last row when n-1 is
    # even), off-diagonal sqrt((i+1)(i+2)), over even i < n.
    i = np.arange(0, n, 2, dtype=float)
    diag = 2.0 * i + 1.0
    if n % 2:
        diag[-1] = n - 1.0
    squares = eigvalsh_tridiagonal(diag, np.sqrt((i[:-1] + 1.0) * (i[:-1] + 2.0)))
    x = np.sqrt(np.maximum(squares, 0.0))
    if n % 2:
        x[0] = 0.0
    # Newton on phat_n, whose derivative is sqrt(n) phat_{n-1}.  The weights
    # come from the last pass, whose nodes are already polished to a few ulp.
    # At a node |phat_n| << |phat_{n-1}|, so the scaled prev lies in [0.5, 1),
    # and the tiny weights underflow to exact zeros in the final ldexp.
    for _ in range(2):
        prev, last, exponent = _orthonormal_ladder(x, n)
        x = x - last / (math.sqrt(n) * prev)
    w = np.ldexp(1.0 / (n * prev * prev), -2 * exponent)
    half = n // 2
    nodes = np.concatenate((-x[::-1][:half], x))
    weights = np.concatenate((w[::-1][:half], w))
    weights /= weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)

"""Frozen reference: the extremal-ratio search as it was before the half
lattice, the cached denominator and the one-call halving ladder.

`extremal_ratio`, `_ratio_grid` and `infinitesimal_margin_min` are kept
verbatim, for tests that require the fast search to return bit-identical
results.  `two_point_margin` and `infinitesimal_margin` evaluate the two
forms of the inequality at one point, for tests that check witnesses and
the symmetries of the margins.  Not collected by pytest (no test_ prefix).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypflow.two_point import ExponentTriple, ExtremalSearchResult, SearchBudget


@dataclass(frozen=True)
class MarginRecord:
    """One margin evaluation: rhs - lhs, with the evaluation point attached."""

    point: tuple
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def two_point_margin(a: complex, b: complex, t: ExponentTriple) -> MarginRecord:
    """Global two-point margin at (a, b)."""
    a = complex(a)
    b = complex(b)
    lhs = (0.5 * (abs(a + t.z * b) ** t.q + abs(a - t.z * b) ** t.q)) ** (1.0 / t.q)
    rhs = (0.5 * (abs(a + b) ** t.p + abs(a - b) ** t.p)) ** (1.0 / t.p)
    return MarginRecord(point=(a, b), lhs=lhs, rhs=rhs)


def infinitesimal_margin(w: complex, t: ExponentTriple) -> MarginRecord:
    """Quadratic-form margin at direction w.

    Homogeneous of degree 2 in |w|, so scans only need w on the unit circle.
    """
    w = complex(w)
    wz = w * t.z
    lhs = (t.q - 2.0) * (wz.real) ** 2 + abs(wz) ** 2
    rhs = (t.p - 2.0) * (w.real) ** 2 + abs(w) ** 2
    return MarginRecord(point=(w,), lhs=lhs, rhs=rhs)


def infinitesimal_margin_min(t: ExponentTriple, angles: int = 256) -> float:
    """Worst quadratic-form margin over a uniform scan of unit directions."""
    theta = np.linspace(0.0, np.pi, angles, endpoint=False)  # w and -w agree
    w = np.exp(1j * theta)
    wz = w * t.z
    lhs = (t.q - 2.0) * wz.real**2 + np.abs(wz) ** 2
    rhs = (t.p - 2.0) * w.real**2 + np.abs(w) ** 2
    return float(np.min(rhs - lhs))


def _ratio_grid(t: ExponentTriple, b: np.ndarray) -> np.ndarray:
    """lhs/rhs at a = 1 for an array of complex b."""
    lhs = (0.5 * (np.abs(1.0 + t.z * b) ** t.q + np.abs(1.0 - t.z * b) ** t.q)) ** (1.0 / t.q)
    rhs = (0.5 * (np.abs(1.0 + b) ** t.p + np.abs(1.0 - b) ** t.p)) ** (1.0 / t.p)
    return lhs / rhs


def extremal_ratio(t: ExponentTriple, budget: SearchBudget | None = None) -> ExtremalSearchResult:
    """Maximize lhs/rhs over complex (a, b).

    Joint phase and scale invariance reduce the search to a in {0, 1}: the
    a = 0 ray has ratio |z| in closed form, and a = 1 is searched by a
    coarse complex grid followed by derivative-free compass refinement
    (|.|^p is not smooth at zeros of a +- zb, so no gradients).

    The square lattice is supplemented by a polar ladder of small radii with
    dense angles: violations barely past the equality threshold live in a
    thin annulus around the equality manifold b = 0 in one narrow direction,
    which a coarse lattice steps right over.  Ties are broken toward the
    smallest |b|, which keeps witnesses stable near b = 0.
    """
    if budget is None:
        budget = SearchBudget()
    half = int(round(budget.grid_radius / budget.grid_step))
    axis = budget.grid_step * np.arange(-half, half + 1)  # contains 0 exactly
    lattice = (axis[:, None] + 1j * axis[None, :]).ravel()
    angles = np.exp(1j * np.linspace(0.0, np.pi, 64, endpoint=False))  # b ~ -b
    radii = budget.grid_step * 2.0 ** -np.arange(0, 8)
    polar = (radii[:, None] * angles[None, :]).ravel()
    grid = np.concatenate((lattice, polar))
    complete = True
    if grid.size > budget.max_evals:
        grid = grid[: budget.max_evals]
        complete = False
    ratios = _ratio_grid(t, grid)
    evals = grid.size

    best = float(np.max(ratios))
    near = np.abs(ratios - best) <= 1e-12
    candidates = grid[near]
    b_best = complex(candidates[np.argmin(np.abs(candidates))])
    best = float(_ratio_grid(t, np.array([b_best]))[0])

    # a = 0 ray: ratio is exactly |z|.
    if abs(t.z) > best:
        return ExtremalSearchResult(abs(t.z), 0.0, 1.0 + 0.0j, evals, complete)

    h = budget.grid_step
    diag = (1.0 + 1.0j) / math.sqrt(2.0)
    directions = np.array([1.0, -1.0, 1j, -1j, diag, -diag, diag.conjugate(), -diag.conjugate()])
    while h > budget.refine_tol:
        if evals + 8 > budget.max_evals:
            complete = False
            break
        cand = b_best + h * directions
        vals = _ratio_grid(t, cand)
        evals += 8
        i = int(np.argmax(vals))
        if vals[i] > best + 1e-15:
            best = float(vals[i])
            b_best = complex(cand[i])
        else:
            h *= 0.5
    return ExtremalSearchResult(best, 1.0 + 0.0j, b_best, evals, complete)

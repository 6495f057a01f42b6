"""The two-point inequality, its infinitesimal form, and counterexample search.

The global inequality compares, for complex a, b and |z| <= 1,

    ((|a+zb|^q + |a-zb|^q)/2)^{1/q}   vs   ((|a+b|^p + |a-b|^p)/2)^{1/p},

and tensorizes to hypercontractivity of the damping operator on the cube.
Its second-order expansion at b -> 0 is the quadratic-form comparison

    (q-2) (Re wz)^2 + |wz|^2  <=  (p-2) (Re w)^2 + |w|^2,

a necessary condition; whether it is also sufficient is open in part of the
exponent range, so the scanner below only ever reports holds-on-grid or
fails-with-witness, never "verified".

Exponent pairs are carried by ExponentTriple.  Construction accepts any
p, q >= 1: the ordering p <= q is required only by the operations whose
derivations need it (the mixed norms and flows), and those enforce it
themselves.  Margin and ratio evaluations are well defined either way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

_Z_RADIUS_SLACK = 1e-12


@dataclass(frozen=True)
class ExponentTriple:
    """Exponents p, q and damping parameter z with |z| <= 1."""

    p: float
    q: float
    z: complex

    def __post_init__(self):
        if self.p < 1.0 or self.q < 1.0:
            raise ValueError(f"exponents must be >= 1, got p = {self.p}, q = {self.q}")
        if abs(self.z) > 1.0 + _Z_RADIUS_SLACK:
            raise ValueError(f"|z| must be <= 1, got {abs(self.z)}")
        object.__setattr__(self, "z", complex(self.z))

    def require_ordered(self) -> None:
        """Raise unless p <= q (needed by the Minkowski step of the flows)."""
        if self.p > self.q:
            raise ValueError(f"operation requires p <= q, got p = {self.p} > q = {self.q}")


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


@lru_cache(maxsize=8)
def _unit_directions(angles: int) -> np.ndarray:
    """Uniform unit directions on the upper half circle (read-only)."""
    theta = np.linspace(0.0, np.pi, angles, endpoint=False)  # w and -w agree
    w = np.exp(1j * theta)
    w.flags.writeable = False
    return w


def infinitesimal_margin_min(t: ExponentTriple, angles: int = 256) -> float:
    """Worst quadratic-form margin over a uniform scan of unit directions."""
    w = _unit_directions(angles)
    wz = w * t.z
    lhs = (t.q - 2.0) * wz.real**2 + np.abs(wz) ** 2
    rhs = (t.p - 2.0) * w.real**2 + np.abs(w) ** 2
    return float(np.min(rhs - lhs))


@dataclass(frozen=True)
class SearchBudget:
    """Grid and refinement budget for the extremal-ratio search."""

    grid_radius: float = 8.0
    grid_step: float = 0.05
    refine_tol: float = 1e-6
    max_evals: int = 2_000_000

    def __post_init__(self):
        values = (self.grid_radius, self.grid_step, self.refine_tol, self.max_evals)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"search budget fields must be finite, got {self}")
        if not (self.grid_step > 0 and self.grid_radius >= 0 and self.refine_tol > 0 and self.max_evals >= 1):
            raise ValueError(
                "search budget needs grid_step > 0, grid_radius >= 0, refine_tol > 0 "
                f"and max_evals >= 1, got {self}"
            )

    @classmethod
    def reduced(cls) -> "SearchBudget":
        """Cheaper preset used inside region scans."""
        return cls(grid_radius=4.0, grid_step=0.1, refine_tol=1e-6, max_evals=200_000)


@dataclass(frozen=True)
class ExtremalSearchResult:
    sup_ratio: float
    witness_a: complex
    witness_b: complex
    evaluations: int
    complete: bool


def _denominator(p: float, b: np.ndarray) -> np.ndarray:
    """rhs of the ratio at a = 1, ((|1+b|^p + |1-b|^p)/2)^{1/p}; independent of z."""
    return (0.5 * (np.abs(1.0 + b) ** p + np.abs(1.0 - b) ** p)) ** (1.0 / p)


def _ratio_grid(t: ExponentTriple, b: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """lhs/rhs at a = 1 for an array of complex b; rhs, if given, is _denominator(t.p, b)."""
    lhs = (0.5 * (np.abs(1.0 + t.z * b) ** t.q + np.abs(1.0 - t.z * b) ** t.q)) ** (1.0 / t.q)
    return lhs / (_denominator(t.p, b) if rhs is None else rhs)


_DIAG = (1.0 + 1.0j) / math.sqrt(2.0)
_COMPASS = np.array([1.0, -1.0, 1j, -1j, _DIAG, -_DIAG, _DIAG.conjugate(), -_DIAG.conjugate()])


@dataclass(frozen=True)
class _SearchGrid:
    """The z-independent part of a search; every array is read-only."""

    points: np.ndarray  # half lattice, then the polar ladder, cut at max_evals
    rhs: np.ndarray  # _denominator(p, points)
    steps: np.ndarray  # row k: h 2^-k times the 8 compass directions, for h 2^-k > refine_tol
    complete: bool  # False when the cut at max_evals removed points


@lru_cache(maxsize=8)
def _search_grid(budget: SearchBudget, p: float) -> _SearchGrid:
    half = int(round(budget.grid_radius / budget.grid_step))
    axis = budget.grid_step * np.arange(-half, half + 1)  # contains 0 exactly
    lattice = (axis[:, None] + 1j * axis[None, :]).ravel()
    # Ravel index k holds -b where index N^2-1-k holds b, bit for bit, and the
    # ratio at a = 1 is even in b: keep the first of each pair and the centre.
    lattice = lattice[: lattice.size // 2 + 1]
    angles = np.exp(1j * np.linspace(0.0, np.pi, 64, endpoint=False))  # b ~ -b
    radii = budget.grid_step * 2.0 ** -np.arange(0, 8)
    polar = (radii[:, None] * angles[None, :]).ravel()
    points = np.concatenate((lattice, polar))
    complete = points.size <= budget.max_evals
    points = points[: budget.max_evals]
    levels = []
    h = budget.grid_step
    while h > budget.refine_tol:  # halving is exact, so these are the compass's step sizes
        levels.append(h * _COMPASS)
        h *= 0.5
    steps = np.array(levels).reshape(-1, _COMPASS.size)
    rhs = _denominator(p, points)
    for a in (points, rhs, steps):
        a.flags.writeable = False
    return _SearchGrid(points, rhs, steps, complete)


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

    At a = 1 the ratio is even in b, bit for bit (the lattice axis is exactly
    symmetric, negation commutes with rounding in z b, and the two |1 +- zb|
    terms only swap places in a sum), so only the first point of each +-b
    lattice pair is evaluated; the first near-best point of least |b| is
    always among them.  The denominator does not depend on z and is computed
    once per (budget, p).  The compass halves its step h = grid_step down to
    refine_tol and moves whenever one of its 8 neighbours beats the best by
    more than 1e-15; all remaining step sizes are tried from the current
    point in one evaluation, and the first size that improves is taken, which
    is the step the one-at-a-time compass would take next.

    `evaluations` counts the grid points evaluated plus 8 per compass step
    of that one-at-a-time sequence; it never exceeds `max_evals`, and
    `complete` is False when the grid or the compass was cut by it.
    """
    if budget is None:
        budget = SearchBudget()
    grid = _search_grid(budget, float(t.p))
    ratios = _ratio_grid(t, grid.points, grid.rhs)
    evals = grid.points.size
    complete = grid.complete

    best = float(np.max(ratios))
    near = np.flatnonzero(np.abs(ratios - best) <= 1e-12)
    k = near[np.argmin(np.abs(grid.points[near]))]
    b_best = complex(grid.points[k])
    best = float(ratios[k])

    # a = 0 ray: ratio is exactly |z|.
    if abs(t.z) > best:
        return ExtremalSearchResult(abs(t.z), 0.0, 1.0 + 0.0j, evals, complete)

    level = 0
    while level < len(grid.steps):
        steps = grid.steps[level : level + (budget.max_evals - evals) // _COMPASS.size]
        if not steps.size:
            complete = False
            break
        cand = b_best + steps
        vals = _ratio_grid(t, cand.ravel()).reshape(cand.shape)
        better = np.flatnonzero(vals.max(axis=1) > best + 1e-15)
        if not better.size:  # every remaining size halved away
            evals += vals.size
            level += len(steps)
            continue
        j = int(better[0])
        evals += _COMPASS.size * (j + 1)
        level += j
        i = int(np.argmax(vals[j]))
        best = float(vals[j, i])
        b_best = complex(cand[j, i])
    return ExtremalSearchResult(best, 1.0 + 0.0j, b_best, evals, complete)


def real_failure_threshold(
    p: float,
    q: float,
    z_tol: float = 1e-3,
    ratio_tol: float = 1e-9,
    budget: SearchBudget | None = None,
) -> float:
    """Largest real z in [0, 1] where the global inequality still holds, by bisection."""
    lo, hi = 0.0, 1.0
    while hi - lo > z_tol:
        mid = 0.5 * (lo + hi)
        res = extremal_ratio(ExponentTriple(p, q, mid), budget)
        if res.sup_ratio <= 1.0 + ratio_tol:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RegionScanRow:
    p: float
    q: float
    z: complex
    infinitesimal_margin_min: float
    sup_ratio: float
    witness_b: complex
    global_holds: bool
    infinitesimal_holds: bool


def disk_grid(resolution: float) -> np.ndarray:
    """Grid of complex points covering the closed unit disk; resolution >= 0.01."""
    if resolution < 0.01:
        raise ValueError("grid resolution below 0.01 rejected")
    axis = np.arange(-1.0, 1.0 + resolution / 2, resolution)
    grid = (axis[:, None] + 1j * axis[None, :]).ravel()
    return grid[np.abs(grid) <= 1.0 + 1e-12]


def region_scan(
    p: float,
    q: float,
    z_grid: Sequence[complex] | np.ndarray,
    angles: int = 256,
    budget: SearchBudget | None = None,
    ratio_tol: float = 1e-9,
    margin_tol: float = 1e-7,
    threads: int = 1,
) -> list[RegionScanRow]:
    """Evaluate both forms of the inequality on a grid of damping parameters.

    Each z gets a quadratic-form scan over `angles` directions and an
    extremal-ratio search (reduced budget by default).  Output vocabulary is
    holds-on-grid / fails-with-witness only.
    """
    if budget is None:
        budget = SearchBudget.reduced()

    def one(z: complex) -> RegionScanRow:
        t = ExponentTriple(p, q, z)
        inf_min = infinitesimal_margin_min(t, angles)
        res = extremal_ratio(t, budget)
        return RegionScanRow(
            p=p,
            q=q,
            z=complex(z),
            infinitesimal_margin_min=inf_min,
            sup_ratio=res.sup_ratio,
            witness_b=res.witness_b,
            global_holds=res.sup_ratio <= 1.0 + ratio_tol,
            infinitesimal_holds=inf_min >= -margin_tol,
        )

    zs = list(z_grid)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, zs))
    return [one(z) for z in zs]

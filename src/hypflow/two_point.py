"""The two-point inequality, its infinitesimal form, and counterexample search.

The global inequality compares, for complex a, b and |z| <= 1,

    ((|a+zb|^q + |a-zb|^q)/2)^{1/q}   vs   ((|a+b|^p + |a-b|^p)/2)^{1/p},

and tensorizes to hypercontractivity of the damping operator on the cube.
Its second-order expansion at b -> 0 is the quadratic-form comparison

    (q-2) (Re wz)^2 + |wz|^2  <=  (p-2) (Re w)^2 + |w|^2,

a necessary condition; whether it is also sufficient is open in part of the
exponent range, so the scanner below only ever reports holds-on-grid or
fails-with-witness, never "verified".

A region scan runs one extremal-ratio search and one quadratic-form scan
for its whole grid of z (pass `zs=` to extremal_ratio or
infinitesimal_margin_min).  The search's grid stage goes z by z; its
compass refinement moves every z in lockstep, one evaluation per step for
all z still moving, so the number of evaluations follows the slowest z,
not the number of z.  Every z gets bit for bit its single-z result; the
batch result holds arrays over zs, with the evaluation counts summed and
the `complete` flags joined by "and".

Exponent pairs are carried by ExponentTriple, which lives in
hypflow.exponents with conjugate_exponent so that the flow commands load
neither this module nor its search; both are imported here as well, and
`from hypflow.two_point import ExponentTriple` keeps working.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .exponents import _Z_RADIUS_SLACK, ExponentTriple, conjugate_exponent  # noqa: F401 (re-exported)

_ANGLES = 256  # unit directions of the quadratic-form scan
_RATIO_TOL = 1e-9  # a sup ratio up to 1 + this holds
_MARGIN_TOL = 1e-7  # a quadratic-form margin down to -this holds


@lru_cache(maxsize=1)
def _unit_directions() -> np.ndarray:
    """_ANGLES uniform unit directions on the upper half circle (read-only)."""
    theta = np.linspace(0.0, np.pi, _ANGLES, endpoint=False)  # w and -w agree
    w = np.exp(1j * theta)
    w.flags.writeable = False
    return w


def _disk_points(zs) -> np.ndarray:
    """zs as a 1-D complex array, checked like ExponentTriple.z."""
    zs = np.asarray(zs, dtype=complex).ravel()
    if np.any(np.abs(zs) > 1.0 + _Z_RADIUS_SLACK):
        raise ValueError(f"|z| must be <= 1, got {float(np.max(np.abs(zs)))}")
    return zs


def infinitesimal_margin_min(t: ExponentTriple, zs=None):
    """Worst quadratic-form margin over a uniform scan of _ANGLES unit directions.

    The margin at direction w is rhs - lhs of the quadratic-form comparison;
    it is homogeneous of degree 2 in |w|, so unit directions suffice.  With
    an array `zs`, the margin at t.p, t.q for every z of zs (t.z is not
    used), as an array; every entry is bit for bit the single-z value.
    """
    w = _unit_directions()
    wz = w * (t.z if zs is None else _disk_points(zs)[:, None])
    lhs = (t.q - 2.0) * wz.real**2 + np.abs(wz) ** 2
    rhs = (t.p - 2.0) * w.real**2 + np.abs(w) ** 2
    margins = np.min(rhs - lhs, axis=-1)
    return float(margins) if zs is None else margins


class SearchBudget:
    """Grid and refinement budget for the extremal-ratio search.

    Hashable and compared by its fields: it is a key of _search_grid's cache.
    """

    __slots__ = ("grid_radius", "grid_step", "refine_tol", "max_evals")

    def __init__(
        self,
        grid_radius: float = 8.0,
        grid_step: float = 0.05,
        refine_tol: float = 1e-6,
        max_evals: int = 2_000_000,
    ):
        self.grid_radius = grid_radius
        self.grid_step = grid_step
        self.refine_tol = refine_tol
        self.max_evals = max_evals
        values = self._key()
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"search budget fields must be finite, got {self}")
        if not (grid_step > 0 and grid_radius >= 0 and refine_tol > 0 and max_evals >= 1):
            raise ValueError(
                "search budget needs grid_step > 0, grid_radius >= 0, refine_tol > 0 "
                f"and max_evals >= 1, got {self}"
            )

    def _key(self) -> tuple:
        return (self.grid_radius, self.grid_step, self.refine_tol, self.max_evals)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is SearchBudget else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "SearchBudget(grid_radius={!r}, grid_step={!r}, refine_tol={!r}, max_evals={!r})".format(*self._key())

    @classmethod
    def reduced(cls) -> "SearchBudget":
        """Cheaper preset used inside region scans."""
        return cls(grid_radius=4.0, grid_step=0.1, refine_tol=1e-6, max_evals=200_000)


class ExtremalSearchResult(NamedTuple):
    """One search, or with `zs` a batch: then sup_ratio, witness_a and witness_b
    are arrays over zs, evaluations is their sum and complete their conjunction."""

    sup_ratio: float | np.ndarray
    witness_a: complex | np.ndarray
    witness_b: complex | np.ndarray
    evaluations: int
    complete: bool


def _denominator(p: float, b: np.ndarray) -> np.ndarray:
    """rhs of the ratio at a = 1, ((|1+b|^p + |1-b|^p)/2)^{1/p}; independent of z."""
    return (0.5 * (np.abs(1.0 + b) ** p + np.abs(1.0 - b) ** p)) ** (1.0 / p)


def _ratio_grid(p: float, q: float, z, b: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """lhs/rhs at a = 1 for complex b and damping z, which broadcast together;
    rhs, if given, is _denominator(p, b)."""
    lhs = (0.5 * (np.abs(1.0 + z * b) ** q + np.abs(1.0 - z * b) ** q)) ** (1.0 / q)
    return lhs / (_denominator(p, b) if rhs is None else rhs)


_DIAG = (1.0 + 1.0j) / math.sqrt(2.0)
_COMPASS = np.array([1.0, -1.0, 1j, -1j, _DIAG, -_DIAG, _DIAG.conjugate(), -_DIAG.conjugate()])


class _SearchGrid(NamedTuple):
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


def extremal_ratio(t: ExponentTriple, budget: SearchBudget | None = None, zs=None) -> ExtremalSearchResult:
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

    With an array `zs`, the search runs at t.p, t.q for every z of zs (t.z is
    not used).  The grid stage goes one z at a time, which keeps its
    temporaries at the grid's size; the compass runs all z in lockstep, each
    z with its own step size, best point and evaluation count, and one
    evaluation per iteration covers the remaining ladders of every z still
    moving.  A z leaves the compass when its ladder is spent or its budget
    is.  Every z gets bit for bit the result of its own single search; the
    batch result holds sup_ratio, witness_a and witness_b as arrays over zs,
    `evaluations` as their sum and `complete` as their conjunction.

    `evaluations` counts the grid points evaluated plus 8 per compass step
    of the one-at-a-time sequence; per z it never exceeds `max_evals`, and
    `complete` is False when the grid or the compass was cut by it.
    """
    if budget is None:
        budget = SearchBudget()
    batch = zs is not None
    zs = _disk_points(zs) if batch else np.array([t.z])
    grid = _search_grid(budget, float(t.p))
    width = _COMPASS.size
    sup = np.empty(zs.size)
    b_best = np.empty(zs.size, dtype=complex)
    ray = np.zeros(zs.size, dtype=bool)
    for r, z in enumerate(zs):  # grid stage
        ratios = _ratio_grid(t.p, t.q, z, grid.points, grid.rhs)
        near = np.flatnonzero(np.abs(ratios - np.max(ratios)) <= 1e-12)
        k = near[np.argmin(np.abs(grid.points[near]))]
        b_best[r] = grid.points[k]
        sup[r] = ratios[k]
        radius = abs(complex(z))  # a = 0 ray: ratio is exactly |z|
        if radius > sup[r]:
            ray[r] = True
            sup[r] = radius
            b_best[r] = 1.0 + 0.0j

    evals = np.full(zs.size, grid.points.size)
    level = np.zeros(zs.size, dtype=int)
    cut = np.zeros(zs.size, dtype=bool)
    # Compass stage.  Each row z still moving tries its remaining ladder,
    # grid.steps[level : level + room], from its own best point; room is
    # what is left of the ladder and of the row's budget.
    rows = np.flatnonzero(~ray)
    while True:
        rows = rows[level[rows] < len(grid.steps)]
        room = np.minimum(len(grid.steps) - level[rows], (budget.max_evals - evals[rows]) // width)
        cut[rows[room == 0]] = True
        rows, room = rows[room > 0], room[room > 0]
        if not rows.size:
            break
        span = np.arange(room.max())
        valid = span < room[:, None]
        cand = np.repeat(b_best[rows], room)[:, None] + grid.steps[(level[rows][:, None] + span)[valid]]
        vals = np.full((rows.size, span.size, width), -np.inf)
        vals[valid] = _ratio_grid(t.p, t.q, np.repeat(zs[rows], room)[:, None], cand)
        # per row, the first size that improves and its first best direction
        better = vals.max(axis=2) > sup[rows][:, None] + 1e-15
        moved = better.any(axis=1)
        j = np.where(moved, better.argmax(axis=1), room)  # every remaining size halved away
        evals[rows] += width * np.where(moved, j + 1, room)
        level[rows] += j
        m = np.flatnonzero(moved)
        i = vals[m, j[m]].argmax(axis=1)
        sup[rows[m]] = vals[m, j[m], i]
        b_best[rows[m]] = cand[(np.cumsum(room) - room)[m] + j[m], i]

    complete = grid.complete and not cut.any()
    if batch:
        return ExtremalSearchResult(sup, np.where(ray, 0j, 1.0 + 0.0j), b_best, int(evals.sum()), complete)
    a = 0.0 if ray[0] else 1.0 + 0.0j
    return ExtremalSearchResult(float(sup[0]), a, complex(b_best[0]), int(evals[0]), complete)


def real_failure_threshold(p: float, q: float) -> float:
    """Largest real z in [0, 1] where the global inequality still holds, by
    bisection to width 2e-3 under the full search budget."""
    lo, hi = 0.0, 1.0
    while hi - lo > 2e-3:
        mid = 0.5 * (lo + hi)
        res = extremal_ratio(ExponentTriple(p, q, mid))
        if res.sup_ratio <= 1.0 + _RATIO_TOL:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class RegionScanRow(NamedTuple):
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
    budget: SearchBudget | None = None,
) -> list[RegionScanRow]:
    """Evaluate both forms of the inequality on a grid of damping parameters.

    Each z gets a quadratic-form scan over _ANGLES directions and an
    extremal-ratio search (reduced budget by default); both run once for the
    whole grid, as batches over z.  Output vocabulary is holds-on-grid /
    fails-with-witness only.
    """
    if budget is None:
        budget = SearchBudget.reduced()
    zs = _disk_points(z_grid)
    t = ExponentTriple(p, q, 0.0)
    margins = infinitesimal_margin_min(t, zs=zs).tolist()
    res = extremal_ratio(t, budget, zs=zs)
    return [
        RegionScanRow(
            p=p,
            q=q,
            z=z,
            infinitesimal_margin_min=margin,
            sup_ratio=sup,
            witness_b=b,
            global_holds=sup <= 1.0 + _RATIO_TOL,
            infinitesimal_holds=margin >= -_MARGIN_TOL,
        )
        for z, margin, sup, b in zip(zs.tolist(), margins, res.sup_ratio.tolist(), res.witness_b.tolist())
    ]

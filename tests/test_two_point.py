"""Two-point inequality margins, extremal search, and region scans."""
import math

import numpy as np
import pytest

import two_point_reference as ref
from hypflow import two_point
from hypflow.cli import main
from hypflow.reporting import write_region_csv
from hypflow.two_point import (
    ExponentTriple,
    RegionScanRow,
    SearchBudget,
    disk_grid,
    extremal_ratio,
    infinitesimal_margin_min,
    real_failure_threshold,
    region_scan,
)


def test_exponent_triple_validation():
    with pytest.raises(ValueError):
        ExponentTriple(0.5, 2.0, 0.1)
    with pytest.raises(ValueError):
        ExponentTriple(2.0, 2.0, 1.2)
    # p > q is constructible (the quadratic form is defined either way) but
    # rejected by the flow-side operations
    t = ExponentTriple(3.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        t.require_ordered()


def test_two_point_margin_examples():
    r = ref.two_point_margin(3.0 - 1.0j, 0.0, ExponentTriple(1.5, 2.5, 0.3 + 0.2j))
    assert abs(r.lhs - abs(3.0 - 1.0j)) <= 1e-14
    assert abs(r.margin) <= 1e-14
    r = ref.two_point_margin(1.0, 1.0, ExponentTriple(2.0, 2.0, 1j))
    assert abs(r.lhs - math.sqrt(2)) <= 1e-14
    assert abs(r.rhs - math.sqrt(2)) <= 1e-14
    r = ref.two_point_margin(1.0, 1.0, ExponentTriple(2.0, 4.0, 0.5))
    assert abs(r.lhs - 2.5625**0.25) <= 1e-14
    assert abs(r.rhs - math.sqrt(2)) <= 1e-14
    assert r.margin > 0


def test_infinitesimal_margin_examples():
    assert ref.infinitesimal_margin(0.0, ExponentTriple(1.5, 3.0, 0.4)).margin == 0.0
    for w in [1.0, 0.3 - 0.8j, 1j]:
        r = ref.infinitesimal_margin(w, ExponentTriple(2.5, 2.5, 1.0))
        assert abs(r.margin) <= 1e-14
    r = ref.infinitesimal_margin(1.0, ExponentTriple(3.0, 2.0, 1j))
    assert r.rhs == 2.0 and r.lhs == 1.0 and r.margin == 1.0
    # the scan region_scan reports is the least of these over its unit directions
    t = ExponentTriple(3.0, 2.0, 0.4 + 0.3j)
    least = min(ref.infinitesimal_margin(w, t).margin for w in two_point._unit_directions())
    assert abs(infinitesimal_margin_min(t) - least) <= 1e-15


def test_margin_scale_and_phase_invariance():
    rng = np.random.default_rng(9)
    t = ExponentTriple(1.7, 3.3, 0.4 - 0.5j)
    for _ in range(20):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        lam = complex(rng.normal(), rng.normal())
        if abs(lam) < 1e-3:
            continue
        base = ref.two_point_margin(a, b, t)
        scaled = ref.two_point_margin(lam * a, lam * b, t)
        assert abs(scaled.lhs - abs(lam) * base.lhs) <= 1e-12 * max(1.0, abs(lam) * base.lhs)
        assert abs(scaled.rhs - abs(lam) * base.rhs) <= 1e-12 * max(1.0, abs(lam) * base.rhs)


def test_margin_symmetries():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p, q = sorted(rng.uniform(1.0, 4.0, size=2))
        z = complex(rng.normal(), rng.normal()) * 0.4
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        base = ref.two_point_margin(a, b, ExponentTriple(p, q, z))
        flip_z = ref.two_point_margin(a, b, ExponentTriple(p, q, -z))
        flip_b = ref.two_point_margin(a, -b, ExponentTriple(p, q, z))
        conj = ref.two_point_margin(
            np.conj(a), np.conj(b), ExponentTriple(p, q, np.conj(z))
        )
        for other in (flip_z, flip_b, conj):
            assert abs(base.margin - other.margin) <= 1e-12 * max(1.0, abs(base.margin))


def test_extremal_ratio_z_zero():
    res = extremal_ratio(ExponentTriple(2.0, 4.0, 0.0))
    assert abs(res.sup_ratio - 1.0) <= 1e-12
    assert abs(res.witness_b) <= 1e-12
    assert res.complete


def test_extremal_ratio_identity_case():
    res = extremal_ratio(ExponentTriple(2.0, 2.0, 1.0))
    assert abs(res.sup_ratio - 1.0) <= 1e-12


def test_extremal_ratio_finds_classical_failure():
    res = extremal_ratio(ExponentTriple(2.0, 4.0, 0.62))
    assert res.sup_ratio > 1.0 + 1e-4
    # and the witness really achieves that ratio
    rec = ref.two_point_margin(1.0, res.witness_b, ExponentTriple(2.0, 4.0, 0.62))
    assert rec.lhs / rec.rhs > 1.0 + 1e-4


def test_extremal_ratio_budget_flag():
    tiny = SearchBudget(grid_radius=8.0, grid_step=0.05, refine_tol=1e-6, max_evals=100)
    res = extremal_ratio(ExponentTriple(2.0, 4.0, 0.3), tiny)
    assert not res.complete


@pytest.mark.parametrize(
    "fields",
    [
        {"refine_tol": -1.0},  # the step halving would never stop
        {"refine_tol": 0.0},
        {"grid_step": 0.0},  # no lattice size
        {"grid_step": -0.1},  # an empty lattice
        {"grid_radius": -1.0},
        {"max_evals": 0},
        {"grid_radius": math.inf},
        {"grid_step": math.nan},
        {"refine_tol": math.inf},
    ],
)
def test_search_budget_rejects_invalid_fields(fields):
    with pytest.raises(ValueError):
        SearchBudget(**fields)


def test_search_budget_accepts_edge_values():
    res = extremal_ratio(ExponentTriple(2.0, 4.0, 0.3), SearchBudget(grid_radius=0.0, max_evals=1))
    assert res.evaluations == 1 and not res.complete


def test_equal_search_budgets_share_one_cached_grid():
    # SearchBudget is the key of _search_grid's cache: equal budgets hash alike
    assert SearchBudget.reduced() == SearchBudget(4.0, 0.1, 1e-6, 200_000) != SearchBudget()
    assert len({SearchBudget.reduced(), SearchBudget.reduced(), SearchBudget()}) == 2
    assert two_point._search_grid(SearchBudget.reduced(), 1.5) is two_point._search_grid(SearchBudget.reduced(), 1.5)


def _lattice_side(budget):
    return 2 * int(round(budget.grid_radius / budget.grid_step)) + 1


def _with_max_evals(budget, max_evals):
    return SearchBudget(budget.grid_radius, budget.grid_step, budget.refine_tol, max_evals)


@pytest.mark.parametrize("budget", [SearchBudget.reduced(), SearchBudget()], ids=["reduced", "full"])
@pytest.mark.parametrize("p, q", [(1.25, 2.5), (1.5, 3.0), (2.0, 4.0), (2.04, 4.03)])
def test_extremal_ratio_bit_identical_to_reference(budget, p, q):
    skipped = (_lattice_side(budget) ** 2 - 1) // 2  # the mirrored half of the lattice
    for z in disk_grid(0.25):
        t = ExponentTriple(p, q, z)
        new, old = extremal_ratio(t, budget), ref.extremal_ratio(t, budget)
        assert new.sup_ratio == old.sup_ratio, z
        # repr compares the signs of zero parts too, which the CSV prints
        assert repr(new.witness_a) == repr(old.witness_a), z
        assert repr(new.witness_b) == repr(old.witness_b), z
        assert new.complete == old.complete, z
        assert new.evaluations == old.evaluations - skipped, z
        assert infinitesimal_margin_min(t) == ref.infinitesimal_margin_min(t), z


def test_two_point_scan_csv_matches_reference(tmp_path):
    out = tmp_path / "out"
    main(["two-point-scan", "--p", "2", "--q", "4", "--resolution", "0.25", "--out", str(out)])
    budget = SearchBudget.reduced()
    rows = []
    for z in disk_grid(0.25):
        t = ExponentTriple(2.0, 4.0, z)
        res = ref.extremal_ratio(t, budget)
        inf_min = ref.infinitesimal_margin_min(t)
        rows.append(RegionScanRow(2.0, 4.0, complex(z), inf_min, res.sup_ratio, res.witness_b, False, False))
    write_region_csv(rows, tmp_path / "reference.csv")
    assert (out / "scan.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_extremal_ratio_breaks_ties_as_reference(monkeypatch):
    # An even stand-in ratio with a maximum off the lattice: the compass meets
    # exact ties, between -b and its conjugate, and must take the first one.
    def tied(b):
        return np.exp(-((np.abs(b.real) - 0.33) ** 2) - (np.abs(b.imag) - 0.04) ** 2)

    monkeypatch.setattr(two_point, "_ratio_grid", lambda p, q, z, b, rhs=None: tied(b))
    monkeypatch.setattr(ref, "_ratio_grid", lambda t, b: tied(b))
    t = ExponentTriple(2.0, 4.0, 0.1)
    for budget in (SearchBudget.reduced(), SearchBudget()):
        new, old = extremal_ratio(t, budget), ref.extremal_ratio(t, budget)
        assert (new.sup_ratio, repr(new.witness_b)) == (old.sup_ratio, repr(old.witness_b))
        assert new.witness_b.imag < 0


def _count_ratio_calls(monkeypatch):
    calls = []
    original = two_point._ratio_grid

    def counted(p, q, z, b, *args):
        calls.append(b.size)
        return original(p, q, z, b, *args)

    monkeypatch.setattr(two_point, "_ratio_grid", counted)
    return calls


def test_extremal_ratio_truncated_budgets(monkeypatch):
    t = ExponentTriple(2.0, 4.0, 0.3)
    reduced = SearchBudget.reduced()
    grid_size = (_lattice_side(reduced) ** 2 + 1) // 2 + 8 * 64  # half lattice and polar ladder
    for max_evals in (1, 100, 3000, grid_size - 1):
        calls = _count_ratio_calls(monkeypatch)
        res = extremal_ratio(t, _with_max_evals(reduced, max_evals))
        assert not res.complete, max_evals
        assert res.evaluations == sum(calls) == max_evals  # the cut grid, and no compass step
    # the grid fits, two compass steps do, the rest of the compass is cut
    for max_evals in (grid_size, grid_size + 16, grid_size + 23):
        res = extremal_ratio(t, _with_max_evals(reduced, max_evals))
        assert not res.complete and grid_size <= res.evaluations <= max_evals
        assert (res.evaluations - grid_size) % 8 == 0
    assert extremal_ratio(t, reduced).complete


def test_extremal_ratio_tries_the_halving_ladder_in_one_call(monkeypatch):
    # The one-at-a-time compass made 29 calls here, one per step.
    calls = _count_ratio_calls(monkeypatch)
    res = extremal_ratio(ExponentTriple(2.0, 4.0, 0.62), SearchBudget.reduced())
    assert res.sup_ratio > 1.0 + 1e-4
    assert len(calls) <= 14


# disk_grid(0.25) and two points just past |z| = 1, inside ExponentTriple's
# slack, where the a = 0 ray beats every a = 1 point when p > q
_BATCH_ZS = np.concatenate((disk_grid(0.25), [1.0 + 1e-13, -1j * (1.0 + 1e-13)]))


def _reference_budget(budget):
    """The budget under which the reference, which also evaluates the mirrored
    half of the lattice, makes the same search: max_evals cuts it in the same step."""
    return _with_max_evals(budget, budget.max_evals + (_lattice_side(budget) ** 2 - 1) // 2)


def _compass_cut(p, q, zs):
    """The reduced budget with max_evals halfway between the least and the most
    evaluations any z makes, so that it cuts the compass for some z only."""
    reduced = SearchBudget.reduced()
    counts = [extremal_ratio(ExponentTriple(p, q, z), reduced).evaluations for z in zs]
    return _with_max_evals(reduced, (min(counts) + max(counts)) // 2)


@pytest.mark.parametrize("budget", ["reduced", "full", "cut"])
@pytest.mark.parametrize("p, q", [(1.25, 2.5), (1.5, 3.0), (2.04, 4.03), (3.0, 1.5)])
def test_batched_search_matches_per_z_reference(budget, p, q):
    cut = budget == "cut"
    if cut:
        budget = _compass_cut(p, q, _BATCH_ZS)
    else:
        budget = {"reduced": SearchBudget.reduced(), "full": SearchBudget()}[budget]
    rows = region_scan(p, q, _BATCH_ZS, budget=budget)
    olds = [ref.extremal_ratio(ExponentTriple(p, q, z), _reference_budget(budget)) for z in _BATCH_ZS]
    for z, row, old in zip(_BATCH_ZS, rows, olds):
        assert row.sup_ratio == old.sup_ratio, z
        assert repr(row.witness_b) == repr(old.witness_b), z
        assert row.infinitesimal_margin_min == ref.infinitesimal_margin_min(ExponentTriple(p, q, z)), z
    if p > q:
        assert any(old.witness_a == 0.0 for old in olds)  # the ray won somewhere
    if cut:
        assert {old.complete for old in olds} == {True, False}  # the cut hit some z, not all

    batch = extremal_ratio(ExponentTriple(p, q, 0.0), budget, zs=_BATCH_ZS)
    singles = [extremal_ratio(ExponentTriple(p, q, z), budget) for z in _BATCH_ZS]
    assert type(batch.evaluations) is int and type(batch.complete) is bool
    assert batch.evaluations == sum(single.evaluations for single in singles)
    assert batch.complete == all(single.complete for single in singles)
    assert batch.sup_ratio.tolist() == [single.sup_ratio for single in singles]
    assert batch.witness_a.tolist() == [single.witness_a for single in singles]


def _compass_calls(monkeypatch, p, q, zs):
    calls = _count_ratio_calls(monkeypatch)
    region_scan(p, q, zs)
    return len(calls) - len(zs)  # the grid stage makes one call per z


@pytest.mark.parametrize("p, q", [(2.0, 4.0), (2.04, 4.03)])
def test_compass_calls_do_not_grow_with_the_z_grid(monkeypatch, p, q):
    # one or more per z before the lockstep search: 317 and 1,257 at least
    coarse = _compass_calls(monkeypatch, p, q, disk_grid(0.1))
    assert _compass_calls(monkeypatch, p, q, disk_grid(0.05)) <= coarse < 317


@pytest.mark.parametrize("p, q", [(1.25, 2.5), (1.5, 3.0)])
def test_compass_calls_are_the_slowest_single_z(monkeypatch, p, q):
    # The count follows the slowest z, not the number of z.  So a finer grid
    # can cost a few more calls (24 against 22 at (1.25, 2.5)) or, at
    # (1.5, 3.0), hundreds: four z of disk_grid(0.05) take 471 compass calls
    # where no z of disk_grid(0.1) takes more than 20.
    zs = disk_grid(0.1)
    single = []
    for z in zs:
        calls = _count_ratio_calls(monkeypatch)
        extremal_ratio(ExponentTriple(p, q, z), SearchBudget.reduced())
        single.append(len(calls) - 1)
    assert _compass_calls(monkeypatch, p, q, zs) == max(single)


def test_search_caches_are_read_only():
    grid = two_point._search_grid(SearchBudget.reduced(), 2.0)
    for a in (grid.points, grid.rhs, grid.steps, two_point._unit_directions()):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_real_failure_threshold_classical_value():
    th = real_failure_threshold(2.0, 4.0)
    assert 0.567 <= th <= 0.587  # 1/sqrt(3) = 0.5774 classically


def test_region_scan():
    rows = region_scan(2.0, 4.0, [0.0, 0.3, 0.62, 0.4j], budget=SearchBudget.reduced())
    by_z = {r.z: r for r in rows}
    assert by_z[0.0].global_holds and by_z[0.0].infinitesimal_holds
    assert by_z[0.3].global_holds
    assert not by_z[0.62].global_holds
    assert not by_z[0.62].infinitesimal_holds
    # global holds always implies the quadratic form holds
    for r in rows:
        if r.global_holds:
            assert r.infinitesimal_margin_min >= -1e-7


def test_disk_grid():
    grid = disk_grid(0.25)
    assert np.all(np.abs(grid) <= 1.0 + 1e-12)
    assert any(abs(z) <= 1e-12 for z in grid)
    with pytest.raises(ValueError):
        disk_grid(0.001)


def test_global_implies_infinitesimal_on_samples():
    rng = np.random.default_rng(11)
    tested = 0
    while tested < 15:
        p = float(rng.uniform(1.0, 3.5))
        q = float(rng.uniform(p, 4.0))
        z = complex(rng.normal(), rng.normal())
        if abs(z) > 1.0:
            z /= abs(z) * rng.uniform(1.0, 2.0)
        t = ExponentTriple(p, q, z)
        res = extremal_ratio(t, SearchBudget.reduced())
        if res.sup_ratio <= 1.0 + 1e-9:
            assert infinitesimal_margin_min(t) >= -1e-7, (p, q, z)
        tested += 1

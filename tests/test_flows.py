"""Discrete flow, the three continuous evaluators, and convergence."""
import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermevander

from identity_checks import BlockCounts, mehler_apply_series, mixed_moment_check
import hypflow.cube as cube
import hypflow.flows as flows
from hypflow.cube import TAIL_RTOL, SymmetricSpec, TailCut, apply_Tzk
from hypflow.errors import EvaluatorMismatchError
from hypflow.flows import (
    OuterStats,
    convergence_experiment,
    discrete_flow,
    janson_flow,
    janson_heat,
    janson_mehler,
    janson_quadrature,
)
from hypflow.gaussian_atoms import GaussianAtom
from hypflow.hausdorff_young import _atom_flow
from hypflow.hermite import HermiteSeries, PolySeries, gaussian_smooth, hermite_scaled_sum
from hypflow.quadrature import gh_rule
from hypflow.two_point import ExponentTriple, SearchBudget, _ratio_grid, extremal_ratio


def test_discrete_flow_constant_is_flat():
    t = ExponentTriple(1.5, 3.0, 0.3 + 0.4j)
    rep = discrete_flow(SymmetricSpec(n=5, a=[2.0 - 1.0j]), t)
    expected = abs(2.0 - 1.0j) ** 1.5
    assert all(abs(v - expected) <= 1e-13 for v in rep.values)
    assert rep.verdict().nondecreasing


def test_discrete_flow_endpoints():
    rng = np.random.default_rng(12)
    spec = SymmetricSpec(n=6, a=rng.normal(size=3) + 1j * rng.normal(size=3))
    t = ExponentTriple(1.8, 3.4, 0.45)
    rep = discrete_flow(spec, t)
    cube = spec.materialize()
    values = cube.values()
    # value(n) = E|f|^p
    assert abs(rep.values[-1] - np.mean(np.abs(values) ** t.p)) <= 1e-12
    # value(0) = (E|T_z f|^q)^{p/q}
    damped = apply_Tzk(cube, t.z, 0).values()
    want = np.mean(np.abs(damped) ** t.q) ** (t.p / t.q)
    assert abs(rep.values[0] - want) <= 1e-12


def test_discrete_flow_backends_agree_and_are_monotone():
    t = ExponentTriple(2.0, 4.0, 0.5)
    spec = SymmetricSpec(n=6, a=[0.0, 1.0, 1.0])
    collapsed = discrete_flow(spec, t)
    naive = discrete_flow(spec, t, backend="naive")
    assert collapsed.verdict().nondecreasing
    for a, b in zip(collapsed.values, naive.values):
        assert abs(a - b) <= 1e-12 * max(1.0, a)


def _exact_blocks(n, l_max):
    # phi_j of a block of size T with c entries 1/sqrt(n) and the rest
    # -1/sqrt(n), from e_j = sum_i (-1)^(j-i) C(c, i) C(T-c, j-i) in int64
    # (exact here: every term is at most C(n, l_max) < 2^53)
    binom = np.array([[math.comb(c, i) for i in range(l_max + 1)] for c in range(n + 1)], dtype=np.int64)
    blocks = []
    for total in range(n + 1):
        c = np.arange(total + 1)
        ints = [
            sum((-1) ** (j - i) * binom[c, i] * binom[total - c, j - i] for i in range(j + 1))
            for j in range(l_max + 1)
        ]
        blocks.append(np.array([math.factorial(j) * e / n ** (j / 2) for j, e in enumerate(ints)]))
    return blocks


def test_collapsed_flow_matches_exact_level_sums():
    # every k at n = 400, where the tail cut is active, against fsum level
    # sums with exact binomial weights
    n, p, q, z = 400, 1.5, 3.7, 0.3 + 0.2j
    a = np.array([0.3 + 0.1j, 1 - 0.5j, 0.2j, 0.7, -0.4 + 0.3j, 0.25 - 0.6j])
    rep = discrete_flow(SymmetricSpec(n=n, a=a), ExponentTriple(p, q, z))
    assert rep.diagnostics["cells_kept_share"] < 1.0
    assert 0.0 < rep.diagnostics["tail_bound"] <= 1e-15
    blocks = _exact_blocks(n, a.size - 1)
    # int / int true division rounds the exact quotient once
    weights = [np.array([math.comb(total, j) / 2**total for j in range(total + 1)]) for total in range(n + 1)]
    mix = np.array(
        [[a[j + m] * math.comb(j + m, m) * z**m if j + m < a.size else 0 for m in range(a.size)] for j in range(a.size)]
    )
    for k, value in zip(rep.parameters, rep.values):
        k = int(k)
        terms = weights[n - k] * np.abs(blocks[k].T @ mix @ blocks[n - k]) ** q
        inner = [math.fsum(row) for row in terms.tolist()]
        want = math.fsum(w * v ** (p / q) for w, v in zip(weights[k].tolist(), inner))
        assert abs(value - want) <= 1e-14 * want, k


def test_discrete_flow_validation():
    spec = SymmetricSpec(n=4, a=[1.0])
    with pytest.raises(ValueError):
        discrete_flow(spec, ExponentTriple(3.0, 2.0, 0.5))  # p > q
    with pytest.raises(ValueError):
        discrete_flow(spec, ExponentTriple(1.5, 2.0, 0.5), ks=[5])
    cube = spec.materialize()
    with pytest.raises(ValueError):
        discrete_flow(cube, ExponentTriple(1.5, 2.0, 0.5), backend="collapsed")


def test_degrees_out_of_float_range():
    # the collapsed backend rejects a degree whose j! or K_j leaves float range
    t = ExponentTriple(2.0, 4.0, 0.5)
    for n in (6, 200):
        with pytest.raises(ValueError, match=f"degree 171 at n = {n} is out of float range"):
            discrete_flow(SymmetricSpec(n=n, a=[1.0] * 172), t)
    # degree 170: 170! is a float, but C(6000, 154) is not
    with pytest.raises(ValueError, match="degree 170 at n = 6000 is out of float range"):
        discrete_flow(SymmetricSpec(n=6000, a=[1.0] * 171), t, ks=[0])
    # the naive backend: phi_ell vanishes for ell > n, so those terms drop out
    naive = discrete_flow(SymmetricSpec(n=6, a=[1.0] * 172).materialize(), t)
    assert naive.values == discrete_flow(SymmetricSpec(n=6, a=[1.0] * 7).materialize(), t).values


def test_janson_constant_input():
    t = ExponentTriple(1.5, 3.0, 0.6j)
    g = PolySeries([1.5 - 0.5j])
    for s in [0.0, 0.4, 1.0]:
        want = abs(1.5 - 0.5j) ** 1.5
        assert abs(janson_quadrature(g, t, s) - want) <= 1e-10
        assert abs(janson_mehler(g, t, s) - want) <= 1e-10


def test_janson_endpoints_reduce_to_gaussian_norms():
    # coefficients chosen so |g~| stays away from zero on the real line:
    # |.|^p is then smooth and a fixed dense rule is a trustworthy oracle
    g = PolySeries([2.0 + 1.0j, 1.0, 0.5 + 1.0j, 0.25j])
    p = 4 / 3
    t = ExponentTriple(p, 4.0, 1j * math.sqrt(p - 1))
    gt = gaussian_smooth(g)
    from hypflow.quadrature import gh_rule

    rule = gh_rule(256)
    assert np.min(np.abs(gt(rule.nodes))) > 0.5
    # s = 1: E |g~|^p
    want1 = rule.integrate(lambda u: np.abs(gt(u)) ** p).real
    assert abs(janson_mehler(g, t, 1.0) - want1) <= 1e-8 * want1
    # s = 0: (E |M_z g~|^q)^{p/q}
    damped = mehler_apply_series(t.z, gt)
    want0 = rule.integrate(lambda x: np.abs(damped(x)) ** t.q).real ** (p / t.q)
    assert abs(janson_mehler(g, t, 0.0) - want0) <= 1e-8 * want0


def test_three_evaluators_agree_spec_example():
    g = PolySeries([1.0, 2.0, 0.0, 1.0])
    p = 4 / 3
    t = ExponentTriple(p, 4.0, 1j * math.sqrt(p - 1))
    a = janson_quadrature(g, t, 0.37)
    b = janson_mehler(g, t, 0.37)
    c = janson_heat(gaussian_smooth(g), t, 0.37)
    assert abs(a - b) <= 1e-7 * abs(a)
    assert abs(b - c) <= 1e-7 * abs(b)


def test_janson_heat_matches_mehler_spec_points():
    gt = HermiteSeries([1.0, 1.0])
    p = 1.5
    t = ExponentTriple(p, 3.0, 1j * math.sqrt(p - 1))
    for s in [0.25, 0.5, 0.75]:
        heat_val = janson_heat(gt, t, s)
        mehler_val = janson_mehler(PolySeries(gt.coeffs), t, s)
        assert abs(heat_val - mehler_val) <= 1e-7 * abs(mehler_val)


def test_janson_heat_real_damping():
    rng = np.random.default_rng(14)
    gt = HermiteSeries(rng.normal(size=4) + 1j * rng.normal(size=4))
    t = ExponentTriple(2.0, 2.0, 0.5)
    for s in [0.3, 0.8]:
        heat_val = janson_heat(gt, t, s)
        quad_val = janson_quadrature(PolySeries(gt.coeffs), t, s)
        assert abs(heat_val - quad_val) <= 1e-7 * abs(quad_val)


def test_scaled_hermite_inner_evaluator_is_regular_at_sigma_zero():
    # sigma = s + (1-s) z^2 = 0 at z = i sqrt(s/(1-s)): nothing blows up
    s = 0.5
    t = ExponentTriple(1.5, 3.0, 1j * math.sqrt(s / (1 - s)))
    g = PolySeries([0.0, 0.0, 1.0])
    val = janson_mehler(g, t, s)
    assert np.isfinite(val) and val > 0
    ref = janson_quadrature(g, t, s)
    assert abs(val - ref) <= 1e-7 * abs(ref)


def test_janson_flow_report_and_mismatch_error(monkeypatch):
    g = PolySeries([1.0, 2.0, 0.0, 1.0])
    p = 4 / 3
    t = ExponentTriple(p, 4.0, 1j * math.sqrt(p - 1))
    rep = janson_flow(g, t, s_grid=np.linspace(0, 1, 9))
    assert rep.verdict().nondecreasing
    assert rep.min_delta() > -1e-9

    # a reference evaluator off by ten times the default spot_tol must surface
    # as a mismatch error; one off by a tenth of it must not
    def offset(scale):
        def evaluate(*args, **kwargs):
            return janson_quadrature(*args, **kwargs) * scale

        return evaluate

    monkeypatch.setattr(flows, "janson_quadrature", offset(1 + 1e-5))
    with pytest.raises(EvaluatorMismatchError):
        janson_flow(g, t, s_grid=[0.0, 0.5, 1.0])
    monkeypatch.setattr(flows, "janson_quadrature", offset(1 + 1e-7))
    janson_flow(g, t, s_grid=[0.0, 0.5, 1.0])


def test_three_inner_polynomials_agree_at_every_sample(monkeypatch):
    # Each evaluator hands its inner average to _janson_outer as a polynomial
    # in X = sqrt(s) u + z sqrt(1-s) x: scaled Hermite h_l(X; sigma) for
    # mehler, monomials for quadrature and heat.  On the 64-node product grid
    # all three agree within 1e-12 of sum |c_m| |X|^m over 300 draws from
    # acceptance criterion 3's distribution (measured 1.23e-13).  Dropping the
    # phase of z^2 in janson_heat's complex time, (1-s)(1 - |z|^2), fails it.
    captured = []
    monkeypatch.setattr(flows, "_janson_outer", lambda c, kappa, *rest: captured.append((c, kappa)) or 0.0)
    rng = np.random.default_rng(11)
    nodes = gh_rule(64).nodes
    for _ in range(300):
        g = _random_poly(rng)
        p = float(rng.uniform(1.0, 4.0))
        q = float(rng.uniform(p, 4.0))
        z = 0.95 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        s = float(rng.uniform(0.05, 0.95))
        t = ExponentTriple(p, q, complex(z))
        captured.clear()
        janson_quadrature(g, t, s)
        janson_mehler(g, t, s)
        janson_heat(gaussian_smooth(g), t, s)
        (quad, k_quad), (mehler, k_mehler), (heat, k_heat) = captured
        assert (k_quad, k_mehler, k_heat) == (0.0, 1.0, 0.0)
        x = math.sqrt(s) * nodes[:, None] + z * math.sqrt(1.0 - s) * nodes[None, :]
        values = [
            np.polynomial.polynomial.polyval(x, quad),
            hermite_scaled_sum(mehler, x, s + (1.0 - s) * z * z),
            np.polynomial.polynomial.polyval(x, heat),
        ]
        scale = np.polynomial.polynomial.polyval(np.abs(x), np.abs(quad))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert np.all(np.abs(values[i] - values[j]) <= 1e-12 * scale), (i, j, g.coeffs, t, s)


# ------------------------------------------------ outer-grid tail cut

_EVALUATORS = {
    "quadrature": janson_quadrature,
    "mehler": janson_mehler,
    "heat": lambda g, t, s, rule, stats: janson_heat(gaussian_smooth(g), t, s, rule, stats),
}


def _random_poly(rng, max_degree=8):
    deg = int(rng.integers(0, max_degree + 1))
    return PolySeries(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))


def _triples(rng, count):
    # the two conjugate pairs of the flows, then criterion-3-style draws
    out = [ExponentTriple(4 / 3, 4.0, 1j * math.sqrt(1 / 3)), ExponentTriple(1.5, 3.0, 1j * math.sqrt(0.5))]
    for _ in range(count):
        p = float(rng.uniform(1.0, 4.0))
        q = float(rng.uniform(p, 4.0))
        z = 0.95 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        out.append(ExponentTriple(p, q, complex(z)))
    return out


def _cut_and_full(monkeypatch, evaluate):
    """(value, TailCut) with the cut, then with every cell formed."""
    runs = []
    for rtol in (TAIL_RTOL, -1.0):  # a negative bound budget forces the full grid
        monkeypatch.setattr(cube, "TAIL_RTOL", rtol)
        stats = OuterStats()
        runs.append((evaluate(stats), *stats.cuts))
    monkeypatch.setattr(cube, "TAIL_RTOL", TAIL_RTOL)
    return runs


def test_outer_majorants_bound_the_full_grid(monkeypatch):
    # every cell of the full factored grid lies under the power-mean
    # majorant K^(q-1) |left|^q @ |right|^q that chooses the cells formed
    checked = []
    original = flows.factored_mixed_norm

    def spy(left, right, w_rows, w_cols, p, q, *, share):
        size_q = np.abs(left @ right) ** q
        majorant = left.shape[1] ** (q - 1.0) * (np.abs(left) ** q @ np.abs(right) ** q)
        assert np.all(size_q <= majorant * (1.0 + 1e-12))
        checked.append(size_q.shape)
        return original(left, right, w_rows, w_cols, p, q, share=share)

    monkeypatch.setattr(flows, "factored_mixed_norm", spy)
    rng = np.random.default_rng(0x3A7)
    rule = gh_rule(96)
    for z in (0.0, 0.7 - 0.4j, 1j * math.sqrt(1 / 3)):
        t = ExponentTriple(4 / 3, 4.0, z)
        for _ in range(4):
            g = _random_poly(rng)
            for s in (0.0, 0.3, 1.0):
                for evaluate in _EVALUATORS.values():
                    evaluate(g, t, s, rule, None)
    assert len(checked) == 3 * 4 * 3 * 3 and set(checked) == {(96, 96)}


@pytest.mark.parametrize("nodes", [64, 256, 512])
def test_outer_cut_within_its_certified_bound(monkeypatch, nodes):
    rng = np.random.default_rng(nodes)
    rule = gh_rule(nodes)
    cut_count = 0
    for t in _triples(rng, 2):
        g = _random_poly(rng)
        for name, evaluate in _EVALUATORS.items():
            for s in (0.0, 0.3, 0.8, 1.0):
                (value, cut), (full, full_cut) = _cut_and_full(
                    monkeypatch, lambda stats: evaluate(g, t, s, rule, stats)
                )
                assert full_cut == TailCut(0.0, nodes * nodes, nodes * nodes)
                assert 0.0 <= cut.bound <= TAIL_RTOL
                # dropping cells only lowers the value, by at most the bound
                noise = 1e-15 * full
                assert value <= full + noise, (name, t, s)
                assert full - value <= cut.bound * value + noise, (name, t, s)
                cut_count += cut.cells_kept < cut.cells
    if nodes >= 256:
        assert cut_count > 0


def test_outer_cut_on_degenerate_axes(monkeypatch):
    # s = 0 and z = 0 leave only the x or only the u axis in the integrand,
    # s = 1 only u: one majorant is 0 there, and the cut is still certified
    rng = np.random.default_rng(0xD6)
    rule = gh_rule(256)
    g = PolySeries(rng.normal(size=5) + 1j * rng.normal(size=5))
    for z in (0.0, 0.6j):
        t = ExponentTriple(1.5, 3.0, z)
        for s in (0.0, 1.0):
            (value, cut), (full, _) = _cut_and_full(monkeypatch, lambda stats: janson_mehler(g, t, s, rule, stats))
            assert cut.cells_kept < 0.3 * cut.cells
            assert 0.0 <= full - value <= cut.bound * value + 1e-15 * full


def test_forced_fallback_is_bitwise_the_full_grid(monkeypatch):
    g = PolySeries([0.5, 1.0 - 1.0j, 0.0, 0.3j])
    p = 4 / 3
    t = ExponentTriple(p, 4.0, 1j * math.sqrt(p - 1))
    rule = gh_rule(256)
    coeffs = gaussian_smooth(g).coeffs
    for s in (0.0, 0.45, 1.0):
        # the full factored table, written out independently of flows:
        # He_j at the nodes and sqrt(s)^j a_{j+m} C(j+m, m) (z sqrt(1-s))^m
        zeta = t.z * math.sqrt(1 - s)
        he = hermevander(rule.nodes, 3).T
        mix = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            for m in range(4 - j):
                mix[j, m] = math.sqrt(s) ** j * (coeffs[j + m] * math.comb(j + m, m) * zeta**m)
        active = np.any(mix != 0, axis=0)
        left, right = (he.T @ mix)[:, active], he[active]
        stacked = np.concatenate((left.real, left.imag)) @ right
        re, im = stacked[:256], stacked[256:]
        x_avg = ((re * re + im * im) ** (t.q / 2)) @ rule.weights
        want = float(np.dot(rule.weights, x_avg ** (t.p / t.q)))
        # the per-cell scaled-Hermite recurrence it replaces
        sigma = s + (1 - s) * t.z * t.z
        big_x = math.sqrt(s) * rule.nodes[:, None] + zeta * rule.nodes[None, :]
        cells = (np.abs(hermite_scaled_sum(coeffs, big_x, sigma)) ** t.q) @ rule.weights
        assert abs(want - float(np.dot(rule.weights, cells ** (t.p / t.q)))) <= 1e-15 * want
        monkeypatch.setattr(cube, "TAIL_RTOL", -1.0)
        stats = OuterStats()
        assert janson_mehler(g, t, s, rule, stats) == want
        assert stats.cuts == [TailCut(0.0, 256 * 256, 256 * 256)]
        monkeypatch.setattr(cube, "TAIL_RTOL", TAIL_RTOL)
        stats = OuterStats()
        assert abs(janson_mehler(g, t, s, rule, stats) - want) <= 1e-15 * want
        assert stats.cuts[0].cells_kept < stats.cuts[0].cells


def test_janson_mehler_512_grid_keeps_few_cells():
    # guards the speed of the flows: a silent return to full grids fails here
    g = PolySeries([1.0, 2.0, 0.0, 1.0])
    p = 4 / 3
    t = ExponentTriple(p, 4.0, 1j * math.sqrt(p - 1))
    for s in (0.0, 0.5, 0.9, 1.0):
        stats = OuterStats()
        janson_mehler(g, t, s, gh_rule(512), stats)
        (cut,) = stats.cuts
        assert 0.0 < cut.bound <= TAIL_RTOL
        assert cut.cells_kept < 0.2 * cut.cells, (s, cut)


def test_janson_flow_evaluates_no_grid_cell_by_cell(monkeypatch):
    # guards the speed of the flows: the grids are factored tables, so the
    # recurrence and the series only ever see 1-D node arrays; a silent
    # return to per-cell evaluation hands them a 2-D grid and fails here
    dims = {"hermite_scaled_sum": [], "PolySeries": []}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            dims[name].extend(np.ndim(a) for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray))
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(flows, "hermite_scaled_sum", spy("hermite_scaled_sum", hermite_scaled_sum))
    monkeypatch.setattr(PolySeries, "__call__", spy("PolySeries", PolySeries.__call__))
    p = 4 / 3
    t = ExponentTriple(p, 4.0, 1j * math.sqrt(p - 1))
    g = PolySeries([1.0, 2.0, 0.0, 1.0])
    janson_flow(g, t, s_grid=[0.0, 0.4, 0.8, 1.0])
    for evaluate in _EVALUATORS.values():
        for s in (0.0, 0.4, 0.8, 1.0):
            evaluate(g, t, s, None, None)
    assert dims["hermite_scaled_sum"] and max(dims["hermite_scaled_sum"]) == 1
    assert max(dims["PolySeries"], default=1) == 1


def test_janson_table_and_cube_table_share_the_coupling(monkeypatch):
    # the Janson grid is the Gaussian limit of the cube table: both build
    # mix[j, m] = a_{j+m} C(j+m, m) z^m through one helper, the grid with
    # z sqrt(1-s) in place of z
    assert flows.coupling_matrix is cube.coupling_matrix
    original, seen = cube.coupling_matrix, []

    def spy(a, z):
        seen.append(complex(z))
        return original(a, z)

    monkeypatch.setattr(cube, "coupling_matrix", spy)
    monkeypatch.setattr(flows, "coupling_matrix", spy)
    a = [0.5, 1.0 - 1.0j, 0.0, 0.3j]
    left, right = cube.symmetric_tzk_table(SymmetricSpec(n=40, a=a), 0.4j, 10)
    first, second = cube._block_phi_matrix(3, 40, 10), cube._block_phi_matrix(3, 40, 30)
    assert np.array_equal(left @ right, first.T @ original(np.asarray(a, dtype=complex), 0.4j) @ second)
    t = ExponentTriple(1.5, 3.0, 0.6j)
    janson_mehler(PolySeries(a), t, 0.36, 64)
    assert seen == [0.4j, 0.6j * 0.8]


def test_block_phi_matrix_tends_to_scaled_hermite():
    # the paper's limit: phi_j of the first k = s n coordinates, at the count
    # c nearest (k + sqrt(k) u) / 2, tends to s^(j/2) He_j(u) with
    # u = (2c - k) / sqrt(k), at rate 1/n
    s, l_max = 0.5, 5
    errors = []
    for n in (400, 1600, 6400, 25600):
        k = round(s * n)
        counts = np.rint((k + math.sqrt(k) * np.linspace(-3.0, 3.0, 25)) / 2).astype(int)
        u = (2 * counts - k) / math.sqrt(k)
        want = (k / n) ** (np.arange(l_max + 1)[:, None] / 2) * hermevander(u, l_max).T
        errors.append(np.max(np.abs(cube._block_phi_matrix(l_max, n, k)[:, counts] - want)))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse >= 3.0 * fine, errors


def test_janson_flow_diagnostics():
    # x + x^3 at p = 4/3 is kinked near s = 1: the doubling stops at the cap
    p = 4 / 3
    t = ExponentTriple(p, 4.0, 1j * math.sqrt(p - 1))
    rep = janson_flow(PolySeries([0.0, 1.0, 0.0, 1.0]), t, s_grid=[0.0, 0.5, 1.0])
    diag = rep.diagnostics
    assert 0.0 < diag["tail_bound"] <= TAIL_RTOL
    assert 0.0 < diag["cells_kept_share"] < 1.0
    assert 1.0 in diag["cap_hits"] and 0.0 not in diag["cap_hits"]
    # a fixed rule does no doubling, so nothing can hit the cap
    for s in (0.0, 0.5, 1.0):
        fixed = OuterStats()
        janson_mehler(PolySeries([0.0, 1.0, 0.0, 1.0]), t, s, 64, fixed)
        assert not fixed.capped and len(fixed.cuts) == 1
    flat = janson_flow(PolySeries([2.0]), t, s_grid=[0.0, 1.0])
    assert flat.diagnostics["cap_hits"] == []


def test_mixed_moment_check_low_degrees():
    counts = BlockCounts(k=16, a=9, b=12)
    lhs, rhs, diff = mixed_moment_check(counts, 16, 40, 0.3 + 0.2j, 0)
    assert abs(lhs - 1.0) <= 1e-13 and rhs == 1.0 and diff <= 1e-13
    _, _, diff1 = mixed_moment_check(counts, 16, 40, 0.3 + 0.2j, 1)
    assert diff1 <= 1e-13


def test_mixed_moment_check_explicit_point():
    rng = np.random.default_rng(15)
    n, k = 12, 5
    x = rng.choice([-1, 1], size=n)
    counts = BlockCounts(k=k, a=int(np.sum(x[:k] == 1)), b=int(np.sum(x[k:] == 1)))
    via_point = mixed_moment_check(x, k, n, 0.4, 3)
    via_counts = mixed_moment_check(counts, k, n, 0.4, 3)
    assert via_point == via_counts


def test_mixed_moment_rate_balanced_case():
    # balanced counts, L = 4, k = n/2: the gap is exactly 2 |1 + z^4| / n
    z = 0.6
    for n in [256, 1024, 4096]:
        k = n // 2
        counts = BlockCounts(k=k, a=k // 2, b=(n - k) // 2)
        _, _, diff = mixed_moment_check(counts, k, n, z, 4)
        want = 2.0 * abs(1.0 + z**4) / n
        assert abs(diff - want) <= 1e-8 * want
    # the sqrt(n)-normalized constant therefore halves per 4x in n
    consts = []
    for n in [256, 1024, 4096]:
        k = n // 2
        counts = BlockCounts(k=k, a=k // 2, b=(n - k) // 2)
        _, _, diff = mixed_moment_check(counts, k, n, z, 4)
        consts.append(diff * math.sqrt(n))
    for c_prev, c_next in zip(consts, consts[1:]):
        assert 1.9 <= c_prev / c_next <= 2.1


def test_convergence_constant_coefficients():
    t = ExponentTriple(1.5, 3.0, 0.4)
    table = convergence_experiment([2.0], t, 0.5, [8, 16, 32])
    assert all(r.abs_error <= 1e-12 for r in table.rows)
    assert table.slope is None  # everything at the noise floor


def test_convergence_endpoint_s_one():
    # at s = 1 both sides are plain p-th moments and converge together
    p = 4 / 3
    t = ExponentTriple(p, 4.0, 1j * math.sqrt(p - 1))
    table = convergence_experiment([0.0, 1.0, 0.5], t, 1.0, [16, 64, 256])
    errs = [r.abs_error for r in table.rows]
    assert errs[0] > errs[-1]
    assert all(r.k == r.n for r in table.rows)


@pytest.mark.parametrize("s", [math.inf, math.nan, 1.5, -0.2])
def test_convergence_checks_s_before_it_rounds_s_n(s):
    # before: OverflowError (inf), "cannot convert float NaN to integer" (nan)
    # and a message on split indices (1.5, -0.2)
    t = ExponentTriple(1.5, 3.0, 1j * math.sqrt(0.5))
    with pytest.raises(ValueError, match=r"^flow parameter s must lie in \[0, 1\]$"):
        convergence_experiment([0.0, 1.0, 0.0, 1.0], t, s, [16, 64])


def test_convergence_spec_experiment_slope():
    p = 4 / 3
    t = ExponentTriple(p, 4.0, 1j * math.sqrt(p - 1))
    table = convergence_experiment([0.0, 1.0, 0.0, 1.0], t, 0.5, [64, 256, 1024])
    errs = [r.abs_error for r in table.rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert table.slope is not None and table.slope <= -0.4
    # the continuous side's outer grids: cut within the certified bound, resolved at s = 0.5
    diag = table.diagnostics
    assert 0.0 < diag["tail_bound"] <= TAIL_RTOL and 0.0 < diag["cells_kept_share"] < 1.0
    assert diag["cap_hits"] == []


def test_discrete_monotone_under_two_point_precondition():
    rng = np.random.default_rng(16)
    done = 0
    while done < 5:
        p = float(rng.uniform(1.2, 2.5))
        q = float(rng.uniform(p, 4.0))
        radius = 0.8 * math.sqrt((p - 1) / (q - 1)) if q > 1 else 0.5
        z = radius * complex(rng.normal(), rng.normal())
        z /= max(1.0, abs(z) / radius)
        t = ExponentTriple(p, q, z)
        if extremal_ratio(t, SearchBudget.reduced()).sup_ratio > 1.0 + 1e-9:
            continue
        spec = SymmetricSpec(n=10, a=rng.normal(size=3) + 1j * rng.normal(size=3))
        rep = discrete_flow(spec, t)
        assert rep.verdict().nondecreasing, (p, q, z)
        done += 1


# The paper's chain, exact on product inputs.  With a_l = beta^l / l!, the
# symmetric function is f = prod_i (1 + beta x_i / sqrt(n)); with c = beta/sqrt(n),
#   A = (|1+c|^p + |1-c|^p)/2,  B = ((|1+zc|^q + |1-zc|^q)/2)^(p/q),
# the discrete flow is Phi(k) = A^k B^(n-k), and A/B is the two-point ratio at
# (1, c) to the power -p.  Its Gaussian limit is the atom e^(beta y), whose
# Janson flow has log J(s) = log J(0) + s * _product_slope.


def _disk_point(rng):
    return complex(math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))


def _product_draw(rng):
    p = float(rng.uniform(1.0, 3.0))
    q = float(rng.uniform(p, 5.0))
    return p, q, _disk_point(rng), complex(rng.normal(), rng.normal())


def _product_factors(p, q, z, c):
    a = (abs(1 + c) ** p + abs(1 - c) ** p) / 2
    b = ((abs(1 + z * c) ** q + abs(1 - z * c) ** q) / 2) ** (p / q)
    return a, b


def _product_slope(p, q, z, beta):
    """(p/2) times the quadratic-form margin of two_point at w = beta."""
    bz = beta * z
    return (p / 2) * ((p - 2) * beta.real**2 + abs(beta) ** 2 - (q - 2) * bz.real**2 - abs(bz) ** 2)


@pytest.mark.parametrize("n, draws", [(6, 5), (12, 5), (40, 4), (64, 3)])
def test_product_input_discrete_flow_is_geometric(n, draws):
    rng = np.random.default_rng(900 + n)
    for _ in range(draws):
        p, q, z, beta = _product_draw(rng)
        spec = SymmetricSpec(n=n, a=[beta**ell / math.factorial(ell) for ell in range(n + 1)])
        t = ExponentTriple(p, q, z)
        a, b = _product_factors(p, q, z, beta / math.sqrt(n))
        want = np.array([a**k * b ** (n - k) for k in range(n + 1)])
        reports = [discrete_flow(spec, t)] + ([discrete_flow(spec.materialize(), t)] if n <= 12 else [])
        for rep in reports:
            assert np.max(np.abs(np.array(rep.values) - want) / want) <= 1e-13, (p, q, z, beta)


def test_product_input_ratio_is_the_two_point_ratio():
    rng = np.random.default_rng(907)
    verdicts = set()
    for n in (6, 12, 40):
        for _ in range(8):
            p, q, z, beta = _product_draw(rng)
            c = beta / math.sqrt(n)
            a, b = _product_factors(p, q, z, c)
            assert abs(float(_ratio_grid(p, q, z, np.array(c)) ** -p) - a / b) <= 1e-14 * (a / b)
            if abs(a - b) > 1e-8 * b:  # clear of the verdict's tolerance
                spec = SymmetricSpec(n=n, a=[beta**ell / math.factorial(ell) for ell in range(n + 1)])
                nondecreasing = discrete_flow(spec, ExponentTriple(p, q, z)).verdict().nondecreasing
                assert nondecreasing == (a >= b), (n, p, q, z, beta)
                verdicts.add(nondecreasing)
    assert verdicts == {True, False}


def test_linear_exponential_janson_flow_is_log_linear():
    rng = np.random.default_rng(908)
    for _ in range(200):
        p, q, z, beta = _product_draw(rng)
        atom = GaussianAtom(1.0, 0.0, beta)
        log_j0 = math.log(_atom_flow(atom, p, q, z, 0.0))
        for s in (0.25, 0.5, 1.0):
            want = s * _product_slope(p, q, z, beta)
            got = math.log(_atom_flow(atom, p, q, z, s)) - log_j0
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (p, q, z, beta, s)


def test_discrete_product_ratio_tends_to_the_janson_slope():
    # n log(A/B) -> the slope of log J at rate O(1/n): at least 8x per decade
    # of n.  |beta| <= 1 keeps c = beta/sqrt(n) <= 0.1 from n = 100 on, where
    # the 1/n term leads; larger |beta| needs larger n for the same rate.
    rng = np.random.default_rng(909)
    for _ in range(200):
        p, q, z, _ = _product_draw(rng)
        beta = _disk_point(rng)
        slope = math.log(_atom_flow(GaussianAtom(1.0, 0.0, beta), p, q, z, 1.0)) - math.log(
            _atom_flow(GaussianAtom(1.0, 0.0, beta), p, q, z, 0.0)
        )
        gaps = []
        for n in (100, 1000, 10000):
            ratio = float(_ratio_grid(p, q, z, np.array(beta / math.sqrt(n))) ** -p)
            gaps.append(abs(n * math.log(ratio) - slope))
        assert gaps[0] >= 8 * gaps[1] and gaps[1] >= 8 * gaps[2], (p, q, z, beta, gaps)

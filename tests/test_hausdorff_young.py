"""Sharp-constant pipeline: endpoints, flows, and the exponential family."""
import math

import numpy as np
import pytest

import doubling_reference
import gh_rule_reference
import split_quad
from identity_checks import exp_family_double_average, exp_phi_endpoint_identities, phi_s_closed
import hypflow.hausdorff_young
from hypflow import cube, flows, gaussian_atoms, quadrature
from hypflow.cube import factored_mixed_norm
from hypflow.errors import AccuracyError, DomainError
from hypflow.gaussian_atoms import GaussianAtom
from hypflow.hausdorff_young import (
    GAUSSIAN_EXTREMIZER,
    ExpFamily,
    _g_tilde_atom,
    conjugate_exponent,
    exp_flow_phi,
    hy_endpoints,
    hy_exponents,
    hy_verify,
    lemma_A_check,
    lemma_F_check,
    phi_flow,
    sharp_constant,
)
from hypflow.hermite import HermiteSeries, PolySeries
from hypflow.flows import _GRID_SHARE, janson_quadrature
from hypflow.quadrature import Estimate, gh_rule
from hypflow.two_point import ExponentTriple


def test_conjugate_and_constant():
    assert conjugate_exponent(2.0) == 2.0
    assert abs(conjugate_exponent(4 / 3) - 4.0) <= 1e-15
    with pytest.raises(ValueError):
        conjugate_exponent(1.0)
    with pytest.raises(ValueError):
        conjugate_exponent(2.5)
    # |z| <= 1 for both damping choices on the whole exponent range
    for p in [1.01, 4 / 3, 1.5, 2.0]:
        q = conjugate_exponent(p)
        assert abs(1j * math.sqrt(p - 1)) <= 1.0
        assert abs(1j * math.sqrt(p / q)) <= 1.0


def test_hy_input_validation_and_round_trip():
    with pytest.raises(ValueError):
        phi_flow(2.5, GaussianAtom(1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        hy_endpoints(2.5, GaussianAtom(1.0, 1.0, 0.0))
    p = 4 / 3
    # substitution round trip: g~(y) exp(-y^2/2p) (2 pi)^{-1/2p} = f(y)
    gt = _g_tilde_atom(GAUSSIAN_EXTREMIZER, p)
    y = np.linspace(-2, 2, 9)
    back = gt(y) * np.exp(-(y**2) / (2 * p)) * (2 * np.pi) ** (-1 / (2 * p))
    assert np.max(np.abs(back - GAUSSIAN_EXTREMIZER(y))) <= 1e-10


@pytest.mark.parametrize("g", [PolySeries([1.0, 1.0]), [1.0, 1.0], None], ids=["PolySeries", "list", "None"])
def test_hy_input_of_another_type_raises_type_error(g):
    # a PolySeries holds monomial coefficients: it is neither g~ nor f
    with pytest.raises(TypeError, match="HermiteSeries g~ or a GaussianAtom f"):
        phi_flow(1.5, g)
    with pytest.raises(TypeError, match="HermiteSeries g~ or a GaussianAtom f"):
        hy_endpoints(1.5, g)


def test_hy_endpoints_zero_function():
    lhs, rhs = hy_endpoints(1.5, GaussianAtom(0.0, np.pi, 0.0))
    assert lhs == 0.0 and rhs == 0.0


def test_hy_endpoints_gaussian_equality():
    # ||f||_p = p^{-1/2p} and ||fhat||_q = q^{-1/2q} from int exp(-r pi y^2) dy = r^{-1/2}
    for p in [4 / 3, 1.5, 2.0]:
        q = conjugate_exponent(p)
        lhs, rhs = hy_endpoints(p, GAUSSIAN_EXTREMIZER)
        assert abs(lhs - q ** (-1 / (2 * q))) <= 1e-9
        assert abs(lhs - rhs) <= 1e-8 * rhs


def test_hy_endpoints_hermite_strict_gap():
    lhs, rhs = hy_endpoints(1.5, HermiteSeries([0.0, 1.0]))
    assert lhs < rhs
    assert rhs - lhs > 1e-3


def test_phi_flow_zero_function():
    rep = phi_flow(1.5, GaussianAtom(0.0, np.pi, 0.0), s_grid=[0, 0.5, 1])
    assert all(v == 0.0 for v in rep.values)


def test_phi_flow_gaussian_extremizer_is_constant():
    rep = phi_flow(4 / 3, GAUSSIAN_EXTREMIZER, s_grid=[0.0, 0.25, 0.5, 0.75, 1.0])
    q = conjugate_exponent(4 / 3)
    want = q ** (-1 / (2 * q))
    assert max(rep.values) - min(rep.values) <= 1e-14 * want
    assert abs(rep.values[0] - want) <= 1e-14 * want


@pytest.mark.parametrize("p", [4 / 3, 1.5, 2.0])
def test_phi_flow_gaussian_extremizer_default_grid(p):
    # at p = 2 the atom integrand grows like exp(+c x^2) in x; the closed
    # form integrates it exactly against the Gaussian weight
    rep = phi_flow(p, GAUSSIAN_EXTREMIZER)
    q = conjugate_exponent(p)
    want = q ** (-1 / (2 * q))
    assert all(abs(v - want) <= 1e-14 * want for v in rep.values)
    assert rep.verdict().label == "nondecreasing"
    assert rep.diagnostics == {"cap_hits": []}


def _random_atom_inputs(rng, p_values):
    return [
        (
            float(p),
            GaussianAtom(
                complex(rng.normal(), rng.normal()),
                complex(rng.uniform(0.02, 4.0), rng.normal()),  # slow decay included
                complex(rng.normal(), rng.normal()),
            ),
        )
        for p in p_values
    ]


def test_phi_flow_atom_constant_at_p_2():
    # at p = q = 2, phi(s)^2 is ||fhat||_2^2 for every s (Plancherel)
    rng = np.random.default_rng(29)
    slow = (2.0, GaussianAtom(1.0, 0.02 + 0.2j, 1.0 + 0.5j))  # doubled grids gave NaN
    for p, f in [slow, *_random_atom_inputs(rng, [2.0] * 8)]:
        values = phi_flow(p, f).values
        assert max(values) - min(values) <= 1e-12 * min(values), f


def test_phi_flow_atom_endpoints_match_hy_endpoints():
    # the closed form's ends against the graded Legendre engine of hy_endpoints
    rng = np.random.default_rng(31)
    for p, f in _random_atom_inputs(rng, rng.uniform(1.1, 2.0, size=10)):
        values = phi_flow(p, f, s_grid=[0.0, 1.0]).values
        for got, want in zip(values, hy_endpoints(p, f)):
            assert abs(got - want) <= 1e-13 * want, (f, p)


def test_phi_flow_atom_builds_no_gh_rule(monkeypatch):
    calls = []

    def spy(n):
        calls.append(n)
        return gh_rule(n)

    for module in (quadrature, flows, hypflow.hausdorff_young):
        monkeypatch.setattr(module, "gh_rule", spy)
    phi_flow(1.5, GAUSSIAN_EXTREMIZER)
    phi_flow(1.7, GaussianAtom(0.5 + 1j, 1.3 - 0.4j, 0.2 + 0.7j))
    assert calls == []
    phi_flow(1.5, HermiteSeries([1.0, 1.0]), s_grid=[0.5])  # the spy sees the grids
    assert calls


def test_phi_flow_atom_domain_error_names_s():
    # Re(quad) < 0: |f|^p is not integrable, and E_u diverges at s = 1
    f = GaussianAtom(1.0, -0.1, 0.0)
    with pytest.raises(DomainError, match="s = 1.0"):
        phi_flow(1.5, f, s_grid=[1.0])
    with pytest.raises(DomainError):  # and the heat image diverges at s = 0
        phi_flow(1.5, f, s_grid=[0.0])


def test_phi_flow_hermite_nondecreasing_and_bridges_endpoints():
    g = HermiteSeries([1.0, 1.0])
    rep = phi_flow(1.5, g)
    assert rep.verdict().nondecreasing
    # endpoints of the flow must reproduce the directly-computed norms.  the
    # s = 0 side is smooth (complex damping keeps |M_z g~| positive); the
    # s = 1 side integrates |1 + y|^{3/2}, whose kink caps the Gaussian-rule
    # accuracy near 1e-4, so that side gets the looser bound
    norm_fhat, scaled_norm_f = hy_endpoints(1.5, g)
    assert abs(rep.values[0] - norm_fhat) <= 1e-7 * norm_fhat
    assert abs(rep.values[-1] - scaled_norm_f) <= 2e-4 * scaled_norm_f


def test_bridge_identity_against_independent_evaluator():
    # phi(s)^p q^{p/2q} / sqrt(p) must equal the flow value computed by the
    # product-quadrature evaluator (a fully independent route)
    rng = np.random.default_rng(17)
    for _ in range(10):
        deg = int(rng.integers(1, 5))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        p = float(rng.uniform(1.2, 2.0))
        q = conjugate_exponent(p)
        s = float(rng.uniform(0.0, 1.0))
        phi_val = phi_flow(p, HermiteSeries(coeffs), s_grid=[s]).values[0]
        j_val = janson_quadrature(
            PolySeries(coeffs), ExponentTriple(p, q, hy_exponents(p).z), s
        )
        assert abs(phi_val**p * q ** (p / (2 * q)) / math.sqrt(p) - j_val) <= 1e-7 * abs(
            j_val
        )


def test_lemma_A_examples():
    qv, cv = lemma_A_check(0.0, 1.3)
    assert qv == 1.0 and cv == 1.0
    qv, cv = lemma_A_check(1.0, 0.0)
    assert abs(cv - math.exp(-0.5)) <= 1e-15
    assert abs(qv - cv) <= 1e-12
    qv, cv = lemma_A_check(1j, 1.0)
    assert abs(cv - np.exp(1j + 0.5)) <= 1e-14
    assert abs(abs(cv) - math.exp(0.5)) <= 1e-14
    assert abs(qv - cv) <= 1e-12


def test_lemma_A_random_draws():
    rng = np.random.default_rng(18)
    for _ in range(50):
        zeta = complex(rng.normal(), rng.normal())
        x = complex(rng.normal(), rng.normal())
        qv, cv = lemma_A_check(zeta, x)
        assert abs(qv - cv) <= 1e-8 * max(1.0, abs(cv))


def test_lemma_F_examples():
    # t = 0: Gaussian self-duality
    for u in [0.0, 0.7]:
        lv, rv = lemma_F_check(0.0, 4 / 3, u)
        assert abs(rv - math.exp(-math.pi * u**2)) <= 1e-15
        assert abs(lv - rv) <= 1e-10
    lv, rv = lemma_F_check(0.3, 4 / 3, 0.7)
    assert abs(lv - rv) <= 1e-8 * max(1.0, abs(rv))


def test_lemma_F_random_draws():
    rng = np.random.default_rng(19)
    for _ in range(50):
        t = complex(rng.normal(), rng.normal()) * 0.8
        p = float(rng.uniform(1.05, 2.0))
        u = float(rng.normal())
        lv, rv = lemma_F_check(t, p, u)
        assert abs(lv - rv) <= 1e-8 * max(1.0, abs(rv))


def test_exp_family_factorization_matches_double_integral():
    fam = ExpFamily(atoms=((1.0, 0.8), (0.5j, -0.6)))
    z = 1j * math.sqrt((4 / 3) / 4.0)
    rule = gh_rule(64)
    for s in [0.0, 0.3, 1.0]:
        closed = complex(phi_s_closed(fam, s, z, 0.7, -0.2))
        direct = exp_family_double_average(fam, s, z, 0.7, -0.2, rule)
        assert abs(closed - direct) <= 1e-10 * max(1.0, abs(direct))


def test_exp_flow_flat_for_constant_family():
    rep = exp_flow_phi(ExpFamily(atoms=((1.0, 0.0),)), 1.5, s_grid=[0, 0.5, 1])
    assert all(abs(v - 1.0) <= 1e-12 for v in rep.values)


def test_exp_flow_spec_example_endpoint_gap():
    fam = ExpFamily(atoms=((1.0, 0.5), (-0.3, -1.1)))
    rep = exp_flow_phi(fam, 4 / 3, s_grid=np.linspace(0, 1, 11))
    assert rep.values[0] <= rep.values[-1]
    assert rep.values[-1] - rep.values[0] > 1e-3  # strict gap for this family


def test_exp_flow_sign_crossing_family_full_grid():
    # default 21-point grid at p = 1.5: |Phi_s|^q has kinks and the doubling
    # ladder wobbles at its accuracy plateau; this must not be reported as a
    # quadrature failure (regression: the plateau once tripped AccuracyError)
    fam = ExpFamily(atoms=((1.0, 0.5), (-0.3, -1.1)))
    rep = exp_flow_phi(fam, 1.5)
    assert len(rep.samples) == 21
    assert rep.values[0] <= rep.values[-1]


def test_exp_flow_endpoint_average_ignores_nodes_with_zero_weight():
    # regression: the former 1-D ladder of the ends reached the 4096-node
    # rule, where |Phi_1|^p overflows to inf on 182 nodes whose weights
    # underflowed to zero, and 0 * inf made phi(1) NaN; the graded end is
    # finite and within the kink error of the 2048-node rule (both rules
    # from the frozen builder: gh_rule stops at MAX_NODES)
    fam = ExpFamily(atoms=((1.0, 5.0), (-0.9, 5.2)))
    p = 4 / 3
    z = 1j * math.sqrt(p / conjugate_exponent(p))

    def samples(rule):
        with np.errstate(over="ignore"):
            return np.abs(phi_s_closed(fam, 1.0, z, rule.nodes, 0.0)) ** p

    big = gh_rule_reference._gh_rule_cached(4096)
    overflowed = np.isinf(samples(big))
    assert overflowed.sum() == 182 and np.all(big.weights[overflowed] == 0.0)
    half = gh_rule_reference._gh_rule_cached(2048)
    at_2048 = float(half.integrate(lambda x: samples(half)).real)
    phi1 = exp_flow_phi(fam, p, s_grid=[1.0]).values[0]
    # the |.|^p kink leaves the 2048 -> 4096 step near 2e-5 relative
    assert math.isfinite(phi1) and abs(phi1 - at_2048) <= 1e-4 * at_2048


def test_exp_flow_nan_interior_sample_raises():
    # |Phi_s|^q overflows on the kept cells of the outer grids: every
    # doubling step is NaN
    with pytest.raises(AccuracyError, match="512 nodes"):
        exp_flow_phi(ExpFamily(atoms=((1.0, 30j),)), 1.5, s_grid=[0.5])
    # at 12j it overflows only on cells of zero weight, which the tail cut
    # drops, so s = 0.5 settles; the recentred ends are finite too.  One
    # atom gives a constant flow: E|exp(t w - t^2/2)|^p with |.| = e^72 at
    # s = 1 is e^(72 p) = e^108, and phi(0) = (E|.|^q)^(p/q) is the same
    report = exp_flow_phi(ExpFamily(atoms=((1.0, 12j),)), 1.5, s_grid=[0.0, 0.5, 1.0])
    for value in report.values:
        assert abs(value - math.exp(108.0)) <= 1e-12 * math.exp(108.0)


def test_exp_flow_non_finite_endpoint_raises(monkeypatch):
    # |1e300|^p overflows at both ends, so phi(0) = phi(1) = inf
    with pytest.raises(AccuracyError, match="not finite"):
        exp_flow_phi(ExpFamily(atoms=((1e300, 0.0),)), 4 / 3, s_grid=[0.0, 1.0])
    # with phi(1) NaN and phi(0) finite, the comparison phi(0) > phi(1) + tol is false
    p = 4 / 3
    monkeypatch.setattr(
        hypflow.hausdorff_young,
        "atom_lr_estimate",
        lambda atoms, r: Estimate(math.nan if r == p else 1.0, 360, math.inf, False),
    )
    with pytest.raises(AccuracyError, match="not finite"):
        exp_flow_phi(ExpFamily(atoms=((1.0, 0.5),)), p, s_grid=[0.5])


def _exp_cases(rng, count, max_freq, ps=(4 / 3, 1.5, 2.0)):
    """(family, p, s): 1-3 atoms, normal amplitudes, |t| <= max_freq, every other one real."""
    for trial in range(count):
        k = int(rng.integers(1, 4))
        freqs = rng.uniform(0.0, max_freq, size=k) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=k))
        if trial % 2:
            freqs = freqs.real
        amps = rng.normal(size=k) + 1j * rng.normal(size=k)
        s = float(rng.choice([0.05, 0.3, 0.5, 0.9, 0.99]))
        yield ExpFamily(atoms=tuple(zip(amps, freqs))), float(rng.choice(ps)), s


def test_exp_flow_factors_match_phi_s_closed():
    rng = np.random.default_rng(11)
    for fam, p, s in _exp_cases(rng, 12, 3.0):
        z = 1j * math.sqrt(p / conjugate_exponent(p))
        freqs = np.abs([t for _, t in fam.atoms])
        for n in (64, 512):
            x = gh_rule(n).nodes
            left, right = hypflow.hausdorff_young._exp_flow_factors(fam, s, z, x)
            assert left.shape == (n, len(fam.atoms)) and right.shape == (len(fam.atoms), n)
            got = left @ right
            want = phi_s_closed(fam, s, z, x[:, None], x[None, :])
            size = np.abs(left) @ np.abs(right)
            # phi_s_closed rounds exponents of size up to |t| (|x| + |u| + |t|),
            # over 100 at the 512-node edges: agree to a few ulp of that
            exponent = 1.0 + freqs.max() * (np.abs(x)[:, None] + np.abs(x)[None, :] + freqs.max())
            assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * exponent * size)


def test_exp_flow_grid_cut_within_its_bound(monkeypatch):
    rng = np.random.default_rng(12)
    rule = gh_rule(512)
    dropped = 0
    for fam, p, s in _exp_cases(rng, 12, 3.0):
        q = conjugate_exponent(p)
        z = 1j * math.sqrt(p / q)
        left, right = hypflow.hausdorff_young._exp_flow_factors(fam, s, z, rule.nodes)
        bounds = []
        kernel = cube.cut_mixed_norm
        monkeypatch.setattr(cube, "cut_mixed_norm", lambda *args, **kw: bounds.append(args[5]) or kernel(*args, **kw))
        value, cut = factored_mixed_norm(left, right, rule.weights, rule.weights, p, q, share=_GRID_SHARE)
        monkeypatch.undo()
        cells = left @ right
        table = np.abs(cells) ** q
        spread, big_r, big_c = bounds[0]
        assert np.all(table <= (1.0 + 1e-12) * spread * (big_r @ big_c))  # the majorant holds
        full = float(np.dot(rule.weights, (table @ rule.weights) ** (p / q)))
        assert 0.0 <= cut.bound <= cube.TAIL_RTOL
        assert value <= full * (1.0 + 1e-15)
        assert full - value <= cut.bound * value + 1e-15 * full
        dropped += cut.cells_kept < cut.cells
        # a bound no cut can meet: every cell is formed, bit for bit as here
        monkeypatch.setattr(cube, "TAIL_RTOL", -1.0)
        forced, forced_cut = factored_mixed_norm(left, right, rule.weights, rule.weights, p, q, share=_GRID_SHARE)
        table = cube._abs_q(cells.real.copy(), cells.imag.copy(), q)
        assert forced == float(np.dot(rule.weights, (table @ rule.weights) ** (p / q)))
        assert forced_cut == cube.TailCut(0.0, 512 * 512, 512 * 512)
        monkeypatch.undo()
    assert dropped == 12


@pytest.mark.parametrize("max_freq, sizes", [(20.0, (64, 512)), (80.0, (32, 64))])
def test_exp_flow_grids_finite_where_the_full_grids_are(max_freq, sizes):
    # R and C split one exp into two; the largest real exponent of each atom
    # is shared between them, so neither factor overflows on its own
    rng = np.random.default_rng(13)
    finite = 0
    for trial, (fam, p, s) in enumerate(_exp_cases(rng, 60, max_freq, (1.1, 4 / 3, 1.5, 2.0))):
        rule = gh_rule(sizes[trial % 2])
        q = conjugate_exponent(p)
        left, right = hypflow.hausdorff_young._exp_flow_factors(fam, s, 1j * math.sqrt(p / q), rule.nodes)
        with np.errstate(all="ignore"):
            want = doubling_reference.exp_grid_value(fam, p, s, rule)
            got = factored_mixed_norm(left, right, rule.weights, rule.weights, p, q, share=_GRID_SHARE)[0]
        if math.isfinite(want):
            finite += 1
            assert abs(got - want) <= 1e-12 * want, (fam, p, s)
    assert finite >= 15


def test_exp_flow_factors_share_the_largest_exponent():
    # one real atom far past the 32-node range: at s = 1/2, exp(-zu^2/2) alone
    # overflows and exp(-zx^2/2) alone underflows, yet every cell is finite
    fam, p, s, rule = ExpFamily(atoms=((1.0, 80.0),)), 1.5, 0.5, gh_rule(32)
    left, right = hypflow.hausdorff_young._exp_flow_factors(fam, s, 1j * math.sqrt(p / 3.0), rule.nodes)
    assert np.all(np.isfinite(left)) and np.all(np.isfinite(right))
    got = factored_mixed_norm(left, right, rule.weights, rule.weights, p, 3.0, share=_GRID_SHARE)[0]
    want = doubling_reference.exp_grid_value(fam, p, s, rule)
    assert 0.0 < want and abs(got - want) <= 1e-12 * want


def test_exp_flow_diagnostics_list_every_capped_sample():
    # the README family at p = 4/3 hits the 512-node cap from s = 0.6 on;
    # its ends, graded at the zero of Phi_1, are resolved
    fam = ExpFamily(atoms=((1.0, 0.5), (-0.3, -1.1)))
    report = exp_flow_phi(fam, 4 / 3, s_grid=[0.25, 0.5, 0.75])
    assert report.diagnostics["cap_hits"] == [0.75]
    assert 0.0 < report.diagnostics["tail_bound"] <= 1e-15
    assert 0.0 < report.diagnostics["cells_kept_share"] < 0.5
    smooth = exp_flow_phi(ExpFamily(atoms=((1.0, 0.5),)), 2.0, s_grid=[0.0, 0.5, 1.0])
    assert smooth.diagnostics["cap_hits"] == []
    # one pinned 64-node grid of the smooth family is cut too
    rule = gh_rule(64)
    left, right = hypflow.hausdorff_young._exp_flow_factors(ExpFamily(atoms=((1.0, 0.5),)), 0.5, 1j, rule.nodes)
    _, cut = factored_mixed_norm(left, right, rule.weights, rule.weights, 2.0, 2.0, share=_GRID_SHARE)
    assert 0 < cut.cells_kept < cut.cells and 0.0 <= cut.bound <= cube.TAIL_RTOL


def _graded_end_cases():
    """The README family and 24 seeded ones: kinked real families at p = 4/3
    and 1.5 (mixed signs, so Phi_1 has real zeros) and complex families."""
    rng = np.random.default_rng(22)
    cases = [(ExpFamily(atoms=((1.0, 0.5), (-0.3, -1.1))), p) for p in (4 / 3, 1.5)]
    for i in range(24):
        k = 2 + i % 2
        if i % 3 == 2:
            atoms = zip(_complex(rng, k), 0.6 * _complex(rng, k))
            p = (4 / 3, 1.5, 2.0)[(i // 3) % 3]
        else:
            amps = np.abs(rng.normal(size=k)) + 0.2
            amps[1:] *= -1.0
            atoms = zip(amps, np.sort(rng.uniform(-1.5, 1.5, size=k)) + 0.3 * np.arange(k))
            p = (4 / 3, 1.5)[i % 2]
        cases.append((ExpFamily(atoms=tuple(atoms)), p))
    return cases


def _complex(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def test_exp_flow_ends_and_final_form_match_split_quad():
    for fam, p in _graded_end_cases():
        report = exp_flow_phi(fam, p, s_grid=[0.0, 1.0])
        assert report.diagnostics["cap_hits"] == []
        for got, want in zip(report.values, split_quad.exp_flow_ends(fam, p)):
            assert abs(got - want) <= 1e-12 * want, (fam, p)
        if all(t.imag == 0.0 for _, t in fam.atoms):
            for got, want in zip(hy_verify(fam, p), split_quad.final_form(fam, p)):
                assert abs(got - want) <= 1e-12 * want, (fam, p)


def test_coarse_engine_flags_the_ends_and_raises_on_norms(monkeypatch):
    # 4- and 6-point panels leave the README family's ends unresolved: the
    # ends are listed in cap_hits, and a norm raises
    monkeypatch.setattr(gaussian_atoms, "_PANEL_RULES", (4, 6))
    fam = ExpFamily(atoms=((1.0, 0.5), (-0.3, -1.1)))
    assert exp_flow_phi(fam, 4 / 3, s_grid=[0.0, 0.5, 1.0]).diagnostics["cap_hits"] == [0.0, 1.0]
    with pytest.raises(AccuracyError, match="not resolved"):
        hy_verify(fam, 4 / 3)
    with pytest.raises(AccuracyError, match="not resolved"):
        hy_endpoints(1.5, HermiteSeries([1.0, 2.0, 0.0, 1.0]))


def test_exp_flow_endpoint_change_of_variables():
    # complex amplitudes keep |Phi| bounded away from zero, so both routes
    # converge to quadrature accuracy
    fam = ExpFamily(atoms=((1.0, 0.5), (-0.3j, -1.1)))
    ids = exp_phi_endpoint_identities(fam, 4 / 3)
    assert abs(ids["phi0"] - ids["phi0_change_of_variables"]) <= 1e-7 * ids["phi0"]
    assert abs(ids["phi1"] - ids["phi1_change_of_variables"]) <= 1e-7 * ids["phi1"]


def test_hy_verify_gaussian_equality_and_empty():
    lhs, rhs = hy_verify(ExpFamily(atoms=((1.0, 0.0),)), 4 / 3)
    assert abs(lhs - rhs) <= 1e-8 * rhs
    assert hy_verify(ExpFamily(atoms=()), 1.5) is None  # no final form


def test_hy_verify_random_family_strict():
    lhs, rhs = hy_verify(ExpFamily(atoms=((1.0, 0.5), (0.4, -1.2), (-0.2, 1.7))), 1.5)
    assert lhs < rhs


def test_hy_verify_requires_real_frequencies():
    # a frequency off the real line leaves the family without a final form
    assert hy_verify(ExpFamily(atoms=((1.0, 0.5j),)), 1.5) is None


def test_hy_endpoints_of_a_modulated_gaussian_is_hy_verify_of_its_atom():
    # both sides come from one place, so the two routes agree bit for bit
    for c, t, p in ((1.0, 0.0, 4 / 3), (0.7 - 0.2j, 1.3, 1.5), (-0.4 + 1j, -0.8, 1.81), (2.0, 0.25, 2.0)):
        c, t = complex(c), complex(t)
        f = GaussianAtom(c * np.exp(-t * t / 2.0), np.pi, t * math.sqrt(2.0 * np.pi * p))
        assert hy_endpoints(p, f) == hy_verify(ExpFamily(atoms=((c, t),)), p), (c, t, p)


def test_single_modulated_gaussian_is_extremal():
    # one-atom families are modulated Gaussians: equality within quadrature
    lhs, rhs = hy_verify(ExpFamily(atoms=((0.7, 1.3),)), 4 / 3)
    assert abs(lhs - rhs) <= 1e-9 * rhs


def test_sharp_constant_values():
    # (p^{1/p}/q^{1/q})^{1/2}: q = 2 gives the classical 2^{1/4}/2^{1/4}... = 1 at p = 2
    assert abs(sharp_constant(2.0) - 1.0) <= 1e-15
    p = 4 / 3
    assert abs(sharp_constant(p) - math.sqrt(p ** (1 / p) / 4.0 ** (1 / 4.0))) <= 1e-15

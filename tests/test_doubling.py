"""Every former node-doubling loop against its frozen copy in doubling_reference.

Each test of a 2-D grid runs the code as it is, then swaps the reference
loop back in with monkeypatch and runs it again: the values must be
bit-identical.  The interior samples of exp_flow_phi, whose grids are now
factored and cut, are also held to 1e-14 of the reference's full grids, and
the Janson evaluators, whose grids are now factored tables, to 2e-15 of the
reference's per-cell grids.  phi_flow's atom route no longer forms a grid:
its closed form is held to 1e-14 of the frozen doubled route and to 1e-12
of quad nested in both variables (split_quad.atom_flow).  The 1-D L^r norms
(atom_lp_norm, hy_verify, hy_endpoints and the s = 0, 1 ends of
exp_flow_phi) no longer double a rule: they are held to 1e-12 of scipy's
quad split at the zeros and minima of |h| (split_quad).
"""
import math

import numpy as np
import pytest

import doubling_reference as ref
import split_quad
from identity_checks import mehler_atom_scaled
from hypflow import flows, hausdorff_young as hy
from hypflow.errors import AccuracyError, DomainError
from hypflow.flows import OuterStats, janson_heat, janson_mehler, janson_quadrature
from hypflow.gaussian_atoms import GaussianAtom, atom_lp_norm, fourier_transform_atom
from hypflow.hausdorff_young import (
    GAUSSIAN_EXTREMIZER,
    ExpFamily,
    conjugate_exponent,
    exp_flow_phi,
    hy_endpoints,
    hy_verify,
    phi_flow,
)
from hypflow.hermite import HermiteSeries, PolySeries, gaussian_smooth
from hypflow.quadrature import doubled
from hypflow.two_point import ExponentTriple

SEED = 20261018


def _complex_normal(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _random_atoms(rng, count):
    return [
        GaussianAtom(
            complex(_complex_normal(rng, 1)[0]),
            complex(rng.uniform(0.3, 4.0), rng.normal()),
            complex(_complex_normal(rng, 1)[0]),
        )
        for _ in range(count)
    ]


def _janson_cases():
    rng = np.random.default_rng(SEED)
    # the README janson-flow example hits the 512-node cap from s = 0.65 on
    readme = (PolySeries([1, 2, 0, 1]), ExponentTriple(4 / 3, 4.0, 1j / math.sqrt(3.0)))
    cases = [(*readme, s) for s in (0.0, 0.5, 0.9, 1.0)]
    for _ in range(4):
        p, q = rng.uniform(1.1, 2.0), rng.uniform(2.0, 4.0)
        radius = 0.9 * math.sqrt((p - 1.0) / (q - 1.0) * rng.uniform())
        z = complex(radius * np.exp(2j * np.pi * rng.uniform()))
        g = PolySeries(_complex_normal(rng, int(rng.integers(2, 6))))
        cases.append((g, ExponentTriple(p, q, z), float(rng.uniform())))
    return cases


_JANSON = {
    "quadrature": janson_quadrature,
    "mehler": janson_mehler,
    "heat": lambda g, t, s, rule, stats: janson_heat(gaussian_smooth(g), t, s, rule, stats),
}


@pytest.mark.parametrize("name", sorted(_JANSON))
def test_janson_evaluators_bit_identical(name, monkeypatch):
    evaluator = _JANSON[name]
    cases = _janson_cases()
    new = [(evaluator(g, t, s, None, st := OuterStats()), st) for g, t, s in cases]
    pinned = evaluator(*cases[1][:3], 48, None)
    monkeypatch.setattr(flows, "_auto_outer", ref._auto_outer)
    old = [(evaluator(g, t, s, None, st := OuterStats()), st) for g, t, s in cases]
    assert [v for v, _ in new] == [v for v, _ in old]
    assert [(st.cuts, st.capped) for _, st in new] == [(st.cuts, st.capped) for _, st in old]
    assert any(st.capped for _, st in new) and not all(st.capped for _, st in new)
    assert pinned == evaluator(*cases[1][:3], 48, None)


_REFERENCE_JANSON = {
    "quadrature": ref.janson_quadrature,
    "mehler": ref.janson_mehler,
    "heat": lambda g, t, s, rule, stats: ref.janson_heat(gaussian_smooth(g), t, s, rule, stats),
}


@pytest.mark.parametrize("name", sorted(_JANSON))
def test_janson_factored_grids_match_the_cell_grids(name):
    # the rank-(d+1) factored tables against the frozen per-cell evaluators:
    # z imaginary (Hausdorff-Young), complex (a gated triple as in the cube
    # workloads), real and 0, every s on fixed and doubled rules, the degree
    # cycling through 0..6
    rng = np.random.default_rng(SEED + 3)
    p, q = 1.6, 3.3
    gated = 0.8 * math.sqrt((p - 1.0) / (q - 1.0)) * np.exp(0.7j)
    triples = [
        ExponentTriple(4 / 3, 4.0, 1j / math.sqrt(3.0)),
        ExponentTriple(p, q, complex(gated)),
        ExponentTriple(1.5, 3.0, 0.45),
        ExponentTriple(2.0, 4.0, 0.0),
    ]
    cases = [(t, s, rule) for t in triples for s in (0.0, 0.3, 0.5, 0.97, 1.0) for rule in (64, 256, 512, None)]
    capped = 0
    for i, (t, s, rule) in enumerate(cases):
        g = PolySeries(_complex_normal(rng, i % 7 + 1))
        new, old = OuterStats(), OuterStats()
        value = _JANSON[name](g, t, s, rule, new)
        want = _REFERENCE_JANSON[name](g, t, s, rule, old)
        assert abs(value - want) <= 2e-15 * want, (name, g.coeffs, t, s, rule)
        assert new.capped == old.capped, (name, g.coeffs, t, s, rule)
        capped += new.capped
    assert 0 < capped < len(cases) // 4  # only the doubled rules can hit the cap


def _phi_inputs():
    rng = np.random.default_rng(SEED + 1)
    inputs = [(p, GAUSSIAN_EXTREMIZER) for p in (4 / 3, 1.5, 2.0)]
    for p in (1.25, 1.7):
        amp, lin = _complex_normal(rng, 2)
        atom = GaussianAtom(amp, complex(rng.uniform(1.0, 4.0), 0.3), lin)
        inputs.append((p, atom))
        inputs.append((p, HermiteSeries(_complex_normal(rng, 4))))
    return inputs


def test_phi_flow_matches_the_frozen_routes(monkeypatch):
    # the polynomial route bit for bit under the reference doubling; the
    # atom route's closed form against the doubled log-domain grids it replaced
    grid = [0.0, 0.3, 0.7, 1.0]
    inputs = _phi_inputs()
    new = [phi_flow(p, g, s_grid=grid).samples for p, g in inputs]
    monkeypatch.setattr(flows, "_auto_outer", ref._auto_outer)
    for (p, g), samples in zip(inputs, new):
        if not isinstance(g, GaussianAtom):
            assert samples == phi_flow(p, g, s_grid=grid).samples
        else:
            for (_, got), want in zip(samples, ref.atom_phi_flow(p, g, grid)):
                assert abs(got - want) <= 1e-14 * want, (g, p)


def test_phi_flow_atom_matches_nested_split_quad():
    # slowly decaying atoms: the doubled grids gave inf from s = 0.4 on
    # (p = 1.5) and NaN from s = 0.2 on (p = 2)
    inputs = [
        (1.5, GaussianAtom(1.0, 0.02 + 0.2j, 0.0)),
        (2.0, GaussianAtom(1.0, 0.02 + 0.2j, 1.0 + 0.5j)),
    ]
    grid = [0.2, 0.5, 0.8]
    for p, f in inputs:
        for s, got in phi_flow(p, f, s_grid=grid).samples:
            want = split_quad.atom_flow(p, f, s)
            assert abs(got - want) <= 1e-12 * want, (f, p, s)


def _exp_families():
    rng = np.random.default_rng(SEED + 2)
    families = [ExpFamily(atoms=((1.0, 0.5), (-0.3, -1.1)))]  # README example, sign-changing
    for k in (1, 2, 3):
        families.append(ExpFamily(atoms=tuple(zip(rng.normal(size=k), rng.normal(size=k)))))
        complex_atoms = zip(_complex_normal(rng, k), _complex_normal(rng, k))
        families.append(ExpFamily(atoms=tuple(complex_atoms)))
    return families


def test_exp_flow_phi_bit_identical(monkeypatch):
    # the interior sample bit for bit under the reference doubling; the
    # ends, which no longer double, against split quad
    grid = [0.0, 0.5, 1.0]
    cases = [(fam, p) for fam, p in zip(_exp_families(), (4 / 3, 1.5, 2.0, 4 / 3, 1.5, 2.0, 1.25))]

    def run():
        out = []
        for fam, p in cases:
            try:
                out.append(exp_flow_phi(fam, p, s_grid=grid).samples)
            except Exception as exc:  # an endpoint violation must match too
                out.append((type(exc), str(exc)))
        return out

    new = run()
    monkeypatch.setattr(hy, "_auto_outer", ref._auto_outer)
    assert new == run()
    for (fam, p), samples in zip(cases, new):
        for (_, got), want in zip(samples[::2], split_quad.exp_flow_ends(fam, p)):
            assert abs(got - want) <= 1e-12 * want, (fam, p)


def test_exp_flow_phi_interior_matches_the_full_grids():
    # the factored, tail-cut grids against phi_s_closed on every cell
    grid = [0.05, 0.25, 0.5, 0.75, 0.95]
    for fam, p in zip(_exp_families(), (4 / 3, 1.5, 2.0, 4 / 3, 1.5, 2.0, 1.25)):
        report = exp_flow_phi(fam, p, s_grid=grid)
        for s, value in report.samples:
            want = ref.exp_flow_interior(fam, p, s)
            assert abs(value - want) <= 1e-14 * want, (fam, p, s)


def test_exp_flow_phi_accuracy_error_unchanged(monkeypatch):
    # at s = 0.999 this sign-changing family's kinks keep the last doubling
    # step above 1e-4 at the cap
    fam = ExpFamily(
        atoms=((0.3661858537229255, -0.649414999777468), (-0.6841151736064445, 0.8607375733597276))
    )
    with pytest.raises(AccuracyError, match="512 nodes"):
        ref.exp_flow_interior(fam, 1.5, 0.999)
    with pytest.raises(AccuracyError, match="512 nodes"):
        exp_flow_phi(fam, 1.5, s_grid=[0.999])
    monkeypatch.setattr(hy, "_auto_outer", ref._auto_outer)
    with pytest.raises(AccuracyError, match="512 nodes"):
        exp_flow_phi(fam, 1.5, s_grid=[0.999])


def test_atom_lp_norm_matches_split_quad():
    rng = np.random.default_rng(SEED + 3)
    for count in (1, 2, 3, 3):
        atoms = _random_atoms(rng, count)
        for family in (atoms, [fourier_transform_atom(a) for a in atoms]):
            for r in (1.0, 4 / 3, 1.5, 2.0, 3.0, 4.0):
                want = split_quad.atom_norm(family, r)
                assert abs(atom_lp_norm(family, r) - want) <= 1e-12 * want, (family, r)
    zero = [GaussianAtom(1.0, 1.0, 0.0), GaussianAtom(-1.0, 1.0, 0.0)]  # |h| = 0 everywhere
    assert atom_lp_norm(zero, 2.0) == 0.0
    assert atom_lp_norm([], 2.0) == 0.0
    bad_inputs = (
        ([GaussianAtom(1.0, 1.0, 0.0)], 0.5, ValueError),  # r < 1
        ([GaussianAtom(1.0, 0.0, 0.0)], 2.0, DomainError),  # no Gaussian decay
    )
    for atoms, r, exc in bad_inputs:
        with pytest.raises(exc):
            atom_lp_norm(atoms, r)


def test_hy_verify_matches_split_quad():
    rng = np.random.default_rng(SEED + 4)
    cases = [
        (ExpFamily(atoms=((1.0, 0.0),)), 4 / 3),
        (ExpFamily(atoms=((1.0, 0.5), (-0.3, -1.1))), 1.5),
    ]
    for k, p in ((1, 1.25), (2, 1.5), (3, 1.8), (3, 2.0)):
        cases.append((ExpFamily(atoms=tuple(zip(_complex_normal(rng, k), rng.normal(size=k)))), p))
    for fam, p in cases:
        for got, want in zip(hy_verify(fam, p), split_quad.final_form(fam, p)):
            assert abs(got - want) <= 1e-12 * want, (fam, p)


def test_hy_endpoints_matches_reference():
    rng = np.random.default_rng(SEED + 5)
    for p, g in _phi_inputs():
        if isinstance(g, GaussianAtom):
            want = (
                split_quad.atom_norm([fourier_transform_atom(g)], conjugate_exponent(p)),
                hy.sharp_constant(p) * split_quad.atom_norm([g], p),
            )
            for got, ref_value in zip(hy_endpoints(p, g), want):
                assert abs(got - ref_value) <= 1e-12 * ref_value
    for p in (1.2, 4 / 3, 1.5, 1.8, 2.0):
        for degree in (0, 1, 3, 5):
            coeffs = _complex_normal(rng, degree + 1)
            for got, want in zip(hy_endpoints(p, HermiteSeries(coeffs)), split_quad.hermite_endpoints(p, coeffs)):
                assert abs(got - want) <= 1e-14 * want, (p, coeffs)


def test_mehler_atom_formula_matches_reference():
    # the heat-image form of identity_checks against the frozen s_k / A form
    rng = np.random.default_rng(SEED + 6)
    for atom in _random_atoms(rng, 6):
        for sigma in (complex(_complex_normal(rng, 1)[0]), 0.0, -0.5, 1.0):
            arg = complex(_complex_normal(rng, 1)[0])
            want = ref.mehler_atom_scaled(sigma, atom, arg)
            assert abs(mehler_atom_scaled(sigma, atom, arg) - want) <= 1e-13 * abs(want), (atom, sigma)
    undamped = GaussianAtom(1.0, -2.0, 0.0)  # A = -2 + 1/(2(1 - 0.5)) = -1
    with pytest.raises(DomainError):
        mehler_atom_scaled(0.5, undamped, 0.3)


def test_doubled_matches_converged_value():
    # converged_value without its absolute floor is doubled up to the
    # returned triple; the kinked E|G - 0.3|^1.5 never settles by 64 nodes
    smooth = lambda rule: float(rule.integrate(lambda x: np.cos(1.3 * x) * np.exp(0.2 * x)).real)
    kinked = lambda rule: float(rule.integrate(lambda x: np.abs(x - 0.3) ** 1.5).real)
    ladders = ((smooth, 4, 512, 1e-12), (kinked, 4, 64, 1e-10), (kinked, 8, 512, 1e-6))
    for evaluate, start, cap, rtol in ladders:
        est = doubled(evaluate, start, cap, rtol)
        want = ref.converged_value(evaluate, start, cap, rtol, atol=0.0)
        assert (est.value, est.nodes, est.converged) == want
    assert not doubled(kinked, 4, 64, 1e-10).converged

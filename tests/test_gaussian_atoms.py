"""Gaussian-atom closed forms against brute quadrature oracles."""
import numpy as np
import pytest

from identity_checks import lebesgue_integral, mehler_apply_atom, mehler_atom_scaled
from hypflow.errors import DomainError
from hypflow.gaussian_atoms import GaussianAtom, atom_lp_norm, fourier_transform_atom
from hypflow.quadrature import gh_rule, integrate_entire


def test_unit_atom_is_fixed_by_mehler():
    one = GaussianAtom(1.0, 0.0, 0.0)
    for w in [0.0, 0.5, 0.3 - 0.4j, 0.9j]:
        assert abs(mehler_apply_atom(w, one, 1.234) - 1.0) <= 1e-12


def test_mehler_atom_at_zero_parameter():
    atom = GaussianAtom(1.0, 1.0, 0.0)
    got = mehler_apply_atom(0.0, atom, 0.77)
    assert abs(got - 1.0 / np.sqrt(3.0)) <= 1e-14


def test_mehler_atom_vs_quadrature_random():
    rng = np.random.default_rng(29)
    rule = gh_rule(192)
    checked = 0
    while checked < 50:
        w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(w) >= 0.95:
            continue
        atom = GaussianAtom(
            complex(rng.normal(), rng.normal()),
            complex(rng.uniform(0.1, 1.5), rng.uniform(-0.4, 0.4)),
            complex(rng.normal(), rng.normal()),
        )
        x = complex(rng.normal(), rng.normal()) * 0.8
        s_k = 1.0 / (2.0 * (1.0 - w * w))
        if (atom.quad + s_k).real <= 1e-3:
            continue
        closed = mehler_apply_atom(w, atom, x)
        # oracle: the defining kernel integral, done by quadrature
        integral = integrate_entire(atom, s_k, 2.0 * s_k * x * w, rule)
        oracle = np.exp(-s_k * (x * w) ** 2) / np.sqrt(2 * np.pi * (1 - w * w)) * integral
        assert abs(closed - oracle) <= 1e-9 * max(1.0, abs(oracle))
        checked += 1


def test_mehler_atom_scaled_branch_free():
    # the composite depends on sigma = w^2 only: w and -w must agree exactly
    atom = GaussianAtom(0.7 - 0.2j, 0.9, 0.3j)
    x = 1.1
    for w in [0.5, 0.3 + 0.4j]:
        plus = mehler_apply_atom(w, atom, x)
        sigma_val = mehler_atom_scaled(w * w, atom, x * w)
        assert abs(plus - sigma_val) <= 1e-14 * max(1.0, abs(plus))
    # negative real sigma is fine too (purely imaginary w)
    val = mehler_atom_scaled(-0.25, atom, 0.6)
    assert np.isfinite(val)


def test_mehler_atom_identity_at_sigma_one():
    atom = GaussianAtom(1.3, 0.4, -0.2)
    assert abs(mehler_atom_scaled(1.0, atom, 0.9) - atom(0.9)) == 0.0


def test_lebesgue_integral_vs_quadrature():
    atom = GaussianAtom(2.0 - 1.0j, 0.8 + 0.2j, 0.5 - 0.3j)
    got = lebesgue_integral(atom)
    oracle = integrate_entire(
        lambda y: np.full_like(y, atom.amplitude, dtype=complex),
        atom.quad,
        atom.lin,
        gh_rule(96),
    )
    assert abs(got - oracle) <= 1e-10 * abs(oracle)


def test_domain_errors():
    heavy = GaussianAtom(1.0, 5.0, 0.0)  # grows too fast for w close to 1j-ish values
    with pytest.raises(DomainError):
        lebesgue_integral(GaussianAtom(1.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        # 1/(2(1-w^2)) with w = 0.99j is ~0.2527; quad = -0.3 pushes Re(A) < 0
        mehler_apply_atom(0.99j, GaussianAtom(1.0, -0.3, 0.0), 0.0)
    with pytest.raises(ValueError):
        mehler_apply_atom(1.0, heavy, 0.0)


def test_fourier_transform_atom_vs_quadrature():
    rng = np.random.default_rng(37)
    rule = gh_rule(128)
    for _ in range(10):
        atom = GaussianAtom(
            complex(rng.normal(), rng.normal()),
            complex(rng.uniform(0.4, 2.0), rng.uniform(-0.3, 0.3)),
            complex(rng.normal(), rng.normal()) * 0.7,
        )
        hat = fourier_transform_atom(atom)
        for xi in [0.0, 0.31, -0.8]:
            oracle = integrate_entire(
                lambda y: np.ones_like(y), atom.quad, atom.lin - 2j * np.pi * xi, rule
            ) * atom.amplitude
            assert abs(hat(xi) - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_gaussian_self_duality():
    g = GaussianAtom(1.0, np.pi, 0.0)
    hat = fourier_transform_atom(g)
    assert abs(hat.amplitude - 1.0) <= 1e-14
    assert abs(hat.quad - np.pi) <= 1e-14
    assert abs(hat.lin) <= 1e-14


def test_atom_lp_norm_gaussian_closed_form():
    # ||exp(-pi y^2)||_p = p^{-1/(2p)} from the dilation formula
    g = GaussianAtom(1.0, np.pi, 0.0)
    for p in [1.0, 4 / 3, 2.0, 4.0]:
        assert abs(atom_lp_norm([g], p) - p ** (-1 / (2 * p))) <= 1e-10


def test_atom_lp_norm_two_atoms_vs_direct():
    atoms = [GaussianAtom(1.0, 1.0, 0.5), GaussianAtom(0.5j, 1.3, -0.8)]
    got = atom_lp_norm(atoms, 2.0)
    # L^2 norm squared expands into pairwise closed-form integrals
    total = 0.0
    for a1 in atoms:
        for a2 in atoms:
            prod = GaussianAtom(
                a1.amplitude * np.conj(a2.amplitude),
                a1.quad + np.conj(a2.quad),
                a1.lin + np.conj(a2.lin),
            )
            total += lebesgue_integral(prod).real
    assert abs(got - np.sqrt(total)) <= 1e-10 * max(1.0, abs(total))

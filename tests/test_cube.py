"""Walsh algebra, damping operator, symmetric functions, and mixed norms."""
import math
from fractions import Fraction

import numpy as np
import pytest

from identity_checks import BlockCounts, binomial_split_check, block_sum, phi_block_eval
import hypflow.cube as cube
from hypflow.cube import (
    CubeFunction,
    SymmetricSpec,
    apply_Tzk,
    beckner_expand,
    _block_phi_matrix,
    cut_mixed_norm,
    hadamard_transform,
    log_binomial_weights,
    mixed_norm,
    mixed_norm_collapsed,
    phi_symmetric,
    symmetric_tzk_table,
    walsh_analyze,
)
from hypflow.quadrature import gh_rule


def point_from_mask(mask: int, n: int) -> np.ndarray:
    return np.array([-1 if mask >> j & 1 else 1 for j in range(n)])


def test_walsh_round_trip_and_parseval():
    rng = np.random.default_rng(0)
    values = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    f = walsh_analyze(values)
    back = f.values()
    assert np.max(np.abs(back - values)) <= 1e-13 * np.max(np.abs(values))
    energy = np.mean(np.abs(values) ** 2)
    assert abs(energy - np.sum(np.abs(f.coeffs) ** 2)) <= 1e-12 * energy


def _reference_butterfly(values):
    # the allocating butterfly the in-place transform must reproduce bit for bit
    out = np.array(values, dtype=complex)
    size, h = out.size, 1
    while h < size:
        out = out.reshape(-1, 2, h)
        top = out[:, 0, :] + out[:, 1, :]
        bot = out[:, 0, :] - out[:, 1, :]
        out = np.concatenate((top[:, None, :], bot[:, None, :]), axis=1).reshape(size)
        h *= 2
    return out


@pytest.mark.parametrize("n", range(0, 11))
def test_hadamard_transform_bitwise(n):
    rng = np.random.default_rng(n)
    size = 1 << n
    masks = np.arange(size)
    signs = 1.0 - 2.0 * (np.bitwise_count(masks[:, None] & masks[None, :]) & 1)
    # integer-valued entries make the brute-force sum exact in any order
    ints = rng.integers(-50, 50, size) + 1j * rng.integers(-50, 50, size)
    brute = signs @ ints
    assert np.array_equal(hadamard_transform(ints).view(np.float64), brute.view(np.float64))
    floats = rng.normal(size=size) + 1j * rng.normal(size=size)
    assert np.array_equal(
        hadamard_transform(floats).view(np.float64), _reference_butterfly(floats).view(np.float64)
    )


def test_walsh_analyze_examples():
    f = walsh_analyze(np.full(8, 3.0 - 1.0j))
    assert f.coeffs[0] == 3.0 - 1.0j and np.all(f.coeffs[1:] == 0)
    # delta at x0: fhat(S) = W_S(x0) / 2^n
    n, x0_mask = 3, 0b101
    delta = np.zeros(8)
    delta[x0_mask] = 1.0
    f = walsh_analyze(delta)
    x0 = point_from_mask(x0_mask, n)
    for s in range(8):
        w_s = np.prod([x0[j] for j in range(n) if s >> j & 1])
        assert abs(f.coeffs[s] - w_s / 8) <= 1e-15
    with pytest.raises(ValueError):
        walsh_analyze(np.zeros(6))


def test_apply_tzk():
    rng = np.random.default_rng(2)
    f = CubeFunction(3, rng.normal(size=8) + 1j * rng.normal(size=8))
    # k = n leaves every coefficient alone
    assert np.array_equal(apply_Tzk(f, 3j, 3).coeffs, f.coeffs)
    # k = 0, z = 0 keeps only the empty set
    g = apply_Tzk(f, 0.0, 0)
    assert g.coeffs[0] == f.coeffs[0] and np.all(g.coeffs[1:] == 0)
    # n = 2, k = 1: masks {2} and {1,2} pick up one factor of z
    f2 = CubeFunction(2, rng.normal(size=4) + 0j)
    g2 = apply_Tzk(f2, 3j, 1)
    np.testing.assert_allclose(g2.coeffs[0b10], 3j * f2.coeffs[0b10])
    np.testing.assert_allclose(g2.coeffs[0b11], 3j * f2.coeffs[0b11])
    np.testing.assert_allclose(g2.coeffs[0b01], f2.coeffs[0b01])
    with pytest.raises(ValueError):
        apply_Tzk(f, 1.0, 4)


def test_phi_symmetric():
    assert phi_symmetric(1, [1.0, 2.0, 3.0]) == 6.0
    assert phi_symmetric(2, [1.0, 1.0, 1.0]) == 6.0  # 2! * three pairs
    assert phi_symmetric(5, [1.0, 1.0, 1.0]) == 0.0
    assert phi_symmetric(0, []) == 1.0
    # against brute-force subset enumeration
    rng = np.random.default_rng(3)
    vals = rng.normal(size=6) + 1j * rng.normal(size=6)
    from itertools import combinations

    for ell in range(4):
        brute = math.factorial(ell) * sum(
            np.prod([vals[i] for i in c]) for c in combinations(range(6), ell)
        )
        assert abs(phi_symmetric(ell, vals) - brute) <= 1e-12 * max(1.0, abs(brute))


def test_phi_block_eval_examples():
    n = 8
    # z = 1, every coordinate +1: ell! C(n, ell) / n^{ell/2}
    got = phi_block_eval(3, n, BlockCounts(k=3, a=3, b=5), 1.0)
    assert abs(got - math.factorial(3) * math.comb(8, 3) / 8**1.5) <= 1e-13
    # z = 0 reduces to the first block
    got = phi_block_eval(2, n, BlockCounts(k=4, a=1, b=2), 0.0)
    first_block = np.array([1, -1, -1, -1]) / math.sqrt(n)
    assert abs(got - phi_symmetric(2, first_block)) <= 1e-14
    # explicit representative oracle
    k, a, b, z = 3, 2, 3, 0.7j
    rep = np.concatenate(
        [np.ones(a), -np.ones(k - a), z * np.ones(b), -z * np.ones(n - k - b)]
    ) / math.sqrt(n)
    got = phi_block_eval(3, n, BlockCounts(k=k, a=a, b=b), z)
    assert abs(got - phi_symmetric(3, rep)) <= 1e-12


def test_binomial_split_identity():
    rng = np.random.default_rng(4)
    # L = 1 is plain linearity
    x = rng.choice([-1.0, 1.0], size=4)
    lhs, rhs = binomial_split_check(1, 2, x, 0.3 + 0.1j)
    assert abs(lhs - rhs) <= 1e-14
    # spec-shaped random case
    x = rng.choice([-1.0, 1.0], size=5)
    lhs, rhs = binomial_split_check(3, 2, x, 0.3 + 0.4j)
    assert abs(lhs - rhs) <= 1e-12
    # z = 1: product of generating polynomials, i.e. e_L of the concatenation
    x = rng.normal(size=6)
    lhs, rhs = binomial_split_check(4, 3, x, 1.0)
    assert abs(lhs - rhs) <= 1e-12
    assert abs(lhs - phi_symmetric(4, x)) <= 1e-12


def test_beckner_low_degrees_are_exact():
    for n in [8, 16, 33]:
        e1 = beckner_expand(n, 1)
        np.testing.assert_allclose(e1.coeffs, [0, 1], atol=1e-13)
        e2 = beckner_expand(n, 2)
        np.testing.assert_allclose(e2.coeffs, [0, 0, 1], atol=1e-13)
        e3 = beckner_expand(n, 3)
        assert abs(e3.coeffs[3] - 1) <= 1e-12
        assert abs(e3.coeffs[1] - 2 / n) <= 1e-12


def test_beckner_brute_force_identity_small_n():
    # the expansion must reproduce phi_3 at every one of the 2^n points
    from numpy.polynomial.hermite_e import hermeval

    for n in range(5, 9):
        exp3 = beckner_expand(n, 3)
        for mask in range(1 << n):
            x = point_from_mask(mask, n)
            phi_val = phi_symmetric(3, x / math.sqrt(n)).real
            t = x.sum() / math.sqrt(n)
            recon = sum(
                exp3.coeffs[m] * hermeval(t, [0] * m + [1]) for m in range(4)
            ).real
            assert abs(phi_val - recon) <= 1e-11


def test_beckner_parity_and_residual():
    for ell in range(1, 7):
        exp_ = beckner_expand(32, ell)
        for m in range(ell + 1):
            if (ell - m) % 2 == 1:
                assert abs(exp_.coeffs[m]) <= 1e-11
        assert exp_.max_residual <= 1e-11


def test_beckner_residual_is_exact():
    # float sums of the level values and Hermite terms cancelled to 3.9e-2 here
    assert beckner_expand(200, 20).max_residual <= 1e-15
    # against an all-rational evaluation, where sqrt(n) is an integer
    for n, ell in [(196, 20), (64, 20), (36, 7), (9, 4)]:
        exp_ = beckner_expand(n, ell)
        root = math.isqrt(n)
        worst = Fraction(0)
        for j in range(n + 1):
            # e_ell of j entries +1 and n - j entries -1, by the Krawtchouk recurrence
            k_prev, e = 0, 1
            for l in range(ell):
                k_prev, e = e, ((2 * j - n) * e - (n - l + 1) * k_prev) // (l + 1)
            phi = Fraction(math.factorial(ell) * e, root**ell)
            s = Fraction(2 * j - n, root)
            recon, h_prev, h = Fraction(0), Fraction(0), Fraction(1)
            for m in range(ell + 1):
                recon += Fraction(float(exp_.coeffs[m])) * h
                h_prev, h = h, s * h - m * h_prev
            worst = max(worst, abs(recon - phi) / max(1, abs(phi)))
        assert exp_.max_residual == pytest.approx(float(worst), rel=1e-12, abs=0.0), (n, ell)


def test_beckner_rejects_bad_degrees():
    with pytest.raises(ValueError):
        beckner_expand(30, 21)
    with pytest.raises(ValueError):
        beckner_expand(4, 5)


def test_mixed_norm_examples():
    vals = np.full(16, 1.5 - 2.0j)
    for k in range(5):
        assert abs(mixed_norm(vals, k, 1.5, 3.0) - abs(1.5 - 2.0j) ** 1.5) <= 1e-12
    # k = 0: plain (E|f|^q)^{p/q}
    rng = np.random.default_rng(5)
    vals = rng.normal(size=8) + 1j * rng.normal(size=8)
    got = mixed_norm(vals, 0, 2.0, 4.0)
    assert abs(got - np.mean(np.abs(vals) ** 4) ** 0.5) <= 1e-13
    # n = 2, f = x1 + x2, p = 2, q = 4, k = 1 -> 2 sqrt(2)
    table = np.array([2.0, 0.0, 0.0, -2.0])  # value at mask (bit set = coordinate -1)
    assert abs(mixed_norm(table, 1, 2.0, 4.0) - 2.0 * math.sqrt(2.0)) <= 1e-13


def test_mixed_norm_rejects_bad_exponents():
    with pytest.raises(ValueError):
        mixed_norm(np.ones(4), 1, 4.0, 2.0)
    with pytest.raises(ValueError):
        mixed_norm_collapsed((np.ones((2, 1)), np.ones((1, 3))), 3, 1, 3.0, 2.0)


def test_mixed_norm_against_loop_oracle():
    rng = np.random.default_rng(6)
    n = 5
    vals = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    p, q = 1.7, 3.1
    for k in range(n + 1):
        # oracle: explicit double loop over low/high masks
        acc = 0.0
        for low in range(1 << k):
            inner = 0.0
            for high in range(1 << (n - k)):
                inner += abs(vals[(high << k) | low]) ** q
            inner /= 1 << (n - k)
            acc += inner ** (p / q)
        oracle = acc / (1 << k)
        assert abs(mixed_norm(vals, k, p, q) - oracle) <= 1e-12 * max(1.0, oracle)


def test_collapsed_equals_naive_mixed_norm():
    rng = np.random.default_rng(7)
    for n in [4, 7, 12]:
        spec = SymmetricSpec(n=n, a=rng.normal(size=4) + 1j * rng.normal(size=4))
        cube = spec.materialize()
        for k in range(n + 1):
            for z in [0.5, 0.3 - 0.6j]:
                naive = mixed_norm(apply_Tzk(cube, z, k).values(), k, 1.5, 4.0)
                table = symmetric_tzk_table(spec, z, k)
                collapsed = mixed_norm_collapsed(table, n, k, 1.5, 4.0)
                assert abs(naive - collapsed) <= 1e-12 * max(1.0, naive)


def test_damping_commutes_with_block_evaluation():
    # T_z^k on a single symmetric function, synthesized on the cube, equals
    # the block generating-polynomial evaluation at every point
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(3, 13))
        ell = int(rng.integers(1, 5))
        k = int(rng.integers(0, n + 1))
        z = complex(rng.normal(), rng.normal()) * 0.5
        spec = SymmetricSpec(n=n, a=[0.0] * ell + [1.0])
        damped_values = apply_Tzk(spec.materialize(), z, k).values()
        mask = int(rng.integers(0, 1 << n))
        x = point_from_mask(mask, n)
        counts = BlockCounts(k=k, a=int(np.sum(x[:k] == 1)), b=int(np.sum(x[k:] == 1)))
        expected = phi_block_eval(ell, n, counts, z)
        assert abs(damped_values[mask] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_level_values_match_exact_integers():
    # the naive backend's level values against ell! e_ell / n^{ell/2}, with
    # e_ell of j entries +1 and n - j entries -1 an exact integer; degrees
    # above n give 0
    for n in range(1, 25):
        for ell in range(12):
            got = SymmetricSpec(n=n, a=[0.0] * ell + [1.0]).level_values()
            want = [
                float(Fraction(math.factorial(ell) * block_sum(ell, j, n - j), n ** (ell // 2)))
                / math.sqrt(n) ** (ell % 2)
                for j in range(n + 1)
            ]
            scale = max(1.0, math.factorial(ell) * math.comb(n, ell) / math.sqrt(n) ** ell)
            assert np.max(np.abs(got - want)) <= 2e-15 * scale, (n, ell)
    # materialize spreads them over the cube by the count of +1 coordinates
    spec = SymmetricSpec(n=5, a=[0.5, -1.0j, 2.0])
    plus = [int(np.sum(point_from_mask(mask, 5) == 1)) for mask in range(32)]
    np.testing.assert_allclose(spec.materialize().values(), spec.level_values()[plus], rtol=0, atol=1e-14)


def test_symmetric_spec_validation():
    with pytest.raises(ValueError):
        SymmetricSpec(n=0, a=[1.0])
    spec = SymmetricSpec(n=30, a=[1.0, 1.0])
    with pytest.raises(ValueError):
        spec.materialize()


@pytest.mark.parametrize(
    "n, total, l_max",
    [(5, 0, 5), (9, 1, 5), (40, 7, 5), (400, 100, 5), (2000, 999, 5), (2000, 2000, 5), (4096, 4096, 6)],
)
def test_block_phi_matrix_is_exact(n, total, l_max):
    # j! n^{-j/2} times the exact integer, rounded once: bit for bit.  At
    # total = 4096, l_max = 6 the recurrence leaves float64 for Python ints.
    scale = 1.0 / math.sqrt(n)
    want = np.array(
        [
            [(math.factorial(j) * scale**j) * float(block_sum(j, c, total - c)) for c in range(total + 1)]
            for j in range(l_max + 1)
        ]
    )
    got = _block_phi_matrix(l_max, n, total)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("count", [12, 800, 2000, 4096])
def test_binomial_weights_match_exact_fractions(count):
    exact = np.array([float(Fraction(math.comb(count, j), 2**count)) for j in range(count + 1)])
    got = log_binomial_weights(count)
    normal = exact > 1e-300  # below that the entries go subnormal
    assert np.all(np.abs(got[normal] - exact[normal]) <= 1e-14 * exact[normal])
    assert np.all(got[~normal] <= 1e-300)
    assert abs(got.sum() - 1.0) <= 1e-15


def _cut_and_full(spec, z, k, p, q):
    # the reference forms every cell of the dense table left @ right
    n = spec.n
    cuts = []
    left, right = symmetric_tzk_table(spec, z, k)
    value = mixed_norm_collapsed((left, right), n, k, p, q, cuts=cuts)
    table = left @ right

    def abs_q(rows, cols):
        return cube._abs_q(table.real[rows, cols].copy(), table.imag[rows, cols].copy(), q)

    weights = log_binomial_weights(k), log_binomial_weights(n - k)
    full, _ = cut_mixed_norm(abs_q, *weights, p, q, share=cube._CUT_SHARE)
    return value, full, cuts[0]


def test_tail_cut_bound_holds():
    rng = np.random.default_rng(9)
    for n, z in [(300, 0.4 - 0.3j), (1000, 0.0), (1000, 0.9j)]:
        spec = SymmetricSpec(n=n, a=rng.normal(size=5) + 1j * rng.normal(size=5))
        for k in (0, n // 3, n // 2, n):
            value, full, cut = _cut_and_full(spec, z, k, 1.3, 3.4)
            if k not in (0, n):
                assert cut.cells_kept < cut.cells
            assert cut.bound <= cube.TAIL_RTOL
            # the cut value misses at most the certified share, up to rounding
            assert value <= full * (1 + 1e-14)
            assert full - value <= (cut.bound + 1e-14) * value


def test_tail_cut_falls_back_to_the_full_table(monkeypatch):
    # a bound no cut can meet: every cell is formed, and nothing is reported dropped
    monkeypatch.setattr(cube, "TAIL_RTOL", -1.0)
    spec = SymmetricSpec(n=400, a=[0.5, 1.0, 0.0, -0.25j])
    value, full, cut = _cut_and_full(spec, 0.3 + 0.2j, 150, 1.5, 3.0)
    assert cut == cube.TailCut(0.0, 151 * 251, 151 * 251)
    assert value == full


def _rank_k_case(rng, weights, positions, k):
    """|f|^q on a grid with a random nonnegative rank-k majorant spread * R @ C above it."""
    degrees = rng.integers(0, 7, size=(2, k))
    big_r = rng.uniform(0.5, 2.0, size=k) * (1.0 + np.abs(positions[0]))[:, None] ** degrees[0]
    big_c = rng.uniform(0.5, 2.0, size=(k, 1)) * (1.0 + np.abs(positions[1]))[None, :] ** degrees[1][:, None]
    spread = float(rng.uniform(1.0, 4.0))
    values = spread * (big_r @ big_c) * rng.uniform(size=(weights[0].size, weights[1].size))
    return (lambda rows, cols: values[rows, cols].copy()), (spread, big_r, big_c)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cut_mixed_norm_within_its_bound(monkeypatch, k):
    rng = np.random.default_rng(40 + k)
    rule = gh_rule(256)
    binomial = [log_binomial_weights(t) for t in (300, 500)]
    grids = [
        ((rule.weights, rule.weights), (rule.nodes, rule.nodes), 1e-28),
        (binomial, [np.arange(w.size) - w.size // 2 for w in binomial], 1e-20),
    ]
    dropped = 0
    for weights, positions, share in grids:
        cells = weights[0].size * weights[1].size
        for _ in range(4):
            abs_q, bound = _rank_k_case(rng, weights, positions, k)
            p = float(rng.uniform(1.0, 3.0))
            q = float(rng.uniform(p, 4.0))
            value, cut = cut_mixed_norm(abs_q, *weights, p, q, bound, share=share)
            full, full_cut = cut_mixed_norm(abs_q, *weights, p, q, share=share)
            assert full_cut == cube.TailCut(0.0, cells, cells)
            assert 0.0 <= cut.bound <= cube.TAIL_RTOL
            noise = 1e-15 * full
            assert value <= full + noise
            assert full - value <= cut.bound * value + noise
            dropped += cut.cells_kept < cells
            # a coarse cut drops real mass: the bound covers it, and where
            # |f|^q is its majorant, the bound is what was dropped
            monkeypatch.setattr(cube, "TAIL_RTOL", 1.0)
            coarse, coarse_cut = cut_mixed_norm(abs_q, *weights, p, q, bound, share=1e-4)
            assert 0.0 < full - coarse <= coarse_cut.bound * coarse
            spread, big_r, big_c = bound

            def tight(rows, cols):
                return spread * (big_r[rows] @ big_c[:, cols])

            tight_full = cut_mixed_norm(tight, *weights, p, q, share=share)[0]
            tight_cut, tight_tail = cut_mixed_norm(tight, *weights, p, q, bound, share=1e-4)
            assert 0.999 * tight_tail.bound <= (tight_full - tight_cut) / tight_cut <= tight_tail.bound
            # a bound no cut can meet: the fallback is the full sum, bit for bit
            monkeypatch.setattr(cube, "TAIL_RTOL", -1.0)
            assert cut_mixed_norm(abs_q, *weights, p, q, bound, share=share) == (full, full_cut)
            monkeypatch.undo()
    assert dropped > 0


def test_cut_mixed_norm_keeps_everything_under_an_overflowing_majorant():
    rng = np.random.default_rng(7)
    rule = gh_rule(128)
    abs_q, bound = _rank_k_case(rng, (rule.weights, rule.weights), (rule.nodes, rule.nodes), 2)
    full = cut_mixed_norm(abs_q, rule.weights, rule.weights, 1.5, 3.0, share=1e-28)[0]
    for factor, cell in ((1, (3, 0)), (2, (1, 5))):  # an inf in R, then in C
        overflowing = [bound[0], bound[1].copy(), bound[2].copy()]
        overflowing[factor][cell] = np.inf
        value, cut = cut_mixed_norm(abs_q, rule.weights, rule.weights, 1.5, 3.0, overflowing, share=1e-28)
        assert cut == cube.TailCut(0.0, 128 * 128, 128 * 128)
        assert value == full


def test_collapsed_table_matches_block_evaluation():
    spec = SymmetricSpec(n=9, a=[0.3, -1.0j, 0.5, 0.0, 2.0])
    z, k = 0.4 + 0.7j, 4
    left, right = symmetric_tzk_table(spec, z, k)
    table = left @ right
    assert table.shape == (k + 1, spec.n - k + 1)
    for a in range(k + 1):
        for b in range(spec.n - k + 1):
            counts = BlockCounts(k=k, a=a, b=b)
            want = sum(c * phi_block_eval(ell, spec.n, counts, z) for ell, c in enumerate(spec.a))
            assert abs(table[a, b] - want) <= 1e-13 * max(1.0, abs(want))

"""Seeded CLI inputs for the four benchmark workloads.

Every workload is a sequence of rounds.  A round has a fixed shape (which
subcommands, which dimensions, which exponent families) and the seed only
draws the numbers inside it, so two seeds give the program the same kind and
amount of work.  Calls are appended round by round until their planned cost
reaches the requested measuring time; the plan uses fixed per-call costs, so
the same seed and time always give the same list.

All (p, q, z) for the cube flow lie in the disc |z| <= sqrt((p-1)/(q-1))
with p <= 2 <= q.  There T_z factors as T_r1 T_w T_r2 with real
r1 = sqrt(p-1) (L^p -> L^2), |w| <= 1 (an L^2 contraction) and
r2 = 1/sqrt(q-1) (L^2 -> L^q), so the two-point inequality holds and the
flow must come out nondecreasing.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("cube", "gauss", "fourier", "scan")

# call_tail_s needs ten calls beyond it; three more keep it off the cheapest call.
MIN_CALLS = 14


@dataclass
class Call:
    """One cold CLI invocation and what its outputs are checked against."""

    argv: list[str]  # hypflow CLI arguments, without --out
    kind: str  # selects the output checks in references.py
    plan_s: float  # planned cost of one cold call, used only to size the run
    info: dict = field(default_factory=dict)  # exact inputs the references need


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def fmt_complex(c: complex) -> str:
    return f"{fmt(c.real)}{float(c.imag):+.17g}j"


def _coeff_arg(coeffs) -> str:
    return ",".join(fmt_complex(complex(c)) for c in coeffs)


def _pair(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.normal(size=size) + 1j * rng.normal(size=size)


# --------------------------------------------------------------------- cube


def _gated_triple(rng: np.random.Generator) -> tuple[float, float, complex]:
    p = float(rng.uniform(1.1, 2.0))
    q = float(rng.uniform(2.0, 4.5))
    radius = 0.95 * math.sqrt(rng.uniform()) * math.sqrt((p - 1.0) / (q - 1.0))
    z = complex(radius * np.exp(2j * np.pi * rng.uniform()))
    return p, q, z


def _discrete(rng: np.random.Generator, n: int, plan_s: float, split_count: int | None = None) -> Call:
    p, q, z = _gated_triple(rng)
    coeffs = _complex_normal(rng, int(rng.integers(2, 6)) + 1)
    argv = [
        "discrete-flow",
        f"--n={n}",
        f"--p={fmt(p)}",
        f"--q={fmt(q)}",
        f"--z-re={fmt(z.real)}",
        f"--z-im={fmt(z.imag)}",
        f"--coeffs={_coeff_arg(coeffs)}",
    ]
    if split_count is not None:
        # stratified split indices keep the table sizes alike across seeds
        edges = (np.arange(split_count) + rng.uniform(size=split_count)) * n / split_count
        ks = sorted({0, n, *(int(min(max(k, 1), n - 1)) for k in edges)})
        argv.append("--ks=" + ",".join(str(k) for k in ks))
    info = {"n": n, "p": p, "q": q, "z": _pair(z), "coeffs": [_pair(c) for c in coeffs]}
    return Call(argv, "discrete", plan_s, info)


def _converge(rng: np.random.Generator) -> Call:
    p, q, z = _gated_triple(rng)
    coeffs = np.array([0.0, 1.0, 0.0, 1.0]) + 0.25 * _complex_normal(rng, 4)
    argv = [
        "converge",
        f"--p={fmt(p)}",
        f"--q={fmt(q)}",
        f"--z-re={fmt(z.real)}",
        f"--z-im={fmt(z.imag)}",
        f"--coeffs={_coeff_arg(coeffs)}",
        "--s=0.5",
        "--n-list=64,256,1024,4096",
    ]
    return Call(argv, "converge", 0.9)


def cube_round(rng: np.random.Generator, index: int) -> list[Call]:
    # Most calls cost about the same (subsets of split indices, converge), so
    # the median and the tail percentile of a run fall inside that plateau
    # rather than on the edge between two kinds of call.
    repeated = _discrete(rng, 1500, 0.9, split_count=22)
    return [
        _discrete(rng, 12, 0.55),
        repeated,
        _discrete(rng, 800, 1.8),
        _discrete(rng, 2000, 0.95, split_count=22),
        _converge(rng),
        _discrete(rng, 1000, 0.8, split_count=22),
        repeated,
    ]


# -------------------------------------------------------------------- gauss

P_GAUSS = (4.0 / 3.0, 1.5)

# g = x + x^3 at p = 4/3: the 1-D endpoint integrand at s = 1 has real roots,
# |.|^p is kinked there and J(1) is known to come back 5.6e-4 off.  It stays in
# every round so that ref_miss_frac shows the defect until it is fixed.
KNOWN_DEFECT = (4.0 / 3.0, [0.0, 1.0, 0.0, 1.0])


def _janson(p: float, coeffs, plan_s: float) -> Call:
    coeffs = [complex(c) for c in coeffs]
    argv = ["janson-flow", f"--p={fmt(p)}", f"--coeffs={_coeff_arg(coeffs)}"]
    return Call(argv, "janson", plan_s, {"p": p, "coeffs": [_pair(c) for c in coeffs]})


def gauss_round(rng: np.random.Generator, index: int) -> list[Call]:
    calls = [_janson(*KNOWN_DEFECT, plan_s=1.3)]
    # degrees cycle through 0..6 by position, so every seed gets the same mix
    for i in range(3):
        deg = (3 * index + i) % 7
        calls.append(_janson(P_GAUSS[i % 2], _complex_normal(rng, deg + 1), 1.2))
    for p, deg in zip(P_GAUSS, (3, 4)):
        roots = rng.normal(size=deg)
        calls.append(_janson(p, np.poly(roots)[::-1] * rng.uniform(0.5, 2.0), 1.0))
    p = P_GAUSS[index % 2]
    hermite = _complex_normal(rng, 4)
    argv = ["hy-flow", f"--p={fmt(p)}", f"--hermite-coeffs={_coeff_arg(hermite)}"]
    calls.append(Call(argv, "hy_hermite", 0.75, {"p": p, "coeffs": [_pair(c) for c in hermite]}))
    return calls


# ------------------------------------------------------------------ fourier

P_FOURIER = (4.0 / 3.0, 1.5, 2.0)


def _hy_exp(p: float, atoms: list[tuple[complex, complex]], plan_s: float) -> Call:
    arg = ",".join(f"{fmt_complex(c)}:{fmt_complex(t)}" for c, t in atoms)
    info = {"p": p, "atoms": [[_pair(c), _pair(t)] for c, t in atoms]}
    return Call(["hy-exp", f"--p={fmt(p)}", f"--atoms={arg}"], "hy_exp", plan_s, info)


def _real_family(rng: np.random.Generator, count: int) -> list[tuple[complex, complex]]:
    amps = np.abs(rng.normal(size=count)) + 0.2
    amps[1:] *= -1.0  # mixed signs: the family has a real zero, so |.|^r is kinked
    freqs = np.sort(rng.uniform(-1.5, 1.5, size=count))
    freqs += 0.3 * np.arange(count)  # distinct frequencies
    return [(complex(c), complex(t)) for c, t in zip(amps, freqs)]


def _complex_family(rng: np.random.Generator, count: int) -> list[tuple[complex, complex]]:
    amps = _complex_normal(rng, count)
    freqs = 0.6 * _complex_normal(rng, count)
    return [(complex(c), complex(t)) for c, t in zip(amps, freqs)]


def _gaussian(p: float) -> Call:
    return Call(["hy-flow", f"--p={fmt(p)}", "--gaussian"], "hy_gaussian", 0.55, {"p": p})


def fourier_round(rng: np.random.Generator, index: int) -> list[Call]:
    # One kinked real family per round (p < 2, it needs the 4096-node rules);
    # at p = 2 |.|^2 is smooth and multi-atom families stay cheap.  Complex
    # families at p < 2 have one atom: with more, near-zeros make the rule
    # size, and so the cost, depend on the seed.  One Gaussian per round,
    # p = 2 first, keeps most calls of a run alike in cost, so the median and
    # the tail percentile fall among them.
    repeated = _hy_exp(P_FOURIER[0], _complex_family(rng, 1), 0.5)
    return [
        _gaussian(P_FOURIER[(index + 2) % 3]),
        _hy_exp(P_FOURIER[index % 2], _real_family(rng, 2 + index % 2), 4.5),
        repeated,
        _hy_exp(2.0, _real_family(rng, 2), 0.5),
        _hy_exp(P_FOURIER[1], _complex_family(rng, 1), 0.5),
        _hy_exp(2.0, _complex_family(rng, 2 + index % 2), 0.5),
        repeated,
    ]


# --------------------------------------------------------------------- scan


# (p, q) families visited in turn; the seed moves each point a little.  The
# search cost depends on (p, q), so fixed families keep it alike across seeds.
SCAN_FAMILIES = ((1.5, 3.0), (2.0, 4.0), (1.25, 2.5), (1.8, 5.0))


def scan_round(rng: np.random.Generator, index: int) -> list[Call]:
    calls = []
    for j in range(2):
        p0, q0 = SCAN_FAMILIES[(2 * index + j) % len(SCAN_FAMILIES)]
        p = p0 + float(rng.uniform(-0.05, 0.05))
        q = q0 + float(rng.uniform(-0.05, 0.05))
        for budget, resolution, plan_s in (("reduced", 0.1, 0.95), ("full", 0.25, 1.0)):
            argv = [
                "two-point-scan",
                f"--p={fmt(p)}",
                f"--q={fmt(q)}",
                f"--resolution={resolution}",
                f"--budget={budget}",
            ]
            calls.append(Call(argv, "scan", plan_s, {"p": p, "q": q, "resolution": resolution}))
    calls.append(calls[0])  # repeated: its CSV must come out byte-identical
    return calls


ROUNDS = {"cube": cube_round, "gauss": gauss_round, "fourier": fourier_round, "scan": scan_round}


def build(workload: str, seed: int, seconds: float) -> list[Call]:
    """The call list for one run: whole rounds, then a cut round, until the plan is full."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    calls: list[Call] = []
    planned = 0.0
    for index in itertools.count():
        for call in ROUNDS[workload](rng, index):
            calls.append(call)
            planned += call.plan_s
            if planned >= seconds and len(calls) >= MIN_CALLS:
                return calls

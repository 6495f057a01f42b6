"""The acceptance criteria: one registry behind `hypflow selftest` and the tests.

CRITERIA lists the ten criteria in order as (name, body); body(result, rng,
quick) records the checks into a SuiteResult at their tolerances, and
`quick` scales the draw counts and grid sizes down.  `hypflow selftest`
gives each entry its own stream, spawned from one seed (SeedSequence).
"""
from __future__ import annotations

import functools
import math
import time

import numpy as np

from .cube import SymmetricSpec, beckner_expand, discrete_flow, phi_symmetric, walsh_analyze
from .errors import AccuracyError
from .exponents import ExponentTriple, conjugate_exponent
from .flows import (
    convergence_experiment,
    janson_flow,
    janson_heat,
    janson_mehler,
    janson_quadrature,
)
from .hausdorff_young import (
    ExpFamily,
    gaussian_extremizer_input,
    hy_endpoints,
    hy_verify,
    lemma_A_check,
    lemma_F_check,
    phi_flow,
)
from .hermite import HermiteSeries, PolySeries, gaussian_smooth
from .quadrature import gh_rule
from .two_point import SearchBudget, disk_grid, extremal_ratio, real_failure_threshold, region_scan


class SuiteResult:
    """One criterion's outcome, recorded check by check; to_json() is its manifest entry."""

    __slots__ = ("name", "passed", "checks", "worst_error_over_tol", "failures", "elapsed_s")

    def __init__(self, name: str):
        self.name = name
        self.passed = True
        self.checks = 0
        self.worst_error_over_tol = 0.0
        self.failures: list[str] = []
        self.elapsed_s = 0.0

    def check(self, label: str, error: float, tol: float) -> None:
        ratio = error / tol if tol else error
        # max() would drop a NaN ratio and keep the old worst
        self.worst_error_over_tol = max(self.worst_error_over_tol, ratio) if math.isfinite(error) else math.inf
        self.require(f"{label}: error {error:.3e} > tol {tol:.1e}", error <= tol)

    def require(self, label: str, condition: bool) -> None:
        self.checks += 1
        if not condition:
            self.passed = False
            self.failures.append(label)

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _complex_poly(rng: np.random.Generator, max_degree: int) -> PolySeries:
    deg = int(rng.integers(0, max_degree + 1))
    return PolySeries(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))


def _sharp_constant(rec: SuiteResult, rng: np.random.Generator, quick: bool) -> None:
    for p in (4 / 3, 3 / 2, 2.0):
        q = conjugate_exponent(p)
        norm_fhat, scaled = hy_endpoints(gaussian_extremizer_input(p))
        # int exp(-r pi y^2) dy = r^{-1/2}  =>  ||f||_p = p^{-1/2p}, ||fhat||_q = q^{-1/2q}
        want = q ** (-1.0 / (2.0 * q))
        rec.check(f"||fhat||_q at p={p:.4g}", abs(norm_fhat - want), 1e-8)
        rec.check(f"scaled ||f||_p at p={p:.4g}", abs(scaled - want), 1e-8)
        rec.check(f"endpoint equality at p={p:.4g}", abs(norm_fhat - scaled), 1e-8 * scaled)


def _continuous_monotone(rec: SuiteResult, rng: np.random.Generator, quick: bool) -> None:
    polys = [PolySeries([1.0, 2.0, 0.0, 1.0])]
    polys += [_complex_poly(rng, 6) for _ in range(1 if quick else 10)]
    for p in (4 / 3,) if quick else (4 / 3, 3 / 2):
        t = ExponentTriple(p, conjugate_exponent(p), 1j * math.sqrt(p - 1.0))
        for g in polys:
            report = janson_flow(g, t)
            rec.require(f"21 samples for {g.coeffs}", len(report.samples) == 21)
            rec.check(f"deficit at p={p:.4g}, g={g.coeffs}", -report.min_delta(), 1e-9)


def _three_evaluators(rec: SuiteResult, rng: np.random.Generator, quick: bool) -> None:
    for _ in range(6 if quick else 30):
        g = _complex_poly(rng, 8)
        p = float(rng.uniform(1.0, 4.0))
        q = float(rng.uniform(p, 4.0))
        z = 0.95 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        s = float(rng.uniform(0.05, 0.95))
        t = ExponentTriple(p, q, z)
        a = janson_quadrature(g, t, s)
        b = janson_mehler(g, t, s)
        c = janson_heat(gaussian_smooth(g), t, s)
        at = f"p={p:.4g} q={q:.4g} z={z:.4g} s={s:.4g}"
        rec.check(f"quadrature vs mehler at {at}", abs(a - b), 1e-6 * max(abs(a), 1e-30))
        rec.check(f"quadrature vs heat at {at}", abs(a - c), 1e-6 * max(abs(a), 1e-30))


def _discrete_monotone(rec: SuiteResult, rng: np.random.Generator, quick: bool) -> None:
    done = 0
    while done < (3 if quick else 10):
        p = float(rng.uniform(1.0, 3.0))
        q = float(rng.uniform(p, 4.0))
        radius = 0.85 * math.sqrt((p - 1.0) / max(q - 1.0, 1e-9)) if q > 1 else 0.5
        z = min(radius, 1.0) * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        t = ExponentTriple(p, q, z)
        if extremal_ratio(t, SearchBudget.reduced()).sup_ratio > 1.0 + 1e-9:
            continue
        spec = SymmetricSpec(n=12, a=rng.normal(size=4) + 1j * rng.normal(size=4))
        collapsed = discrete_flow(spec, t)
        naive = discrete_flow(spec, t, backend="naive")
        at = f"p={p:.4g} q={q:.4g} z={z:.4g} a={spec.a}"
        rec.check(f"deficit at {at}", -collapsed.min_delta(), 1e-10)
        for x, y in zip(collapsed.values, naive.values):
            rec.check(f"collapsed vs naive at {at}", abs(x - y), 1e-12 * max(1.0, abs(x)))
        done += 1


def _convergence(rec: SuiteResult, rng: np.random.Generator, quick: bool) -> None:
    p = 4 / 3
    t = ExponentTriple(p, 4.0, 1j * math.sqrt(p - 1.0))
    n_list = [64, 256, 1024] if quick else [64, 256, 1024, 4096]
    table = convergence_experiment([0.0, 1.0, 0.0, 1.0], t, 0.5, n_list)
    errs = [r.abs_error for r in table.rows]
    rec.require(f"errors shrink: {errs}", all(a > b for a, b in zip(errs, errs[1:])))
    rec.require(f"slope {table.slope} <= -0.4", table.slope is not None and table.slope <= -0.4)


def _beckner(rec: SuiteResult, rng: np.random.Generator, quick: bool) -> None:
    for ell in range(1, 7):
        scaled_low = []
        for n in (8, 12, 16, 23, 32, 47, 64):
            exp_ = beckner_expand(n, ell)
            c = exp_.coeffs
            rec.check(f"top coefficient n={n} l={ell}", abs(c[ell] - 1.0), 1e-11)
            rec.check(f"residual n={n} l={ell}", exp_.max_residual, 1e-11)
            wrong = max((abs(c[m]) for m in range(ell) if (ell - m) % 2), default=0.0)
            rec.check(f"parity n={n} l={ell}", float(wrong), 1e-11)
            if n & (n - 1) == 0:
                scaled_low.append(n * float(max(abs(c[m]) for m in range(ell))))
        for first, second in zip(scaled_low, scaled_low[1:]):
            # low degrees have exactly-zero corrections; noise there is fine
            rec.require(f"n * max|lower coefficient| grew, l={ell}", second <= first * (1 + 1e-9) + 1e-9)
    for n in range(5, 8 if quick else 11):
        c = beckner_expand(n, 3).coeffs
        rec.check(f"phi_3 coefficient n={n}", abs(c[1] - 2.0 / n), 1e-12)
        for mask in range(1 << n):  # the identity at every point of the cube
            x = np.array([-1.0 if mask >> j & 1 else 1.0 for j in range(n)])
            lhs = phi_symmetric(3, x / math.sqrt(n)).real
            tval = x.sum() / math.sqrt(n)
            rhs = HermiteSeries(c.real)(tval)
            rec.check(f"phi_3 identity n={n} mask={mask}", abs(lhs - rhs), 1e-11)


def _two_point(rec: SuiteResult, rng: np.random.Generator, quick: bool) -> None:
    for p, q in ((2.0, 4.0), (1.5, 3.0), (2.5, 2.8)):
        for row in region_scan(p, q, disk_grid(0.25 if quick else 0.1)):
            if row.global_holds:
                rec.check(f"infinitesimal margin p={p} q={q} z={row.z:.3g}", -row.infinitesimal_margin_min, 1e-7)
    threshold = real_failure_threshold(2.0, 4.0)
    rec.require(f"real threshold {threshold} in [0.567, 0.587]", 0.567 <= threshold <= 0.587)


def _gaussian_constant(rec: SuiteResult, rng: np.random.Generator, quick: bool) -> None:
    values = phi_flow(gaussian_extremizer_input(4 / 3), s_grid=[0.0, 0.25, 0.5, 0.75, 1.0]).values
    rec.check(f"spread of {values}", max(values) - min(values), 1e-14 * max(values))


def _exp_family(rec: SuiteResult, rng: np.random.Generator, quick: bool) -> None:
    for _ in range(10 if quick else 50):
        zeta = complex(rng.normal(), rng.normal())
        x = complex(rng.normal(), rng.normal())
        qv, cv = lemma_A_check(zeta, x)
        rec.check("tilted-exponential identity", abs(qv - cv), 1e-8 * max(1.0, abs(cv)))
        tt = 0.8 * complex(rng.normal(), rng.normal())
        pp = float(rng.uniform(1.05, 2.0))
        lv, rv = lemma_F_check(tt, pp, float(rng.normal()))
        rec.check("modulated-gaussian transform identity", abs(lv - rv), 1e-8 * max(1.0, abs(rv)))
    for p in (4 / 3, 3 / 2, 2.0):
        label = f"single-atom equality at p={p:.4g}"
        sides = _hy_sides(rec, label, ExpFamily(atoms=((1.0, 0.0),)), p)
        if sides:
            rec.check(label, abs(sides[0] - sides[1]), 1e-8 * max(sides[1], 1.0))
    for i in range(20 if quick else 100):
        count = int(rng.integers(1, 4))
        atoms = tuple((complex(rng.normal(), rng.normal()), float(rng.uniform(-2.0, 2.0))) for _ in range(count))
        p = (4 / 3, 3 / 2, 2.0)[i % 3]
        label = f"sharp bound at p={p:.4g}, atoms={atoms}"
        sides = _hy_sides(rec, label, ExpFamily(atoms=atoms), p)
        if sides:
            rec.check(label, sides[0] - sides[1], 1e-8 * max(sides[1], 1.0))


def _hy_sides(rec: SuiteResult, label: str, fam: ExpFamily, p: float) -> tuple[float, float] | None:
    """hy_verify's two sides, or None once an unresolved norm is recorded as a failed check."""
    try:
        return hy_verify(fam, p)
    except AccuracyError as exc:
        rec.require(f"{label}: {exc}", False)
        return None


def _infrastructure(rec: SuiteResult, rng: np.random.Generator, quick: bool) -> None:
    for n in (1, 2, 3, 4, 8, 16, 32, 64):  # Gauss rules are exact through degree 2N-1
        rule = gh_rule(n)
        for m in range(2 * n):
            exact = 0.0 if m % 2 else float(math.prod(range(1, m, 2)))  # E G^m = (m-1)!!
            # repeated products keep (-x)^m = -(x^m) exactly; numpy's x**m does not
            got = rule.integrate(lambda x, m=m: functools.reduce(np.multiply, [x] * m, np.ones_like(x)))
            rec.check(f"moment N={n} m={m}", abs(got - exact), 1e-12 * max(1.0, exact))
    size = 1 << (8 if quick else 10)
    values = rng.normal(size=size) + 1j * rng.normal(size=size)
    back = walsh_analyze(values).values()
    rec.check("walsh round trip", float(np.max(np.abs(back - values))), 1e-13 * float(np.max(np.abs(values))))


CRITERIA = (
    ("1 sharp transform constant at the Gaussian", _sharp_constant),
    ("2 continuous flow nondecreasing", _continuous_monotone),
    ("3 three-evaluator equivalence", _three_evaluators),
    ("4 discrete flow nondecreasing under the two-point gate", _discrete_monotone),
    ("5 discrete-to-continuous convergence", _convergence),
    ("6 symmetric-to-Hermite expansion", _beckner),
    ("7 two-point global/infinitesimal structure", _two_point),
    ("8 constant flow at the Gaussian extremizer", _gaussian_constant),
    ("9 exponential-family pipeline", _exp_family),
    ("10 infrastructure: quadrature and Walsh", _infrastructure),
)


def run_criterion(index: int, rng: np.random.Generator, quick: bool = False) -> SuiteResult:
    """Run one registry entry and time it."""
    name, body = CRITERIA[index]
    rec = SuiteResult(name)
    start = time.monotonic()
    body(rec, rng, quick)
    rec.elapsed_s = time.monotonic() - start
    return rec


def run_selftest(seed: int, quick: bool = False) -> list[SuiteResult]:
    """Run every criterion in order; one independent child stream each."""
    streams = np.random.SeedSequence(seed).spawn(len(CRITERIA))
    return [run_criterion(i, np.random.default_rng(s), quick) for i, s in enumerate(streams)]

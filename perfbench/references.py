"""Independent accuracy references and the output checks of every call.

No reference calls the evaluator it checks.  The routes are:

* J(0), J(1) (janson-flow, hy-flow --hermite-coeffs): the endpoints of the
  Gaussian flow are one-dimensional, J(1) = E|sum a_m He_m(u)|^p and
  J(0) = (E|sum a_m z^m He_m(x)|^q)^(p/q), integrated with scipy's quad on
  pieces split at the real zeros and near-zeros of the integrand.
* Discrete flow at k = 0 and k = n: exact sums over the n + 1 levels of the
  cube with binomial weights, the symmetric functions in integer arithmetic.
* Discrete flow at n <= 12: hypflow's naive backend, which enumerates all
  2^n points and shares no code with the collapsed tables.
* Gaussian extremizer: phi is constant, equal to q^(-1/(2q)).
* Exponential families: quad of |F|^p and |Fhat|^q with Fhat in closed
  form, and of the two one-variable endpoint integrals of phi_exp.
* Two-point scans: every row's quadratic-form margin in closed form, from
  the eigenvalues of a 2x2 matrix (margin_reference).  Inside the disc
  |z| <= sqrt((p-1)/(q-1)) less one grid step the supremum of the ratio is
  exactly 1; on the real axis, one step beyond that Bonami-Beckner
  threshold, it must exceed 1.
"""
from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
from numpy.polynomial import hermite_e, polynomial
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

# The README's verdict tolerance: a checked value misses when it is further
# from its reference than this.
MISS_ABS = 1e-10
MISS_REL = 1e-10

# A checked value further than its limit from its reference (relative, with
# the README's unit floor), or not finite, is wrong rather than inaccurate
# and makes the run incorrect.  The limits were set from seeds 1-20 at the
# seed commit.  Exact routes (level sums, the naive backend, the constant
# Gaussian extremizer, the closed-form scan margin) agree to within 1.3e-13,
# so their limit is 1e-9.  So do all values whose integrand is |h|^r with r
# an even integer, a smooth function of h: J(0) and phi(0) at p = 4/3 (r = 4)
# and every value at p = 2.  For other r, |h|^r is kinked at the (near-)zeros
# of h, and the evaluators' outer rules miss by up to 6.7e-4 (janson J(1);
# seeds 1-20).  Misses of the README tolerance within a limit are counted in
# ref_miss_frac.
EXACT_LIMIT = 1e-9
KINKED_LIMIT = 5e-3


def gross_limit(power: float | None) -> float:
    """The largest error a checked value may have; `power` is r of its |h|^r integrand, if any."""
    if power is None or abs(power / 2.0 - round(power / 2.0)) < 1e-9:
        return EXACT_LIMIT
    return KINKED_LIMIT


# Inputs whose outputs are known to be wrong at the seed.  They stay in the
# workloads and count in ref_miss_frac and ref_err_max, but do not make the
# run incorrect, so the benchmark measures each defect until it is fixed.
KNOWN_DEFECTS = {
    # phi(s) is NaN for s <= 0.05: |inner|^q overflows on the outer rule,
    # and the verdict still reads nondecreasing.
    ("hy_gaussian", 2.0): "hy-flow --gaussian at p = 2 reports NaN",
}
# The two-point inequality implies its quadratic form, so a scan row whose
# quadratic form fails must fail globally too.  Where the extremal-ratio
# search misses that violation, the scan reports an implication violation
# and exits 2; each such row counts as a miss, not as a failed call.
SEARCH_MISS = "two-point-scan misses a global violation where the quadratic form fails"
# Only rows this close to the quadratic form's boundary count as that known
# defect (the one documented miss has margin -2.9e-4); a missed violation
# deeper inside the failing region makes the run incorrect.
SEARCH_MISS_BAND = 1e-3
MARGIN_TOL = 1e-7  # region_scan's tolerance on the quadratic-form margin
RATIO_TOL = 1e-9  # and on the supremum of the ratio
SCAN_ANGLES = 256  # region_scan's default number of unit directions, which the CLI uses

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _cplx(pair) -> complex:
    return complex(pair[0], pair[1])


def conjugate(p: float) -> float:
    return p / (p - 1.0)


# ------------------------------------------------------------ 1-D integrals


def _breakpoints(h, lo: float, hi: float, real_valued: bool) -> list[float]:
    """Real zeros (real-valued h) and local minima of |h| on a fine grid."""
    grid = np.linspace(lo, hi, 8001)
    vals = h(grid)
    mag = np.abs(vals)
    points = []
    interior = np.flatnonzero((mag[1:-1] <= mag[:-2]) & (mag[1:-1] <= mag[2:])) + 1
    points.extend(grid[interior].tolist())
    if real_valued:
        re = vals.real
        for i in np.flatnonzero(np.sign(re[:-1]) * np.sign(re[1:]) < 0):
            points.append(brentq(lambda x: float(np.real(h(x))), grid[i], grid[i + 1], xtol=1e-15))
    return sorted(set(points))


def abs_power_integral(h, r: float, lo: float, hi: float, weight, real_valued: bool) -> float:
    """Integral of |h(x)|^r weight(x) over [lo, hi], split at the (near-)zeros of h."""
    edges = [lo, *(x for x in _breakpoints(h, lo, hi, real_valued) if lo < x < hi), hi]

    def integrand(x: float) -> float:
        mag = abs(complex(h(x)))
        return math.exp(r * math.log(mag)) * weight(x) if mag > 0.0 else 0.0

    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges, edges[1:]):
            if b > a:
                total += quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return total


def _gaussian_density(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _gaussian_poly_moment(monomial: np.ndarray, r: float) -> float:
    """E|P(G)|^r for a standard Gaussian G and a polynomial in the monomial basis."""
    real = bool(np.all(monomial.imag == 0.0))
    coeffs = monomial.real if real else monomial
    return abs_power_integral(
        lambda x: polynomial.polyval(x, coeffs), r, -40.0, 40.0, _gaussian_density, real
    )


def janson_endpoints(p: float, coeffs: list[complex]) -> tuple[float, float]:
    """(J(0), J(1)) at q = p/(p-1), z = i sqrt(p-1) for g = sum a_m x^m."""
    q = conjugate(p)
    z = 1j * math.sqrt(p - 1.0)
    a = np.asarray(coeffs, dtype=complex)
    # E_y (x + i y)^m = He_m(x), so both endpoint integrands are Hermite sums.
    f1 = hermite_e.herme2poly(a)
    f0 = hermite_e.herme2poly(a * z ** np.arange(a.size))
    return _gaussian_poly_moment(f0, q) ** (p / q), _gaussian_poly_moment(f1, p)


# -------------------------------------------------------------------- cube


def _symmetric_level(n: int, ell: int, plus: int) -> float:
    """phi_ell = ell! e_ell at a point of {+-1/sqrt(n)}^n with `plus` entries +1."""
    e = sum((-1) ** (ell - i) * math.comb(plus, i) * math.comb(n - plus, ell - i) for i in range(ell + 1))
    return float(math.factorial(ell) * e) / n ** (ell / 2.0)


def discrete_endpoints(n: int, coeffs: list[complex], p: float, q: float, z: complex) -> tuple[float, float]:
    """(value at k = 0, value at k = n) of the discrete flow, by level sums."""
    weights = [math.comb(n, c) / 2**n for c in range(n + 1)]
    damped, plain = [], []
    for c in range(n + 1):
        levels = [_symmetric_level(n, ell, c) for ell in range(len(coeffs))]
        plain.append(abs(sum(a * v for a, v in zip(coeffs, levels))))
        damped.append(abs(sum(a * z**ell * v for ell, (a, v) in enumerate(zip(coeffs, levels)))))
    k0 = math.fsum(w * v**q for w, v in zip(weights, damped)) ** (p / q)
    kn = math.fsum(w * v**p for w, v in zip(weights, plain))
    return k0, kn


def naive_flow(n: int, coeffs: list[complex], p: float, q: float, z: complex, ks: list[int]) -> list[float]:
    from hypflow.cube import SymmetricSpec
    from hypflow.flows import discrete_flow
    from hypflow.two_point import ExponentTriple

    spec = SymmetricSpec(n=n, a=np.asarray(coeffs, dtype=complex))
    return discrete_flow(spec, ExponentTriple(p, q, z), ks=ks, backend="naive").values


# ----------------------------------------------------------------- fourier


def _exp_sum(terms):
    """x -> sum c exp(alpha x + beta) for (c, alpha, beta) terms, real or complex."""

    def h(x):
        x = np.asarray(x, dtype=float)
        return sum(c * np.exp(alpha * x + beta) for c, alpha, beta in terms)

    return h


def _is_real(values) -> bool:
    return all(complex(v).imag == 0.0 for v in values)


def exp_flow_endpoints(p: float, atoms: list[tuple[complex, complex]]) -> tuple[float, float]:
    """(phi_exp(0), phi_exp(1)) for g(w) = sum c exp(t w), z = i sqrt(p/q)."""
    q = conjugate(p)
    z = 1j * math.sqrt(p / q)
    ones = [(c, t, -t * t / 2.0) for c, t in atoms]
    zeros = [(c, t * z, -(t * z) ** 2 / 2.0) for c, t in atoms]
    spread = 12.0 + q * max(abs(t) for _, t in atoms) * 2.0
    out = []
    for terms, r in ((zeros, q), (ones, p)):
        real = _is_real(v for term in terms for v in term)
        out.append(abs_power_integral(_exp_sum(terms), r, -spread, spread, _gaussian_density, real))
    return out[0] ** (p / q), out[1]


def final_form(p: float, atoms: list[tuple[complex, complex]]) -> tuple[float, float]:
    """(||Fhat||_q, C_p ||F||_p) for F(x) = exp(-pi x^2) sum c exp(t sqrt(2 pi p) x - t^2/2)."""
    q = conjugate(p)
    sharp = math.sqrt(p ** (1.0 / p) / q ** (1.0 / q))
    b = [t * math.sqrt(2.0 * math.pi * p) for _, t in atoms]
    amp = [c * np.exp(-t * t / 2.0) for c, t in atoms]
    centers = [bl.real / (2.0 * math.pi) for bl in b]
    lo, hi = min(centers) - 10.0, max(centers) + 10.0

    def f(x):
        x = np.asarray(x, dtype=float)
        return sum(a * np.exp(-math.pi * x * x + bl * x) for a, bl in zip(amp, b))

    # int exp(-pi y^2 + b y) exp(-2 pi i xi y) dy = exp((b - 2 pi i xi)^2 / (4 pi))
    def fhat(xi):
        xi = np.asarray(xi, dtype=float)
        return sum(a * np.exp((bl - 2j * math.pi * xi) ** 2 / (4.0 * math.pi)) for a, bl in zip(amp, b))

    one = lambda x: 1.0  # noqa: E731 - Lebesgue measure
    real = _is_real(amp) and _is_real(b)
    norm_f = abs_power_integral(f, p, lo, hi, one, real) ** (1.0 / p)
    norm_fhat = abs_power_integral(fhat, q, -10.0, 10.0, one, False) ** (1.0 / q)
    return norm_fhat, sharp * norm_f


# ---------------------------------------------------------- per-call table


def _references(call) -> dict:
    kind, info = call.kind, call.info
    if kind == "janson":
        j0, j1 = janson_endpoints(info["p"], [_cplx(c) for c in info["coeffs"]])
        return {"J(0)": j0, "J(1)": j1}
    if kind == "hy_hermite":
        p = info["p"]
        q = conjugate(p)
        bridge = math.sqrt(p) / q ** (p / (2.0 * q))
        j0, j1 = janson_endpoints(p, [_cplx(c) for c in info["coeffs"]])
        return {"phi(0)": (j0 * bridge) ** (1.0 / p), "phi(1)": (j1 * bridge) ** (1.0 / p)}
    if kind == "hy_gaussian":
        q = conjugate(info["p"])
        return {"phi(*)": q ** (-1.0 / (2.0 * q))}
    if kind == "hy_exp":
        p = info["p"]
        atoms = [(_cplx(c), _cplx(t)) for c, t in info["atoms"]]
        phi0, phi1 = exp_flow_endpoints(p, atoms)
        refs = {"phi(0)": phi0, "phi(1)": phi1}
        if all(t.imag == 0.0 for _, t in atoms):
            refs["lhs"], refs["rhs"] = final_form(p, atoms)
        return refs
    if kind == "discrete":
        n, p, q, z = info["n"], info["p"], info["q"], _cplx(info["z"])
        coeffs = [_cplx(c) for c in info["coeffs"]]
        k0, kn = discrete_endpoints(n, coeffs, p, q, z)
        refs = {"k=0": k0, f"k={n}": kn}
        if n <= 12:
            for k, v in enumerate(naive_flow(n, coeffs, p, q, z, list(range(n + 1)))):
                refs[f"naive k={k}"] = v
        return refs
    return {}


def compute(calls) -> list[dict]:
    """References for each call; repeated argument lists share one entry."""
    by_argv: dict[tuple, dict] = {}
    for call in calls:
        if tuple(call.argv) not in by_argv:
            by_argv[tuple(call.argv)] = _references(call)
    return [by_argv[tuple(call.argv)] for call in calls]


def load_or_compute(calls, cache: Path) -> list[dict]:
    """References cached per seed and call list; computed outside any timed region."""
    key = json.dumps([c.argv for c in calls])
    if cache.is_file():
        stored = json.loads(cache.read_text(encoding="utf-8"))
        if stored.get("key") == key:
            return stored["refs"]
    refs = compute(calls)
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps({"key": key, "refs": refs}), encoding="utf-8")
    return refs


# ------------------------------------------------------------------ checks


def _flow_rows(path: Path) -> tuple[dict, str]:
    rows, verdict = {}, ""
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        if line.startswith("#"):
            verdict = json.loads(line[1:]).get("verdict", "")
            continue
        param, value, _ = line.split(",")
        rows[float(param)] = float(value)
    return rows, verdict


def _error(value: float, ref: float) -> tuple[float, bool]:
    gap = abs(value - ref)
    if not math.isfinite(gap):
        return math.inf, True
    return gap / max(1.0, abs(ref)), gap > MISS_ABS + MISS_REL * abs(ref)


CSV_NAME = {"scan": "scan.csv", "converge": "convergence.csv"}


def check(call, code: int, out: Path, refs: dict) -> tuple[str | None, list]:
    """(failure reason or None, [(label, value, reference, error, miss, known defect or None, gross)]) for one call."""
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8")) if manifest_path.is_file() else {}
    checked = []
    input_defect = KNOWN_DEFECTS.get((call.kind, call.info.get("p")))

    def compare(label: str, value: float, ref: float, defect: str | None = input_defect, *, power=None) -> None:
        err, miss = _error(value, ref)
        gross = defect is None and err > gross_limit(power)
        checked.append((label, value, ref, err, miss, defect, gross))

    if call.kind == "scan":
        missed = code == 2 and manifest.get("verdict") == "fails-with-witness" and manifest.get("implication_violations")
        if not (code == 0 and manifest.get("verdict") == "holds-on-grid") and not missed:
            return f"exit code {code}, scan verdict {manifest.get('verdict')!r}", []
        _check_scan(call.info, out / "scan.csv", compare)
        return None, checked
    if code != 0:
        return f"exit code {code}", []
    if call.kind == "converge":
        if manifest.get("verdict") != "converging":
            return f"converge verdict {manifest.get('verdict')!r}", []
        return None, checked

    rows, verdict = _flow_rows(out / "flow.csv")
    if verdict != "nondecreasing" or manifest.get("nondecreasing") is False:
        return f"flow verdict {verdict!r}", []
    if call.kind == "hy_exp" and manifest.get("verdict") != "holds":
        return f"hy-exp verdict {manifest.get('verdict')!r}", []
    first, last = rows[min(rows)], rows[max(rows)]
    p = call.info.get("p")
    if call.kind == "janson":
        compare("J(0)", first, refs["J(0)"], power=conjugate(p))
        compare("J(1)", last, refs["J(1)"], power=p)
    elif call.kind in ("hy_hermite", "hy_exp"):
        compare("phi(0)", first, refs["phi(0)"], power=conjugate(p))
        compare("phi(1)", last, refs["phi(1)"], power=p)
        if "lhs" in refs:
            form = manifest.get("final_form") or {}
            compare("lhs", form.get("lhs_norm_fhat_q", math.nan), refs["lhs"], power=conjugate(p))
            compare("rhs", form.get("rhs_scaled_norm_f_p", math.nan), refs["rhs"], power=p)
    elif call.kind == "hy_gaussian":
        for s, v in rows.items():
            compare(f"phi({s:g})", v, refs["phi(*)"])
        compare("norm_fhat", manifest["endpoint_norm_fhat_q"], refs["phi(*)"])
        compare("scaled_norm_f", manifest["endpoint_scaled_norm_f_p"], refs["phi(*)"])
    elif call.kind == "discrete":
        for label, ref in refs.items():
            k = int(label.rsplit("=", 1)[1])
            if float(k) in rows:
                compare(label, rows[float(k)], ref)
    return None, checked


def margin_reference(p: float, q: float, z: complex, angles: int = SCAN_ANGLES) -> float:
    """The quadratic-form margin region_scan reports: its minimum over `angles` unit directions.

    For w = cos t + i sin t the margin is the quadratic form of
    M = [[p - 1 - (q - 2) x^2 - |z|^2, (q - 2) x y], [(q - 2) x y, 1 - (q - 2) y^2 - |z|^2]],
    z = x + i y, so at angle t it is lam_min + (lam_max - lam_min) sin^2(t - t_min),
    with t_min the angle of the eigenvector of lam_min.  The minimum over the
    scan's angles k pi / angles is this at the angle nearest t_min.
    """
    x, y = z.real, z.imag
    a = p - 1.0 - (q - 2.0) * x * x - abs(z) ** 2
    d = 1.0 - (q - 2.0) * y * y - abs(z) ** 2
    b = (q - 2.0) * x * y
    mean, radius = 0.5 * (a + d), math.hypot(0.5 * (a - d), b)
    t_min = 0.5 * math.atan2(-2.0 * b, d - a)  # eigenvector angle of the smaller eigenvalue
    step = math.pi / angles
    offset = abs(math.remainder(t_min, step))
    return mean - radius + 2.0 * radius * math.sin(offset) ** 2


def _check_scan(info: dict, path: Path, compare) -> None:
    p, q, step = info["p"], info["q"], info["resolution"]
    threshold = math.sqrt((p - 1.0) / (q - 1.0))
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    for line in lines:
        _, _, z_re, z_im, margin, sup_ratio, _, _ = (float(v) for v in line.split(","))
        z = complex(z_re, z_im)
        label = f"z={z_re:+.3f}{z_im:+.3f}j"
        compare(f"margin {label}", margin, margin_reference(p, q, z))
        if margin < -MARGIN_TOL and sup_ratio <= 1.0 + RATIO_TOL:
            # the quadratic form fails, so the ratio must exceed 1 somewhere
            compare(f"missed {label}", 1.0, 0.0, SEARCH_MISS if margin > -SEARCH_MISS_BAND else None)
        if abs(z) <= threshold - step:
            # T_z = T_r1 T_w T_r2 with |w| <= 1: the ratio never exceeds 1, and constants reach it
            compare(f"sup {label}", sup_ratio, 1.0)
        elif abs(z_im) < step / 2.0 and abs(z_re) >= threshold + step and sup_ratio <= 1.0 + RATIO_TOL:
            # the search missed a violation Bonami-Beckner guarantees
            compare(f"verdict {label}", 1.0, 0.0)

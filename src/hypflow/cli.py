"""Command-line entry points with reproducible CSV/JSON reporting.

Subcommands: two-point-scan, discrete-flow, janson-flow, converge, hy-flow,
hy-exp, selftest.  Every run writes CSV output plus a manifest.json into the
output directory; identical configurations produce byte-identical CSV files.

Exit codes: 0 when every asserted inequality and identity held within the
configured tolerances, 2 when a violation was detected (the witness lands in
the manifest), 1 for usage or configuration errors.  The endpoint
inequalities of hy-flow and hy-exp are decided here, in one place
(_flow_result), not in the library, which returns their two sides only;
lhs <= rhs holds by reporting.within, the rule the flow verdicts apply to
a dip.

Only selftest draws random numbers.  It runs the acceptance criteria of
hypflow.selftest, the registry the test suite runs too, and gives each
criterion an independent stream from the single 64-bit --seed through
numpy's SeedSequence spawning.  Every other command is deterministic and
ignores --seed; its witnesses come from fixed grids and searches.

The front end runs on the standard library alone: importing this module,
parsing arguments, reading and checking --config, --help, a missing
parameter, and writing the CSV files and the manifest load neither numpy
nor any numeric module.  Each handler imports the hypflow
modules it runs, numpy with them, so a cold call loads only those:
two-point-scan never loads the cube, flow or quadrature layers,
discrete-flow loads the cube layer alone, janson-flow never loads the
Hausdorff-Young layer, and no flow command loads the two-point search (the
exponents come from hypflow.exponents).

Each handler owns its run parameters: it requires, defaults and checks its
keys, from --config and flags alike, before it imports what it runs.  The
parser only overlays: every parser suppresses an absent flag, so a flag
overrides just the key it names and the handler's defaults apply last.

The process entry is entry(), behind both `python -m hypflow.cli` and the
`hypflow` console script: it runs main() with the garbage collector off,
flushes stdout and stderr, and ends the process with main's code through
os._exit, skipping interpreter finalization.  main() does neither, because
tests and the traced benchmark call it many times in one process.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

from . import __version__
from .errors import HypflowError
from .reporting import FlowReport, within, write_convergence_csv, write_flow_csv, write_manifest, write_region_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
DEFAULT_SEED = 0xC0FFEE  # selftest's --seed
_ENDPOINT_TOL = 1e-8  # hy-flow's and hy-exp's endpoint checks without --tol


# the type each RunConfig field must have, as named in the error message
_FIELD_TYPES = {
    "command": (str, "a string"),
    "params": (dict, "an object"),
    "out": (str, "a string"),
    "seed": (int, "an integer"),
    "tol": ((int, float, type(None)), "a number or null"),
}


class RunConfig(NamedTuple):
    """Fully serializable description of one run; its JSON form is its fields."""

    command: str
    params: dict[str, Any]
    out: str = "."
    seed: int = DEFAULT_SEED
    tol: float | None = None

    def to_json(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        """The run `data` describes; ValueError for a key not in the schema,
        a value of the wrong type (a bool is never a number) or a tol that
        is not finite and >= 0 (a NaN tol would pass every verdict)."""
        unknown = set(data) - set(_FIELD_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config = cls(**data)
        for name, (kind, label) in _FIELD_TYPES.items():
            value = getattr(config, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"config key {name!r} must be {label}, got {value!r}")
        if config.tol is not None and not 0.0 <= config.tol < math.inf:
            raise ValueError(f"tol must be finite and >= 0, got {config.tol!r}")
        return config


def _finite_complex(text: str) -> complex:
    """complex(text); ValueError unless both parts are finite."""
    value = complex(text)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _integer(key: str, value) -> int:
    """value as an int: an int, an integral float or a decimal integer string;
    ValueError naming key for anything else (int() would truncate 6.9 to 6)."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _boolean(key: str, value) -> bool:
    """value if it is True or False, the values a store_true flag gives;
    ValueError naming key for anything else ("false" would read as true)."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"{key} must be true or false, got {value!r}")


def _listed(params: dict, key: str) -> list[str]:
    """The nonblank comma-separated parts of params[key]; ValueError unless it is a string."""
    if not isinstance(text := params[key], str):
        raise ValueError(f"{key} must be a comma-separated string, got {text!r}")
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_complex_list(params: dict, key: str) -> list[complex]:
    return [_finite_complex(part.replace(" ", "")) for part in _listed(params, key)]


def _parse_atoms(params: dict) -> list[tuple[complex, complex]]:
    atoms = []
    for chunk in _listed(params, "atoms"):
        c_str, _, t_str = chunk.partition(":")
        if not t_str:
            raise ValueError(f"atom {chunk!r} must look like amplitude:frequency")
        atoms.append((_finite_complex(c_str), _finite_complex(t_str)))
    return atoms


def _exponents(params: dict):
    """The ExponentTriple of discrete-flow, janson-flow and converge: q
    defaults to the conjugate of p, z to i sqrt(p - 1)."""
    from .exponents import ExponentTriple, conjugate_exponent

    p = float(params["p"])
    q = conjugate_exponent(p) if params.get("q") is None else float(params["q"])
    if params.get("z_re") is None and params.get("z_im") is None:
        z = 1j * math.sqrt(p - 1.0)
    else:
        z = complex(float(params.get("z_re") or 0.0), float(params.get("z_im") or 0.0))
    return ExponentTriple(p, q, z)


def _exponent_flags(target: argparse.ArgumentParser) -> None:
    """The flags _exponents reads, for discrete-flow, janson-flow and converge."""
    target.add_argument("--p", type=float, help="exponent p (required)")
    target.add_argument("--q", type=float, help="exponent q >= p (default: the conjugate exponent of p)")
    target.add_argument("--z-re", type=float, dest="z_re", help="real part of z (default: z = i sqrt(p - 1))")
    target.add_argument("--z-im", type=float, dest="z_im", help="imaginary part of z")


def _s_grid(params: dict):
    """The flow commands' s grid: s_points equispaced samples of [0, 1], or
    None, the flows' own default grid, when s_points is not given.

    At least 2, so that s = 0 and s = 1 are both on it: phi1 and every
    endpoint comparison read the last sample.
    """
    if "s_points" not in params:
        return None
    s_points = _integer("s_points", params["s_points"])
    if s_points < 2:
        raise ValueError(f"s_points must be at least 2, got {s_points}")
    import numpy as np

    return np.linspace(0.0, 1.0, s_points)


def _flow_result(
    report: FlowReport, config: RunConfig, out: Path, fields: dict, checks=()
) -> tuple[int, dict]:
    """End a flow command: write flow.csv and return (exit code, manifest).

    The manifest is fields, the flow's verdict and its diagnostics.  The
    flow is judged under --tol when given (tol = 0 flags noise).  Each named
    (check, lhs, rhs) endpoint pair must satisfy within(lhs, rhs, tol), with
    tol = --tol or _ENDPOINT_TOL; the first failure sets the manifest's
    verdict to fails-with-witness and its witness to {check, lhs, rhs, tol}.
    """
    verdict = write_flow_csv(report, out / "flow.csv", config.tol)
    manifest = {
        **fields,
        "verdict": verdict.label,
        "nondecreasing": verdict.nondecreasing,
        "min_delta": report.min_delta(),
        **report.diagnostics,
    }
    tol = _ENDPOINT_TOL if config.tol is None else config.tol
    for check, lhs, rhs in checks:
        if not within(lhs, rhs, tol):
            manifest["verdict"] = "fails-with-witness"
            manifest["witness"] = {"check": check, "lhs": lhs, "rhs": rhs, "tol": tol}
            return EXIT_VIOLATION, manifest
    return (EXIT_OK if verdict.nondecreasing else EXIT_VIOLATION), manifest


def _cmd_two_point_scan(config: RunConfig, out: Path) -> tuple[int, dict]:
    params = config.params
    p, q = float(params["p"]), float(params["q"])
    resolution = float(params.get("resolution", 0.05))
    budget = params.get("budget", "reduced")
    if budget not in ("reduced", "full"):
        raise ValueError(f"budget must be 'reduced' or 'full', got {budget!r}")
    from .two_point import SearchBudget, disk_grid, region_scan

    search = SearchBudget.reduced() if budget == "reduced" else SearchBudget()
    rows = region_scan(p, q, disk_grid(resolution), budget=search)
    write_region_csv(rows, out / "scan.csv")
    bad = [r for r in rows if r.global_holds and not r.infinitesimal_holds]
    manifest = {
        "grid_points": len(rows),
        "global_holds_count": sum(r.global_holds for r in rows),
        "worst_sup_ratio": max(r.sup_ratio for r in rows),
        "worst_infinitesimal_margin": min(r.infinitesimal_margin_min for r in rows),
        "implication_violations": [
            {"z": r.z, "sup_ratio": r.sup_ratio, "margin": r.infinitesimal_margin_min}
            for r in bad
        ],
        "verdict": "holds-on-grid" if not bad else "fails-with-witness",
    }
    return (EXIT_OK if not bad else EXIT_VIOLATION), manifest


def _cmd_discrete_flow(config: RunConfig, out: Path) -> tuple[int, dict]:
    params = config.params
    t = _exponents(params)
    n = _integer("n", params["n"])
    coeffs = _parse_complex_list(params, "coeffs")
    ks = [_integer("ks", k) for k in _listed(params, "ks")] if params.get("ks") else None
    from .cube import SymmetricSpec, discrete_flow

    spec = SymmetricSpec(n=n, a=coeffs)
    report = discrete_flow(spec, t, ks=ks)
    return _flow_result(report, config, out, {"n": n, "p": t.p, "q": t.q, "z": t.z})


def _cmd_janson_flow(config: RunConfig, out: Path) -> tuple[int, dict]:
    params = config.params
    t = _exponents(params)
    coeffs, s_grid = _parse_complex_list(params, "coeffs"), _s_grid(params)
    from .flows import janson_flow
    from .hermite import PolySeries

    report = janson_flow(PolySeries(coeffs), t, s_grid=s_grid)
    return _flow_result(report, config, out, {"p": t.p, "q": t.q, "z": t.z})


def _cmd_converge(config: RunConfig, out: Path) -> tuple[int, dict]:
    params = config.params
    t = _exponents(params)
    s = float(params.get("s", 0.5))
    n_list = [_integer("n_list", v) for v in _listed(params, "n_list")]
    coeffs = _parse_complex_list(params, "coeffs")
    from .flows import convergence_experiment

    table = convergence_experiment(coeffs, t, s, n_list)
    write_convergence_csv(table, out / "convergence.csv")
    errs = [r.abs_error for r in table.rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    manifest = {
        "p": t.p,
        "q": t.q,
        "z": t.z,
        "s": s,
        "slope": table.slope,
        "errors_strictly_decreasing": decreasing,
        "worst_error": max(errs) if errs else 0.0,
        "verdict": "converging" if decreasing else "not-decreasing",
        "continuous": table.diagnostics,
    }
    return (EXIT_OK if decreasing else EXIT_VIOLATION), manifest


def _cmd_hy_flow(config: RunConfig, out: Path) -> tuple[int, dict]:
    params = config.params
    p = float(params["p"])
    gaussian = _boolean("gaussian", params.get("gaussian", False))
    if gaussian == bool(params.get("hermite_coeffs")):
        raise ValueError("hy-flow needs exactly one of gaussian and hermite_coeffs")
    coeffs = None if gaussian else _parse_complex_list(params, "hermite_coeffs")
    s_grid = _s_grid(params)
    from .hausdorff_young import GAUSSIAN_EXTREMIZER, hy_endpoints, hy_exponents, phi_flow, sharp_constant
    from .hermite import HermiteSeries

    g = GAUSSIAN_EXTREMIZER if gaussian else HermiteSeries(coeffs)
    report = phi_flow(p, g, s_grid=s_grid)
    norm_fhat, scaled_norm = hy_endpoints(p, g)
    t = hy_exponents(p)
    fields = {
        "p": p,
        "q": t.q,
        "z": t.z,
        "phi0": report.values[0],
        "phi1": report.values[-1],
        "constant": sharp_constant(p),
        "endpoint_norm_fhat_q": norm_fhat,
        "endpoint_scaled_norm_f_p": scaled_norm,
    }
    return _flow_result(report, config, out, fields, [("sharp_bound", norm_fhat, scaled_norm)])


def _cmd_hy_exp(config: RunConfig, out: Path) -> tuple[int, dict]:
    params = config.params
    p = float(params["p"])
    atoms, s_grid = tuple(_parse_atoms(params)), _s_grid(params)
    from .hausdorff_young import ExpFamily, exp_flow_exponents, exp_flow_phi, hy_verify, sharp_constant

    fam = ExpFamily(atoms=atoms)
    report = exp_flow_phi(fam, p, s_grid=s_grid)
    t = exp_flow_exponents(p)
    fields = {
        "p": p,
        "q": t.q,
        "z": t.z,
        "phi0": report.values[0],
        "phi1": report.values[-1],
        "constant": sharp_constant(p),
        "endpoint_gap": report.values[-1] - report.values[0],
        "nesting": "outer-x-inner-u",
    }
    checks = [("endpoints", report.values[0], report.values[-1])]
    if (sides := hy_verify(fam, p)) is not None:
        lhs, rhs = sides
        fields["final_form"] = {"lhs_norm_fhat_q": lhs, "rhs_scaled_norm_f_p": rhs}
        checks.append(("final_form", lhs, rhs))
    code, manifest = _flow_result(report, config, out, fields, checks)
    if manifest["verdict"] == "nondecreasing":
        manifest["verdict"] = "holds"  # hy-exp's label; a failure's label stays
    return code, manifest


def _cmd_selftest(config: RunConfig, out: Path) -> tuple[int, dict]:
    quick = _boolean("quick", config.params.get("quick", False))
    from .selftest import run_selftest  # the only command that needs the registry

    results = run_selftest(seed=config.seed, quick=quick)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.checks} checks, {res.elapsed_s:.2f}s")
        for failure in res.failures:
            print(f"       {failure}")
    all_ok = all(res.passed for res in results)
    # a list, not a dict by name: the manifest is written with sorted keys
    manifest = {"suites": [res.to_json() for res in results], "verdict": "pass" if all_ok else "fail"}
    return (EXIT_OK if all_ok else EXIT_VIOLATION), manifest


_HANDLERS = {
    "two-point-scan": _cmd_two_point_scan,
    "discrete-flow": _cmd_discrete_flow,
    "janson-flow": _cmd_janson_flow,
    "converge": _cmd_converge,
    "hy-flow": _cmd_hy_flow,
    "hy-exp": _cmd_hy_exp,
    "selftest": _cmd_selftest,
}


def run_command(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit code."""
    if config.command not in _HANDLERS:
        print(f"error: unknown command {config.command!r}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.monotonic()
    try:
        code, extra = _HANDLERS[config.command](config, out)
    except HypflowError as exc:
        code = EXIT_VIOLATION
        extra = {"verdict": "fails-with-witness", "violation": str(exc)}
    except KeyError as exc:  # a handler read a required key that is absent
        key = str(exc.args[0])
        print(f"error: missing parameter {key}: give --{key.replace('_', '-')} or set it in --config", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    manifest = {
        "command": config.command,
        "config": config.to_json(),
        "version": __version__,
        "wall_time_s": time.monotonic() - started,
        **extra,
    }
    try:
        write_manifest(manifest, out / "manifest.json")
    except OSError as exc:
        print(f"error: cannot write manifest: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def build_parser() -> argparse.ArgumentParser:
    quiet = {"argument_default": argparse.SUPPRESS}  # an absent flag leaves its key to the config and handler
    # the shared flags work both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False, **quiet)
    common.add_argument("--config", help="JSON file with a RunConfig; a flag overrides only the key it names")
    common.add_argument("--out", help="output directory (default: current directory)")
    common.add_argument(
        "--seed",
        type=int,
        help="64-bit seed for selftest, the only command that draws random numbers; "
        "every other command is deterministic",
    )
    common.add_argument(
        "--tol",
        type=float,
        help="override the flow commands' tolerances: a dip counts past tol + tol*|value| "
        "(default 1e-10); hy-flow and hy-exp endpoint checks need lhs <= rhs + tol + tol*|lhs| "
        "(default 1e-8)",
    )
    parser = argparse.ArgumentParser(
        prog="hypflow",
        description="Numerical flows for complex hypercontractivity and the sharp Hausdorff-Young constant.",
        parents=[common],
        **quiet,
    )
    sub = parser.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], help=help, **quiet)

    scan = command("two-point-scan", "scan the unit disk for both inequality forms")
    scan.add_argument("--p", type=float, help="exponent p (required)")
    scan.add_argument("--q", type=float, help="exponent q (required)")
    scan.add_argument("--resolution", type=float, help="spacing of the disk grid (default: 0.05)")
    scan.add_argument("--budget", help="search budget, reduced or full (default: reduced)")

    dflow = command("discrete-flow", "the cube flow over split indices")
    dflow.add_argument("--n", type=int, help="dimension (required)")
    _exponent_flags(dflow)
    dflow.add_argument("--coeffs", help="symmetric-function coefficients, comma-separated (required)")
    dflow.add_argument("--ks", help="comma-separated split indices (default: all)")

    jflow = command("janson-flow", "the continuous Gaussian flow over s")
    _exponent_flags(jflow)
    jflow.add_argument("--coeffs", help="polynomial coefficients, comma-separated (required)")

    conv = command("converge", "discrete-to-continuous convergence experiment")
    _exponent_flags(conv)
    conv.add_argument("--coeffs", help="polynomial coefficients, comma-separated (required)")
    conv.add_argument("--s", type=float, help="flow parameter s (default: 0.5)")
    conv.add_argument("--n-list", dest="n_list", help="comma-separated dimensions (required)")

    hy = command("hy-flow", "the sharp-constant interpolation flow")
    hy.add_argument("--p", type=float, help="exponent p (required)")
    hy.add_argument("--gaussian", action="store_true", help="the Gaussian extremizer (or --hermite-coeffs)")
    hy.add_argument("--hermite-coeffs", dest="hermite_coeffs", help="Hermite coefficients of g~ (or --gaussian)")

    hyexp = command("hy-exp", "exponential-family flow and final-form bound")
    hyexp.add_argument("--p", type=float, help="exponent p (required)")
    hyexp.add_argument("--atoms", help="amplitude:frequency pairs, comma-separated (required)")

    for flow in (jflow, hy, hyexp):
        flow.add_argument("--s-points", type=int, dest="s_points", help="samples of s, at least 2 (default: 21)")

    st = command("selftest", "run the acceptance criteria")
    st.add_argument("--quick", action="store_true", help="reduced draw counts and grid sizes")

    return parser


def config_from_argv(argv: list[str]) -> RunConfig:
    """The run that argv asks for: the --config file, if any, with each given flag over its key."""
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    data: dict[str, Any] = {}
    if path := args.pop("config", None):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict) or not isinstance(data.get("params", {}), dict):
            raise ValueError("a config file must hold a JSON object, and its params an object")
    data["command"] = args.pop("command") or data.get("command")
    if not data["command"]:
        parser.error("no command given (flag or config file)")
    data.update({key: args.pop(key) for key in ("out", "seed", "tol") if key in args})
    data["params"] = {**data.get("params", {}), **args}
    return RunConfig.from_json(data)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = config_from_argv(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run_command(config)


def entry() -> None:
    """The process entry: main() with the collector off, then the end of the
    process with its code, without interpreter finalization.

    A run builds no reference cycle that must be freed while it runs, so
    the collector is off during main(): its young collections over the
    objects numpy's import leaves cost a cold call about 10 ms.  Every
    output file is written by Path.write_text and closed before main
    returns, and neither hypflow nor numpy registers an atexit callback, so
    once stdout and stderr are flushed, os._exit ends the process: shutdown
    would only free what the run leaves behind, at about 14 ms a cold call.
    """
    gc.disable()
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)

if __name__ == "__main__":
    entry()

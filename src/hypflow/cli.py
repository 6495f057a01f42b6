"""Command-line entry points with reproducible CSV/JSON reporting.

Subcommands: two-point-scan, discrete-flow, janson-flow, converge, hy-flow,
hy-exp, selftest.  Every run writes CSV output plus a manifest.json into the
output directory; identical configurations produce byte-identical CSV files.

Exit codes: 0 when every asserted inequality and identity held within the
configured tolerances, 2 when a violation was detected (the witness lands in
the manifest), 1 for usage or configuration errors.  The endpoint
inequalities of hy-flow and hy-exp are decided here, in one place (_judge),
not in the library, which returns their two sides only; lhs <= rhs holds
within tol + tol*|lhs|, the allowance the flow verdicts give a dip.

Only selftest draws random numbers.  It runs the acceptance criteria of
hypflow.selftest, the registry the test suite runs too, and gives each
criterion an independent stream from the single 64-bit --seed through
numpy's SeedSequence spawning.  Every other command is deterministic and
ignores --seed; its witnesses come from fixed grids and searches.

The front end runs on the standard library alone: importing this module,
parsing arguments, reading and checking --config, --help, every usage or
configuration error, and writing the CSV files and the manifest load
neither numpy nor any numeric module.  Each handler imports the hypflow
modules it runs, numpy with them, so a cold call loads only those:
two-point-scan never loads the cube, flow or quadrature layers,
janson-flow never loads the Hausdorff-Young layer, and no flow command
loads the two-point search (the exponents come from hypflow.exponents).

The process entry is entry(), behind both `python -m hypflow.cli` and the
`hypflow` console script: it runs main() and then freezes the garbage
collector before exiting with main's code, so that interpreter shutdown
does not walk every object the run left behind.  main() itself never
freezes, because tests and the traced benchmark call it many times in one
process.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from pathlib import Path
from typing import Any

from . import __version__
from .errors import HypflowError
from .reporting import (
    FlowReport,
    write_convergence_csv,
    write_flow_csv,
    write_manifest,
    write_region_csv,
)

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


class RunConfig:
    """Fully serializable description of one run."""

    __slots__ = ("command", "params", "out", "seed", "tol")

    def __init__(
        self,
        command: str,
        params: dict[str, Any],
        out: str = ".",
        seed: int = DEFAULT_SEED,
        tol: float | None = None,
    ):
        self.command = command
        self.params = params
        self.out = out
        self.seed = seed
        self.tol = tol

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

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


def _parse_complex_list(text: str) -> list[complex]:
    return [complex(part.strip().replace(" ", "")) for part in text.split(",") if part.strip()]


def _parse_atoms(text: str) -> list[tuple[complex, complex]]:
    atoms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        c_str, _, t_str = chunk.partition(":")
        if not t_str:
            raise ValueError(f"atom {chunk!r} must look like amplitude:frequency")
        atoms.append((complex(c_str), complex(t_str)))
    return atoms


def _z_from_params(params: dict, p: float) -> complex:
    if params.get("z_re") is None and params.get("z_im") is None:
        return 1j * math.sqrt(p - 1.0)
    return complex(params.get("z_re") or 0.0, params.get("z_im") or 0.0)


def _s_grid(params: dict):
    """The flow commands' s grid: s_points equispaced samples of [0, 1].

    At least 2, so that s = 0 and s = 1 are both on it: phi1 and every
    endpoint comparison read the last sample.
    """
    import numpy as np

    s_points = int(params.get("s_points", 21))
    if s_points < 2:
        raise ValueError(f"s_points must be at least 2, got {s_points}")
    return np.linspace(0.0, 1.0, s_points)


def _flow_output(report: FlowReport, config: RunConfig, out: Path) -> dict:
    """Write flow.csv under the --tol override of the monotonicity verdict
    (tol = 0 flags noise) and return the verdict fields for the manifest."""
    if config.tol is not None:
        report = FlowReport(report.parameter_name, report.samples, config.tol, report.diagnostics)
    write_flow_csv(report, out / "flow.csv")
    verdict = report.verdict()
    return {
        "verdict": verdict.label,
        "nondecreasing": verdict.nondecreasing,
        "min_delta": report.min_delta(),
    }


def _judge(manifest: dict, checks: list[tuple[str, float, float]], config: RunConfig) -> bool:
    """Whether every named (check, lhs, rhs) pair holds as lhs <= rhs + tol + tol*|lhs|.

    That is the rule FlowReport.verdict applies to consecutive samples.  tol
    is --tol when given, otherwise _ENDPOINT_TOL; a NaN side or an infinite
    lhs fails, and tol = 0 asks for lhs <= rhs.  The first failure sets the
    manifest's verdict to fails-with-witness and its witness to
    {check, lhs, rhs, tol}.
    """
    tol = _ENDPOINT_TOL if config.tol is None else config.tol
    for check, lhs, rhs in checks:
        if not (math.isfinite(lhs) and lhs <= rhs + tol + tol * abs(lhs)):
            manifest["verdict"] = "fails-with-witness"
            manifest["witness"] = {"check": check, "lhs": lhs, "rhs": rhs, "tol": tol}
            return False
    return True


def _cmd_two_point_scan(config: RunConfig, out: Path) -> tuple[int, dict]:
    from .two_point import SearchBudget, disk_grid, region_scan

    params = config.params
    p, q = float(params["p"]), float(params["q"])
    resolution = float(params.get("resolution", 0.05))
    budget = params.get("budget", "reduced")
    if budget not in ("reduced", "full"):
        raise ValueError(f"budget must be 'reduced' or 'full', got {budget!r}")
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
    from .cube import SymmetricSpec
    from .exponents import ExponentTriple
    from .flows import discrete_flow

    params = config.params
    p, q = float(params["p"]), float(params["q"])
    z = _z_from_params(params, p)
    n = int(params["n"])
    spec = SymmetricSpec(n=n, a=_parse_complex_list(params["coeffs"]))
    ks = [int(k) for k in str(params["ks"]).split(",")] if params.get("ks") else None
    report = discrete_flow(spec, ExponentTriple(p, q, z), ks=ks)
    manifest = {"n": n, "p": p, "q": q, "z": z, **_flow_output(report, config, out), **report.diagnostics}
    return (EXIT_OK if manifest["nondecreasing"] else EXIT_VIOLATION), manifest


def _cmd_janson_flow(config: RunConfig, out: Path) -> tuple[int, dict]:
    from .exponents import ExponentTriple, conjugate_exponent
    from .flows import janson_flow
    from .hermite import PolySeries

    params = config.params
    p = float(params["p"])
    q = float(params.get("q") or conjugate_exponent(p))
    z = _z_from_params(params, p)
    g = PolySeries(_parse_complex_list(params["coeffs"]))
    report = janson_flow(g, ExponentTriple(p, q, z), s_grid=_s_grid(params))
    manifest = {"p": p, "q": q, "z": z, **_flow_output(report, config, out), **report.diagnostics}
    return (EXIT_OK if manifest["nondecreasing"] else EXIT_VIOLATION), manifest


def _cmd_converge(config: RunConfig, out: Path) -> tuple[int, dict]:
    from .exponents import ExponentTriple
    from .flows import convergence_experiment

    params = config.params
    p, q = float(params["p"]), float(params["q"])
    z = _z_from_params(params, p)
    s = float(params.get("s", 0.5))
    n_list = [int(v) for v in str(params["n_list"]).split(",")]
    table = convergence_experiment(_parse_complex_list(params["coeffs"]), ExponentTriple(p, q, z), s, n_list)
    write_convergence_csv(table, out / "convergence.csv")
    errs = [r.abs_error for r in table.rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    manifest = {
        "p": p,
        "q": q,
        "z": z,
        "s": s,
        "slope": table.slope,
        "errors_strictly_decreasing": decreasing,
        "worst_error": max(errs) if errs else 0.0,
        "verdict": "converging" if decreasing else "not-decreasing",
        "continuous": table.diagnostics,
    }
    return (EXIT_OK if decreasing else EXIT_VIOLATION), manifest


def _cmd_hy_flow(config: RunConfig, out: Path) -> tuple[int, dict]:
    from .hausdorff_young import HYInput, gaussian_extremizer_input, hy_endpoints, phi_flow, sharp_constant
    from .hermite import HermiteSeries

    params = config.params
    p = float(params["p"])
    if params.get("gaussian"):
        inp = gaussian_extremizer_input(p)
    elif params.get("hermite_coeffs"):
        inp = HYInput(p=p, g_tilde=HermiteSeries(_parse_complex_list(params["hermite_coeffs"])))
    else:
        raise ValueError("hy-flow needs either gaussian=true or hermite_coeffs")
    report = phi_flow(inp, s_grid=_s_grid(params))
    verdicts = _flow_output(report, config, out)
    norm_fhat, scaled_norm = hy_endpoints(inp)
    manifest = {
        "p": p,
        "q": inp.q,
        "z": inp.z,
        "phi0": report.values[0],
        "phi1": report.values[-1],
        "constant": sharp_constant(p),
        "endpoint_norm_fhat_q": norm_fhat,
        "endpoint_scaled_norm_f_p": scaled_norm,
        **verdicts,
        **report.diagnostics,
    }
    ok = _judge(manifest, [("sharp_bound", norm_fhat, scaled_norm)], config) and verdicts["nondecreasing"]
    return (EXIT_OK if ok else EXIT_VIOLATION), manifest


def _cmd_hy_exp(config: RunConfig, out: Path) -> tuple[int, dict]:
    from .exponents import conjugate_exponent
    from .hausdorff_young import ExpFamily, exp_flow_phi, hy_verify, sharp_constant

    params = config.params
    p = float(params["p"])
    fam = ExpFamily(atoms=tuple(_parse_atoms(params["atoms"])))
    report = exp_flow_phi(fam, p, s_grid=_s_grid(params))
    verdicts = _flow_output(report, config, out)
    manifest = {
        "p": p,
        "q": conjugate_exponent(p),
        "z": 1j * math.sqrt(p / conjugate_exponent(p)),
        "phi0": report.values[0],
        "phi1": report.values[-1],
        "constant": sharp_constant(p),
        "endpoint_gap": report.values[-1] - report.values[0],
        "nesting": "outer-x-inner-u",
        **verdicts,
        **report.diagnostics,
    }
    if verdicts["nondecreasing"]:
        manifest["verdict"] = "holds"  # otherwise the flow's violated-at(...) stays
    checks = [("endpoints", report.values[0], report.values[-1])]
    if fam.atoms and all(abs(t.imag) <= 1e-12 for _, t in fam.atoms):
        lhs, rhs = hy_verify(fam, p)
        manifest["final_form"] = {"lhs_norm_fhat_q": lhs, "rhs_scaled_norm_f_p": rhs}
        checks.append(("final_form", lhs, rhs))
    ok = _judge(manifest, checks, config) and verdicts["nondecreasing"]
    return (EXIT_OK if ok else EXIT_VIOLATION), manifest


def _cmd_selftest(config: RunConfig, out: Path) -> tuple[int, dict]:
    from .selftest import run_selftest  # the only command that needs the registry

    results = run_selftest(seed=config.seed, quick=bool(config.params.get("quick")))
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
    except (KeyError, ValueError, TypeError, OSError) as exc:
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


def _common_flags(target: argparse.ArgumentParser, suppress: bool) -> None:
    # shared flags work both before and after the subcommand; the subparser
    # copies use SUPPRESS defaults so they never clobber earlier values
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    target.add_argument("--config", help="JSON file with a full RunConfig; flags override it", **kw)
    target.add_argument("--out", help="output directory (default: current directory)", **kw)
    target.add_argument(
        "--seed",
        type=int,
        help="64-bit seed for selftest, the only command that draws random numbers; "
        "every other command is deterministic",
        **kw,
    )
    target.add_argument(
        "--tol",
        type=float,
        help="override the flow commands' tolerances: a dip counts past tol + tol*|value| "
        "(default 1e-10); hy-flow and hy-exp endpoint checks need lhs <= rhs + tol + tol*|lhs| "
        "(default 1e-8)",
        **kw,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypflow",
        description="Numerical flows for complex hypercontractivity and the sharp Hausdorff-Young constant.",
    )
    _common_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)

    scan = sub.add_parser(
        "two-point-scan", parents=[common], help="scan the unit disk for both inequality forms"
    )
    scan.add_argument("--p", type=float, required=True)
    scan.add_argument("--q", type=float, required=True)
    scan.add_argument("--resolution", type=float, default=0.05)
    scan.add_argument("--budget", choices=["reduced", "full"], default="reduced")

    dflow = sub.add_parser("discrete-flow", parents=[common], help="the cube flow over split indices")
    dflow.add_argument("--n", type=int, required=True)
    dflow.add_argument("--p", type=float, required=True)
    dflow.add_argument("--q", type=float, required=True)
    dflow.add_argument("--z-re", type=float, dest="z_re")
    dflow.add_argument("--z-im", type=float, dest="z_im")
    dflow.add_argument("--coeffs", required=True, help="symmetric-function coefficients, comma-separated")
    dflow.add_argument("--ks", help="comma-separated split indices (default: all)")

    jflow = sub.add_parser("janson-flow", parents=[common], help="the continuous Gaussian flow over s")
    jflow.add_argument("--p", type=float, required=True)
    jflow.add_argument("--q", type=float, help="default: conjugate exponent of p")
    jflow.add_argument("--z-re", type=float, dest="z_re")
    jflow.add_argument("--z-im", type=float, dest="z_im")
    jflow.add_argument("--coeffs", required=True, help="polynomial coefficients, comma-separated")
    jflow.add_argument("--s-points", type=int, dest="s_points", default=21)

    conv = sub.add_parser("converge", parents=[common], help="discrete-to-continuous convergence experiment")
    conv.add_argument("--p", type=float, required=True)
    conv.add_argument("--q", type=float, required=True)
    conv.add_argument("--z-re", type=float, dest="z_re")
    conv.add_argument("--z-im", type=float, dest="z_im")
    conv.add_argument("--coeffs", required=True)
    conv.add_argument("--s", type=float, default=0.5)
    conv.add_argument("--n-list", dest="n_list", required=True, help="comma-separated dimensions")

    hy = sub.add_parser("hy-flow", parents=[common], help="the sharp-constant interpolation flow")
    hy.add_argument("--p", type=float, required=True)
    group = hy.add_mutually_exclusive_group(required=True)
    group.add_argument("--gaussian", action="store_true", help="use the Gaussian extremizer")
    group.add_argument("--hermite-coeffs", dest="hermite_coeffs", help="Hermite coefficients of g~")
    hy.add_argument("--s-points", type=int, dest="s_points", default=21)

    hyexp = sub.add_parser("hy-exp", parents=[common], help="exponential-family flow and final-form bound")
    hyexp.add_argument("--p", type=float, required=True)
    hyexp.add_argument("--atoms", required=True, help="amplitude:frequency pairs, comma-separated")
    hyexp.add_argument("--s-points", type=int, dest="s_points", default=21)

    st = sub.add_parser("selftest", parents=[common], help="run the acceptance criteria")
    st.add_argument("--quick", action="store_true", help="reduced draw counts and grid sizes")

    return parser


_COMMON = {"config", "out", "seed", "tol", "command"}


def config_from_argv(argv: list[str]) -> RunConfig:
    """The run that argv asks for: the --config file, if any, with the flags over it."""
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    data: dict[str, Any] = {}
    if args.get("config"):
        data = json.loads(Path(args["config"]).read_text(encoding="utf-8"))
        if not isinstance(data, dict) or not isinstance(data.get("params", {}), dict):
            raise ValueError("a config file must hold a JSON object, and its params an object")
    data.update({k: args[k] for k in ("command", "out", "seed", "tol") if args.get(k) is not None})
    if not data.get("command"):
        parser.error("no command given (flag or config file)")
    data["params"] = {
        **data.get("params", {}),
        **{k: v for k, v in args.items() if k not in _COMMON and v is not None},
    }
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
    """The process entry: main(), then exit with its code.

    Every output is written by Path.write_text and closed before main
    returns, and nothing hypflow leaves behind needs a finalizer, so the
    collector is frozen before exiting: shutdown then skips the full
    collections over the objects the run left, which cost a cold call tens
    of milliseconds.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()

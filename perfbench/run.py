"""hypflow benchmark: cold CLI workloads, reference-checked, with an optional traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cube --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 runs the generated calls one at a time as cold
`python -m hypflow.cli` processes (one client, closed loop) and reports the
end-to-end metrics.  --trace 1 runs the same calls in this process, each
untraced and with spans around hypflow's public functions, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with correct / attempted / failed / metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

HELDOUT_SEED = 7919  # kept out of tuning; later claims are re-checked on it
SETUP_SAMPLES = 7
USER_THREADS = os.environ.get("HYPFLOW_THREADS")
# One client, nothing else running: BLAS stays single-threaded, in the calls
# and in the traced run alike (so set before numpy loads), and
# HYPFLOW_THREADS unset (the CLI default of 1).
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

sys.path.insert(0, str(HERE))

import references  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The accuracy metrics can be exactly 0, so they are printed and recorded but
# left out of BENCHMARK.json, because a regression bound there is a share of
# the parent's value.  Every other metric's name and unit comes from it.
ACCURACY_UNITS = {"fail_frac": "ratio", "ref_err_max": "ratio", "ref_miss_frac": "ratio"}


def load_spec() -> dict:
    """BENCHMARK.json: the one source of metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HYPFLOW_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return env


def run_process(cmd: list[str], env: dict, stderr_path: Path) -> tuple[int, float, float]:
    """(exit code, seconds, peak RSS in MB) of one child process, waited for."""
    with stderr_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def setup_probe(env: dict, runs: Path) -> float:
    """One cold start of a process that only imports hypflow.cli."""
    code, seconds, _ = run_process([sys.executable, "-c", "import hypflow.cli"], env, runs / "setup.stderr")
    if code != 0:
        raise RuntimeError("importing hypflow.cli failed: " + (runs / "setup.stderr").read_text())
    return seconds


def run_cold(calls, env: dict, runs: Path) -> tuple[list[dict], list[float]]:
    """Each call as a cold process, one at a time; set-up probes spread evenly between them.

    Spreading the probes over the run keeps setup_s from depending on how
    busy the machine was in one moment.  The first probe only fills the
    bytecode cache and is not counted.
    """
    probe_before = {round(i * len(calls) / SETUP_SAMPLES) for i in range(SETUP_SAMPLES)}
    setup_probe(env, runs)
    records, setup = [], []
    for i, call in enumerate(calls):
        if i in probe_before:
            setup.append(setup_probe(env, runs))
        out = runs / f"{i:03d}"
        out.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, "-m", "hypflow.cli", *call.argv, f"--out={out}"]
        code, seconds, rss = run_process(cmd, env, out / "stderr.txt")
        records.append({"out": out, "code": code, "seconds": seconds, "rss_mb": rss})
    return records, setup


def run_in_process(calls, runs: Path, tracer: tracing.Tracer) -> tuple[list[dict], float, float]:
    """Each call in this process: a warm-up, then untraced and traced back to back.

    Pairing the two timed runs of a call keeps the tracing overhead from
    reading changes in machine speed; the unmeasured warm-up takes the page
    faults of the call's first large allocations, which would otherwise
    fall on whichever run of the pair goes first.  lru caches are cleared
    before every run, so none reuses a Gauss rule or basis matrix of the one
    before.  Returns the traced records and the summed untraced and traced
    seconds.
    """
    import hypflow.cli

    modules = tracing.hypflow_modules()
    traced_main = tracer.wrap("cli.main", hypflow.cli.main)
    records, seconds = [], {None: 0.0, False: 0.0, True: 0.0}
    for i, call in enumerate(calls):
        for traced in (None, i % 2 == 0, i % 2 != 0):
            out = runs / {None: "warmup", False: "untraced", True: "traced"}[traced] / f"{i:03d}"
            out.mkdir(parents=True, exist_ok=True)
            tracing.clear_caches(modules)
            tracer.call = i
            with tracing.installed(tracer, modules) if traced else contextlib.nullcontext():
                start = time.perf_counter()
                code = (traced_main if traced else hypflow.cli.main)([*call.argv, f"--out={out}"])
                elapsed = time.perf_counter() - start
            seconds[traced] += elapsed
            if traced:
                records.append({"out": out, "code": code, "seconds": elapsed})
    return records, seconds[False], seconds[True]


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten calls beyond it: (value, percentile)."""
    ordered = sorted(times)
    index = len(ordered) - 11
    if index < 0:
        raise ValueError("call_tail_s needs at least eleven calls")
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def check_calls(calls, records: list[dict], refs: list[dict]) -> tuple[list[dict], list[tuple]]:
    """Per-call failures (exit, verdict, non-identical repeat) and every reference comparison."""
    first_csv: dict[tuple, bytes] = {}
    checked = []
    for i, (call, rec, ref) in enumerate(zip(calls, records, refs)):
        why, values = references.check(call, rec["code"], rec["out"], ref)
        csv = rec["out"] / references.CSV_NAME.get(call.kind, "flow.csv")
        if why is None:
            data = csv.read_bytes()
            key = tuple(call.argv)
            if first_csv.setdefault(key, data) != data:
                why = "repeated call wrote a different CSV"
        rec["failed"] = why
        rec["checked"] = [list(v) for v in values]
        checked.extend((i, *v) for v in values)
    return records, checked


def environment(seed: int, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "HYPFLOW_THREADS": f"{USER_THREADS or 'unset'} in the caller; unset in every benchmarked call",
        "pinned_env": PINNED_ENV,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    calls = workloads.build(name, seed, seconds)
    stem = f"{name}-seed{seed}-s{seconds:g}"
    refs = references.load_or_compute(calls, OUT / "cache" / f"refs-{stem}.json")
    runs = OUT / "runs" / f"{stem}-trace{trace}"
    shutil.rmtree(runs, ignore_errors=True)  # no check may read an output of an earlier run
    result = {"workload": name, "env": environment(seed, trace), "calls": len(calls)}

    if trace:
        tracer = tracing.Tracer()
        records, untraced_wall, traced_wall = run_in_process(calls, runs, tracer)
        layer, span_calls = tracing.layer_metrics(tracer.spans)
        layer["trace.wall_s"] = traced_wall
        layer["trace.untraced_wall_s"] = untraced_wall
        layer["trace.overhead"] = traced_wall / untraced_wall - 1.0
        tracing.write_spans(tracer.spans, OUT / "traces" / f"{stem}.jsonl")
        result["missing_spans"] = tracing.missing_spans(name, span_calls)
        result["span_calls"] = span_calls
        result["metrics"] = layer
    else:
        env = child_env()
        runs.mkdir(parents=True)
        records, setup = run_cold(calls, env, runs)
        times = [r["seconds"] for r in records]
        tail_s, tail_pct = tail(times)
        result["setup_samples"] = setup
        result["call_tail_percentile"] = tail_pct
        result["metrics"] = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(times),
            "call_p50_s": statistics.median(times),
            "call_tail_s": tail_s,
            "peak_rss_mb": max(r["rss_mb"] for r in records),
        }

    records, checked = check_calls(calls, records, refs)
    failed = sum(r["failed"] is not None for r in records)
    gross = [c for c in checked if c[7]]
    by_kind: dict[str, dict] = {}
    for c in checked:
        entry = by_kind.setdefault(calls[c[0]].kind, {"checked": 0, "misses": 0, "err_max": 0.0})
        entry["checked"] += 1
        entry["misses"] += c[5]
        entry["err_max"] = max(entry["err_max"], c[4])
    result["attempted"] = len(calls)
    result["failed"] = failed
    result["accuracy"] = {
        "fail_frac": failed / len(calls),
        "ref_err_max": max((c[4] for c in checked), default=0.0),
        "ref_miss_frac": sum(c[5] for c in checked) / len(checked) if checked else 0.0,
        "checked": len(checked),
        "misses": sum(c[5] for c in checked),
        "gross_errors": len(gross),
        "by_kind": by_kind,
        "known_defects": sorted({c[6] for c in checked} - {None}),
    }
    result["correct"] = failed == 0 and not gross and not result.get("missing_spans")
    result["call_records"] = [
        {"argv": c.argv, "code": r["code"], "seconds": r["seconds"], "rss_mb": r.get("rss_mb"), "failed": r["failed"], "checked": r["checked"]}
        for c, r in zip(calls, records)
    ]
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}-trace{trace}.json").write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    return result


def print_summary(result: dict, end_to_end: list[dict]) -> None:
    print(f"== {result['workload']}: {result['attempted']} calls, {result['failed']} failed, correct={result['correct']}")
    if result["env"]["trace"]:
        for key, value in result["metrics"].items():
            print(f"   {key:44s} {value:.6g}")
        if result["missing_spans"]:
            print("   spans with zero calls: " + ", ".join(result["missing_spans"]))
        return
    for m in end_to_end:
        print(f"   {m['name']:14s} {result['metrics'][m['name']]:.6g} {m['unit']}")
    for key, unit in ACCURACY_UNITS.items():
        print(f"   {key:14s} {result['accuracy'][key]:.6g} {unit}")
    print(
        f"   call_tail_s is the p{result['call_tail_percentile']:.1f} of {result['attempted']} calls; "
        f"setup_s the median of {len(result['setup_samples'])}; "
        f"{result['accuracy']['checked']} outputs checked, {result['accuracy']['misses']} beyond 1e-10 + 1e-10|v|"
    )
    for kind, entry in result["accuracy"]["by_kind"].items():
        print(f"   {kind:12s} {entry['checked']:4d} checked, {entry['misses']:3d} misses, largest error {entry['err_max']:.3g}")
    for defect in result["accuracy"]["known_defects"]:
        print(f"   known defect kept in the workload: {defect}")
    for rec in result["call_records"]:
        if rec["failed"]:
            print(f"   FAILED ({rec['failed']}): {' '.join(rec['argv'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "hypflow" / "cli.py").is_file():
        print(f"error: no hypflow sources under {SRC}; run from the root of a hypflow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("HYPFLOW_THREADS", None)

    spec = load_spec()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    for result in results:
        print_summary(result, spec["end_to_end"])
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    summary = [
        {
            "correct": r["correct"],
            "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {k: {"value": r["metrics"][k], "unit": unit} for k, unit in units.items()},
        }
        for r in results
    ]
    print(json.dumps(summary[0] if len(summary) == 1 else dict(zip(names, summary))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

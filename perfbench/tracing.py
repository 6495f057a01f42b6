"""In-process traced run: spans around hypflow's public functions, per-layer metrics.

The wrappers live here, not in hypflow.  Each one is installed in every
hypflow module namespace that binds the wrapped function, because modules
import names from each other (gh_rule is bound in quadrature, flows,
gaussian_atoms and hausdorff_young).  A span records its name, start, end,
parent span, CLI call index, an optional note taken from the arguments or
result, and whether it raised.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time covered by its direct
children; a layer's self time is the sum over its spans, so every traced
second lands in exactly one layer.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# The hypflow modules, which are also the layers.
MODULES = (
    "cube",
    "quadrature",
    "flows",
    "hermite",
    "gaussian_atoms",
    "hausdorff_young",
    "two_point",
    "cli",
    "reporting",
)

# (home module, function or Class.method, span name, note taken from (args, kwargs, result))
TARGETS = (
    ("cube", "symmetric_tzk_table", "cube.symmetric_tzk_table", lambda a, kw, r: [a[0].n, a[2]]),
    ("cube", "mixed_norm_collapsed", "cube.mixed_norm_collapsed", None),
    ("cube", "log_binomial_weights", "cube.log_binomial_weights", None),
    ("quadrature", "gh_rule", "quadrature.gh_rule", lambda a, kw, r: r.node_count),
    ("flows", "discrete_flow", "flows.discrete_flow", None),
    ("flows", "janson_flow", "flows.janson_flow", None),
    ("flows", "janson_mehler", "flows.janson_mehler", None),
    ("flows", "janson_quadrature", "flows.janson_quadrature", None),
    ("flows", "convergence_experiment", "flows.convergence_experiment", None),
    ("hermite", "hermite_scaled_sum", "hermite.hermite_scaled_sum", None),
    ("hermite", "heat_poly_series", "hermite.heat_poly_series", None),
    ("hermite", "PolySeries.__call__", "hermite.series_eval", None),
    ("hermite", "HermiteSeries.__call__", "hermite.series_eval", None),
    ("gaussian_atoms", "atom_lp_norm", "gaussian_atoms.atom_lp_norm", None),
    ("hausdorff_young", "phi_flow", "hausdorff_young.phi_flow", None),
    ("hausdorff_young", "exp_flow_phi", "hausdorff_young.exp_flow_phi", None),
    ("hausdorff_young", "hy_verify", "hausdorff_young.hy_verify", None),
    ("hausdorff_young", "hy_endpoints", "hausdorff_young.hy_endpoints", None),
    ("two_point", "extremal_ratio", "two_point.extremal_ratio", lambda a, kw, r: [r.evaluations, r.complete]),
    ("two_point", "infinitesimal_margin_min", "two_point.infinitesimal_margin_min", None),
    ("two_point", "region_scan", "two_point.region_scan", None),
    ("cli", "run_command", "cli.run_command", None),
    ("reporting", "write_flow_csv", "reporting.write", None),
    ("reporting", "write_convergence_csv", "reporting.write", None),
    ("reporting", "write_region_csv", "reporting.write", None),
    ("reporting", "write_manifest", "reporting.write", None),
)

# Spans each workload must exercise; a zero count fails the traced run.
REQUIRED = {
    "cube": (
        "flows.discrete_flow",
        "cube.symmetric_tzk_table",
        "cube.mixed_norm_collapsed",
        "cube.log_binomial_weights",
        "flows.convergence_experiment",
    ),
    "gauss": (
        "flows.janson_flow",
        "flows.janson_mehler",
        "flows.janson_quadrature",
        "quadrature.gh_rule",
        "hermite.hermite_scaled_sum",
        "hermite.series_eval",
        "hermite.heat_poly_series",
        "hausdorff_young.phi_flow",
        "hausdorff_young.hy_endpoints",
    ),
    "fourier": (
        "hausdorff_young.exp_flow_phi",
        "hausdorff_young.phi_flow",
        "hausdorff_young.hy_verify",
        "hausdorff_young.hy_endpoints",
        "gaussian_atoms.atom_lp_norm",
        "quadrature.gh_rule",
    ),
    "scan": (
        "two_point.region_scan",
        "two_point.extremal_ratio",
        "two_point.infinitesimal_margin_min",
    ),
}
ALWAYS_REQUIRED = ("cli.main", "cli.run_command", "reporting.write")

# The cap of the outer node doubling in the Gaussian-flow evaluators.
CAP_NODES = 512

NAME, START, END, PARENT, CALL, NOTE, ERROR = range(7)


class Tracer:
    """Span recorder; single-threaded, as the CLI is with HYPFLOW_THREADS unset."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call = -1

    def wrap(self, name: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.call, None, False]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced


def hypflow_modules() -> list:
    import hypflow

    return [hypflow] + [importlib.import_module(f"hypflow.{name}") for name in MODULES]


def clear_caches(modules) -> None:
    """Drop every lru cache in hypflow, so each in-process call starts as cold as a new process."""
    for module in modules:
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


class installed:
    """Context manager that binds traced wrappers in place of the target functions."""

    def __init__(self, tracer: Tracer, modules) -> None:
        self.tracer = tracer
        self.modules = modules
        self.undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        homes = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules}
        for home, attr, name, note in TARGETS:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(homes[home], cls_name)
                original = cls.__dict__[method]
                self._bind(cls, method, self.tracer.wrap(name, original, note))
                continue
            original = getattr(homes[home], attr, None)
            if original is None:
                raise LookupError(f"hypflow.{home} has no {attr}: the span {name} cannot be recorded")
            wrapper = self.tracer.wrap(name, original, note)
            for module in self.modules:
                if vars(module).get(attr) is original:
                    self._bind(module, attr, wrapper)
        return self

    def _bind(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def _nearest(spans: list[list], index: int, names: set[str]) -> int:
    parent = spans[index][PARENT]
    while parent >= 0 and spans[parent][NAME] not in names:
        parent = spans[parent][PARENT]
    return parent


JANSON = {"flows.janson_mehler", "flows.janson_quadrature"}


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """(every per-layer metric, call count per span name) from the spans of one traced run."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    for span, t in zip(spans, own):
        layer = span[NAME].split(".")[0]
        calls[span[NAME]] += 1
        self_s[span[NAME]] += t
        layer_self[layer] += t
        errors[layer] += span[ERROR]

    cells, largest = 0, 0
    builds, build_s, max_nodes = 0, 0.0, 0
    seen: set[tuple[int, int]] = set()
    janson_rules, capped = 0, set()
    ratio_evals, incomplete = 0, 0
    for i, span in enumerate(spans):
        name = span[NAME]
        if name == "cube.symmetric_tzk_table":
            n, k = span[NOTE]
            cells += (k + 1) * (n - k + 1)
            largest = max(largest, (k + 1) * (n - k + 1))
        elif name == "quadrature.gh_rule":
            nodes = span[NOTE]
            max_nodes = max(max_nodes, nodes)
            if (span[CALL], nodes) not in seen:  # first request of this size in the call's process
                seen.add((span[CALL], nodes))
                builds += 1
                build_s += span[END] - span[START]
            owner = _nearest(spans, i, JANSON)
            if owner >= 0:
                janson_rules += 1
                if nodes >= CAP_NODES:
                    capped.add(owner)
        elif name == "two_point.extremal_ratio":
            ratio_evals += span[NOTE][0]
            incomplete += not span[NOTE][1]
    janson_calls = sum(calls[name] for name in JANSON)
    total = sum(own)

    m = {
        "cube.symmetric_tzk_table.calls": calls["cube.symmetric_tzk_table"],
        "cube.symmetric_tzk_table.self_s": self_s["cube.symmetric_tzk_table"],
        "cube.mixed_norm_collapsed.self_s": self_s["cube.mixed_norm_collapsed"],
        "cube.log_binomial_weights.self_s": self_s["cube.log_binomial_weights"],
        "cube.cells": cells,
        "cube.table_bytes": 16 * largest,
        "quadrature.gh_rule.calls": calls["quadrature.gh_rule"],
        "quadrature.gh_rule.builds": builds,
        "quadrature.gh_rule.build_s": build_s,
        "quadrature.gh_rule.max_nodes": max_nodes,
        "flows.janson_mehler.calls": calls["flows.janson_mehler"],
        "flows.janson_mehler.self_s": self_s["flows.janson_mehler"],
        "flows.janson_quadrature.calls": calls["flows.janson_quadrature"],
        "flows.janson_quadrature.self_s": self_s["flows.janson_quadrature"],
        "flows.discrete_flow.self_s": self_s["flows.discrete_flow"],
        "flows.errors": errors["flows"],
        "flows.rules_per_eval": janson_rules / janson_calls if janson_calls else 0.0,
        "flows.cap_hits": len(capped),
        "hermite.hermite_scaled_sum.self_s": self_s["hermite.hermite_scaled_sum"],
        "hermite.series_eval.self_s": self_s["hermite.series_eval"],
        "hermite.heat_poly_series.self_s": self_s["hermite.heat_poly_series"],
        "gaussian_atoms.atom_lp_norm.calls": calls["gaussian_atoms.atom_lp_norm"],
        "gaussian_atoms.atom_lp_norm.self_s": self_s["gaussian_atoms.atom_lp_norm"],
        "hausdorff_young.exp_flow_phi.self_s": self_s["hausdorff_young.exp_flow_phi"],
        "hausdorff_young.phi_flow.self_s": self_s["hausdorff_young.phi_flow"],
        "hausdorff_young.hy_verify.self_s": self_s["hausdorff_young.hy_verify"],
        "hausdorff_young.hy_endpoints.self_s": self_s["hausdorff_young.hy_endpoints"],
        "hausdorff_young.errors": errors["hausdorff_young"],
        "two_point.extremal_ratio.calls": calls["two_point.extremal_ratio"],
        "two_point.extremal_ratio.self_s": self_s["two_point.extremal_ratio"],
        "two_point.ratio_evals": ratio_evals,
        "two_point.incomplete": incomplete,
        "two_point.infinitesimal_margin_min.self_s": self_s["two_point.infinitesimal_margin_min"],
        "cli.run_command.self_s": self_s["cli.run_command"],
        "reporting.write.self_s": self_s["reporting.write"],
    }
    for layer in MODULES:
        m[f"{layer}.self_share"] = layer_self[layer] / total if total else 0.0
    return m, dict(calls)


def missing_spans(workload: str, calls: dict[str, int]) -> list[str]:
    return [name for name in (*ALWAYS_REQUIRED, *REQUIRED[workload]) if not calls.get(name)]


def write_spans(spans: list[list], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ["name", "start", "end", "parent", "call", "note", "error"]
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": fields}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")

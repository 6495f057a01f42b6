"""Flow reports, convergence tables, and deterministic CSV/JSON emission.

CSV files are UTF-8 with a header row, 17-significant-digit decimals, and
'\n' line endings, so identical runs are byte-identical.  Flow CSVs carry a
final '#'-prefixed JSON trailer line with the monotonicity verdict; the
machine-readable manifest is always written alongside as JSON.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import AccuracyError

# Monotonicity is flagged only beyond quadrature noise.
DEFAULT_TOL = 1e-10
# ConvergenceTable.slope skips errors at or below this.
_NOISE_FLOOR = 1e-13


class MonotoneVerdict(NamedTuple):
    nondecreasing: bool
    index: int | None = None
    deficit: float | None = None

    @property
    def label(self) -> str:
        if self.nondecreasing:
            return "nondecreasing"
        return f"violated-at({self.index}, {self.deficit:.3e})"


class FlowReport:
    """Ordered (parameter, value) samples with a recomputable monotonicity verdict.

    diagnostics holds how the values were obtained, for the manifest only;
    it takes no part in the CSV.
    """

    __slots__ = ("parameter_name", "samples", "tol", "diagnostics")

    def __init__(
        self,
        parameter_name: str,
        samples: tuple[tuple[float, float], ...],
        tol: float = DEFAULT_TOL,
        diagnostics: dict | None = None,
    ):
        self.parameter_name = parameter_name
        self.samples = tuple((float(p), float(v)) for p, v in samples)
        self.tol = tol
        self.diagnostics = {} if diagnostics is None else diagnostics
        params = [p for p, _ in self.samples]
        if any(b <= a for a, b in zip(params, params[1:])):
            raise ValueError("samples must be strictly ordered by parameter")

    @property
    def values(self) -> list[float]:
        return [v for _, v in self.samples]

    @property
    def parameters(self) -> list[float]:
        return [p for p, _ in self.samples]

    def verdict(self) -> MonotoneVerdict:
        """A decrease counts only if it exceeds tol + tol * |previous value|.

        Raises AccuracyError if a sample is not finite: no comparison with
        it means anything.
        """
        worst_i, worst_d = None, 0.0
        vals = self.values
        for param, value in self.samples:
            if not math.isfinite(value):
                raise AccuracyError(
                    f"flow sample at {self.parameter_name} = {param:g} is {value}"
                )
        for i in range(len(vals) - 1):
            allowed = self.tol + self.tol * abs(vals[i])
            deficit = vals[i] - vals[i + 1]
            if deficit > allowed and deficit > worst_d:
                worst_i, worst_d = i, deficit
        if worst_i is None:
            return MonotoneVerdict(True)
        return MonotoneVerdict(False, worst_i, worst_d)

    def min_delta(self) -> float:
        vals = self.values
        if len(vals) < 2:
            return 0.0
        return min(b - a for a, b in zip(vals, vals[1:]))


class ConvergenceRow(NamedTuple):
    n: int
    k: int
    discrete: float
    continuous: float

    @property
    def abs_error(self) -> float:
        return abs(self.discrete - self.continuous)


class ConvergenceTable:
    """Discrete-vs-continuous values with a least-squares log-log error slope.

    diagnostics holds how the continuous value was obtained, for the
    manifest only, as in FlowReport.
    """

    __slots__ = ("rows", "diagnostics")

    def __init__(self, rows: tuple[ConvergenceRow, ...], diagnostics: dict | None = None):
        self.rows = rows
        self.diagnostics = {} if diagnostics is None else diagnostics

    @property
    def slope(self) -> float | None:
        """Fitted on (log n, log error), skipping rows at the noise floor."""
        pts = [(r.n, r.abs_error) for r in self.rows if r.abs_error > _NOISE_FLOOR]
        if len(pts) < 2:
            return None
        import numpy as np

        logn = np.log([n for n, _ in pts])
        loge = np.log([e for _, e in pts])
        return float(np.polyfit(logn, loge, 1)[0])


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_flow_csv(report: FlowReport, path: Path | str) -> None:
    verdict = report.verdict()
    lines = ["parameter,value,delta_to_prev"]
    prev = None
    for param, value in report.samples:
        delta = "" if prev is None else _fmt(value - prev)
        lines.append(f"{_fmt(param)},{_fmt(value)},{delta}")
        prev = value
    trailer = {"verdict": verdict.label, "parameter_name": report.parameter_name}
    lines.append("# " + json.dumps(trailer, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_convergence_csv(table: ConvergenceTable, path: Path | str) -> None:
    lines = ["n,k,discrete,continuous,abs_error"]
    for r in table.rows:
        lines.append(
            f"{r.n},{r.k},{_fmt(r.discrete)},{_fmt(r.continuous)},{_fmt(r.abs_error)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_region_csv(rows: Sequence, path: Path | str) -> None:
    lines = ["p,q,z_re,z_im,infinitesimal_margin_min,sup_ratio,witness_b_re,witness_b_im"]
    for r in rows:
        lines.append(
            ",".join(
                (
                    _fmt(r.p),
                    _fmt(r.q),
                    _fmt(r.z.real),
                    _fmt(r.z.imag),
                    _fmt(r.infinitesimal_margin_min),
                    _fmt(r.sup_ratio),
                    _fmt(r.witness_b.real),
                    _fmt(r.witness_b.imag),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_manifest(manifest: dict, path: Path | str) -> None:
    Path(path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8",
    )


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Path):
        return str(obj)
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")

"""Benchmark artifact aggregation and regression gating.

CI produces a family of ``BENCH_*.json`` artifacts — pytest-benchmark
documents (``BENCH_analyze.json``, ``BENCH_chaos.json``,
``BENCH_timeseries.json``) and the final JSON line of each
``perfbench/run.py --trace 0`` run (``BENCH_perf_<workload>.json``).
This module folds them into one flat ``BENCH_summary.json`` (benchmark
name → metric → value) so the perf trajectory is a single diffable
file, and compares a summary against a checked-in
``bench-baseline.json``, failing on any metric that regresses beyond
the baseline's tolerance (default 25%).

Comparison is direction-aware: rates (a name part ending in ``per_s``,
``per_sec`` or ``per_us``) and speedups regress when they *shrink*;
wall-clock / memory metrics (suffixes ``_s``, ``_us``, ``_bytes``,
``_mb``, or containing ``time``) regress when they *grow*.  The rate
test comes first, so ``mean_goodput_rps_per_us`` is a rate, not a
duration.  Metrics with no recognisable direction are informational
only — recorded, never gated.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from ..errors import TelemetryError

SUMMARY_KIND = "repro-bench-summary"
BASELINE_KIND = "repro-bench-baseline"
SUMMARY_VERSION = 1

#: Default allowed fractional regression before the gate fails.
DEFAULT_TOLERANCE = 0.25

#: pytest-benchmark stats worth trending (the rest is noise at rounds=1).
_PYTEST_STATS = ("mean", "min", "max", "stddev")


def _load_json(path: str) -> Any:
    try:
        with open(path) as fp:
            return json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        raise TelemetryError(f"cannot read benchmark file {path}: {exc}") from exc


def _flatten_numeric(prefix: str, value: Any, out: Dict[str, float]) -> None:
    """Collect numeric leaves of nested extra_info dicts."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for key in sorted(value):
            _flatten_numeric(f"{prefix}.{key}", value[key], out)


def summarize_file(path: str) -> Dict[str, Dict[str, float]]:
    """One ``BENCH_*.json`` → ``{benchmark name: {metric: value}}``.

    Understands both document shapes CI produces:

    * pytest-benchmark (``{"benchmarks": [{"name", "stats", ...}]}``) —
      stats become ``time_<stat>_s`` metrics, numeric ``extra_info``
      leaves ride along verbatim;
    * a perfbench result line (``{"correct", "metrics": {name:
      {"value", "unit"}}}``) — one benchmark named after the file, one
      metric per perfbench metric.  A run whose digest gate failed
      (``"correct"`` not true) is rejected rather than gated.
    """
    doc = _load_json(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    out: Dict[str, Dict[str, float]] = {}
    if isinstance(doc, dict) and isinstance(doc.get("metrics"), dict) and "correct" in doc:
        if doc["correct"] is not True:
            raise TelemetryError(f"perfbench run in {path} is not correct")
        out[stem] = {
            name: float(entry["value"])
            for name, entry in sorted(doc["metrics"].items())
        }
        return out
    if isinstance(doc, dict) and isinstance(doc.get("benchmarks"), list):
        for bench in doc["benchmarks"]:
            name = bench.get("name", stem)
            metrics: Dict[str, float] = {}
            stats = bench.get("stats", {})
            for stat in _PYTEST_STATS:
                if stat in stats and isinstance(stats[stat], (int, float)):
                    metrics[f"time_{stat}_s"] = float(stats[stat])
            for key in sorted(bench.get("extra_info", {})):
                _flatten_numeric(key, bench["extra_info"][key], metrics)
            out[f"{stem}::{name}"] = metrics
        return out
    raise TelemetryError(f"unrecognised benchmark document: {path}")


def aggregate(paths: List[str]) -> Dict[str, Any]:
    """Fold many artifacts into one ``BENCH_summary.json`` document."""
    benchmarks: Dict[str, Dict[str, float]] = {}
    for path in sorted(paths):
        for name, metrics in summarize_file(path).items():
            if name in benchmarks:
                raise TelemetryError(f"duplicate benchmark name {name!r} ({path})")
            benchmarks[name] = metrics
    return {
        "kind": SUMMARY_KIND,
        "version": SUMMARY_VERSION,
        "sources": [os.path.basename(p) for p in sorted(paths)],
        "benchmarks": {k: benchmarks[k] for k in sorted(benchmarks)},
    }


def discover(root: str = ".") -> List[str]:
    """Every ``BENCH_*.json`` under ``root`` except the summary itself."""
    found = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    return [p for p in found if os.path.basename(p) != "BENCH_summary.json"]


#: Name-part suffixes that mark a rate (higher is better).
_RATE_SUFFIXES = ("per_s", "per_sec", "per_us")


def metric_direction(metric: str) -> int:
    """-1 = lower is better, +1 = higher is better, 0 = ungated."""
    if "speedup" in metric or any(
        part.endswith(_RATE_SUFFIXES) for part in metric.split(".")
    ):
        return 1
    if metric.endswith(("_s", "_us", "_bytes", "_mb")) or "time" in metric:
        return -1
    return 0


def compare(
    summary: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: Optional[float] = None,
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Diff a summary against a baseline.

    Returns ``(regressions, report)``: ``report`` has one row per
    comparable metric (including improvements and ungated metrics);
    ``regressions`` is the gating subset whose relative change exceeds
    the tolerance in the unfavourable direction.
    """
    if baseline.get("kind") != BASELINE_KIND:
        raise TelemetryError(
            f"baseline kind is {baseline.get('kind')!r}, expected {BASELINE_KIND!r}"
        )
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    report: List[Dict[str, Any]] = []
    regressions: List[Dict[str, Any]] = []
    current = summary.get("benchmarks", {})
    for name in sorted(baseline.get("benchmarks", {})):
        base_metrics = baseline["benchmarks"][name]
        cur_metrics = current.get(name)
        if cur_metrics is None:
            row = {"benchmark": name, "metric": "*", "status": "missing"}
            report.append(row)
            regressions.append(row)
            continue
        for metric in sorted(base_metrics):
            base_value = float(base_metrics[metric])
            if metric not in cur_metrics:
                row = {
                    "benchmark": name,
                    "metric": metric,
                    "status": "missing",
                    "baseline": base_value,
                }
                report.append(row)
                regressions.append(row)
                continue
            value = float(cur_metrics[metric])
            direction = metric_direction(metric)
            if base_value != 0.0:
                change = (value - base_value) / abs(base_value)
            else:
                change = 0.0 if value == 0.0 else float("inf")
            # higher-better: regressed when change < -tol; lower-better:
            # regressed when change > +tol.  Folding via the sign:
            regressed = direction != 0 and (change * direction) < -tolerance
            row = {
                "benchmark": name,
                "metric": metric,
                "baseline": base_value,
                "value": value,
                "change": change,
                "direction": direction,
                "status": "regressed" if regressed else "ok",
            }
            report.append(row)
            if regressed:
                regressions.append(row)
    return regressions, report


def make_baseline(
    summary: Dict[str, Any], tolerance: float = DEFAULT_TOLERANCE
) -> Dict[str, Any]:
    """Turn a summary into a checked-in baseline (gated metrics only)."""
    benchmarks: Dict[str, Dict[str, float]] = {}
    for name in sorted(summary.get("benchmarks", {})):
        gated = {
            metric: value
            for metric, value in sorted(summary["benchmarks"][name].items())
            if metric_direction(metric) != 0
        }
        if gated:
            benchmarks[name] = gated
    return {
        "kind": BASELINE_KIND,
        "tolerance": tolerance,
        "benchmarks": benchmarks,
    }


def write_json(path: str, doc: Dict[str, Any]) -> None:
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")

"""Cell execution: turn one :class:`~repro.sweep.cells.Cell` into a
:class:`~repro.sweep.cells.CellResult`.

:func:`run_cell` dispatches on the experiment registry by *name*, so a
cell is runnable from any process that can import :mod:`repro` — the
pool executor ships cell documents, not live objects, and stays
compatible with every ``multiprocessing`` start method.

Every cell's digest comes from
:func:`repro.lint.determinism.digest_outcome` (or its chaos variant) —
the same fingerprint the determinism checker uses — which is what lets
the determinism tests pin that serial, pooled and resumed executions of
one cell are bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError
from .cells import Cell, CellResult
from .planner import SELFTEST, experiment_spec


def _summary_metrics(summary) -> Dict[str, float]:
    """Reduce a :class:`~repro.metrics.summary.RunSummary` to the flat
    floats the replication layer aggregates."""
    return {
        "completed": float(summary.completed),
        "dropped": float(summary.dropped),
        "drop_rate": float(summary.drop_rate),
        "throughput": float(summary.throughput),
        "overall_tail_slowdown": float(summary.overall_tail_slowdown),
        "overall_tail_latency": float(summary.overall_tail_latency),
        "overall_mean_latency": float(summary.overall_mean_latency),
        "overall_mean_slowdown": float(summary.overall_mean_slowdown),
        "max_typed_slowdown": float(summary.max_typed_slowdown()),
        "total_preemptions": float(summary.total_preemptions),
        "total_overhead_us": float(summary.total_overhead_us),
    }


def _observers(
    cell: Cell, trace_dir: Optional[str], metrics_dir: Optional[str]
) -> Tuple[Dict[str, Any], Tuple[str, ...]]:
    """The cell's observer keyword arguments (see :mod:`repro.observe`)
    and the artifacts they write: ``<cell_id>.trace.json`` in
    ``trace_dir`` and ``<cell_id>.metrics.*`` in ``metrics_dir``."""
    meta = {"cell_id": cell.cell_id, "replicate": cell.replicate}
    observers: Dict[str, Any] = {}
    artifacts = []
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{cell.cell_id}.trace.json")
        observers.update(trace_path=path, trace_meta=meta)
        artifacts.append(path)
    if metrics_dir is not None:
        os.makedirs(metrics_dir, exist_ok=True)
        path = os.path.join(metrics_dir, f"{cell.cell_id}.metrics")
        observers.update(metrics_path=path, metrics_meta=meta)
        artifacts.append(path)
    return observers, tuple(artifacts)


def _system(cell: Cell, spec, workload: str):
    """The cell's system, looked up among the experiment's systems."""
    systems = {s.name: s for s in spec.systems_for(workload)}
    system = systems.get(cell.params_dict["system"])
    if system is None:
        raise ConfigurationError(
            f"cell {cell.cell_id}: system {cell.params_dict['system']!r} is not "
            f"one of {sorted(systems)} for {cell.experiment}/{workload}"
        )
    return system


#: A kind's runner returns (metrics, digest, simulated end time).
_Outcome = Tuple[Dict[str, float], str, float]


def _run_load_point(cell: Cell, system, wspec, observers) -> _Outcome:
    from ..experiments.common import run_once
    from ..lint.determinism import digest_outcome

    params = cell.params_dict
    result = run_once(
        system,
        wspec,
        params["rho"],
        n_requests=params["n_requests"],
        seed=cell.seed,
        **observers,
    )
    loop = result.server.loop
    return (
        _summary_metrics(result.summary),
        digest_outcome(result.server.recorder, loop),
        loop.now,
    )


def _run_load_cell(cell, spec, observers) -> _Outcome:
    workload = cell.params_dict["workload"]
    return _run_load_point(
        cell, _system(cell, spec, workload), spec.spec_for(workload), observers
    )


def _run_reserved_cell(cell, spec, observers) -> _Outcome:
    from ..experiments import figure4

    params = cell.params_dict
    system = figure4.systems().get(params["system"])
    if system is None:
        raise ConfigurationError(
            f"cell {cell.cell_id}: unknown figure4 system {params['system']!r}"
        )
    return _run_load_point(cell, system, spec.spec_for(params["workload"]), observers)


def _run_phased_cell(cell, spec, observers) -> _Outcome:
    from ..experiments import figure7
    from ..experiments.common import run_once
    from ..lint.determinism import digest_outcome

    phases = figure7.default_phases()
    result = run_once(
        _system(cell, spec, "phased"),
        phases[0].spec,
        figure7.UTILIZATION,
        seed=cell.seed,
        warmup_frac=0.0,
        phases=phases,
        **observers,
    )
    loop = result.server.loop
    metrics = _summary_metrics(result.summary)
    metrics["reservation_updates"] = float(
        getattr(result.scheduler, "reservation_updates", 0)
    )
    return metrics, digest_outcome(result.server.recorder, loop), loop.now


def _run_chaos_cell(cell, spec, observers) -> _Outcome:
    from ..experiments import chaos
    from ..faults.runner import run_chaos
    from ..lint.determinism import digest_chaos_outcome

    params = cell.params_dict
    workload = params["workload"]
    wspec = spec.spec_for(workload)
    n_requests = params["n_requests"]
    plan, _crash_at, _recover_at, window_us = chaos.episode_plan(
        n_requests, wspec, params["rho"]
    )
    res = run_chaos(
        _system(cell, spec, workload),
        wspec,
        params["rho"],
        plan,
        n_requests=n_requests,
        seed=cell.seed,
        retry=chaos.default_retry(),
        window_us=window_us,
        slo_latency_us=chaos.SLO_LATENCY_US,
        **observers,
    )
    recorder = res.recorder
    loop = res.server.loop
    ttr = res.time_to_recover()
    deg = res.degradation
    metrics = {
        "completed": float(recorder.completed),
        "dropped": float(recorder.dropped),
        "throughput": float(recorder.completed / loop.now) if loop.now > 0 else 0.0,
        "ttr_us": float("nan") if ttr is None else float(ttr),
        "violation_us": float(deg.violation_time_us()),
        "goodput": float(deg.goodput.mean()) if len(deg.times) else 0.0,
        "timeouts": float(recorder.timeouts),
        "retries": float(recorder.retries),
        "failures": float(recorder.failures),
        "late_completions": float(recorder.late_completions),
        "reservation_updates": float(
            getattr(res.scheduler, "reservation_updates", 0)
        ),
    }
    return metrics, digest_chaos_outcome(recorder, loop, res.injector), loop.now


def _run_rack_cell(cell, spec, observers) -> _Outcome:
    from ..rack.rack import run_rack

    params = cell.params_dict
    workload = params["workload"]
    result = run_rack(
        _system(cell, spec, workload),
        spec.spec_for(workload),
        balancer=params["balancer"],
        n_servers=params["n_servers"],
        utilization=params["rho"],
        n_requests=params["n_requests"],
        seed=cell.seed,
        **observers,
    )
    metrics = _summary_metrics(result.summary)
    metrics["load_imbalance"] = float(result.load_imbalance())
    metrics["spills"] = float(getattr(result.balancer, "spills", 0))
    metrics["stale_reads"] = float(result.views.stale_reads)
    metrics["view_error"] = float(result.views.mean_error())
    return metrics, result.digest(), result.loop.now


_RUNNERS = {
    "load_sweep": _run_load_cell,
    "reserved_grid": _run_reserved_cell,
    "phased": _run_phased_cell,
    "chaos": _run_chaos_cell,
    "rack": _run_rack_cell,
}


def _run_selftest_cell(cell: Cell) -> CellResult:
    """Executor-infrastructure cells: deterministic toy work.

    ``mode="ok"`` computes a pure value; ``"sleep"`` additionally idles
    for ``duration_ms`` of real time (the latency-bound benchmark cell —
    pool speedup on such a grid measures orchestration overlap and is
    machine-independent); ``"crash"`` raises; ``"hang"`` blocks until
    the executor's per-cell timeout kills it.  The sleeps are real
    wall-clock idling by design — this is worker-management test
    machinery, never simulation or aggregation code.
    """
    params = cell.params_dict
    mode = params["mode"]
    duration_ms = float(params.get("duration_ms", 0.0))
    if mode == "crash":
        raise RuntimeError(f"selftest cell {cell.cell_id} crashed on request")
    if mode == "hang":
        time.sleep(3600.0)  # repro-analyze: disable=A301
    if mode == "sleep" and duration_ms > 0:
        time.sleep(duration_ms / 1e3)  # repro-analyze: disable=A301
    elif mode not in ("ok", "sleep"):
        raise ConfigurationError(f"unknown selftest mode {mode!r}")
    value = float((cell.seed % 1_000) + params["index"])
    payload = json.dumps(
        [cell.experiment, sorted(params.items()), cell.replicate, value],
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return CellResult.build(
        cell,
        {"value": value},
        hashlib.sha256(payload).hexdigest(),
        sim_time_us=0.0,
    )


def run_cell(
    cell: Cell,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
) -> CellResult:
    """Execute one cell to completion, in the calling process.

    ``trace_dir`` / ``metrics_dir`` attach the zero-interference trace
    and metrics observers, writing the cell's artifacts there; digests
    are identical either way.
    """
    spec = experiment_spec(cell.experiment)
    if spec.kind == "selftest":
        return _run_selftest_cell(cell)
    runner = _RUNNERS.get(spec.kind)
    if runner is None:
        raise ConfigurationError(
            f"cell {cell.cell_id}: unrunnable experiment kind {spec.kind!r}"
        )
    observers, artifacts = _observers(cell, trace_dir, metrics_dir)
    metrics, digest, sim_time_us = runner(cell, spec, observers)
    return CellResult.build(cell, metrics, digest, sim_time_us, artifacts=artifacts)


def run_cell_doc(
    doc: Dict[str, Any],
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Document-in, document-out variant for process boundaries."""
    return run_cell(Cell.from_doc(doc), trace_dir, metrics_dir).to_doc()

"""Shared experiment machinery.

:func:`run_once` assembles loop + server + load source for one (system,
workload, load) point, runs it to completion, and returns a
:class:`RunResult` bundling the summary, utilization and the scheduler
(for policy-specific introspection like DARC's reservation log).  It is
the one single-server run path: steady Poisson load, a phased schedule
(Fig. 7) or a recorded trace replay.

:func:`sweep_driver` is the one loop the load-sweep drivers run through
(each declares only its :class:`~repro.sweep.planner.ExperimentSpec`,
findings and rendering), and :func:`replicate_seed` is the one rule for
the seed a replicate of a grid point runs under.

Loads are expressed as *utilization* — a fraction of the workload's peak
rate ``W / E[S]`` — which is how the paper's x-axes are scaled.
"""

from __future__ import annotations

import os
import re
from typing import Any, Callable, Dict, List, Optional, Sequence

from .. import observe
from ..errors import ConfigurationError
from ..metrics.recorder import Recorder
from ..metrics.summary import RunSummary
from ..metrics.utilization import UtilizationReport
from ..server.server import Server
from ..sim.engine import EventLoop
from ..sim.randomness import RngRegistry
from ..sweep.planner import ExperimentSpec
from ..systems.base import SystemModel
from ..workload.generator import start_load
from ..workload.phases import Phase
from ..workload.spec import WorkloadSpec

#: Default request count per load point — large enough for a stable
#: p99.9 on the common types while keeping pure-Python runtimes sane.
DEFAULT_N_REQUESTS = 40_000

#: §5.1: "we discard the first 10% of samples to remove warm-up effects".
DEFAULT_WARMUP_FRAC = 0.10


class RunResult:
    """Everything one simulated run produced."""

    def __init__(
        self,
        system_name: str,
        spec: WorkloadSpec,
        utilization: float,
        offered_rate: float,
        summary: RunSummary,
        util_report: UtilizationReport,
        scheduler,
        server: Server,
        tracer=None,
        trace_path: Optional[str] = None,
        sanitizer=None,
        telemetry=None,
        metrics_path: Optional[str] = None,
    ):
        self.system_name = system_name
        self.spec = spec
        #: Offered load as a fraction of peak.
        self.utilization = utilization
        #: Offered arrival rate in req/us (== Mrps).
        self.offered_rate = offered_rate
        self.summary = summary
        self.util_report = util_report
        self.scheduler = scheduler
        self.server = server
        #: The run's :class:`~repro.trace.tracer.Tracer`, when traced.
        self.tracer = tracer
        #: Where the trace document was written, when requested.
        self.trace_path = trace_path
        #: The run's :class:`~repro.lint.sanitizer.SimSanitizer`, when
        #: sanitized — carries ``tiebreak_hazards`` in shadow mode.
        self.sanitizer = sanitizer
        #: The run's :class:`~repro.telemetry.probe.TelemetryProbe`,
        #: when metrics were collected.
        self.telemetry = telemetry
        #: Extensionless base path the metrics exports were written to
        #: (``.prom``/``.jsonl``/``.html`` siblings), when requested.
        self.metrics_path = metrics_path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunResult({self.system_name!r}, rho={self.utilization:.2f}, "
            f"p{self.summary.pct} slowdown={self.summary.overall_tail_slowdown:.1f})"
        )


def run_once(
    system: SystemModel,
    spec: WorkloadSpec,
    utilization: float,
    n_requests: int = DEFAULT_N_REQUESTS,
    seed: int = 1,
    warmup_frac: float = DEFAULT_WARMUP_FRAC,
    pct: float = 99.9,
    max_sim_time_us: Optional[float] = None,
    phases: Optional[Sequence[Phase]] = None,
    trace=None,
    sanitize: "bool | str" = False,
    tracer=None,
    trace_path: Optional[str] = None,
    trace_meta: Optional[Dict[str, Any]] = None,
    telemetry=None,
    metrics_path: Optional[str] = None,
    metrics_meta: Optional[Dict[str, Any]] = None,
) -> RunResult:
    """Simulate one load point and summarize it.

    Exactly one load source applies.  By default the run generates
    exactly ``n_requests`` Poisson arrivals at ``utilization`` of the
    server's peak, then drains the server (every generated request
    completes unless dropped by flow control).  ``phases`` instead runs
    a phased schedule (Fig. 7: each phase sets its own mix and load,
    arrivals stop when the last phase ends; ``spec`` is the first
    phase's), and a recorded arrival ``trace`` is replayed as is, with
    the utilization derived from it — comparing systems on one trace
    removes arrival-sampling noise from the comparison.
    ``max_sim_time_us`` optionally caps the drain for badly overloaded
    configurations.

    ``sanitize``, ``tracer``/``trace_path``/``trace_meta`` and
    ``telemetry``/``metrics_path``/``metrics_meta`` attach the pure
    observers described in :mod:`repro.observe`: the invariant
    sanitizer (``"shadow"`` adds the tie-break shadow check, whose
    hazards land in ``result.sanitizer.tiebreak_hazards``), per-request
    span tracing and the virtual-time metrics plane.  Observed runs are
    bit-identical to bare ones.
    """
    if utilization <= 0:
        raise ConfigurationError(f"utilization must be > 0, got {utilization}")
    if n_requests < 1:
        raise ConfigurationError(f"n_requests must be >= 1, got {n_requests}")
    if trace is not None and phases is not None:
        raise ConfigurationError("pass either trace or phases, not both")

    rngs = RngRegistry(seed=seed)
    loop = EventLoop()
    scheduler = system.make_scheduler(spec, rngs)
    config = system.make_config()
    recorder = Recorder()
    server = Server(loop, scheduler, config=config, recorder=recorder)
    observers = observe.attach(
        loop,
        server,
        sanitize=sanitize,
        tracer=tracer,
        trace_path=trace_path,
        trace_meta=trace_meta,
        telemetry=telemetry,
        metrics_path=metrics_path,
        metrics_meta=metrics_meta,
    )

    peak = spec.peak_load(config.n_workers)
    if trace is not None:
        rate = trace.offered_rate()
        utilization = rate / peak
    else:
        rate = utilization * peak
    start_load(
        loop, spec, server.ingress, rngs, rate, n_requests, config.n_workers,
        phases=phases, trace=trace,
    )
    loop.run(until=max_sim_time_us)

    summary = RunSummary(
        recorder,
        duration_us=loop.now,
        type_specs=spec.type_specs(),
        warmup_frac=warmup_frac,
        pct=pct,
    )
    util_report = server.utilization()
    meta: Dict[str, Any] = {
        "system": system.name,
        "workload": spec.name,
        "utilization": utilization,
    }
    if phases is None and trace is None:
        meta["n_requests"] = n_requests
    meta["seed"] = seed
    observers.export(recorder, meta)
    return RunResult(
        system.name,
        spec,
        utilization,
        rate,
        summary,
        util_report,
        scheduler,
        server,
        tracer=observers.tracer,
        trace_path=trace_path,
        sanitizer=observers.sanitizer,
        telemetry=observers.telemetry,
        metrics_path=metrics_path,
    )


def _slug(text: str) -> str:
    """A filesystem-safe token for trace filenames."""
    return re.sub(r"[^A-Za-z0-9.-]+", "-", text).strip("-")


def trace_target(trace_dir: Optional[str], *parts: Any) -> Optional[str]:
    """Deterministic trace path inside ``trace_dir`` (created on demand)
    built from the given name parts, or None when tracing is off."""
    if trace_dir is None:
        return None
    os.makedirs(trace_dir, exist_ok=True)
    slug = "_".join(s for s in (_slug(str(p)) for p in parts) if s)
    return os.path.join(trace_dir, f"{slug}.trace.json")


def metrics_target(metrics_dir: Optional[str], *parts: Any) -> Optional[str]:
    """Deterministic *extensionless* metrics base path inside
    ``metrics_dir`` (created on demand), or None when metrics are off.
    :func:`repro.telemetry.export.write_metrics` appends the
    ``.prom``/``.jsonl``/``.html`` suffixes."""
    if metrics_dir is None:
        return None
    os.makedirs(metrics_dir, exist_ok=True)
    slug = "_".join(s for s in (_slug(str(p)) for p in parts) if s)
    return os.path.join(metrics_dir, f"{slug}.metrics")


def collect_forensics(
    forensics_dir: Optional[str],
    trace_dir: Optional[str],
    experiment: str,
) -> List[str]:
    """Fold a driver's trace exports into its forensics store.

    Drivers call this once, after their last simulated event — forensics
    is post-hoc, so it cannot perturb results.  No-op when
    ``forensics_dir`` is None; raises
    :class:`~repro.errors.UsageError` when forensics was requested
    without tracing.  Returns the registered run ids.
    """
    from ..forensics.collect import collect_directory

    return collect_directory(forensics_dir, trace_dir, experiment=experiment)


def replicate_seed(
    experiment: ExperimentSpec,
    replicate: int,
    seeds: Optional[Sequence[int]],
    **point: Any,
) -> int:
    """The seed replicate ``replicate`` of one grid point runs under.

    Drivers iterate ``seeds or (seed,)``.  On the single-seed path (no
    ``seeds``) the raw seed runs as is; with ``seeds`` each replicate
    runs under its cell's derived seed
    (:meth:`~repro.sweep.planner.ExperimentSpec.cell`) — the seed a
    pooled ``repro-sweep`` run of the same point gets.
    """
    return experiment.cell(replicate, **point).seed if seeds else replicate


def _sweep(
    system: SystemModel,
    spec: WorkloadSpec,
    workload: str,
    utilizations: Sequence[float],
    replicates: Sequence[int],
    seed_of: Callable[[float, int], int],
    n_requests: int,
    sanitize: "bool | str",
    trace_dir: Optional[str],
    metrics_dir: Optional[str],
) -> Dict[int, List[RunResult]]:
    """``{replicate: [RunResult per load point]}`` for one system; the
    run at load ``rho`` of replicate ``r`` uses ``seed_of(rho, r)``.

    Artifacts are named ``<system>_<workload>_rho<load>[_seed<r>]`` — the
    seed suffix only when several replicates run.
    """
    multi = len(replicates) > 1
    sweeps: Dict[int, List[RunResult]] = {}
    for replicate in replicates:
        sweep: List[RunResult] = []
        for rho in utilizations:
            parts: List[Any] = [system.name, workload, f"rho{round(rho * 100):03d}"]
            if multi:
                parts.append(f"seed{replicate}")
            sweep.append(
                run_once(
                    system,
                    spec,
                    rho,
                    n_requests=n_requests,
                    seed=seed_of(rho, replicate),
                    sanitize=sanitize,
                    trace_path=trace_target(trace_dir, *parts),
                    metrics_path=metrics_target(metrics_dir, *parts),
                )
            )
        sweeps[replicate] = sweep
    return sweeps


def run_sweep(
    system: SystemModel,
    spec: WorkloadSpec,
    utilizations: Sequence[float],
    n_requests: int = DEFAULT_N_REQUESTS,
    sanitize: "bool | str" = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    seeds: Sequence[int] = (1,),
) -> List[RunResult]:
    """One :func:`run_once` per (load point, seed), under the raw seeds.

    Results are ordered load-major, seed-minor.  Systems compared at the
    same points with the same seeds stay paired (common random numbers).
    ``trace_dir`` traces every point, writing one
    ``<system>_<workload>_rho<load>[_seed<s>].trace.json`` per point;
    ``metrics_dir`` likewise collects telemetry per point.
    """
    if not seeds:
        raise ConfigurationError("run_sweep needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError(f"duplicate seeds in {list(seeds)!r}")
    sweeps = _sweep(
        system, spec, spec.name, utilizations, seeds, lambda rho, s: s,
        n_requests, sanitize, trace_dir, metrics_dir,
    )
    return [sweeps[s][i] for i in range(len(utilizations)) for s in seeds]


def sweep_driver(experiment: ExperimentSpec, findings: Callable) -> Callable:
    """The ``run(...)`` of a load-sweep driver declared as ``experiment``.

    The returned function runs every workload of the declaration: each
    system's sweep over the load points (replicated under ``seeds``, see
    :func:`replicate_seed`), with the observers and artifact names of
    :func:`run_sweep`, then ``findings(result, workload)`` per
    workload's :class:`~repro.experiments.results.FigureResult`, then
    the forensics fold.  It returns that FigureResult, or a dict of them
    keyed by workload when the declaration has several.
    """

    def run(
        utilizations: Optional[Sequence[float]] = None,
        n_requests: Optional[int] = None,
        seed: int = 1,
        systems: Optional[List[SystemModel]] = None,
        sanitize: "bool | str" = False,
        trace_dir: Optional[str] = None,
        metrics_dir: Optional[str] = None,
        seeds: Optional[Sequence[int]] = None,
        forensics_dir: Optional[str] = None,
    ):
        from .results import FigureResult

        loads = experiment.utilizations if utilizations is None else utilizations
        n = experiment.n_requests if n_requests is None else n_requests
        results: Dict[str, FigureResult] = {}
        for workload in experiment.workloads:
            spec = experiment.spec_for(workload)
            result = FigureResult(experiment.title.format(workload=workload), loads)
            compared = (
                experiment.systems_for(workload) if systems is None else systems
            )
            for system in compared:
                sweeps = _sweep(
                    system, spec, workload, loads, seeds or (seed,),
                    lambda rho, r: replicate_seed(
                        experiment, r, seeds, system=system.name,
                        workload=workload, rho=rho, n_requests=n,
                    ),
                    n, sanitize, trace_dir, metrics_dir,
                )
                if seeds:
                    result.add_replicated(system.name, sweeps)
                else:
                    result.add_sweep(system.name, sweeps[seed])
            findings(result, workload)
            results[workload] = result
        collect_forensics(forensics_dir, trace_dir, experiment.name)
        return results if len(results) > 1 else results[experiment.workloads[0]]

    run.__doc__ = (
        f"Run the {experiment.name} load sweep (see :func:`repro.experiments"
        f".common.sweep_driver`)."
    )
    return run

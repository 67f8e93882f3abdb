"""Figure 4 (§5.3): how much non-work-conservation is useful?

DARC-static with 0–14 reserved cores at 95% load, on High Bimodal (a)
and Extreme Bimodal (b), with the c-FCFS slowdown as the reference line.

Paper findings: the best manual setting is 1 reserved core for High
Bimodal (4.4x improvement over c-FCFS) and 2 for Extreme Bimodal (1.5x)
— matching what DARC's reservation algorithm picks automatically.
0 reserved cores equals plain Fixed Priority; too many starve longs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis.slo import overall_slowdown_metric
from ..analysis.tables import render_table
from ..sweep.stats import mean_ci
from ..sweep.planner import ExperimentSpec
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneCfcfsSystem, PersephoneStaticSystem
from ..workload.presets import by_name
from ..workload.spec import WorkloadSpec
from .common import (
    RunResult,
    collect_forensics,
    metrics_target,
    replicate_seed,
    run_once,
    single_load,
    trace_target,
)

N_WORKERS = 14
UTILIZATION = 0.95
DEFAULT_RESERVED = tuple(range(0, 15))
#: The reference system's cell token (and name).
REFERENCE = "c-FCFS"


class Figure4Result:
    """Per-workload slowdown as a function of reserved cores.

    Multi-seed runs additionally collect per-replicate slowdown samples;
    :meth:`slowdowns` then reports replicate means (``sweeps`` and
    ``references`` always hold the first replicate's runs).
    """

    def __init__(self, utilization: float):
        self.utilization = utilization
        #: workload name -> {n_reserved: RunResult}
        self.sweeps: Dict[str, Dict[int, RunResult]] = {}
        #: workload name -> c-FCFS reference RunResult
        self.references: Dict[str, RunResult] = {}
        #: workload name -> {n_reserved: [slowdown per replicate]}
        self.slowdown_samples: Dict[str, Dict[int, List[float]]] = {}
        #: workload name -> [c-FCFS slowdown per replicate]
        self.reference_samples: Dict[str, List[float]] = {}
        self.n_replicates = 1
        self.findings: Dict[str, float] = {}

    def slowdowns(self, workload: str) -> Dict[int, float]:
        samples = self.slowdown_samples.get(workload)
        if samples:
            return {k: mean_ci(v).mean for k, v in samples.items()}
        return {
            k: overall_slowdown_metric(r) for k, r in self.sweeps[workload].items()
        }

    def reference_slowdown(self, workload: str) -> float:
        samples = self.reference_samples.get(workload)
        if samples:
            return mean_ci(samples).mean
        return overall_slowdown_metric(self.references[workload])

    def best_reserved(self, workload: str) -> int:
        values = self.slowdowns(workload)
        return min(values, key=lambda k: values[k])

    def render(self) -> str:
        parts = []
        for workload, runs in self.sweeps.items():
            ref = self.reference_slowdown(workload)
            values = self.slowdowns(workload)
            rows = [[k, values[k], ref] for k in sorted(runs)]
            note = (
                f" (means over {self.n_replicates} seeds)"
                if self.n_replicates > 1
                else ""
            )
            parts.append(
                render_table(
                    ["reserved", "p99.9 slowdown", "c-FCFS ref"],
                    rows,
                    precision=1,
                    title=(
                        f"Figure 4 [{workload}] at {self.utilization:.0%} "
                        f"load{note}"
                    ),
                )
            )
        if self.findings:
            lines = ["Figure 4: findings"]
            for key, value in self.findings.items():
                lines.append(f"  {key} = {value:.2f}")
            parts.append("\n".join(lines))
        return "\n\n".join(parts)


def systems(reserved_counts: Sequence[int] = DEFAULT_RESERVED) -> Dict[str, SystemModel]:
    """Cell system token -> system: the c-FCFS reference, then DARC-static
    for each reserved count that leaves a worker for long requests."""
    choices: Dict[str, SystemModel] = {
        REFERENCE: PersephoneCfcfsSystem(n_workers=N_WORKERS, name=REFERENCE)
    }
    for k in reserved_counts:
        if k < N_WORKERS:
            choices[f"reserved{k}"] = PersephoneStaticSystem(
                n_reserved=k, n_workers=N_WORKERS
            )
    return choices


EXPERIMENT = ExperimentSpec(
    name="figure4",
    kind="reserved_grid",
    workloads=("high_bimodal", "extreme_bimodal"),
    spec_for=by_name,
    utilizations=(UTILIZATION,),
    n_requests=60_000,
)


def run(
    reserved_counts: Sequence[int] = DEFAULT_RESERVED,
    utilization: float = UTILIZATION,
    n_requests: int = EXPERIMENT.n_requests,
    seed: int = 1,
    workloads: Optional[Dict[str, WorkloadSpec]] = None,
    sanitize: bool = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
    forensics_dir: Optional[str] = None,
    utilizations: Optional[Sequence[float]] = None,
) -> Figure4Result:
    """Sweep the reserved-core count at one load point: ``utilization``,
    or the single value of ``utilizations`` when given."""
    if utilizations is not None:
        utilization = single_load(EXPERIMENT, utilizations)
    if workloads is None:
        workloads = {w: EXPERIMENT.spec_for(w) for w in EXPERIMENT.workloads}
    replicates: Sequence[int] = seeds or (seed,)
    result = Figure4Result(utilization)
    result.n_replicates = len(replicates)
    for name, spec in workloads.items():
        samples: Dict[str, List[float]] = {}
        for index, replicate in enumerate(replicates):
            suffix = () if len(replicates) == 1 else (f"seed{replicate}",)
            runs: Dict[str, RunResult] = {}
            for choice, system in systems(reserved_counts).items():
                runs[choice] = run_once(
                    system, spec, utilization, n_requests=n_requests,
                    seed=replicate_seed(
                        EXPERIMENT, replicate, seeds, system=choice,
                        workload=name, rho=utilization, n_requests=n_requests,
                    ),
                    sanitize=sanitize,
                    trace_path=trace_target(
                        trace_dir, "figure4", name, choice, *suffix
                    ),
                    metrics_path=metrics_target(
                        metrics_dir, "figure4", name, choice, *suffix
                    ),
                )
                samples.setdefault(choice, []).append(
                    overall_slowdown_metric(runs[choice])
                )
            if index == 0:
                result.references[name] = runs.pop(REFERENCE)
                result.sweeps[name] = {
                    int(choice[len("reserved"):]): r for choice, r in runs.items()
                }
        if len(replicates) > 1:
            result.reference_samples[name] = samples.pop(REFERENCE)
            result.slowdown_samples[name] = {
                int(choice[len("reserved"):]): v for choice, v in samples.items()
            }
        best = result.best_reserved(name)
        ref_value = result.reference_slowdown(name)
        best_val = result.slowdowns(name)[best]
        result.findings[f"best reserved [{name}]"] = float(best)
        if best_val > 0:
            result.findings[f"improvement over c-FCFS [{name}]"] = (
                ref_value / best_val
            )
    collect_forensics(forensics_dir, trace_dir, "figure4")
    return result

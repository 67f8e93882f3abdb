"""Figure 8 (§5.4.4): the RocksDB service.

50% GETs (1.5 µs) / 50% SCANs (635 µs) over a 5000-key store — 420x
dispersion.  Shinjuku uses its multi-queue policy with a 15 µs quantum
(its best RocksDB tuning; ~75% sustainable load).

Paper findings: for a 20x slowdown target, DARC sustains 2.3x / 1.3x
higher throughput than Shenango / Shinjuku; DARC reserves 1 core for
GETs, idling 0.96 cores on average.
"""

from __future__ import annotations

from typing import List

from ..analysis.slo import overall_slowdown_metric
from ..apps.rocksdb import GET_TYPE, RocksDbLike
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneSystem
from ..systems.shenango import ShenangoSystem
from ..systems.shinjuku import ShinjukuSystem
from ..sweep.planner import ExperimentSpec
from .common import sweep_driver
from .results import FigureResult

N_WORKERS = 14
SLO_SLOWDOWN = 20.0
DEFAULT_UTILIZATIONS = (0.2, 0.35, 0.5, 0.65, 0.75, 0.85, 0.95)


def default_systems() -> List[SystemModel]:
    return [
        ShenangoSystem(n_workers=N_WORKERS, work_stealing=True, name="Shenango"),
        ShinjukuSystem(n_workers=N_WORKERS, quantum_us=15.0, mode="multi", name="Shinjuku"),
        PersephoneSystem(n_workers=N_WORKERS, oracle=False, name="Persephone"),
    ]


EXPERIMENT = ExperimentSpec(
    name="figure8",
    kind="load_sweep",
    title="Figure 8 [RocksDB]",
    workloads=("rocksdb",),
    spec_for=lambda workload: RocksDbLike().workload_spec(),
    systems_for=lambda workload: default_systems(),
    utilizations=DEFAULT_UTILIZATIONS,
    n_requests=60_000,
    slo={"rocksdb": SLO_SLOWDOWN},
)


def findings(result: FigureResult, workload: str) -> None:
    """Capacities at the slowdown target and DARC's GET reservation."""
    caps = result.capacities(SLO_SLOWDOWN, overall_slowdown_metric)
    for name, cap in caps.items():
        result.findings[f"capacity@{SLO_SLOWDOWN:g}x [{name}]"] = (
            cap if cap is not None else float("nan")
        )
    if caps.get("Persephone") and caps.get("Shenango"):
        result.findings["DARC vs Shenango capacity"] = (
            caps["Persephone"] / caps["Shenango"]
        )
    if caps.get("Persephone") and caps.get("Shinjuku"):
        result.findings["DARC vs Shinjuku capacity"] = (
            caps["Persephone"] / caps["Shinjuku"]
        )
    persephone = result.sweeps.get("Persephone")
    if persephone:
        darc = persephone[-1].scheduler
        if getattr(darc, "reservation", None) is not None:
            result.findings["DARC reserved cores for GET"] = float(
                darc.reserved_count(GET_TYPE)
            )
            result.findings["DARC expected CPU waste (cores)"] = darc.expected_waste()


run = sweep_driver(EXPERIMENT, findings)


def render(result: FigureResult) -> str:
    return (
        result.render_metric(overall_slowdown_metric, "overall p99.9 slowdown (x)")
        + "\n\n"
        + result.render_findings()
    )

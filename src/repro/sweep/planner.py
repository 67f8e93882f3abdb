"""Cell planner: expand (experiment × grid point × seed) into cells.

Every orchestrable experiment declares its grid once, as an
:class:`ExperimentSpec` named ``EXPERIMENT`` in its driver module —
which workloads it runs, which systems it compares, its default load
points and request counts, and the SLO / metric its capacity findings
use.  :func:`plan_experiment` expands that grid crossed with the
requested seeds into a flat list of independent
:class:`~repro.sweep.cells.Cell`\\ s, each carrying a deterministically
derived root seed, and wraps it in a serializable :class:`SweepPlan`.

The registry reads the drivers' own declarations, so a pooled sweep runs
exactly the configurations the serial drivers run — one source of truth
for every grid — and :meth:`ExperimentSpec.cell` is the one constructor
both use, so replicate ``r`` of a grid point gets the same seed either
way.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .cells import Cell


class ExperimentSpec(NamedTuple):
    """Everything the planner, the merger and the in-process experiment
    loop need to know about one experiment."""

    name: str
    #: "load_sweep" | "reserved_grid" | "phased" | "chaos" | "rack" |
    #: "selftest"
    kind: str
    #: Workload tokens the experiment iterates over ("" when implicit).
    workloads: Tuple[str, ...]
    #: workload token -> WorkloadSpec factory (None when implicit).
    spec_for: Optional[Callable[[str], Any]] = None
    #: workload token -> list of SystemModel (fresh instances per call).
    systems_for: Optional[Callable[[str], List[Any]]] = None
    #: Default load points (empty for phased experiments).
    utilizations: Tuple[float, ...] = ()
    #: Default arrivals per cell (0 for phased experiments).
    n_requests: int = 0
    #: workload token -> SLO threshold for capacity findings (may be {}).
    slo: Mapping[str, float] = {}
    #: Metric key (in CellResult.metrics) the SLO applies to.
    capacity_metric: str = "overall_tail_slowdown"
    #: Metric keys tabulated for experiments without load tables, in
    #: display order.
    table_metrics: Tuple[str, ...] = ()
    #: In-process table title; ``{workload}`` is filled per workload.
    title: str = ""

    def cell(self, replicate: int, **params: Any) -> Cell:
        """The cell of one grid point's replicate ``replicate``.

        Its :attr:`~repro.sweep.cells.Cell.seed` is the seed replicate
        ``r`` of that point runs under, pooled or in-process.
        """
        return Cell.make(self.name, params, replicate)


def _registry() -> Dict[str, ExperimentSpec]:
    # Imported here (not at module top) so `import repro.sweep` stays
    # cheap and free of import cycles with repro.experiments.
    from ..experiments import (
        chaos,
        figure1,
        figure3,
        figure4,
        figure5,
        figure6,
        figure7,
        figure8,
        figure9,
        figure10,
        rack,
    )

    drivers = (
        figure1, figure3, figure4, figure5, figure6, figure7, figure8,
        figure9, figure10, chaos, rack,
    )
    registry = {d.EXPERIMENT.name: d.EXPERIMENT for d in drivers}
    registry[SELFTEST] = ExperimentSpec(
        name=SELFTEST,
        kind="selftest",
        workloads=("",),
        n_requests=400,
        capacity_metric="value",
        table_metrics=("value",),
    )
    return registry


#: Hidden experiment exercising the executor itself (crash isolation,
#: timeouts, latency overlap) without a full simulation per cell.
SELFTEST = "_selftest"

#: Registry cache — filled in place on first use (configuration, not
#: simulation state: the grid specs are immutable once built).
_SPECS: Dict[str, ExperimentSpec] = {}


def _specs() -> Dict[str, ExperimentSpec]:
    # Worker-path read of a lazily-filled module cache: fork-safe by
    # construction — _registry() is a pure function of the code, so any
    # process (parent, forked, or spawned) that misses the cache rebuilds
    # the identical table.  Nothing in it reflects parent runtime state.
    if not _SPECS:  # repro-analyze: disable=A602
        _SPECS.update(_registry())
    return _SPECS


def experiment_spec(name: str) -> ExperimentSpec:
    spec = _specs().get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown sweep experiment {name!r} (choices: "
            f"{', '.join(supported_experiments())})"
        )
    return spec


def supported_experiments() -> List[str]:
    """Public, orchestrable experiment names (selftest excluded)."""
    return sorted(name for name in _specs() if not name.startswith("_"))


class SweepPlan(NamedTuple):
    """A fully expanded, serializable sweep."""

    experiment: str
    seeds: Tuple[int, ...]
    n_requests: int
    utilizations: Tuple[float, ...]
    cells: Tuple[Cell, ...]

    def to_doc(self) -> Dict[str, Any]:
        return {
            "kind": "repro-sweep-plan",
            "version": 1,
            "experiment": self.experiment,
            "seeds": list(self.seeds),
            "n_requests": self.n_requests,
            "utilizations": list(self.utilizations),
            "cells": [cell.to_doc() for cell in self.cells],
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "SweepPlan":
        if doc.get("kind") != "repro-sweep-plan":
            raise ConfigurationError(
                f"not a sweep plan document: kind={doc.get('kind')!r}"
            )
        return cls(
            experiment=doc["experiment"],
            seeds=tuple(int(s) for s in doc["seeds"]),
            n_requests=int(doc["n_requests"]),
            utilizations=tuple(float(u) for u in doc["utilizations"]),
            cells=tuple(Cell.from_doc(c) for c in doc["cells"]),
        )


def _system_names(spec: ExperimentSpec, workload: str) -> List[str]:
    if spec.kind == "reserved_grid":
        from ..experiments import figure4

        return list(figure4.systems())
    return [s.name for s in spec.systems_for(workload)]


def _grid(
    spec: ExperimentSpec, utils: Tuple[float, ...], n: int
) -> List[Dict[str, Any]]:
    """The grid points (cell params without the replicate), in plan order:
    workload-major, then balancer (rack), then load point, then system."""
    if spec.kind == "phased":
        return [
            {"system": name, "workload": workload}
            for workload in spec.workloads
            for name in _system_names(spec, workload)
        ]
    axes: List[Dict[str, Any]] = [{}]
    if spec.kind == "rack":
        from ..experiments import rack

        axes = [
            {"balancer": balancer, "n_servers": rack.N_SERVERS}
            for balancer in rack.DEFAULT_BALANCERS
        ]
    return [
        {"system": name, "workload": workload, "rho": rho, "n_requests": n, **axis}
        for workload in spec.workloads
        for axis in axes
        for rho in utils
        for name in _system_names(spec, workload)
    ]


def plan_experiment(
    experiment: str,
    seeds: Sequence[int] = (1,),
    n_requests: Optional[int] = None,
    utilizations: Optional[Sequence[float]] = None,
) -> SweepPlan:
    """Expand one experiment's grid × seeds into independent cells.

    Cell ordering is deterministic (workload-major, then load point,
    then system, then seed) but carries no meaning: every cell is
    independent and the executor may complete them in any order.
    ``utilizations`` replaces the declared load grid; a declaration
    without one (figure 7's phases) refuses it, and a single-point one
    takes exactly one value.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError(f"duplicate seeds in {list(seeds)!r}")
    spec = experiment_spec(experiment)
    if spec.kind == "selftest":
        raise ConfigurationError(f"experiment {experiment!r} is not plannable")
    n = int(n_requests) if n_requests is not None else spec.n_requests
    utils = spec.utilizations
    if utilizations is not None:
        utils = tuple(float(u) for u in utilizations)
        if not spec.utilizations:
            raise ConfigurationError(
                f"{experiment} declares no load grid, so it cannot take "
                "utilizations"
            )
        if len(spec.utilizations) == 1 and len(utils) != 1:
            raise ConfigurationError(
                f"{experiment} runs one load point; got {len(utils)} "
                "utilizations"
            )
    cells = [
        spec.cell(seed, **point)
        for point in _grid(spec, utils, n)
        for seed in seeds
    ]
    return SweepPlan(
        experiment=experiment,
        seeds=tuple(int(s) for s in seeds),
        n_requests=n,
        utilizations=utils,
        cells=tuple(cells),
    )


def plan_selftest(
    n_cells: int,
    seeds: Sequence[int] = (1,),
    mode: str = "ok",
    duration_ms: float = 0.0,
    n_requests: int = 400,
) -> SweepPlan:
    """A grid of executor-selftest cells (see :mod:`repro.sweep.runner`)."""
    cells = [
        Cell.make(
            SELFTEST,
            {
                "index": index,
                "mode": mode,
                "duration_ms": float(duration_ms),
                "n_requests": int(n_requests),
            },
            seed,
        )
        for index in range(n_cells)
        for seed in seeds
    ]
    return SweepPlan(
        experiment=SELFTEST,
        seeds=tuple(int(s) for s in seeds),
        n_requests=int(n_requests),
        utilizations=(),
        cells=tuple(cells),
    )

"""The benchmark's workloads, as lists of simulated cells.

A *cell* is one simulated run: a system, a load ρ, a number of Poisson
arrivals and a seed.  Each cell runs through the program's own public
entry point (``run_once`` for one server, ``run_rack`` for the rack), so
the benchmark times what a user regenerating a figure pays for.  The
simulator draws every input from its seeded streams; the benchmark hands
it only the cell's parameters.

Every cell execution is checked: its outcome digest must equal the one
pinned below (default seed and sizes only), a repeat of the same cell,
and the bare cell it observes; and completed + dropped must equal the
arrivals generated.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import figure5
from repro.experiments import rack as rack_driver
from repro.experiments.common import run_once
from repro.lint.determinism import digest_outcome
from repro.rack.rack import run_rack
from repro.telemetry import TelemetryProbe
from repro.trace import Tracer
from repro.workload.presets import high_bimodal

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Cell:
    """One simulated run of a workload."""

    #: ``persephone``, ``shenango`` or ``shinjuku``.
    system: str
    rho: float
    #: ``single`` (one 14-core server), ``rack`` (16 x 8-core replicas
    #: behind jsq-stale) or ``observed`` (single, with the program's
    #: tracer, telemetry probe and sanitizer attached).
    kind: str = "single"

    @property
    def label(self) -> str:
        return f"{self.system}@{self.rho:g}" + ("" if self.kind == "single" else f"[{self.kind}]")


@dataclass(frozen=True)
class Workload:
    name: str
    cells: Tuple[Cell, ...]
    #: Arrivals per cell at the default size.
    default_requests: int
    #: Bare cells each ``observed`` cell's digest must equal.
    references: Tuple[Cell, ...] = ()


SYSTEMS = ("persephone", "shenango", "shinjuku")

WORKLOADS: Dict[str, Workload] = {
    # Fig. 5a slice: each system spends its time in another layer, and
    # at rho=0.95 DARC re-evaluates Algorithm 2 in a storm.
    "hb-trio": Workload(
        "hb-trio",
        tuple(Cell(system, rho) for system in SYSTEMS for rho in (0.8, 0.95)),
        default_requests=50_000,
    ),
    # The rack layer dominates: 16 stale-view reads per pick.  36k
    # arrivals give each replica more than DARC's 2000-sample first
    # profiling window, so DARC installs a reservation per replica.
    "rack16-jsq": Workload(
        "rack16-jsq",
        tuple(Cell(system, 0.7, "rack") for system in SYSTEMS),
        default_requests=36_000,
    ),
    # The engine loop's per-event observer hooks dominate.
    "hb-observed": Workload(
        "hb-observed",
        tuple(Cell(system, 0.8, "observed") for system in SYSTEMS),
        default_requests=20_000,
        references=tuple(Cell(system, 0.8) for system in SYSTEMS),
    ),
}

#: Outcome digests at :data:`DEFAULT_SEED`, by (bare cell label,
#: arrivals), taken on the commit that introduced the benchmark.  A
#: change that keeps simulated results bit-identical keeps every one.
PINNED_DIGESTS: Dict[Tuple[str, int], str] = {
    ("persephone@0.8", 50000): "d847315a1c5a39badfaf4dfeafd793d46f6f8edc2aed5407a50ce6b2c820e3b2",
    ("persephone@0.95", 50000): "b71ef049e6e253e7bedc6fb738f08bfa386dabf482b3dabd4aaa8dfae39e3395",
    ("shenango@0.8", 50000): "a9bfc595b05efd2526c77cfd0c2c3e7543408e9931acf4400689f1de9d715355",
    ("shenango@0.95", 50000): "37b866259893c24406210d2ceb72498cc494a6b0ef245eb3b4ac8e4bc3e2d2d7",
    ("shinjuku@0.8", 50000): "23ff30e76b8d7713b27ec58bacff8d0915ebfaf9261448bc96ab9014825497ae",
    ("shinjuku@0.95", 50000): "7f2d153c4ababa72c67fe99257cda3de1376d2ac1a31563e111980d008a85263",
    ("persephone@0.7[rack]", 36000): "ce031aa661dc630cf5a8b3b2e5a7767ae230efc4febc201f32ae1ef80521db86",
    ("shenango@0.7[rack]", 36000): "3eaee956b458cff53c4dcc2a5ad6067b91d075fa7566244680f39466ebd3109d",
    ("shinjuku@0.7[rack]", 36000): "09f6528079f2a2432883aca4b949d27485c2b7abbf840bdc171a390bb7f62cf4",
    ("persephone@0.8", 20000): "a0a70fe5f82777c46b1d7241929394517cc886720c0bc74e0499e13b5006d921",
    ("shenango@0.8", 20000): "43c9b9ef2985ba6fe3b18dda06314fc1732306794e9d76d40c22e41a5186f59c",
    ("shinjuku@0.8", 20000): "ea8d8b61752facc35d1aafb39684a835b4299e21662c8f2a68a805bbde998571",
}


def _system(name: str, kind: str):
    systems = rack_driver.default_systems() if kind == "rack" else figure5.systems_for("high_bimodal")
    return next(s for s in systems if s.name.lower() == name)


class Outcome:
    """One executed cell: its host time and what it simulated."""

    def __init__(self, cell: Cell, n_requests: int):
        self.cell = cell
        self.n_requests = n_requests
        self.host_s = 0.0
        self.digest: Optional[str] = None
        self.p999_slowdown = float("nan")
        #: Public counters read after the run, by name.
        self.counters: Dict[str, float] = {}
        #: In timed passes: host seconds of each event-loop chunk and of
        #: the reference task right after it (see ``hostspeed.py``).
        self.chunks: List[float] = []
        self.refs: List[float] = []
        #: Why this run failed, or None.
        self.error: Optional[str] = None

    def fail(self, reason: str) -> None:
        if self.error is None:
            self.error = reason


def launch(cell: Cell, n_requests: int, seed: int):
    """Run ``cell`` through the program's public entry point."""
    system = _system(cell.system, cell.kind)
    if cell.kind == "rack":
        return run_rack(
            system,
            high_bimodal(),
            balancer="jsq-stale",
            n_servers=rack_driver.N_SERVERS,
            utilization=cell.rho,
            n_requests=n_requests,
            seed=seed,
            staleness_us=rack_driver.STALENESS_US,
        )
    observers = {}
    if cell.kind == "observed":
        observers = {"sanitize": True, "tracer": Tracer(), "telemetry": TelemetryProbe()}
    return run_once(system, high_bimodal(), cell.rho, n_requests=n_requests, seed=seed, **observers)


def run_cell(cell: Cell, n_requests: int, seed: int, clock: Callable[[], float]) -> Outcome:
    """Execute and time one cell, then read its digest and counters and
    check request conservation.  An exception fails the run."""
    outcome = Outcome(cell, n_requests)
    try:
        start = clock()
        result = launch(cell, n_requests, seed)
        outcome.host_s = clock() - start
        _read(outcome, result)
    except Exception as exc:  # a failed run is reported, not fatal
        traceback.print_exc()
        outcome.fail(f"{type(exc).__name__}: {exc}")
    return outcome


def _read(outcome: Outcome, result) -> None:
    n = outcome.n_requests
    counters = outcome.counters
    if outcome.cell.kind == "rack":
        recorder, loop = result.recorder, result.loop
        outcome.digest = result.digest()
        arrivals = result.balancer.routed
        views = result.views.counters()
        counters["rack.picks"] = arrivals
        counters["rack.stale_reads"] = views["stale_reads"]
        counters["rack.fresh_reads"] = views["fresh_reads"]
        schedulers = [server.scheduler for server in result.servers]
    else:
        recorder, loop = result.server.recorder, result.server.loop
        outcome.digest = digest_outcome(recorder, loop)
        arrivals = result.server.received
        schedulers = [result.scheduler]
    outcome.p999_slowdown = result.summary.overall_tail_slowdown
    counters["sim.events"] = loop.events_processed
    counters["arrivals"] = arrivals
    for attr, name in (
        ("reservation_updates", "core.alg2_installs"),
        ("steals", "policies.steals"),
        ("preemptions", "policies.preemptions"),
    ):
        values = [getattr(s, attr) for s in schedulers if hasattr(s, attr)]
        if values:
            counters[name] = sum(values)
    if arrivals != n:
        outcome.fail(f"{arrivals} arrivals generated, expected {n}")
    if recorder.completed + recorder.dropped != arrivals:
        outcome.fail(
            f"completed {recorder.completed} + dropped {recorder.dropped} != arrivals {arrivals}"
        )


def check_digests(runs: List[Outcome], seed: int, n_requests: int) -> None:
    """Fail every run whose digest differs from the pinned one (default
    seed and size), from the cell's first run, or from its bare
    reference cell."""
    first: Dict[Cell, str] = {}
    for outcome in runs:
        if outcome.digest is None:
            continue
        bare = Cell(outcome.cell.system, outcome.cell.rho) if outcome.cell.kind == "observed" else outcome.cell
        pinned = PINNED_DIGESTS.get((bare.label, n_requests))
        if seed == DEFAULT_SEED and pinned is not None and outcome.digest != pinned:
            outcome.fail(f"digest {outcome.digest[:16]} != pinned {pinned[:16]}")
        expected = first.setdefault(bare, outcome.digest)
        if outcome.digest != expected:
            outcome.fail(f"digest {outcome.digest[:16]} != {expected[:16]} of the same cell")

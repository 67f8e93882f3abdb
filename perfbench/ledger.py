"""The per-layer ledger: spans recorded from outside the simulator.

:class:`Ledger` wraps the public entry points of each ``repro.*`` layer
(the table in ``perfbench/README.md``) on their classes, so every call
records one span: entry id, parent span, start and end.  Spans are kept
in memory in flat arrays and reduced when a cell ends.  Wrappers are
installed on the classes before a run is constructed, so bound methods
that the simulator hoists at construction (``Server._on_request``, the
recorder sinks) are the wrapped ones.

Event callbacks that are private methods (``DarcScheduler._complete``,
``TimeSharing._quantum_boundary``, ``OpenLoopGenerator._emit``) have no
public entry point, yet they carry most of some systems' work.  The
ledger attaches itself through the loop's public profiler hook
(``EventLoop.attach_profiler``) and records one span per such event,
attributed to the layer of the module that defines the callback.
Without that, their time would show as engine (``sim``) self time.

A span's self time is its duration minus its children's durations.
Each span's *cause* is the layer of its nearest ancestor in another
layer, so ``server`` time under ``RackBalancer.pick`` shows as
rack-caused.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Layers in report order.  ``root`` is the cause of a span with no
#: ancestor in another layer.
LAYERS: Tuple[str, ...] = (
    "sim",
    "workload",
    "server",
    "policies",
    "core",
    "metrics",
    "rack",
    "trace",
    "telemetry",
    "sanitizer",
    "setup",
    "other",
    "root",
)
LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

#: Module prefix -> layer, for event callbacks with no public entry point.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.workload", "workload"),
    ("repro.server", "server"),
    ("repro.policies", "policies"),
    ("repro.core", "core"),
    ("repro.metrics", "metrics"),
    ("repro.rack", "rack"),
    ("repro.cluster", "rack"),
    ("repro.trace", "trace"),
    ("repro.telemetry", "telemetry"),
    ("repro.lint", "sanitizer"),
    ("repro.systems", "setup"),
)

_SCHEDULER_SURFACE = ("on_request", "on_worker_free", "begin_service")

#: (layer, module, class or None for every qualifying class, methods or
#: None for every public method).  A class is wrapped only where it
#: defines the method itself, so inherited entry points are wrapped once.
ENTRY_POINTS: Tuple[Tuple[str, str, object, object], ...] = (
    ("sim", "repro.sim.engine", "EventLoop", ("run", "call_at", "call_after")),
    ("workload", "repro.workload.spec", "WorkloadSpec", ("sample_type", "sample_service")),
    ("workload", "repro.workload.arrivals", "PoissonArrivals", ("inter_arrival",)),
    ("server", "repro.server.server", "Server", ("ingress", "in_flight", "pending")),
    ("server", "repro.server.worker", "Worker", ("begin", "end", "is_free")),
    ("policies", "repro.policies.base", "Scheduler", ("begin_service",)),
    ("policies", "repro.policies.fcfs", None, _SCHEDULER_SURFACE),
    ("policies", "repro.policies.typed", None, _SCHEDULER_SURFACE),
    ("policies", "repro.policies.timesharing", None, _SCHEDULER_SURFACE),
    ("core", "repro.core.darc", "DarcScheduler", ("on_request", "on_worker_free", "completion_hook")),
    ("metrics", "repro.metrics.recorder", "Recorder", ("on_complete",)),
    ("metrics", "repro.metrics.summary", "RunSummary", ("__init__",)),
    ("rack", "repro.rack.balancers", None, ("pick",)),
    ("rack", "repro.cluster.balancer", "Balancer", ("ingress",)),
    ("rack", "repro.rack.views", "QueueViews", ("load", "peek")),
    ("trace", "repro.trace.tracer", "Tracer", None),
    ("telemetry", "repro.telemetry.probe", "TelemetryProbe", None),
    ("sanitizer", "repro.lint.sanitizer", "SimSanitizer", None),
    ("setup", "repro.systems.persephone", None, ("make_scheduler", "make_config")),
    ("setup", "repro.systems.shenango", None, ("make_scheduler", "make_config")),
    ("setup", "repro.systems.shinjuku", None, ("make_scheduler", "make_config")),
    ("setup", "repro.systems.base", "SystemModel", ("make_config",)),
    ("setup", "repro.server.server", "Server", ("__init__",)),
    ("setup", "repro.workload.generator", "OpenLoopGenerator", ("__init__",)),
)

#: Algorithm 2, wrapped where DARC looks it up (its module global).
ALG2 = ("core", "repro.core.darc", "compute_reservation")

_clock = time.perf_counter_ns


def _module_layer(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


#: Spans reduced per numpy call, bounding the reduction's scratch memory.
_CHUNK = 1 << 20


class CellLedger:
    """The spans of one cell, reduced: calls, self and inclusive time per
    entry, self time per (caller entry, entry) edge and per (layer,
    cause layer)."""

    def __init__(self, names: List[str], layers: List[int], wall_s: float, attributed_ns: int):
        n_entries, n_layers = len(names), len(LAYERS)
        self.names = names
        self.entry_layer = np.asarray(layers, dtype=np.int64)
        self.wall_s = wall_s
        self.spans = 0
        self.calls = np.zeros(n_entries, dtype=np.int64)
        self.self_s = np.zeros(n_entries)
        #: Inclusive seconds, counting only the outermost of nested calls
        #: to the same entry.
        self.inclusive_s = np.zeros(n_entries)
        #: Indexed ``caller * n_entries + entry``; caller ``n_entries`` is
        #: the root.
        self.edge_calls = np.zeros((n_entries + 1) * n_entries, dtype=np.int64)
        self.edge_self_s = np.zeros((n_entries + 1) * n_entries)
        #: Self seconds per (layer, cause layer).
        self.cause_s = np.zeros((n_layers, n_layers))
        self.min_self_ns = 0
        self.attributed_s = attributed_ns / 1e9
        #: Cell wall time outside every span (run wiring, wrapper gaps).
        self.unattributed_s = wall_s - self.attributed_s

    def add(self, all_entries, entry, parent, cause, self_ns, dur_ns) -> None:
        """Fold one chunk of span columns into the totals; ``all_entries``
        is the whole entry column, which parent indices point into."""
        n_entries, n_layers = len(self.names), len(LAYERS)
        entry = entry.astype(np.int64)
        caller = np.full(len(entry), n_entries, dtype=np.int64)
        nested = parent >= 0
        caller[nested] = all_entries[parent[nested]]
        self_f = self_ns.astype(np.float64)
        self.spans += len(entry)
        self.calls += np.bincount(entry, minlength=n_entries)
        self.self_s += np.bincount(entry, weights=self_f, minlength=n_entries) / 1e9
        outer = caller != entry
        self.inclusive_s += np.bincount(entry[outer], weights=dur_ns[outer], minlength=n_entries) / 1e9
        edge = caller * n_entries + entry
        size = (n_entries + 1) * n_entries
        self.edge_calls += np.bincount(edge, minlength=size)
        self.edge_self_s += np.bincount(edge, weights=self_f, minlength=size) / 1e9
        layer_cause = self.entry_layer[entry] * n_layers + cause
        self.cause_s += (
            np.bincount(layer_cause, weights=self_f, minlength=n_layers * n_layers).reshape(n_layers, n_layers)
            / 1e9
        )
        if len(self_ns):
            self.min_self_ns = min(self.min_self_ns, int(self_ns.min()))

    def layer_self_s(self, layer: str) -> float:
        return float(self.cause_s[LAYER_ID[layer]].sum())

    def entry_calls(self, name: str) -> int:
        return int(self.calls[self.names.index(name)]) if name in self.names else 0

    def entry_inclusive_s(self, name: str) -> float:
        return float(self.inclusive_s[self.names.index(name)]) if name in self.names else 0.0

    def layer_calls(self, layer: str) -> int:
        """Calls into ``layer``'s public entry points (not event spans)."""
        lid = LAYER_ID[layer]
        return int(
            sum(
                self.calls[i]
                for i, name in enumerate(self.names)
                if self.entry_layer[i] == lid and not name.startswith("event:")
            )
        )

    def reconciles(self) -> bool:
        """Layer self times plus unattributed time equal the cell's wall
        time, and no span has negative self time."""
        total = float(self.cause_s.sum()) + self.unattributed_s
        return (
            self.min_self_ns >= 0
            and self.unattributed_s >= 0
            and abs(total - self.wall_s) <= 1e-6 * max(1.0, self.wall_s)
        )

    def to_json(self) -> dict:
        n_entries = len(self.names)
        names = self.names + ["<root>"]
        return {
            "wall_s": self.wall_s,
            "spans": self.spans,
            "unattributed_s": self.unattributed_s,
            "entries": [
                {
                    "entry": name,
                    "layer": LAYERS[int(self.entry_layer[i])],
                    "calls": int(self.calls[i]),
                    "self_s": float(self.self_s[i]),
                    "inclusive_s": float(self.inclusive_s[i]),
                }
                for i, name in enumerate(self.names)
                if self.calls[i]
            ],
            "edges": [
                {
                    "caller": names[k // n_entries],
                    "entry": names[k % n_entries],
                    "calls": int(self.edge_calls[k]),
                    "self_s": float(self.edge_self_s[k]),
                }
                for k in np.flatnonzero(self.edge_calls)
            ],
            "self_by_cause": [
                {"layer": LAYERS[a], "caused_by": LAYERS[b], "self_s": float(self.cause_s[a, b])}
                for a, b in zip(*np.nonzero(self.cause_s))
            ],
        }


class Ledger:
    """Records one span per call into a wrapped entry point."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._layers: List[int] = []
        self._event_entries: Dict[object, Callable] = {}
        self._undo: List[Callable[[], None]] = []
        #: Span columns: entry id, parent span index (-1 at the root),
        #: cause layer, self and total nanoseconds.
        self._entry = array("h")
        self._parent = array("i")
        self._cause = array("b")
        self._self = array("q")
        self._dur = array("q")
        #: Open spans as [index, layer, cause, children's ns]; the bottom
        #: frame is the root and sums the outermost spans.
        self._stack: List[list] = [[-1, LAYER_ID["root"], LAYER_ID["root"], 0]]

    def _spanned(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` recording one span per call under a new entry ``name``."""
        self._names.append(name)
        self._layers.append(LAYER_ID[layer])
        entry_id, layer_id = len(self._names) - 1, LAYER_ID[layer]
        entry_arr, parent_arr, cause_arr = self._entry, self._parent, self._cause
        self_arr, dur_arr, stack = self._self, self._dur, self._stack
        clock = _clock

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(entry_arr)
            top = stack[-1]
            cause = top[1] if top[1] != layer_id else top[2]
            entry_arr.append(entry_id)
            parent_arr.append(top[0])
            cause_arr.append(cause)
            self_arr.append(0)
            dur_arr.append(0)
            frame = [idx, layer_id, cause, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                dur_arr[idx] = dur
                self_arr[idx] = dur - frame[3]
                stack[-1][3] += dur

        spanned._perfbench_entry = entry_id
        return spanned

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS` and Algorithm 2,
        and hook event dispatch through the loop's profiler slot."""
        for layer, module_name, class_name, methods in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if class_name is None:
                classes = [
                    obj
                    for obj in vars(module).values()
                    if inspect.isclass(obj) and obj.__module__ == module_name
                ]
            else:
                classes = [getattr(module, class_name)]
            for cls in classes:
                names = methods
                if names is None:
                    names = [
                        n
                        for n, v in vars(cls).items()
                        if not n.startswith("_") and (inspect.isfunction(v) or isinstance(v, property))
                    ]
                for method in names:
                    if method in vars(cls):
                        self._wrap_attr(cls, method, f"{cls.__name__}.{method}", layer)
        layer, module_name, fn_name = ALG2
        self._wrap_attr(importlib.import_module(module_name), fn_name, fn_name, layer)
        self._hook_event_dispatch()

    def _wrap_attr(self, owner, attr: str, name: str, layer: str) -> None:
        value = vars(owner)[attr]
        if isinstance(value, property):
            getter = self._spanned(value.fget, name, layer)
            setattr(owner, attr, property(getter, value.fset, value.fdel, value.__doc__))
        else:
            setattr(owner, attr, self._spanned(value, name, layer))
        self._undo.append(lambda: setattr(owner, attr, value))

    def _hook_event_dispatch(self) -> None:
        """Attach this ledger as the profiler of every loop that runs, so
        callbacks without a public entry point get an event span."""
        from repro.sim.engine import EventLoop

        run = EventLoop.run
        ledger = self

        @functools.wraps(run)
        def run_with_dispatch(loop, *args, **kwargs):
            if loop.profiler is None:
                loop.attach_profiler(ledger)
            return run(loop, *args, **kwargs)

        EventLoop.run = run_with_dispatch
        self._undo.append(lambda: setattr(EventLoop, "run", run))

    def run_event(self, event) -> None:
        """Profiler hook: execute one event, inside an event span unless
        its callback is a wrapped entry point (which records its own)."""
        fn = event.fn
        if getattr(fn, "_perfbench_entry", None) is not None:
            fn(*event.args)
            return
        key = getattr(fn, "__func__", fn)
        call = self._event_entries.get(key)
        if call is None:
            name = "event:" + getattr(fn, "__qualname__", repr(fn))
            call = self._spanned(_call_event, name, _module_layer(getattr(fn, "__module__", None) or ""))
            self._event_entries[key] = call
        call(event)

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- per cell -----------------------------------------------------------
    def end_cell(self, wall_s: float) -> CellLedger:
        """Reduce the spans recorded since the last cell and clear them."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open at the end of a cell")
        root = self._stack[0]
        cell = CellLedger(list(self._names), list(self._layers), wall_s, root[3])
        columns = (
            np.frombuffer(self._entry, dtype=np.int16),
            np.frombuffer(self._parent, dtype=np.int32),
            np.frombuffer(self._cause, dtype=np.int8),
            np.frombuffer(self._self, dtype=np.int64),
            np.frombuffer(self._dur, dtype=np.int64),
        )
        for lo in range(0, len(columns[0]), _CHUNK):
            cell.add(columns[0], *(column[lo : lo + _CHUNK] for column in columns))
        del columns
        for column in (self._entry, self._parent, self._cause, self._self, self._dur):
            del column[:]
        root[3] = 0
        return cell


def _call_event(event) -> None:
    event.fn(*event.args)

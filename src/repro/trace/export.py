"""Trace exporters: Chrome trace-event / Perfetto JSON and CSV.

One trace file carries two layers:

* ``traceEvents`` — the Chrome trace-event array (timestamps already in
  microseconds, the format's native unit), loadable directly in
  `Perfetto <https://ui.perfetto.dev>`_ or ``chrome://tracing``.  Worker
  occupancy renders as duration slices per core, queue/pipeline waits as
  slices per request type, scheduler decisions as instant events, and
  the periodic samples as counter tracks.
* ``repro`` — the lossless native section (versioned): every span,
  decision and sample, plus the Recorder's ledger, so ``repro-observe``
  can re-derive breakdowns and reconciliations from the file alone.

Perfetto ignores unknown top-level keys, so a single file serves both
consumers.  :func:`validate_chrome_trace` is the schema check CI runs on
the smoke trace.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Any, Dict, Iterable, List, Optional

from ..errors import TraceError
from .span import COMPLETE, STAGE_KEYS, Span

#: Native-section schema version; bump on incompatible layout changes.
NATIVE_VERSION = 1

#: Synthetic process ids for the three event lanes.
PID_WORKERS = 0
PID_QUEUES = 1
PID_SCHEDULER = 2

#: Event phases this exporter emits (and the validator accepts).
_KNOWN_PHASES = frozenset({"X", "i", "I", "C", "M", "B", "E"})


# ----------------------------------------------------------------------
# Chrome trace-event construction
# ----------------------------------------------------------------------
def _metadata_events(worker_ids: List[int], type_ids: List[int]) -> List[dict]:
    events: List[dict] = [
        {"ph": "M", "pid": PID_WORKERS, "name": "process_name",
         "args": {"name": "workers"}},
        {"ph": "M", "pid": PID_QUEUES, "name": "process_name",
         "args": {"name": "request pipeline"}},
        {"ph": "M", "pid": PID_SCHEDULER, "name": "process_name",
         "args": {"name": "scheduler"}},
    ]
    for wid in worker_ids:
        events.append(
            {"ph": "M", "pid": PID_WORKERS, "tid": wid, "name": "thread_name",
             "args": {"name": f"worker {wid}"}}
        )
    for tid in type_ids:
        events.append(
            {"ph": "M", "pid": PID_QUEUES, "tid": tid, "name": "thread_name",
             "args": {"name": f"type {tid}"}}
        )
    return events


def _span_events(span: Span) -> List[dict]:
    events: List[dict] = []
    tname = f"type{span.type_id}"
    lane = span.type_id
    # Pipeline + queue + resume waits on the type lane.
    if span.sched_at > span.arrival:
        events.append(
            {"ph": "X", "pid": PID_QUEUES, "tid": lane, "name": "dispatch_pipeline",
             "cat": "wait", "ts": span.arrival, "dur": span.sched_at - span.arrival,
             "args": {"rid": span.rid}}
        )
    prev_end: Optional[float] = None
    for i, s in enumerate(span.slices):
        wait_from = span.sched_at if i == 0 else prev_end
        wait_name = "queue_wait" if i == 0 else "preempt_wait"
        if wait_from is not None and s.begin > wait_from:
            events.append(
                {"ph": "X", "pid": PID_QUEUES, "tid": lane, "name": wait_name,
                 "cat": "wait", "ts": wait_from, "dur": s.begin - wait_from,
                 "args": {"rid": span.rid}}
            )
        end = s.end if s.end is not None else s.begin
        events.append(
            {"ph": "X", "pid": PID_WORKERS, "tid": s.worker_id, "name": tname,
             "cat": "service", "ts": s.begin, "dur": end - s.begin,
             "args": {"rid": span.rid, "end": s.kind or "open"}}
        )
        prev_end = s.end
    if span.terminal is not None and span.terminal != COMPLETE:
        events.append(
            {"ph": "i", "pid": PID_QUEUES, "tid": lane, "name": span.terminal,
             "cat": "drop", "ts": span.terminal_time, "s": "t",
             "args": {"rid": span.rid}}
        )
    return events


def build_trace_events(tracer) -> List[dict]:
    """The Chrome trace-event array for one tracer's recordings."""
    worker_ids: List[int] = []
    type_ids: List[int] = []
    spans = [tracer.spans[rid] for rid in tracer._rid_order]
    seen_w: Dict[int, bool] = {}
    seen_t: Dict[int, bool] = {}
    for span in spans:
        if span.type_id not in seen_t:
            seen_t[span.type_id] = True
            type_ids.append(span.type_id)
        for s in span.slices:
            if s.worker_id not in seen_w:
                seen_w[s.worker_id] = True
                worker_ids.append(s.worker_id)
    events = _metadata_events(sorted(worker_ids), sorted(type_ids))
    for span in spans:
        events.extend(_span_events(span))
    for decision in tracer.decisions:
        events.append(
            {"ph": "i", "pid": PID_SCHEDULER, "tid": 0, "name": decision.kind,
             "cat": "decision", "ts": decision.time, "s": "p",
             "args": decision.payload}
        )
    for sample in tracer.samples:
        events.append(
            {"ph": "C", "pid": PID_SCHEDULER, "name": "queue depth",
             "ts": sample.time, "args": {"pending": sample.pending}}
        )
        events.append(
            {"ph": "C", "pid": PID_SCHEDULER, "name": "workers",
             "ts": sample.time,
             "args": {"busy": sample.busy, "free": sample.free,
                      "failed": sample.failed}}
        )
    return events


# ----------------------------------------------------------------------
# whole-document write / read
# ----------------------------------------------------------------------
def build_document(
    tracer, recorder=None, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Assemble the full trace document (Chrome layer + native layer)."""
    native: Dict[str, Any] = {
        "version": NATIVE_VERSION,
        "meta": dict(meta) if meta else {},
        "spans": [tracer.spans[rid].to_dict() for rid in tracer._rid_order],
        "decisions": [d.to_list() for d in tracer.decisions],
        "samples": [s.to_list() for s in tracer.samples],
        "tail_monitor": tracer.tail_monitor.snapshot(),
        "counters": {
            "spans_opened": tracer.spans_opened,
            "completions": tracer.completions,
            "drops": tracer.drops,
            "dispatcher_drops": tracer.dispatcher_drops,
            "preempt_slices": tracer.preempt_slices,
            "evictions": tracer.evictions,
            "steal_attempts": tracer.steal_attempts,
        },
    }
    if recorder is not None:
        native["recorder"] = {
            "completed": recorder.completed,
            "dropped": recorder.dropped,
            **recorder.orphan_counters(),
        }
        native["reconciliation"] = tracer.reconcile(recorder)
    return {
        "traceEvents": build_trace_events(tracer),
        "displayTimeUnit": "ms",
        "repro": native,
    }


def write_trace(
    path: str, tracer, recorder=None, meta: Optional[Dict[str, Any]] = None
) -> str:
    """Write one tracer's recordings as a Perfetto-loadable JSON file."""
    document = build_document(tracer, recorder=recorder, meta=meta)
    with open(path, "w") as fp:
        json.dump(document, fp, separators=(",", ":"), allow_nan=False)
    return path


class TraceDocument:
    """A parsed trace file (native layer re-hydrated)."""

    def __init__(self, raw: Dict[str, Any]):
        self.raw = raw
        native = raw.get("repro")
        if native is None:
            raise TraceError("trace file has no 'repro' native section")
        version = native.get("version")
        if version != NATIVE_VERSION:
            raise TraceError(
                f"unsupported native trace version {version!r} "
                f"(this build reads {NATIVE_VERSION})"
            )
        self.meta: Dict[str, Any] = native.get("meta", {})
        self.spans: List[Span] = [Span.from_dict(d) for d in native.get("spans", [])]
        self.decisions: List[list] = native.get("decisions", [])
        self.samples: List[list] = native.get("samples", [])
        self.counters: Dict[str, int] = native.get("counters", {})
        self.recorder: Optional[Dict[str, int]] = native.get("recorder")
        self.reconciliation: Optional[Dict[str, Any]] = native.get("reconciliation")
        self.tail_monitor: Dict[str, Any] = native.get("tail_monitor", {})

    @property
    def trace_events(self) -> List[dict]:
        return self.raw.get("traceEvents", [])


def load_trace(path: str) -> TraceDocument:
    """Parse a trace file written by :func:`write_trace`."""
    try:
        with open(path) as fp:
            raw = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        raise TraceError(f"cannot read trace file {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise TraceError(f"trace file {path!r} is not a JSON object")
    return TraceDocument(raw)


# ----------------------------------------------------------------------
# schema validation (the CI gate)
# ----------------------------------------------------------------------
def validate_chrome_trace(document: Any) -> List[str]:
    """Validate the Chrome trace-event layer; returns a list of problems
    (empty = valid).  Checks the structural contract Perfetto's JSON
    importer relies on rather than a full spec: phases, timestamps,
    durations, and lane ids."""
    errors: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' is missing or not an array"]
    if not events:
        errors.append("'traceEvents' is empty")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing event name")
        if not isinstance(event.get("pid"), int):
            errors.append(f"{where}: pid must be an integer")
        if ph == "M":
            if not isinstance(event.get("args"), dict):
                errors.append(f"{where}: metadata event needs args")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: ts must be a number >= 0, got {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: dur must be a number >= 0, got {dur!r}")
            if not isinstance(event.get("tid"), int):
                errors.append(f"{where}: duration event needs an integer tid")
        if ph == "C" and not isinstance(event.get("args"), dict):
            errors.append(f"{where}: counter event needs numeric args")
    return errors


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
_CSV_COLUMNS = [
    "rid", "type_id", "classified_type", "arrival", "sched_at", "terminal",
    "terminal_time", "latency", *STAGE_KEYS, "overhead_us", "n_slices",
    "requeues", "attempt", "retry_of",
]


def spans_to_csv(spans: Iterable[Span], fp: IO[str]) -> int:
    """Flat per-span table; stage columns are empty for non-completed
    attempts (their partition is undefined).  Returns rows written."""
    writer = csv.writer(fp)
    writer.writerow(_CSV_COLUMNS)
    rows = 0
    for span in spans:
        if span.terminal == COMPLETE:
            stages = span.stages()
            latency: Any = span.latency
            stage_values = [stages[key] for key in STAGE_KEYS]
        else:
            latency = ""
            stage_values = ["" for _ in STAGE_KEYS]
        writer.writerow(
            [
                span.rid, span.type_id,
                "" if span.classified_type is None else span.classified_type,
                span.arrival, span.sched_at, span.terminal or "open",
                "" if span.terminal_time is None else span.terminal_time,
                latency, *stage_values, span.overhead_us, len(span.slices),
                span.requeues, span.attempt,
                "" if span.retry_of is None else span.retry_of,
            ]
        )
        rows += 1
    return rows

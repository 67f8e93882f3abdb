"""Per-request span tracing and scheduler-decision observability.

Opt-in and zero-overhead when off: construct a :class:`Tracer`, install
it on a run (``run_once(..., tracer=...)`` or :meth:`Tracer.install`),
and every request's pipeline journey, every DARC reservation decision,
steal attempt, preemption and fault event, plus periodic queue/worker
samples, are recorded against monotonic simulated time.  Export with
:func:`write_trace` (Perfetto-loadable JSON + lossless native layer) or
:func:`spans_to_csv`; analyze with :class:`LatencyBreakdown`
(percentile → per-stage attribution) and :class:`TailMonitor`
(streaming P² tail estimates).  ``repro-observe`` summarizes,
converts and validates trace files.
"""

from .breakdown import LatencyBreakdown, StageBreakdown
from .export import (
    TraceDocument,
    build_document,
    build_trace_events,
    load_trace,
    spans_to_csv,
    validate_chrome_trace,
    write_trace,
)
from .monitor import TailMonitor
from .span import (
    COMPLETE,
    DISPATCHER_DROP,
    DROP,
    STAGE_KEYS,
    TERMINAL_STATES,
    Slice,
    Span,
)
from .tracer import Decision, Tracer, WorkerSample

__all__ = [
    "Tracer",
    "Decision",
    "WorkerSample",
    "Span",
    "Slice",
    "COMPLETE",
    "DROP",
    "DISPATCHER_DROP",
    "TERMINAL_STATES",
    "STAGE_KEYS",
    "LatencyBreakdown",
    "StageBreakdown",
    "TailMonitor",
    "TraceDocument",
    "build_document",
    "build_trace_events",
    "load_trace",
    "spans_to_csv",
    "validate_chrome_trace",
    "write_trace",
]

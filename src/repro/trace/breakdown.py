"""Latency-breakdown analysis: *where* does a percentile live?

The paper's argument is about attribution — short requests lose their
tail to time spent queued behind long requests, not to service itself.
:class:`LatencyBreakdown` makes that attribution explicit: for any
percentile (notably p99.9) it decomposes a run's per-type tail into the
four exact pipeline stages of :meth:`repro.trace.span.Span.stages`:

* ``dispatch_pipeline`` — NIC ingress through dispatcher + classifier;
* ``queue_wait``        — time in the typed queue before first service;
* ``preempt_wait``      — re-queued time between service slices;
* ``service``           — on-core occupancy (including overheads).

Per request the four stages sum to its measured latency exactly, so the
decomposition reconciles against the Recorder's numbers to float
precision.  Tail estimates are gated on
:func:`~repro.metrics.percentiles.tail_credible`, mirroring the summary
layer: a p99.9 over 500 samples is one noisy order statistic, and the
breakdown flags it rather than report it as truth.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..errors import TraceError
from ..metrics.percentiles import percentile, tail_credible
from .span import COMPLETE, STAGE_KEYS, Span


class StageBreakdown:
    """One request type's tail decomposition at a given percentile."""

    def __init__(self, type_id: int, spans: List[Span], pct: float, name: str = ""):
        self.type_id = type_id
        self.name = name or f"type{type_id}"
        self.pct = pct
        self.count = len(spans)
        self.tail_credible = tail_credible(self.count, pct)
        if not spans:
            raise TraceError(f"no completed spans for type {type_id}")
        latencies = np.asarray([s.latency for s in spans], dtype=np.float64)
        self.tail_latency = percentile(latencies, pct)
        self.mean_latency = float(latencies.mean())
        # The request realizing the percentile: the completed span whose
        # latency is nearest the interpolated percentile value.  Its
        # stage decomposition is exact (stages sum to its latency).
        nearest = int(np.argmin(np.abs(latencies - self.tail_latency)))
        self.tail_span = spans[nearest]
        self.tail_stages: Dict[str, float] = self.tail_span.stages()
        #: Mean stage durations over the tail set (latency >= pct value)
        #: — the "what does a tail request's life look like" view.
        tail_mask = latencies >= self.tail_latency
        tail_spans = [s for s, hit in zip(spans, tail_mask) if hit] or [self.tail_span]
        self.tail_mean_stages = _mean_stages(tail_spans)
        #: Mean stage durations over every completed request of the type.
        self.mean_stages = _mean_stages(spans)

    def dominant_stage(self) -> str:
        """The stage holding the largest share of the tail request."""
        return max(STAGE_KEYS, key=lambda k: self.tail_stages[k])

    def to_dict(self) -> dict:
        return {
            "type_id": self.type_id,
            "name": self.name,
            "pct": self.pct,
            "count": self.count,
            "tail_credible": self.tail_credible,
            "tail_latency": self.tail_latency,
            "mean_latency": self.mean_latency,
            "tail_rid": self.tail_span.rid,
            "tail_stages": self.tail_stages,
            "tail_mean_stages": self.tail_mean_stages,
            "mean_stages": self.mean_stages,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StageBreakdown({self.name!r}, p{self.pct}="
            f"{self.tail_latency:.1f}us, dominant={self.dominant_stage()})"
        )


def _mean_stages(spans: List[Span]) -> Dict[str, float]:
    totals = {key: 0.0 for key in STAGE_KEYS}
    for span in spans:
        for key, value in span.stages().items():
            totals[key] += value
    n = len(spans)
    return {key: totals[key] / n for key in STAGE_KEYS}


class LatencyBreakdown:
    """Per-type stage decomposition of a set of completed spans."""

    def __init__(
        self,
        spans: Iterable[Span],
        pct: float = 99.9,
        type_names: Optional[Dict[int, str]] = None,
        warmup_frac: float = 0.0,
    ):
        if not 0.0 <= warmup_frac < 1.0:
            raise TraceError(f"warmup_frac must be in [0,1), got {warmup_frac}")
        completed = [s for s in spans if s.terminal == COMPLETE]
        if warmup_frac > 0.0 and completed:
            completed.sort(key=lambda s: s.arrival)
            completed = completed[int(len(completed) * warmup_frac):]
        self.pct = pct
        self.completed = len(completed)
        names = type_names or {}
        by_type: Dict[int, List[Span]] = {}
        for span in completed:
            by_type.setdefault(span.type_id, []).append(span)
        self.per_type: Dict[int, StageBreakdown] = {
            tid: StageBreakdown(tid, by_type[tid], pct, names.get(tid, ""))
            for tid in sorted(by_type)
        }
        self.overall: Optional[StageBreakdown] = (
            StageBreakdown(-1, completed, pct, "overall") if completed else None
        )

    def verify(self, atol: float = 1e-6) -> None:
        """Assert the stage partition: every type's tail-request stages
        sum to its measured latency within ``atol``.  Raises
        :class:`TraceError` on the first mismatch — used by tests and
        ``repro-observe breakdown``."""
        for tid, bd in self.per_type.items():
            total = sum(bd.tail_stages[k] for k in STAGE_KEYS)
            latency = bd.tail_span.latency
            if abs(total - latency) > atol:
                raise TraceError(
                    f"type {tid}: stage sum {total:.9f}us != latency "
                    f"{latency:.9f}us for rid={bd.tail_span.rid}"
                )

    def render(self) -> str:
        """Human-readable per-type table."""
        lines = [
            f"Latency breakdown at p{self.pct} ({self.completed} completed spans)",
            f"  {'type':<12} {'n':>8} {'p' + format(self.pct, 'g'):>12} "
            f"{'pipeline':>10} {'queue':>10} {'resume':>10} {'service':>10}  stage",
        ]
        for tid in sorted(self.per_type):
            bd = self.per_type[tid]
            s = bd.tail_stages
            cred = "" if bd.tail_credible else "  (tail not credible)"
            lines.append(
                f"  {bd.name:<12} {bd.count:>8} {bd.tail_latency:>12.1f} "
                f"{s['dispatch_pipeline']:>10.2f} {s['queue_wait']:>10.2f} "
                f"{s['preempt_wait']:>10.2f} {s['service']:>10.2f}  "
                f"{bd.dominant_stage()}{cred}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "pct": self.pct,
            "completed": self.completed,
            "per_type": {str(tid): bd.to_dict() for tid, bd in self.per_type.items()},
            "overall": self.overall.to_dict() if self.overall else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LatencyBreakdown(p{self.pct}, types={len(self.per_type)})"

"""Causal blame attribution for tail requests.

For each **victim** — a completed span whose latency sits at or above
its type's configurable percentile — this module answers *who made it
wait*, exactly and reconcilably:

* the **HOL bucket** covers the victim's ``queue_wait`` window
  ``[sched_at, first_slice.begin)``;
* the **preempt-interference bucket** covers the gaps between its
  on-core slices (``preempt_wait``);
* the **pipeline bucket** is the dispatcher delay
  (``dispatch_pipeline``), blamed on the synthetic ``dispatch`` blocker.

Wait windows are attributed over the victim type's **candidate
workers** — the cores that served at least one request of that type
after the warmup horizon (under DARC these are the type's reserved
cores; under work-conserving systems they are all cores).  The horizon
mirrors the §5.1 warmup discard: victims and candidate sets come from
the steady-state tail of the trace (default the last 90%), so DARC's
learning phase — during which every core serves every type — does not
smear the candidate sets or dominate the victim population.  Occupancy
timelines still cover the whole run, because a core held is a core
held regardless of when the blocker started.  Each candidate worker
carries a share of the window proportional to the fraction of the
victim type's steady-state service time it performed — a worker that
ran 95% of the shorts carries 95% of a short victim's wait — split
between the concrete requests occupying it (blamed on the *blocker's*
type) and a synthetic ``idle`` blocker for unoccupied time.  Because
the shares sum to one and occupied and idle time partition every
worker's share, the blame totals reconcile **exactly**::

    sum(hol blame)     == queue_wait
    sum(preempt blame) == preempt_wait
    pipeline blame     == dispatch_pipeline

per victim (checked by :meth:`BlameReport.verify`, mirroring
:meth:`repro.trace.breakdown.LatencyBreakdown.verify`).  This is what
turns the paper's Figure-5 story causal: under Perséphone/DARC, short
victims' candidate cores are short-reserved, so their long-type blame
collapses toward zero, while Shenango/Shinjuku spread both types over
every core and shorts inherit substantial long-type blame.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ForensicsError
from ..trace.span import COMPLETE, Span

#: Default victim threshold: the per-type p99.
DEFAULT_PCT = 99.0

#: Default warmup horizon as a fraction of the trace's time span,
#: mirroring the paper's §5.1 warmup discard: victims and candidate
#: sets come from the steady-state last 90% of the run.
DEFAULT_WARMUP_FRAC = 0.10

#: Synthetic blocker key: candidate-worker time nobody occupied (the
#: non-work-conserving "idling is ideal" share of the wait).
IDLE = "idle"
#: Synthetic blocker key for dispatcher-pipeline delay.
DISPATCH = "dispatch"

#: Per-victim reconciliation tolerance (float summation slack).
DEFAULT_ATOL = 1e-6


def percentile_threshold(values: Sequence[float], pct: float) -> float:
    """The inverted-CDF percentile: smallest value with at least
    ``pct``% of the sample at or below it.  Deterministic, exact on the
    sample, and guarantees at least one victim (the max) per type."""
    if not values:
        raise ForensicsError("percentile of an empty sample")
    ordered = sorted(values)
    index = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[index]


class _WorkerTimeline:
    """One worker's closed slices, sorted for O(log n) overlap queries.

    Worker exclusivity makes the slices disjoint, so both ``begins``
    and ``ends`` are sorted and the slices overlapping ``[a, b)`` form
    one contiguous run.
    """

    __slots__ = ("begins", "ends", "type_ids", "rids")

    def __init__(self, slices: List[Tuple[float, float, int, int]]):
        slices.sort()
        self.begins = [s[0] for s in slices]
        self.ends = [s[1] for s in slices]
        self.type_ids = [s[2] for s in slices]
        self.rids = [s[3] for s in slices]

    def overlaps(self, a: float, b: float):
        """Yield ``(overlap_us, type_id, rid)`` for slices crossing
        ``[a, b)``."""
        lo = bisect_right(self.ends, a)
        hi = bisect_left(self.begins, b)
        for i in range(lo, hi):
            ov = min(self.ends[i], b) - max(self.begins[i], a)
            if ov > 0.0:
                yield ov, self.type_ids[i], self.rids[i]


class VictimBlame:
    """One victim's fully attributed wait time."""

    __slots__ = (
        "rid",
        "type_id",
        "latency",
        "queue_wait",
        "preempt_wait",
        "dispatch_pipeline",
        "hol",
        "preempt",
        "blockers",
    )

    def __init__(self, span: Span, stages: Dict[str, float]):
        self.rid = span.rid
        self.type_id = span.type_id
        self.latency = span.latency
        self.queue_wait = stages["queue_wait"]
        self.preempt_wait = stages["preempt_wait"]
        self.dispatch_pipeline = stages["dispatch_pipeline"]
        #: HOL blame by blocker key (type id or :data:`IDLE`).
        self.hol: Dict[Any, float] = {}
        #: Preempt-interference blame by blocker key.
        self.preempt: Dict[Any, float] = {}
        #: Concrete blocking set: blocker rid -> unweighted overlap us.
        self.blockers: Dict[int, float] = {}

    def reconcile(self) -> Dict[str, float]:
        """Signed residuals of blame totals vs the span stage partition."""
        return {
            "hol": math.fsum(self.hol.values()) - self.queue_wait,
            "preempt": math.fsum(self.preempt.values()) - self.preempt_wait,
        }

    def top_blockers(self, k: int = 10) -> List[Tuple[int, float]]:
        """The ``k`` heaviest concrete blockers (rid, overlap us)."""
        ranked = sorted(self.blockers.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


class BlameReport:
    """Aggregated blame matrices plus the per-victim evidence."""

    def __init__(self, pct: float, warmup_frac: float = DEFAULT_WARMUP_FRAC):
        self.pct = pct
        self.warmup_frac = warmup_frac
        #: Absolute warmup horizon (us): victims arrive at/after this.
        self.horizon_us = 0.0
        #: Per-type victim latency thresholds.
        self.thresholds: Dict[int, float] = {}
        #: Candidate worker ids per type (who served that type in the
        #: steady state, i.e. in a slice beginning at/after the horizon).
        self.candidates: Dict[int, List[int]] = {}
        #: Per-type worker weights (service-time shares summing to 1):
        #: type -> worker id -> fraction of that type's steady service.
        self.candidate_weights: Dict[int, Dict[int, float]] = {}
        self.victims: List[VictimBlame] = []
        #: victim type -> blocker key -> HOL-blocking us.
        self.hol_matrix: Dict[int, Dict[Any, float]] = {}
        #: victim type -> blocker key -> preempt/steal interference us.
        self.preempt_matrix: Dict[int, Dict[Any, float]] = {}
        #: victim type -> dispatcher-pipeline delay us.
        self.pipeline: Dict[int, float] = {}
        #: Observed mean service time per type (short/long labelling).
        self.mean_service: Dict[int, float] = {}
        #: Closed slices scanned while building timelines (bench metric).
        self.slices_indexed = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def victim_types(self) -> List[int]:
        return sorted(self.hol_matrix)

    def n_victims(self, victim_type: Optional[int] = None) -> int:
        if victim_type is None:
            return len(self.victims)
        return sum(1 for v in self.victims if v.type_id == victim_type)

    def total_blame(self, victim_type: int, blocker_key: Any) -> float:
        """HOL + preempt-interference blame for one matrix cell."""
        return self.hol_matrix.get(victim_type, {}).get(
            blocker_key, 0.0
        ) + self.preempt_matrix.get(victim_type, {}).get(blocker_key, 0.0)

    def blocker_share(self, victim_type: int, blocker_key: Any) -> float:
        """``blocker_key``'s fraction of ``victim_type``'s total wait
        blame (HOL + preempt, all blockers incl. idle); 0 when the type
        has no attributed wait."""
        total = math.fsum(
            self.total_blame(victim_type, key)
            for key in self.blocker_keys(victim_type)
        )
        if total <= 0.0:
            return 0.0
        return self.total_blame(victim_type, blocker_key) / total

    def blocker_keys(self, victim_type: int) -> List[Any]:
        keys = set(self.hol_matrix.get(victim_type, {}))
        keys |= set(self.preempt_matrix.get(victim_type, {}))
        return sorted(keys, key=str)

    def short_long_types(self) -> Optional[Tuple[int, int]]:
        """(shortest, longest) type by observed mean service time, or
        None for single-type workloads."""
        if len(self.mean_service) < 2:
            return None
        ordered = sorted(self.mean_service, key=lambda t: self.mean_service[t])
        return ordered[0], ordered[-1]

    # ------------------------------------------------------------------
    # reconciliation
    # ------------------------------------------------------------------
    def verify(self, atol: float = DEFAULT_ATOL) -> None:
        """Assert every victim's blame totals equal its stage partition.

        Raises :class:`~repro.errors.ForensicsError` on the first victim
        whose HOL, preempt, or pipeline blame drifts from the span's
        ``queue_wait + preempt_wait + dispatch_pipeline`` by more than
        ``atol`` — a drift means the attribution lost or invented time.
        """
        for victim in self.victims:
            residuals = victim.reconcile()
            for bucket, residual in residuals.items():
                if abs(residual) > atol:
                    raise ForensicsError(
                        f"victim rid={victim.rid}: {bucket} blame drifts "
                        f"{residual:+.3e}us from its stage partition "
                        f"(tolerance {atol:g})"
                    )

    def reconciliation(self, atol: float = DEFAULT_ATOL) -> Dict[str, Any]:
        """Machine-readable reconciliation digest (never raises)."""
        worst = 0.0
        for victim in self.victims:
            for residual in victim.reconcile().values():
                worst = max(worst, abs(residual))
        return {
            "n_victims": len(self.victims),
            "max_residual_us": worst,
            "atol": atol,
            "ok": worst <= atol,
        }

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    @staticmethod
    def _matrix_dict(matrix: Dict[int, Dict[Any, float]]) -> Dict[str, Dict[str, float]]:
        return {
            str(vt): {str(k): matrix[vt][k] for k in sorted(matrix[vt], key=str)}
            for vt in sorted(matrix)
        }

    def to_dict(self, top_blockers: int = 10) -> Dict[str, Any]:
        return {
            "pct": self.pct,
            "warmup_frac": self.warmup_frac,
            "horizon_us": self.horizon_us,
            "thresholds_us": {str(t): self.thresholds[t] for t in sorted(self.thresholds)},
            "candidates": {str(t): self.candidates[t] for t in sorted(self.candidates)},
            "candidate_weights": {
                str(t): {
                    str(w): self.candidate_weights[t][w]
                    for w in sorted(self.candidate_weights[t])
                }
                for t in sorted(self.candidate_weights)
            },
            "mean_service_us": {
                str(t): self.mean_service[t] for t in sorted(self.mean_service)
            },
            "hol_us": self._matrix_dict(self.hol_matrix),
            "preempt_us": self._matrix_dict(self.preempt_matrix),
            "pipeline_us": {str(t): self.pipeline[t] for t in sorted(self.pipeline)},
            "victims": [
                {
                    "rid": v.rid,
                    "type_id": v.type_id,
                    "latency_us": v.latency,
                    "queue_wait_us": v.queue_wait,
                    "preempt_wait_us": v.preempt_wait,
                    "dispatch_pipeline_us": v.dispatch_pipeline,
                    "top_blockers": [[rid, us] for rid, us in v.top_blockers(top_blockers)],
                }
                for v in self.victims
            ],
            "reconciliation": self.reconciliation(),
            "slices_indexed": self.slices_indexed,
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form (regression pinning)."""
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BlameReport(p{self.pct:g}, victims={len(self.victims)}, "
            f"types={self.victim_types()})"
        )


def _attribute_window(
    a: float,
    b: float,
    weights: Dict[int, float],
    timelines: Dict[int, _WorkerTimeline],
    bucket: Dict[Any, float],
    blockers: Dict[int, float],
) -> None:
    """Split window ``[a, b)`` over the candidate workers into blamed
    occupancy + idle, accumulating into ``bucket`` (keyed by blocker
    type or :data:`IDLE`) and ``blockers`` (keyed by blocker rid).
    ``weights`` maps each candidate worker to its share of the window
    (the type's service-time fractions, summing to 1)."""
    width = b - a
    if width <= 0.0 or not weights:
        return
    for worker in sorted(weights):
        share = weights[worker]
        timeline = timelines.get(worker)
        occupied = 0.0
        if timeline is not None:
            for ov, blocker_type, blocker_rid in timeline.overlaps(a, b):
                occupied += ov
                bucket[blocker_type] = bucket.get(blocker_type, 0.0) + ov * share
                blockers[blocker_rid] = blockers.get(blocker_rid, 0.0) + ov
        idle = width - occupied
        if idle != 0.0:
            bucket[IDLE] = bucket.get(IDLE, 0.0) + idle * share


def analyze_blame(
    spans: Sequence[Span],
    pct: float = DEFAULT_PCT,
    warmup_frac: float = DEFAULT_WARMUP_FRAC,
) -> BlameReport:
    """Build the blame report for one run's spans.

    ``spans`` is the native trace section (completed and not); victims
    are completed spans at or above their type's ``pct`` latency
    percentile, drawn from the **steady state**: the earliest-arriving
    ``warmup_frac`` of completions is discarded first, exactly mirroring
    :meth:`repro.metrics.recorder.CompletionColumns.after_warmup` (§5.1).
    Candidate sets use only slices beginning at/after the first kept
    arrival, so DARC's learning phase — when every core still serves
    every type — does not smear them; a type whose service lies entirely
    in the warmup falls back to its whole-run candidates.  Occupancy
    timelines include **every** closed slice — also warmup-era slices
    and those of requests that later dropped or were evicted — because
    a core held is a core held.  Still-open slices (in flight at trace
    capture) are treated as unoccupied time, which books their overlap
    as ``idle`` without breaking the exact reconciliation.
    """
    if not 0.0 < pct < 100.0:
        raise ForensicsError(f"pct must be in (0, 100), got {pct}")
    if not 0.0 <= warmup_frac < 1.0:
        raise ForensicsError(f"warmup_frac must be in [0, 1), got {warmup_frac}")
    report = BlameReport(pct, warmup_frac)

    # Occupancy timelines + completions (whole run).
    per_worker: Dict[int, List[Tuple[float, float, int, int]]] = {}
    completed: List[Span] = []
    for span in spans:
        for s in span.slices:
            if s.end is None:
                continue
            per_worker.setdefault(s.worker_id, []).append(
                (s.begin, s.end, span.type_id, span.rid)
            )
            report.slices_indexed += 1
        if span.terminal == COMPLETE and span.slices:
            completed.append(span)
    if not completed:
        raise ForensicsError("no completed spans to analyze")

    # §5.1 warmup discard: drop the earliest-arriving warmup_frac of
    # completions; the horizon is the first kept arrival.
    completed.sort(key=lambda s: (s.sched_at, s.rid))
    kept = completed[int(len(completed) * warmup_frac):]
    report.horizon_us = kept[0].sched_at

    # Candidate workers weighted by steady-state service time (whole-run
    # fallback for types whose service lies entirely in the warmup).
    steady: Dict[int, Dict[int, float]] = {}
    whole: Dict[int, Dict[int, float]] = {}
    for worker, slices in per_worker.items():
        for begin, end, type_id, _rid in slices:
            row = whole.setdefault(type_id, {})
            row[worker] = row.get(worker, 0.0) + (end - begin)
            if begin >= report.horizon_us:
                row = steady.setdefault(type_id, {})
                row[worker] = row.get(worker, 0.0) + (end - begin)
    for type_id, fallback in whole.items():
        served = steady.get(type_id) or fallback
        total = math.fsum(served.values())
        report.candidates[type_id] = sorted(served)
        if total > 0.0:
            report.candidate_weights[type_id] = {
                w: us / total for w, us in served.items()
            }
        else:  # zero-length slices only: equal shares keep the sum at 1
            report.candidate_weights[type_id] = {
                w: 1.0 / len(served) for w in served
            }

    latencies: Dict[int, List[float]] = {}
    service_sums: Dict[int, Tuple[float, int]] = {}
    for span in kept:
        latencies.setdefault(span.type_id, []).append(span.latency)
        total, count = service_sums.get(span.type_id, (0.0, 0))
        service_sums[span.type_id] = (total + span.service_time, count + 1)
    timelines = {w: _WorkerTimeline(slices) for w, slices in per_worker.items()}
    report.mean_service = {
        t: total / count for t, (total, count) in service_sums.items()
    }
    report.thresholds = {
        t: percentile_threshold(values, pct) for t, values in latencies.items()
    }

    for span in kept:
        if span.latency < report.thresholds[span.type_id]:
            continue
        stages = span.stages()
        victim = VictimBlame(span, stages)
        weights = report.candidate_weights.get(span.type_id, {})
        first_begin = span.slices[0].begin
        _attribute_window(
            span.sched_at, first_begin, weights, timelines, victim.hol, victim.blockers
        )
        prev_end = None
        for s in span.slices:
            if prev_end is not None and s.begin > prev_end:
                _attribute_window(
                    prev_end, s.begin, weights, timelines,
                    victim.preempt, victim.blockers,
                )
            prev_end = s.end
        report.victims.append(victim)
        hol_row = report.hol_matrix.setdefault(span.type_id, {})
        for key, value in victim.hol.items():
            hol_row[key] = hol_row.get(key, 0.0) + value
        preempt_row = report.preempt_matrix.setdefault(span.type_id, {})
        for key, value in victim.preempt.items():
            preempt_row[key] = preempt_row.get(key, 0.0) + value
        report.pipeline[span.type_id] = (
            report.pipeline.get(span.type_id, 0.0) + victim.dispatch_pipeline
        )
        # Every victim type owns a matrix row even if it never waited.
        report.hol_matrix.setdefault(span.type_id, {})
        report.preempt_matrix.setdefault(span.type_id, {})
    return report


def render_blame(report: BlameReport, type_names: Optional[Dict[int, str]] = None) -> str:
    """Human-readable blame matrices (the ``repro-observe blame`` text)."""
    names = type_names or {}

    def label(key: Any) -> str:
        if isinstance(key, int):
            return names.get(key, f"type{key}")
        return str(key)

    lines = [
        f"Blame report (victims at/above per-type p{report.pct:g}; "
        f"{len(report.victims)} victims; warmup {report.warmup_frac:g} "
        f"-> horizon {report.horizon_us:.1f}us)"
    ]
    for vt in report.victim_types():
        weights = report.candidate_weights.get(vt, {})
        top = sorted(weights, key=lambda w: (-weights[w], w))[:3]
        top_text = ", ".join(f"w{w}={weights[w]:.2f}" for w in top)
        lines.append(
            f"  victim {label(vt)} (n={report.n_victims(vt)}, "
            f"threshold {report.thresholds.get(vt, float('nan')):.1f}us, "
            f"{len(report.candidates.get(vt, []))} candidates: {top_text})"
        )
        for key in report.blocker_keys(vt):
            hol = report.hol_matrix.get(vt, {}).get(key, 0.0)
            pre = report.preempt_matrix.get(vt, {}).get(key, 0.0)
            share = report.blocker_share(vt, key)
            lines.append(
                f"    blocked by {label(key):12s} "
                f"hol={hol:12.2f}us  preempt={pre:10.2f}us  "
                f"share={share * 100:5.1f}%"
            )
        lines.append(
            f"    pipeline delay {report.pipeline.get(vt, 0.0):.2f}us (dispatch)"
        )
    recon = report.reconciliation()
    lines.append(
        f"  reconciliation: max residual {recon['max_residual_us']:.3e}us "
        f"({'exact' if recon['ok'] else 'BROKEN'})"
    )
    return "\n".join(lines)

"""Herding detection over the rack balancer decision log.

A stale-view balancer (RackSched-style piggybacked state) has a failure
mode the mean hides: every arrival inside one staleness window sees the
*same* snapshot, so they all pick the same "least-loaded" replica — a
synchronized-choice **burst** that stampedes one server while the rest
idle.  PR 8's rack sweeps showed ``jsq-stale`` losing to power-of-two
for exactly this reason; this module makes the mechanism measurable.

Input is the ``route`` decision log :class:`repro.rack.tracing.RackTracer`
records (replica chosen, view age, viewed vs actual load).  A **burst**
is a maximal run of consecutive decisions routed to the same replica.
Under a fresh view, routing to a replica raises its load and the next
arrival usually goes elsewhere, so bursts stay near the ~N/(N-1)
random-choice baseline; under a stale view, bursts stretch to roughly
``arrival_rate × staleness`` decisions.  The detector flags a balancer
when the fraction of decisions inside bursts of at least ``burst_min``
crosses ``flag_fraction`` — thresholds far above any fresh-view
balancer and far below a genuinely herding one, locked by tests on the
oracle-vs-50µs ``jsq-stale`` pair.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ForensicsError

#: A burst must reach this many same-replica decisions to count.
DEFAULT_BURST_MIN = 8

#: Flag when this fraction of decisions sits inside counted bursts.
DEFAULT_FLAG_FRACTION = 0.25


class Burst:
    """One maximal run of same-replica routing decisions."""

    __slots__ = ("start", "end", "replica", "length", "stale_count")

    def __init__(self, start: float, replica: int):
        self.start = start
        self.end = start
        self.replica = replica
        self.length = 0
        #: Decisions in the burst made from a stale (aged) view.
        self.stale_count = 0

    def to_list(self) -> list:
        return [self.start, self.end, self.replica, self.length, self.stale_count]


class HerdingReport:
    """Burst statistics + the herding verdict for one decision log."""

    def __init__(
        self,
        bursts: List[Burst],
        n_routes: int,
        n_replicas: int,
        stale_routes: int,
        burst_min: int,
        flag_fraction: float,
    ):
        self.bursts = bursts
        self.n_routes = n_routes
        self.n_replicas = n_replicas
        self.stale_routes = stale_routes
        self.burst_min = burst_min
        self.flag_fraction = flag_fraction

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def max_burst(self) -> int:
        return max((b.length for b in self.bursts), default=0)

    @property
    def mean_burst(self) -> float:
        if not self.bursts:
            return 0.0
        return self.n_routes / len(self.bursts)

    @property
    def herding_fraction(self) -> float:
        """Fraction of decisions inside bursts of >= ``burst_min``."""
        if self.n_routes == 0:
            return 0.0
        herded = sum(b.length for b in self.bursts if b.length >= self.burst_min)
        return herded / self.n_routes

    @property
    def stale_fraction(self) -> float:
        if self.n_routes == 0:
            return 0.0
        return self.stale_routes / self.n_routes

    @property
    def flagged(self) -> bool:
        return self.herding_fraction >= self.flag_fraction

    def to_dict(self, max_bursts: int = 200) -> Dict[str, Any]:
        """JSON digest; the timeline keeps the ``max_bursts`` longest
        bursts (time-ordered) so reports stay bounded."""
        keep = sorted(
            sorted(self.bursts, key=lambda b: (-b.length, b.start))[:max_bursts],
            key=lambda b: b.start,
        )
        return {
            "n_routes": self.n_routes,
            "n_replicas": self.n_replicas,
            "n_bursts": len(self.bursts),
            "max_burst": self.max_burst,
            "mean_burst": self.mean_burst,
            "burst_min": self.burst_min,
            "flag_fraction": self.flag_fraction,
            "herding_fraction": self.herding_fraction,
            "stale_fraction": self.stale_fraction,
            "flagged": self.flagged,
            "bursts": [b.to_list() for b in keep],
        }

    def digest(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HerdingReport(routes={self.n_routes}, max_burst={self.max_burst}, "
            f"herding={self.herding_fraction:.2f}, flagged={self.flagged})"
        )


def _route_rows(decisions: Sequence[Any]) -> List[Tuple[float, Dict[str, Any]]]:
    """Normalize decision entries to ``(time, payload)`` route rows.

    Accepts both live :class:`~repro.trace.tracer.Decision` objects and
    the exported ``[time, kind, payload]`` list form.
    """
    rows: List[Tuple[float, Dict[str, Any]]] = []
    for entry in decisions:
        if isinstance(entry, (list, tuple)):
            if len(entry) != 3:
                continue
            time, kind, payload = entry
        else:
            time, kind, payload = entry.time, entry.kind, entry.payload
        if kind == "route" and isinstance(payload, dict):
            rows.append((float(time), payload))
    return rows


def detect_herding(
    decisions: Sequence[Any],
    burst_min: int = DEFAULT_BURST_MIN,
    flag_fraction: float = DEFAULT_FLAG_FRACTION,
) -> HerdingReport:
    """Scan a decision log for synchronized-choice bursts.

    ``decisions`` may be a full decision log (non-``route`` entries are
    ignored) or just the route entries.  Raises
    :class:`~repro.errors.ForensicsError` when the log carries no route
    decisions at all — herding over a single-server trace is undefined,
    not zero.
    """
    if burst_min < 2:
        raise ForensicsError(f"burst_min must be >= 2, got {burst_min}")
    if not 0.0 < flag_fraction <= 1.0:
        raise ForensicsError(
            f"flag_fraction must be in (0, 1], got {flag_fraction}"
        )
    rows = _route_rows(decisions)
    if not rows:
        raise ForensicsError(
            "no 'route' decisions in this trace; herding analysis needs a "
            "rack trace (run with --trace on the rack experiment)"
        )
    bursts: List[Burst] = []
    current: Optional[Burst] = None
    replicas = set()
    stale_routes = 0
    for time, payload in rows:
        replica = int(payload.get("replica", -1))
        stale = bool(payload.get("stale", False))
        replicas.add(replica)
        stale_routes += stale
        if current is None or replica != current.replica:
            current = Burst(time, replica)
            bursts.append(current)
        current.length += 1
        current.end = time
        current.stale_count += stale
    return HerdingReport(
        bursts,
        n_routes=len(rows),
        n_replicas=len(replicas),
        stale_routes=stale_routes,
        burst_min=burst_min,
        flag_fraction=flag_fraction,
    )


def render_herding(report: HerdingReport, balancer: Optional[str] = None) -> str:
    """Human-readable herding verdict (``repro-observe herding``)."""
    label = f" [{balancer}]" if balancer else ""
    verdict = "HERDING" if report.flagged else "no herding"
    lines = [
        f"Herding report{label}: {verdict}",
        f"  routes            {report.n_routes} over {report.n_replicas} replicas",
        f"  bursts            {len(report.bursts)} "
        f"(mean {report.mean_burst:.2f}, max {report.max_burst})",
        f"  herding fraction  {report.herding_fraction * 100:.1f}% of decisions "
        f"in bursts >= {report.burst_min} (flag at "
        f"{report.flag_fraction * 100:.0f}%)",
        f"  stale fraction    {report.stale_fraction * 100:.1f}% of decisions "
        "made from an aged view",
    ]
    longest = sorted(report.bursts, key=lambda b: (-b.length, b.start))[:5]
    for b in longest:
        if b.length < report.burst_min:
            break
        lines.append(
            f"    burst: replica {b.replica} x{b.length} "
            f"[{b.start:.1f}us .. {b.end:.1f}us] "
            f"({b.stale_count} stale)"
        )
    return "\n".join(lines)

"""Open-loop request generator driving a simulated server.

:class:`OpenLoopGenerator` is the simulation counterpart of the paper's
C++ client: it schedules Poisson (or other) arrivals on the event loop
and hands each new :class:`~repro.workload.request.Request` to a *sink*
(the server's ingress).  It is open loop — generation never waits for the
server — which is exactly what makes tail latency blow up at overload.

The generator supports live reconfiguration (``set_spec`` / ``set_rate``)
so the Fig. 7 phase-change experiment can mutate the workload mid-run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from ..errors import WorkloadError
from ..sim.engine import EventLoop
from .arrivals import ArrivalProcess, PoissonArrivals
from .request import Request
from .spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.randomness import RngRegistry
    from .phases import Phase
    from .trace import Trace

Sink = Callable[[Request], None]


class OpenLoopGenerator:
    """Generates requests into ``sink`` until ``limit`` or ``stop()``.

    Parameters
    ----------
    loop:
        The event loop to schedule arrivals on.
    spec:
        The workload mixture to sample types and service times from.
    process:
        The arrival process; typically :class:`PoissonArrivals`.
    sink:
        Called with each new request at its arrival instant.
    type_rng, service_rng, arrival_rng:
        Independent random streams so that (for variance reduction across
        compared policies) identical seeds yield identical request
        sequences regardless of how the server consumes randomness.
    limit:
        Stop after this many requests (None = unbounded; use ``stop()``).
    """

    def __init__(
        self,
        loop: EventLoop,
        spec: WorkloadSpec,
        process: ArrivalProcess,
        sink: Sink,
        type_rng: np.random.Generator,
        service_rng: np.random.Generator,
        arrival_rng: np.random.Generator,
        limit: Optional[int] = None,
    ):
        self.loop = loop
        self.spec = spec
        self.process = process
        self.sink = sink
        self._type_rng = type_rng
        self._service_rng = service_rng
        self._arrival_rng = arrival_rng
        self.limit = limit
        self.generated = 0
        self._running = False
        self._next_event = None

    def start(self) -> None:
        """Arm the first arrival."""
        if self._running:
            raise WorkloadError("generator already started")
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Cancel any pending arrival; no further requests are produced."""
        self._running = False
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None

    def set_spec(self, spec: WorkloadSpec) -> None:
        """Swap the workload mixture for subsequent arrivals (Fig. 7)."""
        self.spec = spec

    def set_rate(self, rate: float) -> None:
        """Change the arrival rate (req/us) for subsequent arrivals.

        Only supported for Poisson processes, which are memoryless so the
        change is statistically clean mid-run.
        """
        if not isinstance(self.process, PoissonArrivals):
            raise WorkloadError("set_rate requires a PoissonArrivals process")
        self.process = PoissonArrivals(rate)

    def _schedule_next(self) -> None:
        if not self._running:
            return
        if self.limit is not None and self.generated >= self.limit:
            self._running = False
            return
        gap = self.process.inter_arrival(self._arrival_rng)
        self._next_event = self.loop.call_after(gap, self._emit)

    def _emit(self) -> None:
        self._next_event = None
        if not self._running:
            return
        type_id = self.spec.sample_type(self._type_rng)
        service = self.spec.sample_service(type_id, self._service_rng)
        request = Request(
            rid=self.generated,
            type_id=type_id,
            arrival_time=self.loop.now,
            service_time=service,
        )
        self.generated += 1
        self.sink(request)
        self._schedule_next()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OpenLoopGenerator(spec={self.spec.name!r}, process={self.process!r}, "
            f"generated={self.generated})"
        )


def start_load(
    loop: EventLoop,
    spec: WorkloadSpec,
    sink: Sink,
    rngs: "RngRegistry",
    rate: float,
    n_requests: int,
    n_workers: int,
    phases: Optional[Sequence["Phase"]] = None,
    trace: Optional["Trace"] = None,
) -> None:
    """Start one run's load source, feeding ``sink``.

    A recorded ``trace`` is replayed verbatim.  Otherwise an open-loop
    Poisson stream at ``rate`` draws from ``rngs``' ``types``,
    ``service`` and ``arrivals`` streams: ``n_requests`` arrivals, or,
    with ``phases``, arrivals until the last phase ends, each phase
    re-deriving the rate over ``n_workers`` cores.
    """
    if trace is not None:
        from .trace import TraceReplayer

        TraceReplayer(loop, trace, sink).start()
        return
    generator = OpenLoopGenerator(
        loop,
        spec,
        PoissonArrivals(rate),
        sink,
        type_rng=rngs.stream("types"),
        service_rng=rngs.stream("service"),
        arrival_rng=rngs.stream("arrivals"),
        limit=None if phases is not None else n_requests,
    )
    generator.start()
    if phases is not None:
        from .phases import PhaseSchedule

        schedule = PhaseSchedule(loop, generator, list(phases), n_workers)
        schedule.start()
        loop.call_at(schedule.total_duration_us, generator.stop)

"""Scheduler interface and policy metadata.

Every scheduling policy implements :class:`Scheduler`.  The server calls
``on_request`` when a request reaches the dispatcher and the base class
routes completions back through ``on_worker_free``.  Non-preemptive
policies only ever use :meth:`Scheduler.begin_service`; preemptive ones
(time sharing, SRPT) manage their own slice events.  Every policy
finishes a request through :meth:`Scheduler._complete`, which fires the
``on_complete`` hooks and the recorder callback.

:class:`PolicyTraits` captures the taxonomy of Table 1 / Table 5 so the
table-reproduction benchmarks can generate those rows from code instead
of hand-writing them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import SchedulingError
from ..observe import NO_HOOKS
from ..server.worker import Worker
from ..sim.engine import EventLoop
from ..sim.events import Event
from ..workload.request import Request

CompletionCallback = Callable[[Request], None]
DropCallback = Callable[[Request], None]


@dataclass(frozen=True)
class PolicyTraits:
    """Taxonomy bits from the paper's Table 1 and Table 5."""

    name: str
    app_aware: bool
    typed_queues: bool
    work_conserving: bool
    preemptive: bool
    prevents_hol_blocking: bool
    ideal_workload: str = ""
    example_system: str = ""
    comments: str = ""


class Scheduler(ABC):
    """Base class for all scheduling policies.

    Lifecycle: construct, then :meth:`bind` to an event loop and worker
    set, then feed requests via :meth:`on_request`.  ``on_complete`` /
    ``on_drop`` callbacks go to the metrics recorder.
    """

    traits: PolicyTraits

    def __init__(self) -> None:
        self.loop: Optional[EventLoop] = None
        self.workers: List[Worker] = []
        self._on_complete: Optional[CompletionCallback] = None
        self._on_drop: Optional[DropCallback] = None
        self._bound = False
        #: The run's request-hook table (:mod:`repro.observe`); every
        #: hook site loops over one of its tuples.
        self.hooks = NO_HOOKS
        #: worker_id -> the pending service event (completion, quantum
        #: boundary, ...) for the request currently on that core.  Fault
        #: injection cancels this event when the core crashes mid-service.
        self._service_events: Dict[int, Event] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(
        self,
        loop: EventLoop,
        workers: List[Worker],
        on_complete: CompletionCallback,
        on_drop: Optional[DropCallback] = None,
    ) -> None:
        """Attach the policy to its execution environment."""
        if self._bound:
            raise SchedulingError(f"{type(self).__name__} already bound")
        if not workers:
            raise SchedulingError("need at least one worker")
        self.loop = loop
        self.workers = workers
        self._on_complete = on_complete
        self._on_drop = on_drop
        self._bound = True
        self.on_bound()

    def on_bound(self) -> None:
        """Hook for subclasses to build per-worker state after binding."""

    def attach_hooks(self, hooks) -> None:
        """Install the run's request-hook table.

        Subclasses with additional observable components (DARC's
        classifier) override this to forward the table to them.
        """
        self.hooks = hooks

    # ------------------------------------------------------------------
    # the policy surface
    # ------------------------------------------------------------------
    @abstractmethod
    def on_request(self, request: Request) -> None:
        """A request reached the dispatcher; enqueue and/or dispatch it."""

    @abstractmethod
    def on_worker_free(self, worker: Worker) -> None:
        """``worker`` finished a request; give it more work if any."""

    def pending_count(self) -> int:
        """Number of requests currently queued (not being served).

        Subclasses with queues should override; used by idle detection
        and CPU-waste accounting.
        """
        return 0

    # ------------------------------------------------------------------
    # service helpers for non-preemptive policies
    # ------------------------------------------------------------------
    def schedule_service_event(
        self, worker: Worker, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule a service-lifecycle event for ``worker`` and remember
        it so a crash can cancel it.  All policies must book the events
        that advance an in-flight request through this helper."""
        assert self.loop is not None
        event = self.loop.call_after(delay, fn, *args)
        self._service_events[worker.worker_id] = event
        return event

    def begin_service(self, worker: Worker, request: Request) -> None:
        """Run ``request`` to completion on ``worker`` (non-preemptive)."""
        assert self.loop is not None
        now = self.loop.now
        request.dispatch_time = now
        worker.begin(request, now)
        for hook in self.hooks.on_dispatch:
            hook(request, worker)
        occupancy = request.remaining_time * worker.speed_factor
        if worker.speed_factor != 1.0:
            # A straggling core holds the request longer than its nominal
            # service time; the surplus is degradation, not useful work.
            request.overhead_time += occupancy - request.remaining_time
        self.schedule_service_event(worker, occupancy, self._complete, worker, request)

    def _complete(self, worker: Worker, request: Request, overhead: float = 0.0) -> None:
        """Finish ``request`` on ``worker``: the one completion path every
        policy ends a request through.  ``overhead`` is the share of the
        busy interval that was scheduling overhead (a work steal's cost)."""
        assert self.loop is not None
        now = self.loop.now
        self._service_events.pop(worker.worker_id, None)
        worker.end(now, overhead=overhead)
        worker.completed += 1
        request.remaining_time = 0.0
        request.finish_time = now
        for hook in self.hooks.on_complete:
            hook(request, worker)
        if self._on_complete is not None:
            self._on_complete(request)
        self.completion_hook(worker, request)
        self.on_worker_free(worker)

    def completion_hook(self, worker: Worker, request: Request) -> None:
        """Subclass hook invoked on completion before the worker is reused
        (DARC uses it for profiling)."""

    def drop(self, request: Request) -> None:
        """Flow control: reject ``request`` (bounded queue overflow)."""
        request.dropped = True
        for hook in self.hooks.on_drop:
            hook(request)
        if self._on_drop is not None:
            self._on_drop(request)

    # ------------------------------------------------------------------
    # fault handling (repro.faults drives these)
    # ------------------------------------------------------------------
    def on_worker_crash(self, worker: Worker, requeue: bool = True) -> Optional[Request]:
        """``worker`` died.  Abort its in-flight request (progress is
        lost), then requeue the victim through the normal arrival path or
        drop it, per policy.  Returns the victim, if any.

        Subclasses with extra per-worker service state (e.g. overdue
        timers) must clear it before delegating here.
        """
        assert self.loop is not None
        victim: Optional[Request] = None
        if worker.current is not None:
            event = self._service_events.pop(worker.worker_id, None)
            if event is not None:
                event.cancel()
            victim = worker.end(self.loop.now)
            for hook in self.hooks.on_evict:
                hook(victim, worker, requeue)
            # The crashed attempt is wasted occupancy, not service.
            victim.worker_id = None
            victim.dispatch_time = None
            victim.remaining_time = victim.service_time
        worker.fail()
        self.on_capacity_change()
        if victim is not None:
            if requeue:
                self.on_request(victim)
            else:
                self.drop(victim)
        return victim

    def on_worker_recover(self, worker: Worker) -> None:
        """A crashed core came back (clean restart, full speed)."""
        if not worker.failed:
            return
        worker.recover()
        self.on_capacity_change()
        self.on_worker_free(worker)

    def on_capacity_change(self) -> None:
        """Hook: the set of usable workers changed (crash/recover).

        The default policy reaction is nothing — dead cores are skipped
        because they are never free.  Capacity-aware policies (DARC)
        override this to re-partition the surviving cores.
        """

    def available_workers(self) -> List[Worker]:
        """Workers that have not crashed (busy or idle)."""
        return [w for w in self.workers if not w.failed]

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def free_workers(self) -> List[Worker]:
        return [w for w in self.workers if w.is_free]

    def first_free_worker(self) -> Optional[Worker]:
        for w in self.workers:
            if w.is_free:
                return w
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(workers={len(self.workers)})"

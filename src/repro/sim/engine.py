"""The discrete-event simulation engine.

:class:`EventLoop` is a classic calendar/heap-based discrete-event
executor.  Time is a ``float`` in *simulated microseconds* — the natural
unit for the microsecond-scale scheduling this package studies.

Design notes
------------
* Events fire strictly in ``(time, insertion order)`` order, so two events
  scheduled for the same instant run in the order they were scheduled.
  This determinism matters: scheduling policies make tie-breaking
  decisions (e.g. "which worker became idle first") that must be stable
  across runs with the same seed.
* Cancellation is lazy: cancelled events stay in the heap and are skipped
  when popped.  This keeps ``cancel`` O(1), which matters for preemption
  timers that are cancelled far more often than they fire.
* The heap stores ``(time, seq, event)`` tuples rather than bare
  :class:`~repro.sim.events.Event` objects.  Tuple comparison runs in C;
  comparing events via ``Event.__lt__`` was the single hottest function
  in a profile (one Python call per sift step per push/pop).  The
  ordering is identical — ``Event.__lt__`` uses the same ``(time, seq)``
  key — and :meth:`peek_event` still hands callers the event object.
* The loop never moves time backwards; scheduling in the past raises
  :class:`~repro.errors.SimulationError` instead of silently reordering
  history.
* Observers register through :meth:`EventLoop.attach_observer`.  The
  call copies each observer's optional ``before_event(loop, event)``,
  ``after_event(loop, event)`` and ``on_drain(loop)`` bound methods into
  per-hook tuples, in attach order; :meth:`run` calls them directly
  around every executed event (and once when the heap drains).  A bare
  run pays one empty-tuple test before and after each event.  Observers
  — the :class:`~repro.lint.sanitizer.SimSanitizer`, the
  :class:`~repro.trace.tracer.Tracer` and the
  :class:`~repro.telemetry.probe.TelemetryProbe` — read simulated state
  but never schedule events, draw randomness or mutate state, so the
  heap contents, and therefore the simulated outcome, are identical
  with or without them.  :mod:`repro.observe` builds and attaches them
  for every run entry point.
* An optional wall-clock profiler (:meth:`EventLoop.attach_profiler`)
  wraps event execution; perfbench's per-layer ledger
  (``perfbench/ledger.py``, ``--trace 1``) attaches through it to time
  event callbacks that have no public entry point.  It too leaves the
  heap untouched.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from ..errors import SimulationError
from .events import Event


class EventLoop:
    """A deterministic discrete-event executor.

    Example
    -------
    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.call_at(5.0, fired.append, "b")
    >>> _ = loop.call_at(1.0, fired.append, "a")
    >>> loop.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self, start_time: float = 0.0):
        if start_time < 0:
            raise SimulationError(f"start_time must be >= 0, got {start_time}")
        self._now = float(start_time)
        self._heap: list = []
        self._seq = 0
        self._events_processed = 0
        self._running = False
        self._stopped = False
        self._observers: tuple = ()
        self._before_event: tuple = ()
        self._after_event: tuple = ()
        self._on_drain: tuple = ()
        self._profiler = None

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._events_processed

    @property
    def pending_count(self) -> int:
        """Number of events still in the heap, including cancelled ones."""
        return len(self._heap)

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation ``time``.

        Returns the :class:`Event`, whose :meth:`~Event.cancel` method
        revokes the callback if it has not yet fired.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.3f} before now={self._now:.3f}"
            )
        seq = self._seq
        event = Event(time, seq, fn, args)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` microseconds from now.

        Inlined rather than delegating to :meth:`call_at`: this is the
        dominant scheduling entry point (one call per arrival and per
        service completion) and ``delay >= 0`` already implies the
        not-in-the-past invariant ``call_at`` would re-check.
        """
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        time = self._now + delay
        seq = self._seq
        event = Event(time, seq, fn, args)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    @property
    def observers(self) -> tuple:
        """The registered observers, in attach order."""
        return self._observers

    def attach_observer(self, observer) -> None:
        """Register a pure observer notified around every executed event.

        The loop looks up the observer's optional hooks once, here, and
        keeps the bound methods in attach order:

        * ``before_event(loop, event)`` — after the event is popped,
          before the clock advances to its time;
        * ``after_event(loop, event)`` — after the event's callback ran;
        * ``on_drain(loop)`` — when :meth:`run` returns with no live
          event left in the heap.

        An observer must not schedule events, draw randomness or mutate
        simulated state.  Registering the same object twice raises.
        """
        if any(o is observer for o in self._observers):
            raise SimulationError(f"{type(observer).__name__} already attached to this loop")
        self._observers += (observer,)
        before = getattr(observer, "before_event", None)
        if before is not None:
            self._before_event += (before,)
        after = getattr(observer, "after_event", None)
        if after is not None:
            self._after_event += (after,)
        on_drain = getattr(observer, "on_drain", None)
        if on_drain is not None:
            self._on_drain += (on_drain,)

    @property
    def profiler(self):
        """The attached wall-clock profiler (perfbench's ledger), or None."""
        return self._profiler

    def attach_profiler(self, profiler) -> None:
        """Install a wall-clock profiler that wraps event execution.

        The profiler measures the *simulator's* wall-clock cost per
        handler type; it executes each event via
        ``profiler.run_event(event)`` instead of a direct call but
        never touches simulated state.  Pass ``None`` to detach;
        attaching over a different profiler raises.
        """
        if profiler is not None and self._profiler is not None and profiler is not self._profiler:
            raise SimulationError("a profiler is already attached to this loop")
        self._profiler = profiler

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the heap is drained."""
        event = self.peek_event()
        return event.time if event is not None else None

    def peek_event(self) -> Optional[Event]:
        """The next pending non-cancelled event, or None when drained.

        This is how a sanitizer in shadow mode detects same-timestamp
        *sibling* events: inside a callback (or the sanitizer hooks
        around it) the event being executed has already been popped, so
        the peeked event is the one that will fire next — if its time
        equals the current event's time, the two are an insertion-order
        tie.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][2] if heap else None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have executed.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` on return even if the last event fired earlier, so
        measurements of "simulated duration" are exact.

        Returns the simulation time at exit.
        """
        if self._running:
            raise SimulationError("EventLoop.run() is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        before = self._before_event
        after = self._after_event
        profiler = self._profiler
        executed = 0
        try:
            while heap:
                head = heap[0]
                event = head[2]
                if event.cancelled:
                    heappop(heap)
                    continue
                time = head[0]
                if until is not None and time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(heap)
                if before:
                    for hook in before:
                        hook(self, event)
                self._now = time
                if profiler is not None:
                    profiler.run_event(event)
                else:
                    event.fn(*event.args)
                self._events_processed += 1
                executed += 1
                if after:
                    for hook in after:
                        hook(self, event)
                if self._stopped:
                    break
            if self._on_drain:
                for entry in heap:
                    if not entry[2].cancelled:
                        break
                else:
                    for hook in self._on_drain:
                        hook(self)
        finally:
            self._running = False
        if until is not None and not self._stopped and self._now < until:
            if max_events is None or executed < max_events:
                self._now = until
        return self._now

    def drain(self) -> None:
        """Discard every pending event without running it."""
        self._heap.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EventLoop(now={self._now:.3f}us, pending={len(self._heap)}, "
            f"processed={self._events_processed})"
        )

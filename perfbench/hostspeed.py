"""Host-speed normalisation for the timed passes.

The benchmark shares its host with other tenants, and they change its
speed by up to half within seconds.  A whole run can sit in a slow
stretch, so raw host times spread by a quarter from run to run.
So every timed piece of work is followed by :func:`reference_task`, a
fixed pure-Python task whose time gives the host's speed at that moment.
The piece's time is scaled by ``(REFERENCE_S / reference time) **
SPEED_EXPONENT``.  The result reads as host seconds on a host where the
reference task takes :data:`REFERENCE_S`.  Set-up samples get the
same treatment with a process-start reference (:data:`SPAWN_REFERENCE`).
"""

from __future__ import annotations

import heapq
import statistics
import time

#: The reference task's time on the host the normalised seconds are
#: quoted for: a 2-vCPU Intel Xeon cloud VM at its fastest.
REFERENCE_S = 0.0003

#: How the simulator's time scales with the reference task's time as
#: the host's load changes.  Regressing cell times on reference times
#: over runs that spanned a 2x swing in reference time gave 0.6-0.7 at
#: the level of whole cells, and the chunk-level scaling that left the
#: least spread between repeats of the same cell was 0.8-1.0, depending
#: on the cell.  A pure-Python task with a tiny working set slows down
#: more than the simulator does when other tenants load the host.
SPEED_EXPONENT = 0.8

#: Set-up time (process start and module loading) slows down less than
#: :func:`reference_task` when the host is busy, so set-up samples are
#: normalised by a process-start reference instead: a fresh interpreter
#: that imports numpy, the bulk of ``import repro``'s own start-up.
SPAWN_REFERENCE = ("-c", "import numpy")
#: The spawn reference's time on the host the normalised set-up seconds
#: are quoted for.
SPAWN_REFERENCE_S = 0.2

#: Events per timed chunk: a few milliseconds of work, finer than the
#: host's speed swings.
CHUNK_EVENTS = 200

clock = time.perf_counter


class _Probe:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def bump(self, step: int) -> int:
        self.value = (self.value + step) % 97
        return self.value


def reference_task() -> int:
    """A fixed sub-millisecond pure-Python task, independent of the
    program: method calls, attribute writes and heap operations, the
    simulator's own instruction mix.  Its time tracks the host's speed
    at the moment it runs."""
    probes = [_Probe(i) for i in range(50)]
    heap: list = []
    for i in range(600):
        heapq.heappush(heap, (probes[i % 50].bump(i), i))
        if len(heap) > 20:
            heapq.heappop(heap)
    return len(heap)


class ChunkTimer:
    """Runs each ``EventLoop.run`` as consecutive runs of at most
    :data:`CHUNK_EVENTS` events, timing each chunk and then one
    :func:`reference_task` right after it.

    The events, their order and the final clock are those of one
    unbroken run; the digest gate checks this on every run.
    """

    def __init__(self) -> None:
        self.chunks: list = []
        self.refs: list = []

    def install(self) -> None:
        from repro.sim.engine import EventLoop

        run = EventLoop.run
        timer = self

        def chunked(loop, until=None, max_events=None):
            if max_events is not None:
                return run(loop, until, max_events)
            while True:
                start = clock()
                before = loop.events_processed
                now = run(loop, until, CHUNK_EVENTS)
                mid = clock()
                reference_task()
                timer.chunks.append(mid - start)
                timer.refs.append(clock() - mid)
                if loop.events_processed - before < CHUNK_EVENTS:
                    return now

        EventLoop.run = chunked


def normalised_host_s(outcome) -> float:
    """The cell's host seconds at the speed where the reference task
    takes :data:`REFERENCE_S`: each chunk is scaled by the reference time
    measured right after it, and the work outside the event loop
    (building, summarising) by the cell's median reference time."""
    outside = outcome.host_s - sum(outcome.chunks) - sum(outcome.refs)
    scaled = sum(c * (REFERENCE_S / r) ** SPEED_EXPONENT for c, r in zip(outcome.chunks, outcome.refs))
    return scaled + outside * (REFERENCE_S / statistics.median(outcome.refs)) ** SPEED_EXPONENT

"""``EventLoop.attach_profiler``: the wall-clock hook perfbench's ledger
(``perfbench/ledger.py``) attaches through.  A loop holds at most one
profiler, which executes every event itself.  Profiling a whole run is
covered in ``tests/telemetry/test_profiler.py``."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import EventLoop


class CountingProfiler:
    """The smallest profiler: run each event and count it."""

    def __init__(self):
        self.calls = 0

    def run_event(self, event):
        self.calls += 1
        event.fn(*event.args)


def test_second_profiler_is_rejected_and_none_detaches():
    loop = EventLoop()
    first, second = CountingProfiler(), CountingProfiler()
    loop.attach_profiler(first)
    loop.attach_profiler(first)  # re-attaching the same one is a no-op
    with pytest.raises(SimulationError):
        loop.attach_profiler(second)
    fired = []
    loop.call_at(1.0, fired.append, "a")
    loop.run()
    assert first.calls == 1 and second.calls == 0

    loop.attach_profiler(None)
    assert loop.profiler is None
    loop.call_at(2.0, fired.append, "b")
    loop.run()
    assert fired == ["a", "b"] and first.calls == 1
    loop.attach_profiler(second)
    assert loop.profiler is second

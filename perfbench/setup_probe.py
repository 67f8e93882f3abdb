"""Set-up time of one workload, measured in a fresh process.

Run by ``perfbench/run.py``, one process per sample.  It imports
``repro`` and builds every cell of the workload through the same public
entry points the timed runs use, stopping each cell just before its
first event.  It prints one JSON object on stdout:

* ``import_s`` — host seconds spent in ``import repro`` (and the
  benchmark's cell definitions, which import the drivers);
* ``build_s`` — host seconds building systems, loops, servers and
  generators, summed over the workload's cells;
* ``ready_at`` — ``time.monotonic()`` when the last cell reached its
  first event, so the parent can measure from process start.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class FirstEvent(Exception):
    """Raised instead of running the loop: the cell is built."""


def main(argv):
    workload_name, seed, n_requests = argv[0], int(argv[1]), int(argv[2])
    start = time.monotonic()
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    import repro  # noqa: F401  (the import users pay on every CLI call)
    import cells
    from repro.sim.engine import EventLoop

    imported = time.monotonic()

    def stop_at_first_event(loop, *args, **kwargs):
        raise FirstEvent

    EventLoop.run = stop_at_first_event
    build_s = 0.0
    for cell in cells.WORKLOADS[workload_name].cells:
        begin = time.monotonic()
        try:
            cells.launch(cell, n_requests, seed)
        except FirstEvent:
            pass
        else:
            raise RuntimeError(f"{cell.label} never reached the event loop")
        build_s += time.monotonic() - begin
    ready_at = time.monotonic()
    print(json.dumps({"import_s": imported - start, "build_s": build_s, "ready_at": ready_at}))


if __name__ == "__main__":
    main(sys.argv[1:])

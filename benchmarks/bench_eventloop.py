"""Engine: pure event-loop scheduling throughput.

Times the discrete-event core with no scheduler, workload, or observer
attached — every cycle here is heap push/pop and handler dispatch, so
this is the most sensitive detector of engine regressions (the figure
benchmarks bury engine cost under policy logic).  Two shapes:

* *timer chains* — K self-rescheduling timers racing through N events,
  the steady-state push/pop pattern of arrival plus completion traffic;
* *cancellation churn* — every fired event schedules a decoy and cancels
  it, exercising the lazy-cancellation skip path preemption timers and
  retry timeouts rely on.

Event throughput lands in extra_info so CI can archive it
(``--benchmark-json=BENCH_eventloop.json``) and ``repro-observe bench``
gates ``events_per_sec`` against ``bench-baseline.json``.
"""

from conftest import run_single

from repro.sim.engine import EventLoop

#: Concurrent self-rescheduling timers; enough to keep the heap a few
#: levels deep (sift cost) without modelling any particular policy.
CHAINS = 16


def _run_chains(n_events: int) -> EventLoop:
    loop = EventLoop()
    per_chain = n_events // CHAINS
    remaining = [per_chain] * CHAINS

    def tick(idx: int, delay: float) -> None:
        remaining[idx] -= 1
        if remaining[idx] > 0:
            loop.call_after(delay, tick, idx, delay)

    # Coprime-ish delays so chains interleave rather than firing in
    # lockstep bursts.
    for idx in range(CHAINS):
        loop.call_after(float(2 * idx + 1), tick, idx, float(2 * idx + 1))
    loop.run()
    return loop


def _run_cancel_churn(n_events: int) -> EventLoop:
    loop = EventLoop()
    remaining = [n_events]

    def tick() -> None:
        remaining[0] -= 1
        decoy = loop.call_after(0.5, tick)
        decoy.cancel()
        if remaining[0] > 0:
            loop.call_after(1.0, tick)

    loop.call_after(1.0, tick)
    loop.run()
    return loop


def test_timer_chain_throughput(benchmark, bench_n_requests):
    n = max(bench_n_requests, 10_000)
    loop = run_single(benchmark, _run_chains, n)

    events = loop.events_processed
    benchmark.extra_info["events"] = events
    wall = benchmark.stats.stats.mean
    benchmark.extra_info["events_per_sec"] = events / wall if wall > 0 else 0.0

    assert events == CHAINS * (n // CHAINS)
    assert loop.pending_count == 0


def test_cancellation_churn(benchmark, bench_n_requests):
    n = max(bench_n_requests // 2, 10_000)
    loop = run_single(benchmark, _run_cancel_churn, n)

    events = loop.events_processed
    benchmark.extra_info["events"] = events
    wall = benchmark.stats.stats.mean
    benchmark.extra_info["events_per_sec"] = events / wall if wall > 0 else 0.0

    # Every fired event left exactly one cancelled decoy behind; the
    # lazy-cancel design means none of them ever executed.
    assert events == n
    assert loop.pending_count == 0

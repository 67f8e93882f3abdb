"""Rack-scale simulation throughput, balancer overhead, and DARC
behind an oracle-view balancer.

Three questions: how fast does a 32-server rack (256 simulated cores,
two-level scheduling, per-replica recorders) simulate, what does each
balancer's pick() cost per routing decision, and does DARC's
single-machine win survive a balancer that sees every replica's true
load?  Throughput is reported as simulator events/sec so the bench gate
catches rack-path slowdowns; the microbench isolates the balancer from
the servers by routing against an idle rack.
"""

import time

import pytest
from conftest import run_single

from repro.metrics.recorder import Recorder
from repro.policies.fcfs import CentralizedFCFS
from repro.rack.balancers import make_balancer
from repro.rack.rack import run_rack
from repro.rack.views import QueueViews
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop
from repro.sim.randomness import RngRegistry
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from repro.workload.presets import high_bimodal
from repro.workload.request import Request

N_SERVERS = 32
N_WORKERS = 8
UTILIZATION = 0.70
STALENESS_US = 50.0
BALANCERS = ("pow2", "jsq-stale", "sed", "type-affinity", "session")

#: Oracle-view case: 4 testbed-sized replicas at the paper's 80% load.
ORACLE_SERVERS = 4
ORACLE_WORKERS = 14
ORACLE_UTILIZATION = 0.80
ORACLE_BALANCERS = ("jsq-stale", "type-affinity")


def test_rack_throughput(benchmark, bench_n_requests):
    """One full 32-server rack run; events/sec is the gated number."""

    def run():
        start = time.perf_counter()
        result = run_rack(
            PersephoneSystem(n_workers=N_WORKERS, oracle=False),
            high_bimodal(),
            balancer="pow2",
            n_servers=N_SERVERS,
            utilization=UTILIZATION,
            n_requests=bench_n_requests,
            seed=1,
            staleness_us=STALENESS_US,
        )
        wall = time.perf_counter() - start
        return result, wall

    result, wall = run_single(benchmark, run)
    events = result.loop.events_processed
    print()
    print(f"rack ({N_SERVERS} servers x {N_WORKERS} cores, pow2) "
          f"@ {UTILIZATION:.0%}:")
    print(f"  {events} events in {wall:.2f}s = {events / wall:,.0f} events/s")
    print(f"  p99.9 slowdown = {result.summary.overall_tail_slowdown:.1f}x  "
          f"imbalance = {result.load_imbalance():.2f}")
    benchmark.extra_info["events_per_sec"] = events / wall
    benchmark.extra_info["rack_events"] = float(events)
    benchmark.extra_info["rack_slowdown"] = result.summary.overall_tail_slowdown

    assert result.recorder.completed + result.recorder.dropped == bench_n_requests
    assert result.load_imbalance() < 1.0


def test_balancer_pick_overhead(benchmark, bench_n_requests):
    """Routing decisions per second for every catalogue balancer,
    measured against an idle 32-server rack (pure pick() cost)."""
    n_picks = max(10_000, bench_n_requests)

    def run():
        out = {}
        loop = EventLoop()
        recorder = Recorder()
        spec = high_bimodal()
        servers = [
            Server(loop, CentralizedFCFS(),
                   config=ServerConfig(n_workers=N_WORKERS), recorder=recorder)
            for _ in range(N_SERVERS)
        ]
        requests = [Request(i, i % 2, 0.0, 1.0) for i in range(n_picks)]
        for i, request in enumerate(requests):
            request.session = i * 7919  # spread sessions across homes
        for name in BALANCERS:
            views = QueueViews(loop, servers, staleness_us=STALENESS_US)
            balancer = make_balancer(
                name, servers, views, RngRegistry(seed=1), spec
            )
            start = time.perf_counter()
            for request in requests:
                balancer.pick(request)
            out[name] = n_picks / (time.perf_counter() - start)
        return out

    rates = run_single(benchmark, run)
    print()
    for name, rate in rates.items():
        print(f"  {name:>14}: {rate:12,.0f} picks/s")
    for name, rate in rates.items():
        benchmark.extra_info[f"{name}_picks_per_sec"] = rate

    # Even the full-scan policies (SED reads every replica per pick)
    # must stay in the thousands-per-second range; below that the
    # balancer, not the servers, dominates rack simulation time.
    assert min(rates.values()) > 2_000


def test_oracle_view_darc_vs_cfcfs(benchmark, bench_n_requests):
    """c-FCFS vs DARC backends behind ``jsq-stale`` and ``type-affinity``
    with oracle views (``staleness_us=0``): the balancer reads every
    replica's true load, so any tail left is the servers' own."""
    systems = (
        PersephoneCfcfsSystem(n_workers=ORACLE_WORKERS, name="c-FCFS"),
        PersephoneSystem(n_workers=ORACLE_WORKERS, oracle=True, name="DARC"),
    )

    def run():
        return {
            (balancer, system.name): run_rack(
                system,
                high_bimodal(),
                balancer=balancer,
                n_servers=ORACLE_SERVERS,
                utilization=ORACLE_UTILIZATION,
                n_requests=bench_n_requests,
                seed=1,
                staleness_us=0.0,
            )
            for balancer in ORACLE_BALANCERS
            for system in systems
        }

    results = run_single(benchmark, run)
    short = {key: r.summary.per_type[0].tail_latency for key, r in results.items()}
    print()
    print(f"oracle views ({ORACLE_SERVERS} x {ORACLE_WORKERS} cores) "
          f"@ {ORACLE_UTILIZATION:.0%}:")
    for (balancer, system), result in results.items():
        print(f"  {balancer:>13} {system:>6}: short p99.9 = "
              f"{short[balancer, system]:8.1f}us  overall slowdown = "
              f"{result.summary.overall_tail_slowdown:6.1f}x  "
              f"imbalance = {result.load_imbalance():.2f}")
        benchmark.extra_info[f"{balancer}_{system}_short_p999_us"] = short[balancer, system]

    # DARC's single-machine win survives either balancer, even one with
    # perfect information.
    for balancer in ORACLE_BALANCERS:
        assert short[balancer, "DARC"] < short[balancer, "c-FCFS"] / 3

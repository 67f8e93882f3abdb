"""Per-replica recorders, dead-cluster fallback, and balancer chaos.

Covers the cluster-layer fixes that rode along with the rack subsystem:

* ``run_rack`` tees completions into per-replica recorders without
  changing the rack-level stream;
* ``Balancer.ingress`` routes to the *least-loaded* dead replica when
  the whole cluster is down (not an arbitrary ``pick()``);
* ``TypeAwareBalancer``/``JoinShortestQueue`` under worker
  crash/recover chaos: routing shrinks to the live set and conservation
  holds throughout.
"""

from repro.cluster.balancer import JoinShortestQueue, TypeAwareBalancer
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.metrics.recorder import Recorder
from repro.metrics.summary import RunSummary
from repro.policies.fcfs import CentralizedFCFS
from repro.rack.rack import run_rack
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop
from repro.sim.randomness import RngRegistry
from repro.systems.persephone import PersephoneCfcfsSystem
from repro.workload.arrivals import PoissonArrivals
from repro.workload.generator import OpenLoopGenerator
from repro.workload.presets import high_bimodal
from repro.workload.request import Request


def jsq_factory(servers, views, rngs, spec):
    return JoinShortestQueue(servers)


def make_servers(loop, n=3, n_workers=1):
    recorder = Recorder()
    return recorder, [
        Server(loop, CentralizedFCFS(), config=ServerConfig(n_workers=n_workers),
               recorder=recorder)
        for _ in range(n)
    ]


def req(rid, type_id=0, service=10.0):
    return Request(rid, type_id, 0.0, service)


def kill(server):
    for worker in server.workers:
        worker.fail()


class TestReplicaSummaries:
    def test_per_replica_recorders_partition_the_stream(self):
        result = run_rack(
            PersephoneCfcfsSystem(n_workers=2),
            high_bimodal(),
            jsq_factory,
            n_servers=3,
            utilization=0.5,
            n_requests=3000,
            seed=2,
        )
        assert len(result.replica_recorders) == 3
        # The tee forwards every completion/drop to exactly one replica
        # recorder and the shared one: per-replica counts sum to the total.
        assert sum(
            r.completed + r.dropped for r in result.replica_recorders
        ) == 3000
        summaries = result.replica_summaries()
        assert len(summaries) == 3
        assert all(isinstance(s, RunSummary) for s in summaries)
        assert all(s.completed > 0 for s in summaries)

    def test_cluster_summary_unchanged_by_tee(self):
        # The shared recorder sees completions in the same order as the
        # pre-tee implementation: identical runs still agree exactly, and
        # the replica roll-up matches the cluster-level stream.
        kwargs = dict(n_servers=2, utilization=0.5, n_requests=1500, seed=4)
        a = run_rack(
            PersephoneCfcfsSystem(n_workers=2), high_bimodal(), jsq_factory, **kwargs
        )
        b = run_rack(
            PersephoneCfcfsSystem(n_workers=2), high_bimodal(), jsq_factory, **kwargs
        )
        assert a.summary.completed == b.summary.completed
        assert a.summary.overall_tail_latency == b.summary.overall_tail_latency
        for result in (a, b):
            assert sum(
                r.completed + r.dropped for r in result.replica_recorders
            ) == 1500


class TestDeadClusterFallback:
    def test_routes_to_least_loaded_dead_replica(self):
        loop = EventLoop()
        _, servers = make_servers(loop, 3)
        for server in servers:
            kill(server)
        balancer = JoinShortestQueue(servers)
        # Pre-load the dead replicas unevenly.
        servers[0].ingress(req(100))
        servers[0].ingress(req(101))
        servers[1].ingress(req(102))
        balancer.ingress(req(0))
        # Least-loaded dead replica is index 2 (empty), not pick()'s
        # arbitrary rotation choice.
        assert servers[2].received == 1

    def test_ties_break_to_lowest_index(self):
        loop = EventLoop()
        _, servers = make_servers(loop, 3)
        for server in servers:
            kill(server)
        balancer = JoinShortestQueue(servers)
        balancer.ingress(req(0))
        assert servers[0].received == 1

    def test_full_cluster_crash_recover_plan_conserves(self):
        # Satellite regression: the whole cluster crashes mid-run and
        # recovers; queued-on-dead requests drain after recovery and
        # nothing is lost.
        loop = EventLoop()
        rngs = RngRegistry(seed=5)
        recorder, servers = make_servers(loop, 2, n_workers=2)
        balancer = JoinShortestQueue(servers)
        for server in servers:
            injector = FaultInjector(
                FaultPlan.crash_recover([0, 1], crash_at=500.0, recover_at=4000.0)
            )
            injector.arm(loop, server)
        spec = high_bimodal()
        generator = OpenLoopGenerator(
            loop,
            spec,
            PoissonArrivals(0.04),  # ~40 requests over the 1000us window
            balancer.ingress,
            type_rng=rngs.stream("types"),
            service_rng=rngs.stream("service"),
            arrival_rng=rngs.stream("arrivals"),
            limit=200,
        )
        generator.start()
        loop.run()
        assert recorder.completed + recorder.dropped == 200
        # Requests arrived while everything was dead and still landed.
        assert sum(s.received for s in servers) == 200


class TestBalancerChaos:
    """Satellite: TypeAware + JSQ routing under worker crash/recover."""

    def _run_with_chaos(self, balancer_factory, probe_index):
        loop = EventLoop()
        rngs = RngRegistry(seed=6)
        recorder, servers = make_servers(loop, 3, n_workers=2)
        balancer = balancer_factory(servers)
        # Crash both cores of the probed replica mid-run, recover later.
        injector = FaultInjector(
            FaultPlan.crash_recover([0, 1], crash_at=1000.0, recover_at=6000.0)
        )
        injector.arm(loop, servers[probe_index])
        routed_while_dead = []
        pre_dead_received = []

        def probe():
            pre_dead_received.append(servers[probe_index].received)

        def check():
            routed_while_dead.append(
                servers[probe_index].received - pre_dead_received[0]
            )

        loop.call_at(1000.5, probe)
        loop.call_at(5999.5, check)
        spec = high_bimodal()
        generator = OpenLoopGenerator(
            loop,
            spec,
            PoissonArrivals(0.03),
            balancer.ingress,
            type_rng=rngs.stream("types"),
            service_rng=rngs.stream("service"),
            arrival_rng=rngs.stream("arrivals"),
            limit=400,
        )
        generator.start()
        loop.run()
        return recorder, servers, balancer, routed_while_dead

    def test_jsq_routing_shrinks_to_live_set(self):
        recorder, servers, balancer, routed_while_dead = self._run_with_chaos(
            lambda s: JoinShortestQueue(s), probe_index=1
        )
        # No new work reached the dead replica during the outage...
        assert routed_while_dead == [0]
        # ...it rejoined after recovery...
        assert servers[1].received > 0
        # ...and conservation held throughout.
        assert recorder.completed + recorder.dropped == 400
        assert sum(balancer.route_counts) == 400

    def test_type_aware_routing_shrinks_to_live_set(self):
        recorder, servers, balancer, routed_while_dead = self._run_with_chaos(
            lambda s: TypeAwareBalancer(
                s, assignment={0: [0, 1], 1: [1, 2]}
            ),
            probe_index=1,
        )
        assert routed_while_dead == [0]
        assert servers[1].received > 0
        assert recorder.completed + recorder.dropped == 400
        assert sum(balancer.route_counts) == 400

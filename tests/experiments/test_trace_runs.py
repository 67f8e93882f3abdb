"""Tests for trace-driven experiment runs (common random numbers)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import run_once
from repro.experiments.figure7 import default_phases
from repro.sim.randomness import RngRegistry
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from repro.workload.arrivals import PoissonArrivals
from repro.workload.presets import high_bimodal
from repro.workload.trace import record_trace


@pytest.fixture(scope="module")
def trace():
    spec = high_bimodal()
    rngs = RngRegistry(seed=21)
    rate = 0.6 * spec.peak_load(14)
    return record_trace(
        spec,
        PoissonArrivals(rate),
        3000,
        type_rng=rngs.stream("t"),
        service_rng=rngs.stream("s"),
        arrival_rng=rngs.stream("a"),
    )


def replay(system, spec, trace):
    # The utilization argument is ignored: the trace sets the load.
    return run_once(system, spec, 1.0, trace=trace)


class TestRunTrace:
    def test_every_trace_row_processed(self, trace):
        result = replay(PersephoneCfcfsSystem(n_workers=14), high_bimodal(), trace)
        assert result.summary.completed + result.summary.dropped == int(len(trace) * 0.9)

    def test_utilization_derived_from_trace(self, trace):
        result = replay(PersephoneCfcfsSystem(n_workers=14), high_bimodal(), trace)
        assert result.utilization == pytest.approx(0.6, rel=0.1)

    def test_identical_trace_identical_results(self, trace):
        a = replay(PersephoneCfcfsSystem(n_workers=14), high_bimodal(), trace)
        b = replay(PersephoneCfcfsSystem(n_workers=14), high_bimodal(), trace)
        assert a.summary.overall_tail_latency == b.summary.overall_tail_latency

    def test_common_random_numbers_comparison(self, trace):
        # Same arrivals through both systems: the difference is pure
        # scheduling, and DARC wins on this heavy-tailed mix.
        cfcfs = replay(PersephoneCfcfsSystem(n_workers=14), high_bimodal(), trace)
        darc = replay(
            PersephoneSystem(n_workers=14, oracle=True), high_bimodal(), trace
        )
        assert (
            darc.summary.per_type[0].tail_latency
            < cfcfs.summary.per_type[0].tail_latency
        )

    def test_trace_and_phases_exclusive(self, trace):
        with pytest.raises(ConfigurationError, match="either trace or phases"):
            run_once(
                PersephoneCfcfsSystem(n_workers=14), high_bimodal(), 0.5,
                trace=trace, phases=default_phases(phase_us=100.0),
            )

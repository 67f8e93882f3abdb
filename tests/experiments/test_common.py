"""Tests for the experiment harness (small runs)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import run_once, run_sweep
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from repro.workload.presets import high_bimodal


class TestRunOnce:
    def test_completes_all_requests(self):
        result = run_once(
            PersephoneCfcfsSystem(n_workers=4),
            high_bimodal(),
            utilization=0.5,
            n_requests=500,
            seed=2,
        )
        assert result.summary.completed == 450  # 10% warm-up discarded
        assert result.summary.dropped == 0

    def test_offered_rate_matches_utilization(self):
        spec = high_bimodal()
        result = run_once(
            PersephoneCfcfsSystem(n_workers=4), spec, 0.5, n_requests=100, seed=2
        )
        assert result.offered_rate == pytest.approx(0.5 * spec.peak_load(4))

    def test_same_seed_is_deterministic(self):
        def run():
            return run_once(
                PersephoneSystem(n_workers=4, oracle=True),
                high_bimodal(),
                0.6,
                n_requests=400,
                seed=7,
            ).summary.overall_tail_slowdown

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            return run_once(
                PersephoneCfcfsSystem(n_workers=4),
                high_bimodal(),
                0.6,
                n_requests=400,
                seed=seed,
            ).summary.overall_tail_latency

        assert run(1) != run(2)

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            run_once(PersephoneCfcfsSystem(), high_bimodal(), 0.0, n_requests=10)
        with pytest.raises(ConfigurationError):
            run_once(PersephoneCfcfsSystem(), high_bimodal(), 0.5, n_requests=0)

    def test_utilization_report_attached(self):
        result = run_once(
            PersephoneCfcfsSystem(n_workers=4), high_bimodal(), 0.5,
            n_requests=300, seed=2,
        )
        assert 0.0 < result.util_report.mean_utilization <= 1.0

    def test_max_sim_time_caps_run(self):
        result = run_once(
            PersephoneCfcfsSystem(n_workers=1),
            high_bimodal(),
            utilization=1.4,  # overloaded on purpose
            n_requests=2000,
            seed=2,
            max_sim_time_us=1000.0,
        )
        assert result.summary.completed < 2000


class TestRunSweep:
    def test_one_result_per_point(self):
        results = run_sweep(
            PersephoneCfcfsSystem(n_workers=4),
            high_bimodal(),
            [0.3, 0.6],
            n_requests=200,
            seeds=(2,),
        )
        assert [r.utilization for r in results] == [0.3, 0.6]

    def test_slowdown_monotone_in_load(self):
        # Statistically, higher load should not *improve* the tail.
        results = run_sweep(
            PersephoneCfcfsSystem(n_workers=4),
            high_bimodal(),
            [0.2, 0.9],
            n_requests=3000,
            seeds=(2,),
        )
        low, high = (r.summary.overall_tail_slowdown for r in results)
        assert high >= low


class TestRunSweepSeeds:
    def _sweep(self, **kwargs):
        return run_sweep(
            PersephoneCfcfsSystem(n_workers=4),
            high_bimodal(),
            [0.3, 0.6],
            n_requests=200,
            **kwargs,
        )

    def test_multi_seed_order_load_major(self):
        results = self._sweep(seeds=(1, 2))
        assert [r.utilization for r in results] == [0.3, 0.3, 0.6, 0.6]

    def test_replicates_actually_differ(self):
        a, b = self._sweep(seeds=(1, 2))[:2]
        assert a.summary.overall_tail_latency != b.summary.overall_tail_latency

    def test_seed_and_seeds_together_rejected(self):
        # The single-seed keyword is gone: every caller passes seeds=.
        with pytest.raises(TypeError, match="seed"):
            self._sweep(seed=1, seeds=(1, 2))

    def test_empty_or_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            self._sweep(seeds=())
        with pytest.raises(ConfigurationError, match="duplicate"):
            self._sweep(seeds=(3, 3))


class TestSweepDriver:
    def test_replicates_run_under_cell_seeds(self):
        from repro.experiments import figure3

        system = PersephoneCfcfsSystem(n_workers=4)
        result = figure3.run(
            utilizations=(0.5,), n_requests=300, seeds=(1, 2), systems=[system]
        )
        replicates = result.replicates[system.name]
        assert sorted(replicates) == [1, 2]
        # Each replicate must have run under its cell's seed — the one a
        # checkpointed cell of this grid point gets.
        for replicate, (run,) in replicates.items():
            cell = figure3.EXPERIMENT.cell(
                replicate, system=system.name, workload="high_bimodal",
                rho=0.5, n_requests=300,
            )
            direct = run_once(system, high_bimodal(), 0.5, n_requests=300, seed=cell.seed)
            assert (
                run.summary.overall_tail_latency
                == direct.summary.overall_tail_latency
            )

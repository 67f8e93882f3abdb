"""Seed replication with Student-t confidence intervals.

Replicates are raw-seed sweeps (:func:`repro.experiments.common.run_sweep`)
summarized by :func:`repro.sweep.stats.mean_ci`; the interval arithmetic
itself is pinned in ``tests/sweep/test_stats.py``.
"""

import pytest

from repro.analysis.slo import overall_slowdown_metric
from repro.errors import ConfigurationError
from repro.experiments.common import run_sweep
from repro.sweep.stats import mean_ci
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from repro.workload.presets import high_bimodal

#: Four independent replicates, 1000 seeds apart.
SEEDS = (1, 1001, 2001, 3001)


def slowdowns(system, seeds=SEEDS):
    runs = run_sweep(system, high_bimodal(), [0.6], n_requests=3000, seeds=seeds)
    return [overall_slowdown_metric(r) for r in runs]


@pytest.fixture(scope="module")
def cfcfs_slowdowns():
    return slowdowns(PersephoneCfcfsSystem(n_workers=4))


class TestReplicate:
    def test_runs_requested_seeds(self, cfcfs_slowdowns):
        assert len(cfcfs_slowdowns) == 4

    def test_seeds_differ(self, cfcfs_slowdowns):
        assert len(set(cfcfs_slowdowns)) > 1

    def test_invalid_seeds(self):
        with pytest.raises(ConfigurationError):
            slowdowns(PersephoneCfcfsSystem(n_workers=4), seeds=())


class TestReplication:
    def test_mean_within_value_range(self, cfcfs_slowdowns):
        mean = mean_ci(cfcfs_slowdowns).mean
        assert min(cfcfs_slowdowns) <= mean <= max(cfcfs_slowdowns)

    def test_darc_ci_below_cfcfs_ci(self, cfcfs_slowdowns):
        darc = mean_ci(slowdowns(PersephoneSystem(n_workers=4, oracle=True)))
        cfcfs = mean_ci(cfcfs_slowdowns)
        # The improvement is larger than the seed noise.
        assert darc.high < cfcfs.low

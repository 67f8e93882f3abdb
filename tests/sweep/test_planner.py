"""Planner: grid expansion, registry reuse, plan serialization."""

import hashlib
import importlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.sweep.cells import Cell
from repro.sweep.planner import (
    SELFTEST,
    SweepPlan,
    experiment_spec,
    plan_experiment,
    plan_selftest,
    supported_experiments,
)


class TestRegistry:
    def test_public_experiments(self):
        names = supported_experiments()
        for expected in (
            "figure1", "figure3", "figure4", "figure5", "figure6",
            "figure7", "figure8", "figure9", "figure10", "chaos",
        ):
            assert expected in names
        assert SELFTEST not in names

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError, match="unknown sweep experiment"):
            experiment_spec("figure99")

    def test_spec_matches_serial_driver_grid(self):
        from repro.experiments import figure5

        spec = experiment_spec("figure5")
        assert spec.kind == "load_sweep"
        assert spec.workloads == ("high_bimodal", "extreme_bimodal")
        assert spec.utilizations == figure5.DEFAULT_UTILIZATIONS
        names = [s.name for s in spec.systems_for("high_bimodal")]
        assert names == [s.name for s in figure5.systems_for("high_bimodal")]


class TestPlanExperiment:
    def test_figure5_expansion(self):
        plan = plan_experiment(
            "figure5", seeds=(1, 2), n_requests=2000, utilizations=(0.5, 0.85)
        )
        spec = experiment_spec("figure5")
        n_systems = {
            w: len(spec.systems_for(w)) for w in spec.workloads
        }
        expected = sum(2 * 2 * n for n in n_systems.values())
        assert len(plan.cells) == expected
        assert plan.seeds == (1, 2)
        assert plan.n_requests == 2000
        # Every cell carries the full binding.
        for cell in plan.cells:
            p = cell.params_dict
            assert set(p) == {"system", "workload", "rho", "n_requests"}
            assert p["n_requests"] == 2000
            assert p["rho"] in (0.5, 0.85)
        # Unique cells, deterministic order: workload-major, then rho.
        assert len(set(plan.cells)) == len(plan.cells)
        workloads = [c.params_dict["workload"] for c in plan.cells]
        assert workloads == sorted(workloads, key=spec.workloads.index)

    def test_same_args_same_plan(self):
        a = plan_experiment("figure5", seeds=(1, 2), n_requests=2000)
        b = plan_experiment("figure5", seeds=(1, 2), n_requests=2000)
        assert a == b

    def test_figure4_reserved_choices(self):
        from repro.experiments import figure4

        plan = plan_experiment("figure4", seeds=(1,), n_requests=2000)
        choices = {c.params_dict["system"] for c in plan.cells}
        assert "c-FCFS" in choices
        for k in figure4.DEFAULT_RESERVED:
            if k < figure4.N_WORKERS:
                assert f"reserved{k}" in choices

    def test_figure7_phased_params(self):
        plan = plan_experiment("figure7", seeds=(1, 2))
        names = {c.params_dict["system"] for c in plan.cells}
        assert names == {"c-FCFS", "DARC"}
        for cell in plan.cells:
            assert set(cell.params_dict) == {"system", "workload"}
            assert cell.params_dict["workload"] == "phased"

    def test_chaos_grid(self):
        from repro.experiments import chaos

        plan = plan_experiment("chaos", seeds=(1,), n_requests=3000)
        assert len(plan.cells) == len(chaos.default_systems())
        for cell in plan.cells:
            assert cell.params_dict["rho"] == chaos.UTILIZATION

    def test_utilizations_refused_without_load_grid(self):
        with pytest.raises(ConfigurationError, match="no load grid"):
            plan_experiment("figure7", utilizations=(0.33,))

    def test_single_point_takes_one_utilization(self):
        plan = plan_experiment("chaos", n_requests=3000, utilizations=(0.5,))
        assert {cell.params_dict["rho"] for cell in plan.cells} == {0.5}
        with pytest.raises(ConfigurationError, match="one load point"):
            plan_experiment("figure4", utilizations=(0.5, 0.9))

    def test_no_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            plan_experiment("figure5", seeds=())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            plan_experiment("figure5", seeds=(1, 1))

    def test_plan_doc_round_trip(self):
        plan = plan_experiment(
            "figure5", seeds=(1, 2), n_requests=2000, utilizations=(0.5,)
        )
        restored = SweepPlan.from_doc(plan.to_doc())
        assert restored == plan

    def test_from_doc_rejects_wrong_kind(self):
        doc = plan_experiment("figure3", seeds=(1,)).to_doc()
        doc["kind"] = "nonsense"
        with pytest.raises(ConfigurationError, match="not a sweep plan"):
            SweepPlan.from_doc(doc)


class TestPlanSelftest:
    def test_expansion(self):
        plan = plan_selftest(3, seeds=(1, 2), mode="ok")
        assert plan.experiment == SELFTEST
        assert len(plan.cells) == 6
        assert all(isinstance(c, Cell) for c in plan.cells)
        indices = {c.params_dict["index"] for c in plan.cells}
        assert indices == {0, 1, 2}

    def test_selftest_cells_have_distinct_seeds(self):
        plan = plan_selftest(4, seeds=(1,), mode="ok")
        seeds = [c.seed for c in plan.cells]
        assert len(set(seeds)) == len(seeds)


#: sha256 of each experiment's ``plan_experiment(name, seeds=(1, 2))``
#: document: a moved declaration must not change a cell id or a seed.
PLAN_DIGESTS = {
    "chaos": "afa57e63e1b3fab5c820b4d19c92861ea49f6f1e279fdd774dad354576b7c1ef",
    "figure1": "c3aa5309f4a1dc9c1f85583f7404c0d06baee0029196c0f26ccc6f261f165358",
    "figure10": "53cb71c118f32f8007617f18b8bafe468fbfbb1b2d9b0c6ad56f26d1b8b82379",
    "figure3": "0f1727bd73e15696437eccaf48e59e72dbcb97b655e386c4a045dd5e3d977881",
    "figure4": "6c0f15d26c8b72d6b7afce9463d3519d83d2b2dc0ba5c8e92eeb78d25d8a1236",
    "figure5": "80ff87320135774097dcd0dd6ccd80f1b2015a070f34dd85eeafc350b749f1b8",
    "figure6": "a71aeff2aa5321c162fdf1c8254d10bcb72b82122c1f2e56d80b307009eba7b5",
    "figure7": "68b8d9cb803a1dc36c82b20f23c32b7033bf1994f1e997ec89f0f66825c3b5b0",
    "figure8": "3d2eec0bab54168b9caadce907c9290c7711275b37c91d0ea1c18dfe5a70d841",
    "figure9": "7c16c3e8bc4749e7cd72417c836a5dc3dfb70d56e7f9ffe9e4e29e138c216994",
    "rack": "409115b3cb68fce68d9a3bbabff8d4e9228b397b07c9bba402812ae9bd7e8d91",
}


class TestPlanDigests:
    def test_every_experiment_pinned(self):
        assert sorted(PLAN_DIGESTS) == supported_experiments()

    @pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
    def test_plan_document_unchanged(self, name):
        doc = plan_experiment(name, seeds=(1, 2)).to_doc()
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == PLAN_DIGESTS[name]


def _tiny_args(name):
    """(driver kwargs, plan kwargs) for a tiny run of one experiment."""
    if name == "figure7":
        from repro.experiments import figure7

        phases = figure7.default_phases(phase_us=2_000.0)
        return {"phases": phases, "window_us": 1_000.0}, {}
    driver = {"n_requests": 300}
    plan = {"n_requests": 300}
    if name not in ("figure4", "chaos"):
        driver["utilizations"] = plan["utilizations"] = (0.5,)
    return driver, plan


class TestSerialSeedsMatchPlan:
    """An in-process ``--seeds`` run executes exactly the planned cells."""

    @pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
    def test_driver_runs_the_cell_seeds(self, name, monkeypatch):
        from repro.experiments import common

        driver = importlib.import_module(f"repro.experiments.{name}")
        seen = []
        for module in (common, driver):
            for fn in ("run_once", "run_chaos", "run_rack"):
                real = getattr(module, fn, None)
                if real is None:
                    continue

                def recording(*args, _real=real, **kwargs):
                    seen.append(kwargs["seed"])
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, fn, recording)
        driver_args, plan_args = _tiny_args(name)
        driver.run(seeds=(1, 2), **driver_args)
        plan = plan_experiment(name, seeds=(1, 2), **plan_args)
        assert sorted(seen) == sorted(cell.seed for cell in plan.cells)

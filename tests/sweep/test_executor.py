"""Executor: serial/pool parity, crash isolation, timeouts."""

import pytest

from repro.errors import ConfigurationError
from repro.sweep.executor import execute_cells
from repro.sweep.planner import plan_selftest
from repro.sweep.runner import run_cell


class TestSerial:
    def test_all_ok_in_input_order(self):
        plan = plan_selftest(4, seeds=(1, 2), mode="ok")
        outcomes = execute_cells(plan.cells, jobs=1)
        assert len(outcomes) == len(plan.cells)
        assert all(o.ok for o in outcomes)
        assert [o.cell for o in outcomes] == list(plan.cells)

    def test_selftest_value_formula(self):
        plan = plan_selftest(1, seeds=(5,), mode="ok")
        cell = plan.cells[0]
        result = run_cell(cell)
        assert result.metrics_dict["value"] == float(cell.seed % 1000 + 0)

    def test_crash_isolated_per_cell(self):
        ok_plan = plan_selftest(1, seeds=(1,), mode="ok")
        crash_plan = plan_selftest(1, seeds=(2,), mode="crash")
        cells = [crash_plan.cells[0], ok_plan.cells[0]]
        outcomes = execute_cells(cells, jobs=1)
        assert outcomes[0].status == "error"
        assert "crashed on request" in outcomes[0].error
        assert outcomes[0].result is None
        assert outcomes[1].ok

    def test_empty_input(self):
        assert execute_cells([]) == []

    def test_bad_jobs(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            execute_cells(plan_selftest(1).cells, jobs=0)

    def test_progress_called_per_cell(self):
        plan = plan_selftest(3, seeds=(1,), mode="ok")
        seen = []
        execute_cells(plan.cells, progress=lambda d, t, o: seen.append((d, t, o.ok)))
        assert seen == [(1, 3, True), (2, 3, True), (3, 3, True)]


class TestPool:
    def test_pool_matches_serial_bit_for_bit(self):
        plan = plan_selftest(6, seeds=(1, 2), mode="ok")
        serial = execute_cells(plan.cells, jobs=1)
        pooled = execute_cells(plan.cells, jobs=3)
        assert [o.result.digest for o in pooled] == [
            o.result.digest for o in serial
        ]
        assert [o.result for o in pooled] == [o.result for o in serial]

    def test_results_in_input_order(self):
        plan = plan_selftest(5, seeds=(1,), mode="ok")
        outcomes = execute_cells(plan.cells, jobs=4)
        assert [o.cell for o in outcomes] == list(plan.cells)

    def test_worker_exception_is_error_outcome(self):
        plan = plan_selftest(2, seeds=(1,), mode="crash")
        ok = plan_selftest(1, seeds=(2,), mode="ok")
        outcomes = execute_cells(list(plan.cells) + list(ok.cells), jobs=2)
        assert [o.status for o in outcomes] == ["error", "error", "ok"]
        assert "RuntimeError" in outcomes[0].error

    def test_hang_killed_by_timeout(self):
        hang = plan_selftest(1, seeds=(1,), mode="hang")
        ok = plan_selftest(1, seeds=(2,), mode="ok")
        outcomes = execute_cells(
            list(hang.cells) + list(ok.cells), jobs=2, timeout_s=1.0
        )
        assert outcomes[0].status == "timeout"
        assert outcomes[0].result is None
        assert outcomes[1].ok

    def test_unknown_mode_is_error_not_crash(self):
        plan = plan_selftest(1, seeds=(1,), mode="explode")
        outcomes = execute_cells(plan.cells, jobs=2)
        assert outcomes[0].status == "error"
        assert "ConfigurationError" in outcomes[0].error


class TestObservedCells:
    def test_chaos_cell_artifacts_carry_cell_meta(self, tmp_path):
        import json

        from repro.sweep.planner import plan_experiment
        from repro.telemetry.export import read_metrics

        cell = plan_experiment("chaos", seeds=(1,), n_requests=1500).cells[0]
        observed = run_cell(cell, trace_dir=str(tmp_path), metrics_dir=str(tmp_path))
        assert observed.digest == run_cell(cell).digest
        trace_path, metrics_path = observed.artifacts
        with open(trace_path) as fp:
            trace_meta = json.load(fp)["repro"]["meta"]
        metrics_meta = read_metrics(metrics_path + ".jsonl").meta
        for meta in (trace_meta, metrics_meta):
            assert meta["cell_id"] == cell.cell_id
            assert meta["replicate"] == cell.replicate
            assert "plan" in meta

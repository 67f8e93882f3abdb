"""``repro-observe`` over metrics: every metrics subcommand end-to-end
on real smoke runs, plus failure-path exit codes."""

import json

import pytest

from repro.experiments.common import run_once
from repro.systems.persephone import PersephoneSystem
from repro.cli.observe import main
from repro.telemetry import TelemetryProbe
from repro.telemetry.export import write_metrics
from repro.workload.presets import high_bimodal


def _write_run(base, seed, n_requests=1200):
    probe = TelemetryProbe()
    result = run_once(
        PersephoneSystem(n_workers=8, oracle=True, name="DARC"),
        high_bimodal(),
        0.75,
        n_requests=n_requests,
        seed=seed,
        telemetry=probe,
    )
    paths = write_metrics(
        str(base),
        probe,
        recorder=result.server.recorder,
        meta={"seed": seed},
    )
    return probe, paths


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli") / "run.metrics"
    return _write_run(base, seed=6)


class TestSummary:
    def test_reports_reconciliation_ok(self, smoke_run, capsys):
        _, paths = smoke_run
        assert main(["summary", paths["jsonl"]]) == 0
        out = capsys.readouterr().out
        assert "telemetry/recorder reconciliation: OK" in out
        assert "push counters:" in out
        assert "repro_sim_events_processed_total" in out

    def test_family_filter_restricts_output(self, smoke_run, capsys):
        _, paths = smoke_run
        assert main(
            ["summary", paths["jsonl"], "--family", "repro_workers_busy"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro_workers_busy" in out
        assert "repro_queue_depth" not in out


class TestCompare:
    def test_identical_runs_have_no_drift(self, smoke_run, capsys):
        _, paths = smoke_run
        assert main(["compare", paths["jsonl"], paths["jsonl"]]) == 0
        assert "OK: no metric drift" in capsys.readouterr().out

    def test_different_seeds_drift(self, smoke_run, tmp_path, capsys):
        _, paths = smoke_run
        _, other = _write_run(tmp_path / "other.metrics", seed=7)
        assert main(["compare", paths["jsonl"], other["jsonl"]]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_counters_only_skips_gauges(self, smoke_run, tmp_path, capsys):
        _, paths = smoke_run
        # Same seed, but a shorter run: counters must all drift while
        # the comparison is restricted to counter families only.
        _, shorter = _write_run(tmp_path / "short.metrics", seed=6,
                                n_requests=600)
        assert main(
            ["compare", paths["jsonl"], shorter["jsonl"], "--counters-only"]
        ) == 1
        out = capsys.readouterr().out
        assert "repro_workers_busy" not in out


class TestBench:
    def _perf_artifact(self, tmp_path):
        doc = {
            "correct": True,
            "attempted": 6,
            "failed": 0,
            "metrics": {
                "req_per_s.persephone": {"value": 500.0, "unit": "1/s"},
                "wall_s": {"value": 2.0, "unit": "s"},
            },
        }
        (tmp_path / "BENCH_perf_hb-trio.json").write_text(json.dumps(doc))

    def test_aggregate_write_baseline_then_gate(self, tmp_path, capsys):
        self._perf_artifact(tmp_path)
        summary = tmp_path / "BENCH_summary.json"
        baseline = tmp_path / "bench-baseline.json"
        assert main(
            ["bench", "--root", str(tmp_path), "--out", str(summary),
             "--write-baseline", str(baseline)]
        ) == 0
        assert json.loads(summary.read_text())["benchmarks"]
        assert main(
            ["bench", "--root", str(tmp_path), "--out", str(summary),
             "--baseline", str(baseline)]
        ) == 0
        assert "OK: no benchmark regressions" in capsys.readouterr().out

    def test_regression_fails_the_gate(self, tmp_path, capsys):
        self._perf_artifact(tmp_path)
        baseline = tmp_path / "bench-baseline.json"
        baseline.write_text(json.dumps({
            "kind": "repro-bench-baseline",
            "tolerance": 0.25,
            "benchmarks": {
                "BENCH_perf_hb-trio": {"req_per_s.persephone": 5000.0}
            },
        }))
        summary = tmp_path / "BENCH_summary.json"
        assert main(
            ["bench", "--root", str(tmp_path), "--out", str(summary),
             "--baseline", str(baseline)]
        ) == 1
        assert "REGRESSED" in capsys.readouterr().out


class TestFailurePaths:
    def test_missing_metrics_file_exits_2(self, tmp_path, capsys):
        assert main(["summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_to_unwritable_out_exits_2(self, tmp_path, capsys):
        TestBench()._perf_artifact(tmp_path)
        out = tmp_path / "nodir" / "BENCH_summary.json"
        assert main(["bench", "--root", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bench_without_artifacts_exits_2(self, tmp_path, capsys):
        assert main(["bench", "--root", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_summary_flags_reconciliation_mismatch(self, smoke_run, tmp_path,
                                                   capsys):
        _, paths = smoke_run
        broken = tmp_path / "broken.metrics.jsonl"
        with open(paths["jsonl"]) as fp:
            lines = fp.read().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record["kind"] == "final" and record.get("reconciliation"):
                record["reconciliation"]["ok"] = False
            doctored.append(json.dumps(record))
        broken.write_text("\n".join(doctored) + "\n")
        assert main(["summary", str(broken)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

"""Benchmark aggregation and the direction-aware regression gate."""

import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.errors import TelemetryError
from repro.telemetry.bench import (
    BASELINE_KIND,
    SUMMARY_KIND,
    aggregate,
    compare,
    discover,
    make_baseline,
    metric_direction,
    summarize_file,
    write_json,
)


def _pytest_doc(name="test_thing", mean=0.5, extra=None):
    return {
        "benchmarks": [
            {
                "name": name,
                "stats": {"mean": mean, "min": mean * 0.9, "max": mean * 1.1,
                          "stddev": 0.01, "rounds": 1},
                "extra_info": extra or {},
            }
        ]
    }


def _perf_doc(rate=500.0, correct=True):
    """The final JSON line of a ``perfbench/run.py --trace 0`` run."""
    return {
        "correct": correct,
        "attempted": 12,
        "failed": 0 if correct else 1,
        "metrics": {
            "setup_s": {"value": 0.4, "unit": "s"},
            "req_per_s.persephone": {"value": rate, "unit": "1/s"},
            "wall_s": {"value": 2.0, "unit": "s"},
            "peak_rss_mb": {"value": 90.0, "unit": "MB"},
        },
    }


class TestSummarize:
    def test_pytest_benchmark_document(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(_pytest_doc(extra={"samples_per_sec": 9.0,
                                                      "nested": {"n": 3}})))
        out = summarize_file(str(path))
        metrics = out["BENCH_x::test_thing"]
        assert metrics["time_mean_s"] == 0.5
        assert metrics["samples_per_sec"] == 9.0
        assert metrics["nested.n"] == 3.0
        assert "rounds" not in metrics  # only the whitelisted stats

    def test_perfbench_document(self, tmp_path):
        path = tmp_path / "BENCH_perf_hb-trio.json"
        path.write_text(json.dumps(_perf_doc()))
        out = summarize_file(str(path))
        assert out == {
            "BENCH_perf_hb-trio": {
                "peak_rss_mb": 90.0,
                "req_per_s.persephone": 500.0,
                "setup_s": 0.4,
                "wall_s": 2.0,
            }
        }

    def test_profile_document(self, tmp_path):
        # A perfbench ledger is a per-entry profile, not a benchmark
        # document: even under a BENCH_ name it is rejected, not gated.
        with open(os.path.join(REPO_ROOT, "ledgers", "ledger-hb-trio-seed1.json")) as fp:
            ledger = fp.read()
        path = tmp_path / "BENCH_profile.json"
        path.write_text(ledger)
        with pytest.raises(TelemetryError):
            summarize_file(str(path))

    def test_incorrect_perfbench_run_rejected(self, tmp_path):
        path = tmp_path / "BENCH_perf_hb-trio.json"
        path.write_text(json.dumps(_perf_doc(correct=False)))
        with pytest.raises(TelemetryError):
            summarize_file(str(path))

    def test_unrecognised_document_rejected(self, tmp_path):
        path = tmp_path / "BENCH_junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(TelemetryError):
            summarize_file(str(path))


class TestAggregate:
    def test_folds_many_files_sorted(self, tmp_path):
        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        a.write_text(json.dumps(_pytest_doc("one")))
        b.write_text(json.dumps(_perf_doc()))
        summary = aggregate([str(b), str(a)])
        assert summary["kind"] == SUMMARY_KIND
        assert summary["sources"] == ["BENCH_a.json", "BENCH_b.json"]
        assert set(summary["benchmarks"]) == {"BENCH_a::one", "BENCH_b"}

    def test_duplicate_names_rejected(self, tmp_path):
        a = tmp_path / "BENCH_a.json"
        a.write_text(json.dumps(_pytest_doc("one")))
        with pytest.raises(TelemetryError):
            aggregate([str(a), str(a)])

    def test_discover_skips_summary(self, tmp_path):
        (tmp_path / "BENCH_a.json").write_text("{}")
        (tmp_path / "BENCH_summary.json").write_text("{}")
        (tmp_path / "other.json").write_text("{}")
        found = [p.split("/")[-1] for p in discover(str(tmp_path))]
        assert found == ["BENCH_a.json"]


class TestDirections:
    @pytest.mark.parametrize(
        "metric,expected",
        [
            ("time_mean_s", -1),
            ("sim_time_us", -1),
            ("peak_heap_bytes", -1),
            ("events_per_sec", 1),
            ("samples_per_sec", 1),
            ("pool_speedup", 1),
            ("speedup_vs_serial", 1),
            ("Persephone.mean_goodput_rps_per_us", 1),
            ("req_per_s.persephone", 1),
            ("wall_s", -1),
            ("peak_rss_mb", -1),
            ("windows", 0),
            ("events", 0),
        ],
    )
    def test_metric_direction(self, metric, expected):
        assert metric_direction(metric) == expected

    def test_falling_speedup_regresses(self):
        baseline = {
            "kind": BASELINE_KIND,
            "tolerance": 0.25,
            "benchmarks": {"sweep": {"pool_speedup": 2.6667}},
        }
        # 2.6667 * (1 - 0.25) ≈ 2.0: the ≥2× pool-speedup floor.
        ok, _ = compare(
            {"benchmarks": {"sweep": {"pool_speedup": 2.1}}}, baseline
        )
        assert ok == []
        regressions, _ = compare(
            {"benchmarks": {"sweep": {"pool_speedup": 1.9}}}, baseline
        )
        assert [r["metric"] for r in regressions] == ["pool_speedup"]


class TestCompare:
    def _baseline(self):
        return {
            "kind": BASELINE_KIND,
            "tolerance": 0.25,
            "benchmarks": {
                "b": {"time_mean_s": 1.0, "events_per_sec": 100.0},
            },
        }

    def test_within_tolerance_passes(self):
        summary = {"benchmarks": {"b": {"time_mean_s": 1.2,
                                        "events_per_sec": 90.0}}}
        regressions, report = compare(summary, self._baseline())
        assert regressions == []
        assert {row["status"] for row in report} == {"ok"}

    def test_slower_wall_time_regresses(self):
        summary = {"benchmarks": {"b": {"time_mean_s": 1.5,
                                        "events_per_sec": 100.0}}}
        regressions, _ = compare(summary, self._baseline())
        assert [r["metric"] for r in regressions] == ["time_mean_s"]

    def test_lower_throughput_regresses(self):
        summary = {"benchmarks": {"b": {"time_mean_s": 1.0,
                                        "events_per_sec": 60.0}}}
        regressions, _ = compare(summary, self._baseline())
        assert [r["metric"] for r in regressions] == ["events_per_sec"]

    def test_improvements_never_regress(self):
        summary = {"benchmarks": {"b": {"time_mean_s": 0.1,
                                        "events_per_sec": 900.0}}}
        regressions, _ = compare(summary, self._baseline())
        assert regressions == []

    def test_missing_benchmark_and_metric_gate(self):
        regressions, _ = compare({"benchmarks": {}}, self._baseline())
        assert regressions[0]["status"] == "missing"
        summary = {"benchmarks": {"b": {"time_mean_s": 1.0}}}
        regressions, _ = compare(summary, self._baseline())
        assert [r["metric"] for r in regressions] == ["events_per_sec"]

    def test_wrong_baseline_kind_rejected(self):
        with pytest.raises(TelemetryError):
            compare({"benchmarks": {}}, {"kind": "nope", "benchmarks": {}})

    def test_explicit_tolerance_overrides_baseline(self):
        summary = {"benchmarks": {"b": {"time_mean_s": 1.2,
                                        "events_per_sec": 100.0}}}
        regressions, _ = compare(summary, self._baseline(), tolerance=0.1)
        assert [r["metric"] for r in regressions] == ["time_mean_s"]


class TestBaseline:
    def test_make_baseline_keeps_directional_metrics_only(self, tmp_path):
        summary = {
            "kind": SUMMARY_KIND,
            "benchmarks": {
                "b": {"time_mean_s": 1.0, "windows": 40.0},
                "informational_only": {"count": 3.0},
            },
        }
        baseline = make_baseline(summary)
        assert baseline["kind"] == BASELINE_KIND
        assert baseline["benchmarks"] == {"b": {"time_mean_s": 1.0}}
        # a freshly written baseline always gates cleanly against itself
        regressions, _ = compare(summary, baseline)
        assert regressions == []
        out = tmp_path / "bench-baseline.json"
        write_json(str(out), baseline)
        assert json.loads(out.read_text()) == baseline

    def test_checked_in_baseline_is_valid(self):
        with open(os.path.join(REPO_ROOT, "bench-baseline.json")) as fp:
            baseline = json.load(fp)
        assert baseline["kind"] == BASELINE_KIND
        assert 0 < baseline["tolerance"] <= 0.25
        assert baseline["benchmarks"], "baseline must gate something"
        for metrics in baseline["benchmarks"].values():
            for metric in metrics:
                assert metric_direction(metric) != 0

"""Tests for the FigureResult container."""

import math

import pytest

from repro.experiments.results import FigureResult


class FakeSummary:
    def __init__(self, slowdown, drop_rate=0.0):
        self.overall_tail_slowdown = slowdown
        self.drop_rate = drop_rate
        self.pct = 99.9


class FakeResult:
    def __init__(self, utilization, slowdown, drop_rate=0.0):
        self.utilization = utilization
        self.summary = FakeSummary(slowdown, drop_rate)


def metric(result):
    return result.summary.overall_tail_slowdown


def build():
    result = FigureResult("Figure X", [0.2, 0.5, 0.8])
    result.add_sweep("A", [FakeResult(0.2, 1.0), FakeResult(0.5, 2.0), FakeResult(0.8, 50.0)])
    result.add_sweep("B", [FakeResult(0.2, 1.0), FakeResult(0.5, 20.0), FakeResult(0.8, 90.0)])
    return result


class TestFigureResult:
    def test_series(self):
        series = build().series(metric)
        assert series["A"] == [1.0, 2.0, 50.0]
        assert series["B"] == [1.0, 20.0, 90.0]

    def test_capacities(self):
        caps = build().capacities(10.0, metric)
        assert caps["A"] == 0.5
        assert caps["B"] == 0.2

    def test_render_metric(self):
        text = build().render_metric(metric, "slowdown (x)")
        assert "Figure X" in text
        assert "A" in text and "B" in text
        assert "50.0" in text

    def test_render_findings_empty(self):
        result = FigureResult("F", [0.5])
        assert result.render_findings() == ""

    def test_render_findings_formats_floats(self):
        result = build()
        result.findings["ratio"] = 2.5
        result.findings["note"] = 7
        text = result.render_findings()
        assert "ratio = 2.50" in text
        assert "note = 7" in text

    def test_figure5_loads_have_distinct_labels(self):
        from repro.experiments import figure5

        loads = figure5.EXPERIMENT.utilizations
        result = FigureResult("Figure 5", loads)
        result.add_sweep("A", [FakeResult(rho, 1.0) for rho in loads])
        rows = result.render_metric(metric, "x").splitlines()[3:]
        labels = [row.split()[0] for row in rows]
        assert labels == [f"{rho:.2f}" for rho in loads]
        assert len(set(labels)) == len(loads) == 7

    def test_uneven_sweep_lengths_render(self):
        result = FigureResult("F", [0.2, 0.5])
        result.add_sweep("short", [FakeResult(0.2, 1.0)])
        text = result.render_metric(metric, "x")
        assert "-" in text  # padded with NaN cell


def build_replicated(drop_rate=0.0):
    result = FigureResult("Figure X", [0.2, 0.5])
    result.add_replicated(
        "A",
        {
            1: [FakeResult(0.2, 1.0), FakeResult(0.5, 2.0)],
            2: [FakeResult(0.2, 3.0), FakeResult(0.5, 4.0, drop_rate)],
            3: [FakeResult(0.2, 5.0), FakeResult(0.5, 6.0)],
        },
    )
    return result


class TestReplicatedFigureResult:
    def test_add_replicated_fills_legacy_sweep(self):
        result = build_replicated()
        assert result.n_replicates == 3
        # The first replicate doubles as the legacy single-seed sweep.
        assert [r.summary.overall_tail_slowdown for r in result.sweeps["A"]] == [
            1.0, 2.0,
        ]

    def test_add_replicated_rejects_empty(self):
        with pytest.raises(ValueError, match="no replicates"):
            FigureResult("F", [0.5]).add_replicated("A", {})

    def test_series_is_replicate_mean(self):
        assert build_replicated().series(metric)["A"] == [3.0, 4.0]

    def test_series_ci_has_honest_n(self):
        stats = build_replicated().series_ci(metric)["A"]
        assert [s.n for s in stats] == [3, 3]
        assert stats[0].mean == pytest.approx(3.0)
        assert stats[0].half_width > 0

    def test_single_seed_sweeps_degenerate_n1(self):
        stats = build().series_ci(metric)["A"]
        assert [s.n for s in stats] == [1, 1, 1]
        assert all(s.half_width == 0.0 for s in stats)

    def test_capacities_use_replicate_mean(self):
        # Means are 3.0 and 4.0: an SLO of 3.5 passes only the first point.
        caps = build_replicated().capacities(3.5, metric)
        assert caps["A"] == 0.2
        caps = build_replicated().capacities(10.0, metric)
        assert caps["A"] == 0.5

    def test_any_replicate_drop_disqualifies(self):
        caps = build_replicated(drop_rate=0.01).capacities(10.0, metric)
        assert caps["A"] == 0.2

    def test_render_metric_labels_ci(self):
        text = build_replicated().render_metric(metric, "slowdown (x)")
        assert "mean±95% CI, 3 seeds" in text
        assert "±" in text

    def test_mixed_replicated_and_plain_systems(self):
        result = build_replicated()
        result.add_sweep("B", [FakeResult(0.2, 9.0), FakeResult(0.5, 9.0)])
        stats = result.series_ci(metric)
        assert [s.n for s in stats["A"]] == [3, 3]
        assert [s.n for s in stats["B"]] == [1, 1]
        text = result.render_metric(metric, "x")
        assert "A" in text and "B" in text

"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_experiments_are_choices(self):
        parser = build_parser()
        args = parser.parse_args(["tables"])
        assert args.experiment == "tables"
        assert args.n_requests is None

    def test_quick_flag(self):
        args = build_parser().parse_args(["figure1", "--quick"])
        assert args.quick

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_registry_covers_every_figure(self):
        expected = {f"figure{i}" for i in (1, 3, 4, 5, 6, 7, 8, 9, 10)}
        assert expected <= set(EXPERIMENTS)
        assert "tables" in EXPERIMENTS


class TestMain:
    def test_tables_runs(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "DARC" in out

    def test_figure_runs_quick(self, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "QUICK_N", 400)
        assert main(["figure3", "--quick", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_csv_export(self, capsys, monkeypatch, tmp_path):
        import repro.cli as cli

        monkeypatch.setattr(cli, "QUICK_N", 400)
        assert main(["figure3", "--quick", "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        data = (tmp_path / "figure3.csv").read_text()
        assert data.startswith("system,")
        assert "Persephone" in data or "DARC" in data
        assert (tmp_path / "figure3_findings.csv").exists()

    def test_csv_export_multi_figure(self, capsys, monkeypatch, tmp_path):
        import repro.cli as cli

        monkeypatch.setattr(cli, "QUICK_N", 400)
        assert main(["figure5", "--quick", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "figure5_high_bimodal.csv").exists()
        assert (tmp_path / "figure5_extreme_bimodal.csv").exists()

    def test_csv_export_rack(self, capsys, tmp_path):
        assert main(["rack", "--n-requests", "800", "--csv", str(tmp_path)]) == 0
        lines = (tmp_path / "rack_jsq-stale.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["system", "balancer"]
        rows = [line.split(",") for line in lines[1:]]
        assert {row[0] for row in rows} == {"Shenango", "Shinjuku", "Persephone"}
        assert {row[1] for row in rows} == {"jsq-stale"}


class TestSeedsAndJobs:
    def test_flags_parsed(self):
        args = build_parser().parse_args(
            ["figure3", "--seeds", "1,2,3", "--jobs", "4"]
        )
        assert args.seeds == "1,2,3"
        assert args.jobs == 4
        defaults = build_parser().parse_args(["figure3"])
        assert defaults.seeds is None
        assert defaults.jobs == 1

    def test_bad_seeds_exit_2(self, capsys):
        assert main(["figure3", "--quick", "--seeds", "1,1"]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_serial_multi_seed_run_reports_cis(self, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "QUICK_N", 400)
        assert main(["figure3", "--quick", "--seeds", "1,2,3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "±" in out

    def test_jobs_delegates_to_sweep_orchestrator(
        self, capsys, monkeypatch, tmp_path
    ):
        import tempfile

        import repro.cli as cli

        # Without --out, --jobs checkpoints into a fresh temporary
        # directory and prints how to resume it.
        monkeypatch.setattr(cli, "QUICK_N", 300)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(
            ["figure3", "--quick", "--jobs", "2", "--seeds", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "pooling" in out
        assert "repro-experiments figure3 --seeds 1 --quick" in out
        assert "--resume --out" in out
        (ckpt,) = tmp_path.iterdir()
        assert (ckpt / "merged.json").exists()

    def test_jobs_without_seeds_exits_2(self, capsys, tmp_path):
        # Pooled cells always run derived seeds; the raw --seed of an
        # in-process run has no pooled equivalent, so refuse to guess.
        assert main(
            ["figure3", "--quick", "--jobs", "2", "--out", str(tmp_path)]
        ) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestTraceFlag:
    def test_trace_flag_parsed(self):
        args = build_parser().parse_args(["figure3", "--trace", "traces/"])
        assert args.trace == "traces/"
        assert build_parser().parse_args(["figure3"]).trace is None

    def test_figure_run_writes_traces(self, capsys, monkeypatch, tmp_path):
        import repro.cli as cli

        monkeypatch.setattr(cli, "QUICK_N", 400)
        assert main(["figure3", "--quick", "--trace", str(tmp_path)]) == 0
        traces = sorted(tmp_path.glob("*.trace.json"))
        assert traces, "expected one trace file per (system, load) point"
        import json

        doc = json.loads(traces[0].read_text())
        assert "traceEvents" in doc and "repro" in doc

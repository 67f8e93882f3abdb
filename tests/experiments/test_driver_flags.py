"""Every experiment driver honors (or loudly refuses) the run-artifact
flags — no silent ``--trace``/``--metrics``/``--forensics`` no-ops.

The rack driver once accepted ``trace_dir`` and dropped it on the
floor; a user asking for traces got an empty directory and no hint.
This suite closes that class of bug structurally: every driver behind
``repro-experiments`` must either thread all three artifact directories
(and ``--utilizations``) into its runs or raise
:class:`~repro.errors.UsageError` the moment one is passed.  The
checkpointed path (``--out``/``--jobs``) is held to the same rule.
"""

import importlib
import inspect

import pytest

from repro.cli import EXPERIMENTS, _tables_run, main
from repro.errors import UsageError

#: Experiments whose run() simulates (everything except static tables).
SIMULATING = sorted(set(EXPERIMENTS) - {"tables"})

ARTIFACT_PARAMS = ("trace_dir", "metrics_dir", "forensics_dir")


def driver_module(name):
    return importlib.import_module(f"repro.experiments.{name}")


class TestDriverSignatures:
    def test_registry_covers_eleven_simulating_drivers(self):
        assert len(SIMULATING) == 11

    @pytest.mark.parametrize("name", SIMULATING)
    def test_every_simulating_driver_accepts_artifact_dirs(self, name):
        params = inspect.signature(driver_module(name).run).parameters
        missing = [p for p in ARTIFACT_PARAMS if p not in params]
        assert not missing, (
            f"{name}.run() silently ignores {missing}: artifact flags "
            "must be threaded into the runs or refused with UsageError"
        )
        for p in ARTIFACT_PARAMS:
            assert params[p].default is None

    @pytest.mark.parametrize("name", SIMULATING)
    def test_every_simulating_driver_accepts_utilizations(self, name):
        params = inspect.signature(driver_module(name).run).parameters
        assert params["utilizations"].default is None


class TestTablesRefusesArtifacts:
    @pytest.mark.parametrize(
        "flag,kwargs",
        [
            ("--trace", dict(trace_dir="t")),
            ("--metrics", dict(metrics_dir="m")),
            ("--forensics", dict(forensics_dir="f")),
        ],
    )
    def test_each_flag_is_a_usage_error(self, flag, kwargs):
        args = dict(
            n=100, seed=1, sanitize=False, trace_dir=None,
            metrics_dir=None, seeds=None, forensics_dir=None,
        )
        args.update(kwargs)
        with pytest.raises(UsageError, match=flag):
            _tables_run(**args)

    def test_utilizations_is_a_usage_error(self):
        with pytest.raises(UsageError, match="--utilizations"):
            _tables_run(100, 1, False, None, None, None, None, [0.5])

    def test_without_artifacts_tables_run_is_a_noop(self):
        assert _tables_run(100, 1, False, None, None, None, None) is None


class TestCliExitCodes:
    def test_tables_with_trace_exits_2(self, capsys, tmp_path):
        assert main(["tables", "--trace", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--trace" in err and "tables" in err

    def test_tables_with_forensics_exits_2(self, capsys, tmp_path):
        # --forensics implies --trace first; give both so the tables
        # driver itself is what refuses.
        assert main(
            ["tables", "--trace", str(tmp_path), "--forensics", str(tmp_path)]
        ) == 2
        assert "tables" in capsys.readouterr().err

    def test_forensics_without_trace_exits_2(self, capsys, tmp_path):
        assert main(["figure3", "--quick", "--forensics", str(tmp_path)]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_forensics_flag_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["figure3", "--trace", "t/", "--forensics", "f/"]
        )
        assert args.forensics == "f/"
        assert build_parser().parse_args(["figure3"]).forensics is None


class TestForensicsEndToEnd:
    def test_figure_run_builds_a_forensics_store(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.cli as cli

        monkeypatch.setattr(cli, "QUICK_N", 400)
        trace_dir = tmp_path / "traces"
        store = tmp_path / "forensics"
        assert main(
            [
                "figure3", "--quick",
                "--trace", str(trace_dir),
                "--forensics", str(store),
            ]
        ) == 0
        from repro.forensics.registry import RunRegistry

        registry = RunRegistry(str(store))
        run_ids = registry.run_ids()
        assert len(run_ids) == len(list(trace_dir.glob("*.trace.json")))
        record = registry.load(run_ids[0])
        assert record["digests"]["reconciliation_ok"] is True


class TestUtilizationsFlag:
    def test_figure7_refuses_it(self, capsys):
        assert main(["figure7", "--utilizations", "0.33"]) == 2
        err = capsys.readouterr().err
        assert "--utilizations" in err and "figure7" in err

    def test_single_point_driver_refuses_several(self, capsys):
        assert main(["chaos", "--quick", "--utilizations", "0.5,0.6"]) == 2
        assert "one load point" in capsys.readouterr().err

    def test_chaos_episode_follows_the_load(self):
        from repro.experiments import chaos

        _, crash, recover, window = chaos.episode_plan(1000, None, 0.7)
        _, crash_half, recover_half, window_half = chaos.episode_plan(
            1000, None, 0.35
        )
        assert crash_half == pytest.approx(2 * crash)
        assert recover_half == pytest.approx(2 * recover)
        assert window_half == pytest.approx(2 * window)

    def test_load_sweep_honors_it(self, capsys):
        assert main(
            ["figure9", "--n-requests", "300", "--utilizations", "0.35,0.55"]
        ) == 0
        out = capsys.readouterr().out
        assert "0.35" in out and "0.55" in out and "0.95" not in out

    def test_checkpointed_figure7_refuses_it(self, capsys, tmp_path):
        assert main(
            ["figure7", "--seeds", "1", "--utilizations", "0.33",
             "--out", str(tmp_path / "ckpt")]
        ) == 2
        assert "no load grid" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()


class TestDeclaredRequestCounts:
    def test_each_experiment_runs_its_declared_n(self, monkeypatch, capsys):
        import repro.cli as cli

        seen = {}
        for name in SIMULATING:
            module = driver_module(name)

            def fake_run(_name=name, **kwargs):
                seen[_name] = kwargs.get("n_requests")

            monkeypatch.setattr(module, "run", fake_run)
            run, _render = cli.EXPERIMENTS[name]
            monkeypatch.setitem(cli.EXPERIMENTS, name, (run, lambda r: ""))
        for name in SIMULATING:
            assert main([name]) == 0
        declared = {
            name: driver_module(name).EXPERIMENT.n_requests
            for name in SIMULATING
            if name != "figure7"
        }
        assert {k: v for k, v in seen.items() if k != "figure7"} == declared
        assert declared["rack"] == declared["chaos"] == 20_000
        assert declared["figure5"] == 60_000 and declared["figure9"] == 50_000
        # Figure 7 runs fixed-length phases: it takes no request count.
        assert seen["figure7"] is None


#: A small checkpointed grid: one load point, two replicate seeds.
POOLED = [
    "figure3", "--n-requests", "300", "--utilizations", "0.5",
    "--seeds", "1,2", "--jobs", "2",
]


class TestCheckpointedFlags:
    """The checkpointed path honors --trace/--metrics per cell and
    refuses the run flags it cannot honor, naming the flag."""

    @pytest.mark.parametrize("flag", ["--trace", "--metrics"])
    def test_artifact_dirs_are_honored_per_cell(self, flag, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        assert main(
            POOLED + ["--out", str(tmp_path / "ckpt"), flag, str(artifacts)]
        ) == 0
        cells = list((tmp_path / "ckpt" / "cells").glob("*.json"))
        suffix = ".trace.json" if flag == "--trace" else ".metrics.jsonl"
        written = list(artifacts.glob("*" + suffix))
        assert cells and len(written) == len(cells)

    @pytest.mark.parametrize(
        "flag,extra",
        [
            ("--csv", ["--csv", "CSV"]),
            ("--forensics", ["--trace", "T", "--forensics", "F"]),
            ("--sanitize", ["--sanitize"]),
            ("--shadow", ["--shadow"]),
        ],
    )
    def test_unhonored_flags_exit_2(self, flag, extra, tmp_path, capsys,
                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(POOLED + ["--out", "ckpt"] + extra) == 2
        assert flag in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_all_checkpoints_each_experiment_apart(
        self, monkeypatch, tmp_path, capsys
    ):
        import repro.cli as cli

        for name in set(EXPERIMENTS) - {"figure3", "figure9", "tables"}:
            monkeypatch.delitem(cli.EXPERIMENTS, name)
        out = tmp_path / "ckpt"
        assert main(
            ["all", "--n-requests", "200", "--seeds", "1", "--jobs", "2",
             "--out", str(out)]
        ) == 0
        assert (out / "figure3" / "merged.json").exists()
        assert (out / "figure9" / "merged.json").exists()

"""Checkpointed ``repro-experiments`` runs: plan, run (``--out``),
resume, status and merge end to end, exit codes."""

import json
import os

import pytest

from repro import cli

# The smallest real grid: one load point, both bimodal workloads,
# three systems each.
GRID = ["figure5", "--n-requests", "300", "--utilizations", "0.5"]


def _run(argv):
    return cli.main(argv)


class TestUsage:
    def test_unknown_experiment_exits_2(self):
        with pytest.raises(SystemExit) as err:
            _run(["plan", "figure99", "--out", "x"])
        assert err.value.code == 2

    def test_missing_out_exits_2(self):
        with pytest.raises(SystemExit) as err:
            _run(["plan", "figure5"])
        assert err.value.code == 2

    def test_status_on_missing_dir_exits_2(self, tmp_path, capsys):
        assert _run(["status", str(tmp_path / "nowhere")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_seeds_exit_2(self, tmp_path, capsys):
        code = _run(
            ["plan", *GRID, "--seeds", "1,1", "--out", str(tmp_path / "s")]
        )
        assert code == 2
        assert "duplicate" in capsys.readouterr().err


class TestPlan:
    def test_plan_writes_grid(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        assert _run(["plan", *GRID, "--seeds", "1,2", "--out", out]) == 0
        assert "planned figure5: 12 cells" in capsys.readouterr().out
        with open(os.path.join(out, "plan.json")) as fp:
            doc = json.load(fp)
        assert doc["kind"] == "repro-sweep-plan"
        assert len(doc["cells"]) == 12

    def test_plan_refuses_existing_dir(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        assert _run(["plan", *GRID, "--out", out]) == 0
        assert _run(["plan", *GRID, "--out", out]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_run_without_resume_refuses_planned_dir(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        assert _run(["plan", *GRID, "--out", out]) == 0
        assert _run([*GRID, "--seeds", "1", "--out", out]) == 2


class TestRunStatusMerge:
    def test_full_cycle_with_interrupt_and_resume(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        base = [*GRID, "--seeds", "1", "--out", out]

        # "Interrupted" first invocation: only 2 of 6 cells run.
        assert _run(base + ["--max-cells", "2"]) == 1
        assert "pending" in capsys.readouterr().out
        assert not os.path.exists(os.path.join(out, "merged.json"))
        assert _run(["status", out]) == 1
        assert "2/6 cells complete" in capsys.readouterr().out

        # Resume finishes the remaining cells and merges.
        assert _run(base + ["--resume"]) == 0
        merged_out = capsys.readouterr().out
        assert "merged 6 cells" in merged_out
        assert os.path.exists(os.path.join(out, "merged.json"))
        assert _run(["status", out]) == 0

        # Re-merge on demand.
        assert _run(["merge", out]) == 0
        assert "merged 6 cells" in capsys.readouterr().out

    def test_resumed_digests_match_uninterrupted(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        base = [*GRID, "--seeds", "1", "--out"]
        assert _run(base + [a]) == 0
        assert _run(base + [b, "--max-cells", "3"]) == 1
        assert _run(base + [b, "--resume"]) == 0
        digests_a = _digests(a)
        digests_b = _digests(b)
        assert digests_a == digests_b
        assert len(digests_a) == 6

    def test_multi_seed_run_reports_cis(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = _run(
            [
                "figure5", "--n-requests", "200",
                "--utilizations", "0.5", "--seeds", "1,2,3",
                "--out", out,
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "mean±95% CI over 3 seeds" in text
        assert "±" in text
        with open(os.path.join(out, "merged.json")) as fp:
            doc = json.load(fp)
        assert all(g["replicates"] == 3 for g in doc["groups"])


def _digests(root):
    with open(os.path.join(root, "manifest.json")) as fp:
        manifest = json.load(fp)
    return {
        cell_id: entry["digest"]
        for cell_id, entry in manifest["cells"].items()
        if entry["status"] == "ok"
    }

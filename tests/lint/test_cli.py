"""The static-rule and determinism surface of ``repro-analyze``: exit
codes, formats, acceptance gate."""

import json
import os

import pytest

from repro.analyze.cli import main
from repro.analyze.findings import ANALYSIS_RULES
from repro.lint import determinism

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")

MODULE_RULES = [m.id for m in ANALYSIS_RULES.values() if m.analysis == "modulerules"]


class TestLintCommand:
    def test_src_repro_is_clean(self, capsys):
        """The acceptance gate: the shipped tree is clean under every
        per-module rule, warnings included."""
        select = ",".join(MODULE_RULES + ["A301", "A000"])
        assert main(["scan", SRC_REPRO, "--select", select, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_violation_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["scan", str(bad)]) == 1
        assert "A104" in capsys.readouterr().out

    def test_suppressed_violation_passes(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import random\nx = random.random()  # repro-analyze: disable=A104\n"
        )
        assert main(["scan", str(ok)]) == 0

    def test_warning_passes_unless_strict(self, tmp_path):
        warn = tmp_path / "warn.py"
        warn.write_text("def steer(k, n):\n    return hash(k) % n\n")
        assert main(["scan", str(warn)]) == 0
        assert main(["scan", str(warn), "--strict"]) == 1

    def test_select_subset(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["scan", str(bad), "--select", "A605"]) == 0
        assert main(["scan", str(bad), "--select", "A104"]) == 1

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(acc=[]):\n    return acc\n")
        assert main(["scan", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule_id"] == "A605"
        assert payload[0]["severity"] == "error"

    def test_directory_walk_skips_hidden(self, tmp_path):
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "bad.py").write_text("import random\nrandom.random()\n")
        (tmp_path / "good.py").write_text("x = 1\n")
        assert main(["scan", str(tmp_path)]) == 0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["scan", str(tmp_path / "nope.py")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_select_is_usage_error(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main(["scan", str(good), "--select", "A999"]) == 2

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_pragma_id_is_a000(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1  # repro-analyze: disable=A999\n")
        assert main(["scan", str(bad)]) == 0
        out = capsys.readouterr().out
        assert "A000" in out
        assert "unknown rule id" in out
        assert main(["scan", str(bad), "--strict"]) == 1

    def test_stale_pragma_warns_fails_strict(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text("x = 1  # repro-analyze: disable=A104\n")
        assert main(["scan", str(stale)]) == 0
        assert "A000" in capsys.readouterr().out
        assert main(["scan", str(stale), "--strict"]) == 1

    def test_chaos_requires_determinism(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["scan", str(good), "--chaos"])
        assert exc.value.code == 2
        assert "--chaos" in capsys.readouterr().err


class TestListRules:
    def test_catalogue_lists_every_rule(self, capsys):
        assert main(["list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in MODULE_RULES:
            assert rule_id in out
            assert ANALYSIS_RULES[rule_id].name in out


class TestDeterminismCommand:
    def test_determinism_reports_three_systems(self, capsys):
        assert main(["determinism", "--n-requests", "300"]) == 0
        out = capsys.readouterr().out
        assert "3/3 system(s) reproducible" in out

    def test_chaos_adds_fault_injected_runs(self, capsys):
        assert main(["determinism", "--chaos", "--n-requests", "200"]) == 0
        out = capsys.readouterr().out
        assert "6/6 system(s) reproducible" in out

    def test_mismatch_exits_one(self, monkeypatch, capsys):
        real = determinism.check_all

        def diverging(**kwargs):
            report = real(**kwargs)[0]
            second = report.second._replace(digest="0" * len(report.second.digest))
            return [report._replace(identical=False, second=second)]

        monkeypatch.setattr(determinism, "check_all", diverging)
        assert main(["determinism", "--n-requests", "200"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "0/1 system(s) reproducible" in out

"""``repro-observe`` over a trace: every trace subcommand end-to-end on
a real Perséphone trace, plus failure-path exit codes."""

import json

import pytest

from repro.cli.observe import main
from repro.experiments.common import run_once
from repro.systems.persephone import PersephoneSystem
from repro.workload.presets import high_bimodal


@pytest.fixture(scope="module")
def smoke_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "smoke.trace.json"
    run_once(
        PersephoneSystem(n_workers=14, name="Persephone"),
        high_bimodal(),
        0.95,
        n_requests=3000,
        seed=1,
        trace_path=str(path),
    )
    return path


class TestSubcommands:
    def test_validate_passes_on_smoke_trace(self, smoke_trace, capsys):
        assert main(["validate", str(smoke_trace)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_summary_reports_reconciliation(self, smoke_trace, capsys):
        assert main(["summary", str(smoke_trace)]) == 0
        out = capsys.readouterr().out
        assert "span/recorder reconciliation: OK" in out
        assert "streaming tail estimates" in out
        assert "recorder:" in out and "late_completions=" in out

    def test_breakdown_renders_stage_table(self, smoke_trace, capsys):
        assert main(["breakdown", str(smoke_trace), "--pct", "99"]) == 0
        out = capsys.readouterr().out
        assert "Latency breakdown at p99" in out
        assert "queue" in out

    def test_convert_writes_csv(self, smoke_trace, tmp_path, capsys):
        out_path = tmp_path / "spans.csv"
        assert main(["convert", str(smoke_trace), str(out_path)]) == 0
        header = out_path.read_text().splitlines()[0]
        assert header.startswith("rid,type_id,")
        assert "queue_wait" in header


class TestFailurePaths:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["summary", str(tmp_path / "nope.trace.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_flags_broken_layer(self, tmp_path, capsys):
        path = tmp_path / "broken.trace.json"
        path.write_text(
            json.dumps(
                {
                    "traceEvents": [{"ph": "X", "pid": 0, "ts": -5.0}],
                    "repro": {"version": 1},
                }
            )
        )
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_breakdown_without_completed_spans_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.trace.json"
        path.write_text(json.dumps({"traceEvents": [], "repro": {"version": 1}}))
        assert main(["breakdown", str(path)]) == 1
        assert "no completed spans" in capsys.readouterr().out

    def test_convert_to_unwritable_path_exits_2(self, smoke_trace, tmp_path,
                                                capsys):
        out_path = tmp_path / "nodir" / "spans.csv"
        assert main(["convert", str(smoke_trace), str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_summary_family_on_a_trace_exits_2(self, smoke_trace, capsys):
        assert main(["summary", str(smoke_trace), "--family", "x"]) == 2
        assert "--family" in capsys.readouterr().err

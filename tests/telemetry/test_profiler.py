"""Profiling a whole run through ``EventLoop.attach_profiler``, the
wall-clock hook perfbench's ledger (``perfbench/ledger.py``) attaches
through: per-handler attribution, unchanged results, and the ledger
document that ``repro-analyze hotpath --profile`` reads.  The hook's own
attach/detach rules are in ``tests/sim/test_profiler_hook.py``."""

import importlib.util
import json
import os
import time

import pytest

from repro.analyze.hotpath import load_profile
from repro.errors import TelemetryError
from repro.experiments.common import run_once
from repro.lint.determinism import digest_outcome
from repro.sim.engine import EventLoop
from repro.systems.persephone import PersephoneSystem
from repro.telemetry.bench import summarize_file
from repro.workload.presets import high_bimodal

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class HandlerProfiler:
    """Run each event and count it under its callback's qualname."""

    def __init__(self):
        self.calls = {}

    def run_event(self, event):
        name = getattr(event.fn, "__qualname__", repr(event.fn))
        self.calls[name] = self.calls.get(name, 0) + 1
        event.fn(*event.args)


def _run(n_requests=1200, seed=2):
    return run_once(
        PersephoneSystem(n_workers=8, oracle=True),
        high_bimodal(),
        0.7,
        n_requests=n_requests,
        seed=seed,
    )


def _attached_on_run(profiler):
    """Attach ``profiler`` to every loop when it starts running, as
    perfbench's ledger does; returns the undo."""
    run = EventLoop.run

    def run_profiled(loop, *args, **kwargs):
        if loop.profiler is None:
            loop.attach_profiler(profiler)
        return run(loop, *args, **kwargs)

    EventLoop.run = run_profiled
    return lambda: setattr(EventLoop, "run", run)


@pytest.fixture(scope="module")
def profiled():
    profiler = HandlerProfiler()
    undo = _attached_on_run(profiler)
    try:
        result = _run()
    finally:
        undo()
    return profiler, result


class TestAttribution:
    def test_every_event_is_counted(self, profiled):
        profiler, result = profiled
        loop = result.server.loop
        assert loop.profiler is profiler
        assert sum(profiler.calls.values()) == loop.events_processed > 0
        assert any("OpenLoopGenerator" in name for name in profiler.calls)

    def test_profiled_run_results_unaffected(self, profiled):
        # The profiler executes every event itself; virtual-time results
        # must match an unprofiled same-seed run exactly.
        _, result = profiled
        plain = _run()
        assert plain.server.loop.profiler is None
        assert plain.summary.overall_tail_latency == result.summary.overall_tail_latency
        assert plain.server.loop.now == result.server.loop.now
        assert digest_outcome(plain.server.recorder, plain.server.loop) == digest_outcome(
            result.server.recorder, result.server.loop
        )


def _load_perfbench_ledger():
    path = os.path.join(REPO_ROOT, "perfbench", "ledger.py")
    spec = importlib.util.spec_from_file_location("perfbench_ledger", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReport:
    def test_write_is_valid_json_and_bench_compatible(self, tmp_path):
        bare_run = EventLoop.run
        ledger = _load_perfbench_ledger().Ledger()
        ledger.install()
        try:
            start = time.perf_counter()
            result = _run(n_requests=400, seed=4)
            book = ledger.end_cell(time.perf_counter() - start)
        finally:
            ledger.uninstall()
        assert EventLoop.run is bare_run  # every wrapper is removed again
        assert book.reconciles()
        assert book.entry_calls("Server.ingress") == result.server.received > 0

        # The document shape ``perfbench/run.py --trace 1`` writes.
        path = tmp_path / "ledger-test-seed4.json"
        path.write_text(json.dumps(
            {"workload": "test", "seed": 4, "requests_per_cell": 400,
             "cells": {"persephone@0.7": book.to_json()}}
        ))
        doc = json.loads(path.read_text())
        entries = doc["cells"]["persephone@0.7"]["entries"]
        profile = load_profile(str(path))
        assert set(profile) == {e["entry"].replace("event:", "", 1) for e in entries}
        assert sum(profile.values()) == pytest.approx(sum(e["self_s"] for e in entries))
        # A ledger is read by the hot-path ranking, never gated as a benchmark.
        with pytest.raises(TelemetryError):
            summarize_file(str(path))

"""Tests for the top-level public API (`repro` package surface)."""

import pytest

import repro


class TestQuickRun:
    def test_default_run(self):
        result = repro.quick_run(n_requests=1500, utilization=0.5)
        assert result.summary.completed == 1350  # 10% warm-up discarded
        assert result.system_name.startswith("Persephone")

    def test_every_policy_choice_runs(self):
        for policy in ("darc", "darc-profiled", "c-fcfs", "d-fcfs", "shenango", "shinjuku"):
            result = repro.quick_run(
                policy, "high_bimodal", 0.4, n_workers=4, n_requests=400
            )
            assert result.summary.completed == 360

    def test_every_preset_runs(self):
        for workload in sorted(repro.workload_by_name.__globals__["PRESETS"]):
            result = repro.quick_run(
                "c-fcfs", workload, 0.4, n_workers=6, n_requests=400
            )
            assert result.summary.completed == 360

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="choices"):
            repro.quick_run("magic")

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            repro.quick_run("darc", "nope")


class TestSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_console_scripts_resolve(self):
        import importlib
        import os
        import re

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as fp:
            text = fp.read()
        section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        scripts = dict(re.findall(r'^([\w-]+) = "([\w.:]+)"$', section, re.M))
        assert sorted(scripts) == [
            "repro-analyze", "repro-experiments", "repro-observe",
        ]
        for target in scripts.values():
            module, attr = target.split(":")
            assert callable(getattr(importlib.import_module(module), attr))

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.apps
        import repro.cluster
        import repro.core
        import repro.experiments
        import repro.metrics
        import repro.net
        import repro.policies
        import repro.server
        import repro.sim
        import repro.systems
        import repro.trace
        import repro.workload

        for module in (
            repro.analysis, repro.apps, repro.cluster, repro.core,
            repro.experiments, repro.metrics, repro.net, repro.policies,
            repro.server, repro.sim, repro.systems, repro.trace,
            repro.workload,
        ):
            assert module.__doc__, f"{module.__name__} lacks a docstring"
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.{name}"

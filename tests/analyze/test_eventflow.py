"""The simulated-time race detector (A001/A002)."""

from repro.analyze.eventflow import collect_schedule_sites


def rule_ids(findings):
    return sorted(f.rule_id for f in findings)


RACE = {
    "sim/pipe.py": """
    class Pipeline:
        def __init__(self, loop):
            self.loop = loop
            self.log = []

        def kick(self):
            self.loop.call_after(0.0, self.on_a)
            self.loop.call_after(0.0, self.on_b)

        def on_a(self):
            self.log.append("a")

        def on_b(self):
            self.log.append("b")
    """
}


class TestSameTimeRace:
    def test_equal_constant_delays_conflict(self, analyze):
        findings = analyze(RACE, select=["A001"])
        assert rule_ids(findings) == ["A001"]
        assert "on_a" in findings[0].message and "on_b" in findings[0].message
        assert "Pipeline.log" in findings[0].message

    def test_distinct_delays_clean(self, analyze):
        files = {
            "sim/pipe.py": RACE["sim/pipe.py"].replace(
                "call_after(0.0, self.on_b)", "call_after(1.0, self.on_b)"
            )
        }
        assert analyze(files, select=["A001"]) == []

    def test_disjoint_state_clean(self, analyze):
        files = {
            "sim/pipe.py": """
            class Pipeline:
                def __init__(self, loop):
                    self.loop = loop
                    self.a_log = []
                    self.b_log = []

                def kick(self):
                    self.loop.call_after(0.0, self.on_a)
                    self.loop.call_after(0.0, self.on_b)

                def on_a(self):
                    self.a_log.append("a")

                def on_b(self):
                    self.b_log.append("b")
            """
        }
        assert analyze(files, select=["A001"]) == []

    def test_same_handler_twice_is_benign(self, analyze):
        files = {
            "sim/pipe.py": """
            class Pipeline:
                def __init__(self, loop):
                    self.loop = loop
                    self.log = []

                def kick(self):
                    self.loop.call_after(0.0, self.on_a)
                    self.loop.call_after(0.0, self.on_a)

                def on_a(self):
                    self.log.append("a")
            """
        }
        assert analyze(files, select=["A001"]) == []

    def test_transitive_effects_through_helper(self, analyze):
        """The conflict is found even when one handler writes via a
        helper method (call-graph closure)."""
        files = {
            "sim/pipe.py": """
            class Pipeline:
                def __init__(self, loop):
                    self.loop = loop
                    self.log = []

                def kick(self):
                    self.loop.call_after(0.0, self.on_a)
                    self.loop.call_after(0.0, self.on_b)

                def on_a(self):
                    self._record("a")

                def _record(self, tag):
                    self.log.append(tag)

                def on_b(self):
                    self.log.append("b")
            """
        }
        assert rule_ids(analyze(files, select=["A001"])) == ["A001"]

    def test_effects_through_request_hook_loop(self, analyze):
        """A hook-table loop calls every ``on_x`` method of that name, so
        ``hook(...)`` expands like an unresolved ``obj.on_x(...)`` call."""
        files = {
            "sim/pipe.py": """
            class Sink:
                def __init__(self):
                    self.seen = []

                def on_done(self, tag):
                    self.seen.append(tag)

            class Pipeline:
                def __init__(self, loop, hooks):
                    self.loop = loop
                    self.hooks = hooks

                def kick(self):
                    self.loop.call_after(0.0, self.fire_a)
                    self.loop.call_after(0.0, self.fire_b)

                def fire_a(self):
                    for hook in self.hooks.on_done:
                        hook("a")

                def fire_b(self):
                    on_done = self.hooks.on_done
                    for hook in on_done:
                        hook("b")
            """
        }
        findings = analyze(files, select=["A001"])
        assert rule_ids(findings) == ["A001"]
        assert "Sink.seen" in findings[0].message

    def test_noncritical_package_out_of_scope(self, analyze):
        files = {"analysis/pipe.py": RACE["sim/pipe.py"]}
        assert analyze(files, select=["A001", "A002"]) == []


class TestAbsoluteTimeRace:
    def test_call_at_vs_constant_delay(self, analyze):
        files = {
            "sim/pipe.py": """
            class Pipeline:
                def __init__(self, loop, plan_time):
                    self.loop = loop
                    self.plan_time = plan_time
                    self.log = []

                def kick(self):
                    self.loop.call_at(self.plan_time, self.on_fault)
                    self.loop.call_after(5.0, self.on_done)

                def on_fault(self):
                    self.log.append("fault")

                def on_done(self):
                    self.log.append("done")
            """
        }
        findings = analyze(files, select=["A002"])
        assert rule_ids(findings) == ["A002"]

    def test_two_distinct_constant_call_at_clean(self, analyze):
        files = {
            "sim/pipe.py": """
            class Pipeline:
                def __init__(self, loop):
                    self.loop = loop
                    self.log = []

                def kick(self):
                    self.loop.call_at(1.0, self.on_a)
                    self.loop.call_at(2.0, self.on_b)

                def on_a(self):
                    self.log.append("a")

                def on_b(self):
                    self.log.append("b")
            """
        }
        assert analyze(files, select=["A002"]) == []


class TestScheduleSites:
    def test_collects_and_classifies(self, build):
        program = build(RACE)
        sites = collect_schedule_sites(program)
        assert len(sites) == 2
        assert all(s.method == "call_after" for s in sites)
        assert all(s.delay_kind == "const" and s.delay_value == 0.0 for s in sites)
        assert {s.callback.qualname for s in sites} == {
            "Pipeline.on_a",
            "Pipeline.on_b",
        }

    def test_suppression_pragma(self, analyze):
        files = {
            "sim/pipe.py": RACE["sim/pipe.py"].replace(
                "self.loop.call_after(0.0, self.on_a)",
                "self.loop.call_after(0.0, self.on_a)  # repro-analyze: disable=A001",
            )
        }
        assert analyze(files, select=["A001"]) == []

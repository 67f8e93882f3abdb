"""Positive + negative fixtures for every per-module analyzer rule
(:mod:`repro.analyze.modulerules`), plus the suppression machinery.

Each fixture is written into a scratch tree with ``make_tree`` and
scanned by ``analyze``, exactly as ``repro-analyze scan`` would.
"""

import pytest

from repro.analyze.findings import ANALYSIS_RULES
from repro.analyze.runner import has_errors
from repro.errors import AnalysisError

#: Path prefixes that put a fixture inside / outside the sim-critical scope.
CRITICAL = "src/repro/sim/fixture.py"
CRITICAL_CORE = "src/repro/core/fixture.py"
DRIVER = "src/repro/experiments/fixture.py"

#: The per-module rules plus observer purity and pragma hygiene.
MODULE_RULES = ["A003", "A004", "A104", "A302", "A303", "A506", "A605", "A606"]
DEFAULT_SELECT = MODULE_RULES + ["A301", "A000"]


@pytest.fixture
def lint(analyze):
    def _lint(source, path=CRITICAL, select=None):
        return analyze({path: source}, select=select or DEFAULT_SELECT)

    return _lint


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestDirectRandom:
    def test_stdlib_random_flagged(self, lint):
        findings = lint(
            """
            import random
            def pick():
                return random.random()
            """
        )
        assert rule_ids(findings) == ["A104"]

    def test_numpy_global_rng_flagged(self, lint):
        findings = lint(
            """
            import numpy as np
            def pick():
                return np.random.default_rng().integers(0, 4)
            """
        )
        assert "A104" in rule_ids(findings)

    def test_from_import_alias_flagged(self, lint):
        findings = lint(
            """
            from random import randint
            def pick():
                return randint(0, 3)
            """
        )
        assert rule_ids(findings) == ["A104"]

    def test_registry_stream_ok(self, lint):
        findings = lint(
            """
            def pick(rngs):
                return rngs.stream("victims").integers(0, 4)
            """
        )
        assert findings == []

    def test_randomness_module_exempt(self, lint):
        findings = lint(
            """
            import numpy as np
            def make(seed):
                return np.random.default_rng(seed)
            """,
            path="src/repro/sim/randomness.py",
        )
        assert findings == []

    def test_generator_annotation_not_flagged(self, lint):
        findings = lint(
            """
            import numpy as np
            def draw(rng: np.random.Generator) -> float:
                return rng.random()
            """
        )
        assert findings == []


class TestWallClock:
    @pytest.mark.parametrize(
        "call",
        ["time.time()", "time.monotonic()", "time.perf_counter()", "time.sleep(1)"],
    )
    def test_time_module_flagged_in_sim(self, lint, call):
        findings = lint(f"import time\nnow = lambda: {call}\n")
        assert rule_ids(findings) == ["A302"]

    def test_datetime_now_flagged(self, lint):
        findings = lint(
            """
            from datetime import datetime
            def stamp():
                return datetime.now()
            """
        )
        assert rule_ids(findings) == ["A302"]

    def test_driver_code_exempt(self, lint):
        findings = lint("import time\nstart = time.time()\n", path=DRIVER)
        assert findings == []

    def test_sim_time_ok(self, lint):
        findings = lint(
            """
            def stamp(loop):
                return loop.now
            """
        )
        assert findings == []


class TestMutableDefault:
    def test_list_default_flagged(self, lint):
        findings = lint("def f(acc=[]):\n    return acc\n")
        assert rule_ids(findings) == ["A605"]

    def test_dict_set_call_defaults_flagged(self, lint):
        findings = lint(
            """
            def f(a={}, b=set(), c=dict()):
                return a, b, c
            """
        )
        assert rule_ids(findings) == ["A605", "A605", "A605"]

    def test_kwonly_default_flagged(self, lint):
        findings = lint("def f(*, acc=[]):\n    return acc\n")
        assert rule_ids(findings) == ["A605"]

    def test_flagged_outside_critical_scope_too(self, lint):
        findings = lint("def f(acc=[]):\n    return acc\n", path=DRIVER)
        assert rule_ids(findings) == ["A605"]

    def test_none_default_ok(self, lint):
        findings = lint(
            """
            def f(acc=None, n=3, name="x"):
                return acc or []
            """
        )
        assert findings == []


class TestUnorderedIteration:
    def test_set_literal_iteration_flagged(self, lint):
        findings = lint(
            """
            def dispatch():
                for tid in {3, 1, 2}:
                    yield tid
            """,
            path=CRITICAL_CORE,
        )
        assert rule_ids(findings) == ["A003"]

    def test_set_call_iteration_flagged(self, lint):
        findings = lint(
            """
            def dispatch(ids):
                for tid in set(ids):
                    yield tid
            """,
            path=CRITICAL_CORE,
        )
        assert rule_ids(findings) == ["A003"]

    def test_set_typed_attribute_iteration_flagged(self, lint):
        findings = lint(
            """
            class Sched:
                def __init__(self):
                    self.orphans = set()
                def drain(self):
                    for tid in self.orphans:
                        yield tid
            """,
            path=CRITICAL_CORE,
        )
        assert rule_ids(findings) == ["A003"]

    def test_sorted_set_ok(self, lint):
        findings = lint(
            """
            def dispatch(pending):
                for tid in sorted({3, 1, 2} | pending):
                    yield tid
            """,
            path=CRITICAL_CORE,
        )
        assert findings == []

    def test_list_iteration_ok(self, lint):
        findings = lint(
            """
            def dispatch(order):
                for tid in order:
                    yield tid
            """,
            path=CRITICAL_CORE,
        )
        assert findings == []


class TestRawUnitLiteral:
    def test_mult_by_1e6_flagged(self, lint):
        findings = lint("def conv(s):\n    return s * 1e6\n")
        assert rule_ids(findings) == ["A506"]

    def test_div_by_billion_flagged(self, lint):
        findings = lint("def conv(ns):\n    return ns / 1_000_000_000\n")
        assert rule_ids(findings) == ["A506"]

    def test_units_module_exempt(self, lint):
        findings = lint(
            "US_PER_SECOND = 1_000_000.0\ndef seconds(s):\n    return s * 1_000_000.0\n",
            path="src/repro/sim/units.py",
        )
        assert findings == []

    def test_named_constant_ok(self, lint):
        findings = lint(
            """
            from repro.sim.units import seconds
            def conv(s):
                return seconds(s)
            """
        )
        assert findings == []

    def test_non_magic_literal_ok(self, lint):
        findings = lint("def double(x):\n    return x * 2\n")
        assert findings == []


class TestHandlerGlobalMutation:
    def test_global_statement_flagged(self, lint):
        findings = lint(
            """
            COUNT = 0
            def bump():
                global COUNT
                COUNT += 1
            """
        )
        assert rule_ids(findings) == ["A606"]

    def test_handler_subscript_mutation_flagged(self, lint):
        findings = lint(
            """
            CACHE = {}
            def on_request(self, request):
                CACHE[request.rid] = request
            """
        )
        assert rule_ids(findings) == ["A606"]

    def test_handler_method_mutation_flagged(self, lint):
        findings = lint(
            """
            PENDING = []
            def on_request(self, request):
                PENDING.append(request)
            """
        )
        assert rule_ids(findings) == ["A606"]

    def test_instance_state_ok(self, lint):
        findings = lint(
            """
            class Sched:
                def on_request(self, request):
                    self.pending.append(request)
            """
        )
        assert findings == []

    def test_local_mutation_ok(self, lint):
        findings = lint(
            """
            def on_request(self, request):
                batch = []
                batch.append(request)
                return batch
            """
        )
        assert findings == []


class TestNondeterministicSource:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import uuid\nrid = lambda: uuid.uuid4()\n",
            "import os\ntoken = lambda: os.urandom(8)\n",
            "import secrets\npick = lambda: secrets.randbelow(10)\n",
        ],
    )
    def test_entropy_sources_flagged(self, lint, snippet):
        assert rule_ids(lint(snippet)) == ["A303"]

    def test_counter_ok(self, lint):
        findings = lint(
            """
            def next_rid(counter):
                return counter + 1
            """
        )
        assert findings == []


class TestBuiltinHashOrder:
    def test_hash_flagged_as_warning(self, lint):
        findings = lint(
            """
            def steer(key, n):
                return hash(key) % n
            """
        )
        assert rule_ids(findings) == ["A004"]
        assert findings[0].severity == "warning"

    def test_warning_does_not_fail_unless_strict(self, lint):
        findings = lint("def steer(k, n):\n    return hash(k) % n\n")
        assert not has_errors(findings)
        assert has_errors(findings, strict=True)

    def test_crc_ok(self, lint):
        findings = lint(
            """
            import zlib
            def steer(key, n):
                return zlib.crc32(key) % n
            """
        )
        assert findings == []


class TestSuppression:
    def test_line_suppression(self, lint):
        findings = lint(
            """
            import random
            def pick():
                return random.random()  # repro-analyze: disable=A104
            """
        )
        assert findings == []

    def test_line_suppression_multiple_ids(self, lint):
        findings = lint(
            """
            import time
            def f(acc=[]):
                return time.time(), acc  # repro-analyze: disable=A302,A605
            """
        )
        # A605 fires on the default's line (the def line), so it survives —
        # and the A605 half of the pragma is therefore stale (A000).
        assert rule_ids(findings) == ["A605", "A000"]

    def test_file_suppression(self, lint):
        findings = lint(
            """
            # repro-analyze: disable-file=A104
            import random
            def pick():
                return random.random()
            """
        )
        assert findings == []

    def test_disable_all(self, lint):
        findings = lint(
            """
            # repro-analyze: disable-file=all
            import random, time
            def f(acc=[]):
                return random.random() + time.time()
            """
        )
        assert findings == []

    def test_unknown_rule_id_is_a000(self, lint):
        findings = lint("x = 1  # repro-analyze: disable=A999\n")
        assert rule_ids(findings) == ["A000"]
        assert "unknown rule id" in findings[0].message

    def test_late_file_pragma_is_a000(self, lint):
        source = "\n" * 30 + "# repro-analyze: disable-file=A104\n"
        findings = lint(source)
        assert rule_ids(findings) == ["A000"]
        assert findings[0].line == 31
        assert "first 10 lines" in findings[0].message

    def test_pragma_inside_docstring_ignored(self, lint):
        findings = lint(
            '''
            def doc():
                """Example: # repro-analyze: disable-file=A104"""
                return 1
            '''
        )
        assert findings == []


class TestRegistry:
    def test_at_least_six_rules(self):
        ids = [m.id for m in ANALYSIS_RULES.values() if m.analysis == "modulerules"]
        assert sorted(ids) == sorted(MODULE_RULES)
        assert len(ids) >= 6

    def test_ids_unique_and_documented(self):
        for rule_id in MODULE_RULES:
            meta = ANALYSIS_RULES[rule_id]
            assert meta.id == rule_id
            expected = "warning" if rule_id == "A004" else "error"
            assert meta.severity == expected
            assert meta.description, f"{rule_id} has no description"

    def test_select_subset(self, lint):
        source = "import random\ndef f(acc=[]):\n    return random.random()\n"
        only_defaults = lint(source, select=["A605"])
        assert rule_ids(only_defaults) == ["A605"]

    def test_select_unknown_raises(self, lint):
        with pytest.raises(AnalysisError, match="unknown analysis rule id"):
            lint("x = 1\n", select=["A999"])

    def test_syntax_error_raises_analysis_error(self, lint):
        with pytest.raises(AnalysisError, match="cannot parse"):
            lint("def broken(:\n")


class TestTracePurity:
    TRACE = "src/repro/trace/tracer.py"

    def test_wall_clock_in_trace_flagged(self, lint):
        findings = lint(
            """
            import time
            def after_event(loop, event):
                return time.monotonic()
            """,
            path=self.TRACE,
            select=["A301"],
        )
        assert rule_ids(findings) == ["A301"]
        assert "wall-clock read" in findings[0].message

    def test_wall_clock_in_observe_module_flagged(self, lint):
        findings = lint(
            """
            import time
            def attach(loop):
                return time.monotonic()
            """,
            path="src/repro/observe.py",
            select=["A301"],
        )
        assert rule_ids(findings) == ["A301"]

    def test_direct_rng_in_trace_flagged(self, lint):
        findings = lint(
            """
            import random
            def sample_id():
                return random.random()
            """,
            path=self.TRACE,
            select=["A301"],
        )
        assert rule_ids(findings) == ["A301"]
        assert "direct RNG draw" in findings[0].message

    def test_host_entropy_in_trace_flagged(self, lint):
        findings = lint(
            """
            import uuid
            def trace_id():
                return uuid.uuid4()
            """,
            path=self.TRACE,
            select=["A301"],
        )
        assert rule_ids(findings) == ["A301"]
        assert "host-entropy source" in findings[0].message

    def test_sim_time_reads_ok(self, lint):
        findings = lint(
            """
            def after_event(self, loop, event):
                now = loop.now
                self.samples.append(now)
            """,
            path=self.TRACE,
            select=["A301"],
        )
        assert findings == []

    def test_rule_scoped_to_trace_package_only(self, lint):
        source = "import time\ndef elapsed():\n    return time.perf_counter()\n"
        outside = lint(source, path=DRIVER, select=["A301"])
        assert outside == []
        inside = lint(source, path="src/repro/trace/export.py", select=["A301"])
        assert rule_ids(inside) == ["A301"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nstamp = lambda: time.time()\n",
            "import random\npick = lambda: random.random()\n",
            "import uuid\nrid = lambda: uuid.uuid4()\n",
        ],
    )
    def test_one_finding_per_impure_call(self, lint, snippet):
        """A302/A104/A303 skip observer modules, so each impure call
        there is reported once, as A301."""
        findings = lint(snippet, path=self.TRACE)
        assert [(f.rule_id, f.line) for f in findings] == [("A301", 2)]

    def test_trace_package_also_gets_scoped_rules(self, lint):
        # 'trace' is not in the non-critical allowlist, so the scoped
        # rules apply there too (A506 here).  The wall-clock read is
        # reported once, as A301: A302 skips observer modules.
        source = (
            "import time\ndef stamp():\n    return time.time()\n"
            "def conv(s):\n    return s * 1e6\n"
        )
        findings = lint(source, path=self.TRACE)
        assert [(f.rule_id, f.line) for f in findings] == [("A301", 3), ("A506", 5)]

    def test_error_severity(self):
        assert ANALYSIS_RULES["A301"].severity == "error"

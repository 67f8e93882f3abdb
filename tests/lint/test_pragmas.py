"""The suppression-pragma grammar (:mod:`repro.analyze.pragmas`) and its
A000 hygiene surface."""

import textwrap

import pytest

from repro.analyze.pragmas import FILE_PRAGMA_WINDOW, PragmaSuppressions, iter_comments


def parse(source):
    return PragmaSuppressions(textwrap.dedent(source))


class TestParsing:
    def test_line_pragma(self):
        p = parse("x = 1  # repro-analyze: disable=A104\n")
        assert p.is_suppressed(1, "A104")
        assert not p.is_suppressed(1, "A302")
        assert not p.is_suppressed(2, "A104")

    def test_multiple_ids_one_pragma(self):
        p = parse("x = 1  # repro-analyze: disable=A104,A302\n")
        assert p.is_suppressed(1, "A104")
        assert p.is_suppressed(1, "A302")

    def test_case_insensitive_ids(self):
        p = parse("x = 1  # repro-analyze: disable=a104\n")
        assert p.is_suppressed(1, "A104")

    def test_file_wide_pragma(self):
        p = parse("# repro-analyze: disable-file=A104\nx = 1\n")
        assert p.is_suppressed(40, "A104")

    def test_disable_all(self):
        p = parse("x = 1  # repro-analyze: disable=all\n")
        assert p.is_suppressed(1, "A104")
        assert p.is_suppressed(1, "A302")

    def test_tool_token_is_namespaced(self):
        """Another tool's pragma neither suppresses nor trips hygiene."""
        p = parse("x = 1  # other-lint: disable=A104\n")
        assert not p.is_suppressed(1, "A104")
        assert p.errors == []

    def test_analyze_tool_parses_its_own(self):
        p = parse("x = 1  # repro-analyze: disable=A102\n")
        assert p.is_suppressed(1, "A102")

    def test_pragma_in_docstring_is_inert(self):
        p = parse('"""# repro-analyze: disable=A104"""\nx = 1\n')
        assert not p.is_suppressed(1, "A104")
        assert not p.is_suppressed(2, "A104")

    def test_iter_comments_skips_strings(self):
        comments = list(iter_comments('s = "# not a comment"\n# yes\n'))
        assert comments == [(2, "# yes")]


class TestUnknownIds:
    def test_collect_mode_records_error(self):
        p = parse("x = 1  # repro-analyze: disable=A999\n")
        assert len(p.errors) == 1
        assert "A999" in p.errors[0].message
        assert p.errors[0].line == 1

    def test_collect_mode_keeps_valid_ids(self):
        p = parse("x = 1  # repro-analyze: disable=A999,A104\n")
        assert p.is_suppressed(1, "A104")
        assert len(p.errors) == 1

    def test_late_file_pragma_collect(self):
        src = "\n" * (FILE_PRAGMA_WINDOW + 5) + "# repro-analyze: disable-file=A104\n"
        p = parse(src)
        assert len(p.errors) == 1
        assert not p.is_suppressed(1, "A104")


class TestUsageLedger:
    def test_unused_line_pragma_is_stale(self):
        p = parse("x = 1  # repro-analyze: disable=A104\n")
        assert p.unused() == [(1, "A104")]

    def test_used_pragma_is_not_stale(self):
        p = parse("x = 1  # repro-analyze: disable=A104\n")
        p.is_suppressed(1, "A104")
        assert p.unused() == []

    def test_file_wide_stale_reports_line_zero(self):
        p = parse("# repro-analyze: disable-file=A302\nx = 1\n")
        assert p.unused() == [(0, "A302")]

    def test_checked_ids_limit_staleness(self):
        """A pragma for a rule that never ran is not judged stale."""
        p = parse("x = 1  # repro-analyze: disable=A104\n")
        assert p.unused(checked_ids=["A302"]) == []
        assert p.unused(checked_ids=["A104"]) == [(1, "A104")]

    def test_mark_used_explicit(self):
        p = parse("x = 1  # repro-analyze: disable=A104\n")
        p.mark_used(1, "A104")
        assert p.unused() == []


class TestStaleSuppressionRule:
    """A000: stale and unknown suppressions, through a full scan."""

    @pytest.fixture
    def lint(self, analyze):
        def _lint(source, select=None):
            return analyze({"src/repro/sim/fixture.py": source}, select=select)

        return _lint

    def test_stale_pragma_fires_a000(self, lint):
        findings = lint("x = 1  # repro-analyze: disable=A104\n")
        assert [f.rule_id for f in findings] == ["A000"]
        assert "stale suppression" in findings[0].message

    def test_live_pragma_is_clean(self, lint):
        findings = lint(
            """
            import random
            def pick():
                return random.random()  # repro-analyze: disable=A104
            """
        )
        assert findings == []

    def test_unknown_analyze_pragma_fires_a000(self, lint):
        findings = lint("x = 1  # repro-analyze: disable=A999\n")
        assert [f.rule_id for f in findings] == ["A000"]
        assert "A999" in findings[0].message

    def test_select_excludes_staleness_of_unran_rules(self, lint):
        findings = lint(
            "x = 1  # repro-analyze: disable=A104\n", select=["A302", "A000"]
        )
        assert findings == []

    def test_a000_suppressible(self, lint):
        findings = lint("x = 1  # repro-analyze: disable=A104,A000\n")
        assert findings == []

    def test_file_wide_stale_anchors_line_one(self, lint):
        findings = lint("# repro-analyze: disable-file=A302\nx = 1\n")
        assert [f.rule_id for f in findings] == ["A000"]
        assert findings[0].line == 1
        assert "file-wide" in findings[0].message

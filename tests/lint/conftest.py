"""The static-rule tests here run through the analyzer's own fixtures
(``make_tree`` writes a fixture tree, ``analyze`` scans it)."""

from tests.analyze.conftest import analyze, make_tree  # noqa: F401

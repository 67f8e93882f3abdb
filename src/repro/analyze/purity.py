"""Observer-purity analysis (finding A301).

The observer packages (:data:`repro.analyze.findings.OBSERVER_PACKAGES`:
trace, telemetry, sweep, rack, forensics and the ``observe`` module)
promise that attaching them cannot change a run, and that their output
is a pure function of simulated events.  Names resolve through each
module's import table (relative imports included), so ``from time
import perf_counter as clock`` does not slip past a textual check.

One finding:

* **A301** — an observer module calls a wall clock, a host-entropy
  source, a direct RNG constructor, or a ``tracemalloc`` heap-tracking
  function.  Outside the observer packages the same calls are the
  module rules A302 / A303 / A104 (:mod:`repro.analyze.modulerules`),
  which skip observer modules so each impure call gets exactly one
  finding.

The self-profiler (:mod:`repro.telemetry.profiler`) is one sanctioned
exception — it deliberately measures the simulator's own wall time and
heap; the sweep executor's worker-management lines (pool timeouts, the
latency selftest's sleep) are the other, since they steer worker
processes without touching any recorded result.  Each such line carries
an explicit ``# repro-analyze: disable=A301`` pragma, so every
allowlisted impurity stays visible and individually justified.
``tracemalloc.is_tracing()`` is not flagged: it is a pure query used to
guard start/stop, not a measurement.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Tuple

from .findings import OBSERVER_PACKAGES, AnalysisFinding, make_finding
from .model import ModuleInfo, Program, iter_python_files
from .pragmas import PRAGMA_RE, iter_comments, pragma_ids

#: Host wall-clock reads and sleeps (A301 in observers, A302 elsewhere).
WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Host entropy sources (A301 in observers, A303 elsewhere).
ENTROPY = frozenset({"uuid.uuid1", "uuid.uuid4", "os.urandom", "os.getpid", "os.getrandom"})
ENTROPY_PREFIXES = ("secrets.",)

#: Direct module-level RNG calls (A301 in observers, A104 elsewhere).
RNG_PREFIXES = ("random.", "numpy.random.")

#: ``tracemalloc`` calls that start, stop, or read a heap measurement.
#: ``is_tracing`` is deliberately absent (pure guard query).
_HEAP_TRACKING = frozenset(
    {
        "tracemalloc.start",
        "tracemalloc.stop",
        "tracemalloc.get_traced_memory",
        "tracemalloc.take_snapshot",
        "tracemalloc.reset_peak",
        "tracemalloc.clear_traces",
    }
)


def observer_package(module: ModuleInfo) -> str:
    """The observer package ``module`` belongs to, or ``""``."""
    posix = module.path.replace("\\", "/")
    for package in OBSERVER_PACKAGES:
        if module.package == package or f"/{package}/" in posix:
            return package
    return ""


def _classify(dotted: str) -> str:
    """Impurity kind for a resolved dotted callee name, or ``""``."""
    if dotted in WALL_CLOCK:
        return "wall-clock read"
    if dotted in ENTROPY or dotted.startswith(ENTROPY_PREFIXES):
        return "host-entropy source"
    if dotted.startswith(RNG_PREFIXES):
        return "direct RNG draw"
    if dotted in _HEAP_TRACKING:
        return "heap-tracking call"
    return ""


def _scoped_calls(tree: ast.AST) -> Iterator[Tuple[ast.Call, str]]:
    """Every call in ``tree`` with its enclosing scope's dotted name."""

    def visit(node: ast.AST, scope: Tuple[str, ...]) -> Iterator[Tuple[ast.Call, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield from visit(child, scope + (child.name,))
            else:
                if isinstance(child, ast.Call):
                    yield child, ".".join(scope) or "<module>"
                yield from visit(child, scope)

    yield from visit(tree, ())


def analyze_purity(program: Program) -> List[AnalysisFinding]:
    """Flag impure calls in observer modules."""
    findings: List[AnalysisFinding] = []
    for module in program.modules.values():
        package = observer_package(module)
        if not package:
            continue
        for call, scope in _scoped_calls(module.tree):
            dotted = module.dotted_name(call.func)
            if dotted is None:
                continue
            kind = _classify(dotted)
            if not kind:
                continue
            findings.append(
                make_finding(
                    "A301",
                    module.path,
                    call.lineno,
                    call.col_offset,
                    f"{kind} {dotted}() in observer package "
                    f"'repro/{package}/'; observers must be pure functions "
                    "of simulated time — every sanctioned exception (the "
                    "self-profiler) must carry its own A301 pragma",
                    symbol=f"{module.name}.{scope}:{dotted}",
                )
            )
    return findings


def purity_pragma_ledger(paths: Sequence[str]) -> List[Dict[str, object]]:
    """Every sanctioned observer impurity, as an auditable ledger.

    Walks the given trees for ``A301`` suppression pragmas — each one a
    line where an observer module is *allowed* to touch the wall clock
    or host entropy — and returns ``{path, line, rule, code}`` entries
    sorted by location.  The point is visibility: the purity contract is
    only as strong as its exception list, so ``repro-analyze scan
    --purity-audit`` prints the full list instead of letting exceptions
    hide in comments.
    """
    entries: List[Dict[str, object]] = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fp:
            source = fp.read()
        lines = source.splitlines()
        for lineno, comment in iter_comments(source):
            match = PRAGMA_RE.search(comment)
            if match is None or "A301" not in pragma_ids(match):
                continue
            code = ""
            if 1 <= lineno <= len(lines):
                code = lines[lineno - 1].split("#", 1)[0].strip()
            entries.append({"path": path, "line": lineno, "rule": "A301", "code": code})
    entries.sort(key=lambda e: (e["path"], e["line"]))
    return entries

"""Per-module determinism and unit rules.

Eight rules that need no cross-module facts, only one module's AST and
its import table (:attr:`repro.analyze.model.ModuleInfo.aliases`).
They share **one AST walk per module**:

* **A104** direct-random — ``random.*`` / ``numpy.random.*`` calls that
  bypass the seeded stream registry (``sim/randomness.py`` exempt).
* **A302** wall-clock — host clock reads in simulation code.
* **A303** nondeterministic-source — ``uuid``/``os.urandom``/``secrets``.
* **A605** mutable-default — a mutable default argument.
* **A003** unordered-iteration — ``for`` over a set in simulation code.
* **A506** raw-unit-literal — ``* 1e6`` / ``/ 1e9`` conversions
  (``sim/units.py`` exempt).
* **A606** handler-global-mutation — ``global`` statements, and
  ``on_*``/``handle_*`` handlers mutating module-level names.
* **A004** builtin-hash-order — process-salted builtin ``hash()``.

Scope.  A302, A003, A506, A606 and A004 apply to simulation code only:
every package except the driver, reporting and analyzer ones
(:data:`_NONCRITICAL_PACKAGES`), and any module outside a ``repro``
tree, which errs toward reporting.  A104, A302 and A303 skip observer
modules: the purity analysis reports those calls there as A301, so each
impure call yields exactly one finding.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Optional, Set, Tuple

from .findings import AnalysisFinding, make_finding
from .model import ModuleInfo, Program
from .purity import ENTROPY, ENTROPY_PREFIXES, RNG_PREFIXES, WALL_CLOCK, observer_package

#: Packages under ``repro/`` whose code never runs in simulated time
#: (reporting, drivers, and the analyzers themselves); the scoped rules
#: skip them.
_NONCRITICAL_PACKAGES = frozenset({"cli", "experiments", "metrics", "analysis", "lint", "analyze"})

_MUTABLE_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.deque",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
    }
)
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTATORS = frozenset(
    {"append", "add", "update", "extend", "insert", "pop", "popleft",
     "remove", "discard", "clear", "setdefault", "appendleft"}
)
_UNIT_MAGIC = (1_000_000, 1_000_000_000)
_SET_ANNOTATIONS = ("set", "Set", "frozenset", "FrozenSet")


def _sim_critical(module: ModuleInfo) -> bool:
    """True when the scoped rules apply to ``module``."""
    if module.name != "repro" and not module.name.startswith("repro."):
        return True
    return module.package not in _NONCRITICAL_PACKAGES


def _name_key(node: ast.AST) -> Optional[str]:
    """``"x"`` for a name, ``"self.x"`` for a one-level attribute."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def _is_set_value(module: ModuleInfo, value: ast.AST) -> bool:
    return isinstance(value, (ast.Set, ast.SetComp)) or (
        isinstance(value, ast.Call) and module.dotted_name(value.func) in ("set", "frozenset")
    )


class _ModuleScan:
    """One walk over one module, collecting every rule's findings."""

    def __init__(self, module: ModuleInfo):
        self.module = module
        basename = os.path.basename(module.path)
        self.scoped = _sim_critical(module)
        observer = bool(observer_package(module))
        self.check_random = not observer and basename != "randomness.py"
        self.check_clock = self.scoped and not observer
        self.check_entropy = not observer
        self.check_units = self.scoped and basename != "units.py"
        self.module_names: Set[str] = set()
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                self.module_names.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                self.module_names.add(node.target.id)
        #: Names assigned a set anywhere in the module, and every for
        #: loop — A003 joins the two after the walk.
        self.set_names: Set[str] = set()
        self.loops: List[Tuple[ast.AST, Tuple[str, ...]]] = []
        self.findings: List[AnalysisFinding] = []

    def emit(
        self, rule_id: str, node: ast.AST, scope: Tuple[str, ...], detail: str, message: str
    ) -> None:
        where = ".".join(scope) or "<module>"
        self.findings.append(
            make_finding(
                rule_id,
                self.module.path,
                node.lineno,
                node.col_offset,
                message,
                symbol=f"{self.module.name}.{where}:{detail}",
            )
        )

    def run(self) -> List[AnalysisFinding]:
        self.visit(self.module.tree, (), ())
        if self.scoped:
            for it, scope in self.loops:
                if _is_set_value(self.module, it) or _name_key(it) in self.set_names:
                    self.emit(
                        "A003",
                        it,
                        scope,
                        _name_key(it) or "set",
                        "iteration over an unordered set in simulation code; "
                        "wrap in sorted(...) or use an ordered container",
                    )
        return self.findings

    def visit(self, node: ast.AST, scope: Tuple[str, ...], funcs: Tuple[ast.AST, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            kind = type(child)
            if kind is ast.Call:
                self.call(child, scope, funcs)
            elif kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
                self.defaults(child, scope)
                self.visit(child, scope + (child.name,), funcs + (child,))
                continue
            elif kind is ast.ClassDef:
                self.visit(child, scope + (child.name,), funcs)
                continue
            elif not self.scoped:
                pass
            elif kind is ast.BinOp:
                self.unit_literal(child, scope)
            elif kind is ast.For or kind is ast.AsyncFor:
                self.loops.append((child.iter, scope))
            elif kind is ast.Assign:
                if _is_set_value(self.module, child.value):
                    self.set_names.update(filter(None, map(_name_key, child.targets)))
            elif kind is ast.AnnAssign:
                ann = ast.unparse(child.annotation)
                key = _name_key(child.target)
                if key is not None and (
                    "Set[" in ann
                    or ann in _SET_ANNOTATIONS
                    or (child.value is not None and _is_set_value(self.module, child.value))
                ):
                    self.set_names.add(key)
            elif kind is ast.Global:
                for fn in funcs:
                    self.emit(
                        "A606",
                        child,
                        scope,
                        f"global:{','.join(child.names)}",
                        f"'global {', '.join(child.names)}' in {fn.name}(); "
                        "simulation state must live on per-run objects",
                    )
            elif kind is ast.Subscript:
                self.handler_store(child, scope, funcs)
            self.visit(child, scope, funcs)

    # -- per-node checks ----------------------------------------------
    def call(self, call: ast.Call, scope: Tuple[str, ...], funcs: Tuple[ast.AST, ...]) -> None:
        func = call.func
        if self.scoped:
            if type(func) is ast.Name and func.id == "hash":
                # Only the builtin: an import named ``hash`` shadows it.
                if self.module.aliases.get("hash", "hash") == "hash":
                    self.emit(
                        "A004",
                        call,
                        scope,
                        "hash",
                        "builtin hash() is process-salted for str/bytes; "
                        "use a stable digest for any ordering/steering decision",
                    )
            elif (
                type(func) is ast.Attribute
                and func.attr in _MUTATORS
                and type(func.value) is ast.Name
                and func.value.id in self.module_names
            ):
                for fn in self._handlers(funcs):
                    self.emit(
                        "A606",
                        call,
                        scope,
                        f"{func.value.id}.{func.attr}",
                        f"event handler {fn.name}() mutates module-level "
                        f"'{func.value.id}' via .{func.attr}(); "
                        "move it onto the scheduler/server",
                    )
        dotted = self.module.dotted_name(func)
        if dotted is None:
            return
        if self.check_random and dotted.startswith(RNG_PREFIXES):
            self.emit(
                "A104",
                call,
                scope,
                dotted,
                f"direct RNG call {dotted}() bypasses sim.randomness; "
                "draw from an RngRegistry stream instead",
            )
        elif self.check_clock and dotted in WALL_CLOCK:
            self.emit(
                "A302",
                call,
                scope,
                dotted,
                f"wall-clock call {dotted}() inside simulation code; "
                "use the event loop's simulated time (EventLoop.now)",
            )
        elif self.check_entropy and (dotted in ENTROPY or dotted.startswith(ENTROPY_PREFIXES)):
            self.emit(
                "A303",
                call,
                scope,
                dotted,
                f"nondeterministic source {dotted}(); derive values from "
                "RngRegistry or a deterministic counter",
            )

    def defaults(self, fn: ast.AST, scope: Tuple[str, ...]) -> None:
        args = fn.args
        for default in args.defaults + [d for d in args.kw_defaults if d is not None]:
            if isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and self.module.dotted_name(default.func) in _MUTABLE_CALLS
            ):
                self.emit(
                    "A605",
                    default,
                    scope + (fn.name,),
                    f"default@{default.col_offset}",
                    f"mutable default argument in {fn.name}(); "
                    "default to None and create the object in the body",
                )

    def unit_literal(self, node: ast.BinOp, scope: Tuple[str, ...]) -> None:
        if not self.check_units or not isinstance(node.op, (ast.Mult, ast.Div)):
            return
        for side in (node.left, node.right):
            if (
                type(side) is ast.Constant
                and isinstance(side.value, (int, float))
                and not isinstance(side.value, bool)
                and abs(side.value) in _UNIT_MAGIC
            ):
                self.emit(
                    "A506",
                    side,
                    scope,
                    repr(side.value),
                    f"raw unit-conversion literal {side.value!r}; "
                    "use repro.sim.units helpers (seconds(), nanoseconds(), ...)",
                )

    def handler_store(self, node: ast.Subscript, scope: Tuple[str, ...], funcs: Tuple[ast.AST, ...]) -> None:
        if (
            isinstance(node.ctx, (ast.Store, ast.Del))
            and type(node.value) is ast.Name
            and node.value.id in self.module_names
        ):
            for fn in self._handlers(funcs):
                self.emit(
                    "A606",
                    node,
                    scope,
                    f"{node.value.id}[]",
                    f"event handler {fn.name}() mutates module-level "
                    f"'{node.value.id}'; move it onto the scheduler/server",
                )

    @staticmethod
    def _handlers(funcs: Tuple[ast.AST, ...]) -> Iterator[ast.AST]:
        return (fn for fn in funcs if fn.name.startswith(("on_", "handle_")))


def analyze_modules(program: Program) -> List[AnalysisFinding]:
    """Run the eight per-module rules over every module of ``program``."""
    findings: List[AnalysisFinding] = []
    for module in program.modules.values():
        findings.extend(_ModuleScan(module).run())
    return findings

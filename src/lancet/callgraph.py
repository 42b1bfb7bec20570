"""Project call graphs via a flow-insensitive value-set fixpoint.

Every module, function, and class gets a fully qualified name; every
variable, parameter, and return slot gets a value set of callables that may
flow into it.  Assignments, argument passing, and returns propagate those
sets until nothing grows, then each syntactic call contributes edges from
its enclosing definition (module-body calls attach to the module node) to
every callable in its callee's value set.

The fixpoint is solved with a worklist.  Every statement is evaluated once,
in scope pre-order, and each slot notes the statements that read it; when a
slot grows, its readers are queued to be evaluated again.  Value sets only
grow, over a finite set of callables, so the queue runs dry, and what it
leaves is the least fixpoint, whatever the order of evaluation.

Design points:

* one value set per qualified name - no context, flow, or field
  sensitivity; instantiation flows the class FQN itself, so a later
  ``obj.method()`` resolves through the class;
* calling a class yields edges to both the class node and its ``__init__``
  when one is defined;
* nested definitions keep parent-qualified names (``m.outer.inner``);
* names that never resolve to a project value produce an edge only when
  their root was bound by an import (recorded as an external callee);
  everything else - builtins included - is dropped;
* dynamic features (``eval``, ``exec``, ``getattr``, decorated callables)
  are ignored with a per-site diagnostic.

Modules are simplified (see :mod:`lancet.rewriter`) before extraction, so
lambda assignments and call chains resolve like ordinary definitions.
"""

from __future__ import annotations

import ast
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .cfg import head_exprs, iter_calls
from .modgraph import Scope, ScopeTable, discover, import_bindings, load_module

__all__ = [
    "CgNode",
    "AssignmentGraph",
    "CallGraph",
    "analyze",
    "output_edges",
    "output_mods",
    "to_simple_json",
]

RETURN_SLOT = "<ret>"

_DYNAMIC_NAMES = {"eval", "exec", "getattr", "globals", "locals", "vars", "__import__"}

Value = tuple[str, str]  # ("func" | "class" | "mod" | "ext", fqn)


@dataclass(frozen=True)
class CgNode:
    fqn: str
    kind: str  # "module" | "function" | "class" | "external"


@dataclass
class AssignmentGraph:
    """The slots (qualified names) read or written, with the value sets they carry."""

    nodes: set[str] = field(default_factory=set)
    value_sets: dict[str, set[Value]] = field(default_factory=dict)


@dataclass
class CallGraph:
    edges: dict[str, set[str]] = field(default_factory=dict)
    nodes: dict[str, str] = field(default_factory=dict)
    internal_mods: set[str] = field(default_factory=set)
    external_mods: set[str] = field(default_factory=set)
    diagnostics: list[str] = field(default_factory=list)
    assignment_graph: AssignmentGraph = field(default_factory=AssignmentGraph)

    def node_list(self) -> list[CgNode]:
        return [CgNode(fqn=fqn, kind=self.nodes[fqn]) for fqn in sorted(self.nodes)]


class _Analyzer:
    def __init__(self, package_root: Path | None) -> None:
        self.files: dict[str, Path] = {}  # package modules, loaded once reached
        self.failed: set[str] = set()  # modules that did not load; not retried
        self.table = ScopeTable()
        self.values: dict[str, set[Value]] = {}
        self.call_edges: set[tuple[str, str]] = set()
        self.external_mods: set[str] = set()
        self.diagnostics: list[str] = []
        self._diag_seen: set[str] = set()
        # Worklist state: the statements that read each slot, by index in
        # solve()'s work list, and the queue of those to evaluate again.
        self._readers: dict[str, list[int]] = {}
        self._reading = 0
        self._queue: deque[int] = deque()
        self._queued = bytearray()
        if package_root is not None and package_root.is_dir():
            tree, self.diagnostics = discover(package_root)
            self.files = {node.full_name: Path(node.path) for node in tree.iter_modules()}

    # -- module loading ------------------------------------------------------

    def load(self, path: Path, fqn: str) -> None:
        if fqn in self.table.modules or fqn in self.failed:
            return
        module, diagnostic = load_module(path, simplify=True)
        if module is None:
            self.diagnostics.append(diagnostic)
            self.failed.add(fqn)
            return
        is_package = path.name == "__init__.py"
        self.table.add_module(module, fqn, lambda scope, stmt: self._reach(scope, stmt, is_package))

    def _reach(self, scope: Scope, stmt: ast.stmt, is_package: bool) -> None:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._bind_import(scope, stmt, is_package)
        elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.decorator_list:
            self._diagnose(scope, stmt, "decorated definition; wrapper effects ignored")

    def _bind_import(self, scope: Scope, stmt: ast.Import | ast.ImportFrom,
                     is_package: bool) -> None:
        bindings = import_bindings(stmt, scope.module, is_package)
        if bindings is None:
            self.diagnostics.append(
                f"{scope.module}: unresolvable relative import at line {stmt.lineno}"
            )
            return
        for module, pairs in bindings:
            if module not in self.files:
                self.external_mods.add(module)
                for local, target in pairs:
                    scope.bindings[local] = ("ext", target)
                continue
            self.load(self.files[module], module)
            if isinstance(stmt, ast.ImportFrom) and stmt.names[0].name == "*":
                self._diagnose(scope, stmt, "star import; names not tracked")
            for local, target in pairs:
                if target != module and target in self.files:
                    self.load(self.files[target], target)
                # ``import a.b`` binds package ``a`` even if ``a`` has no file.
                is_module = isinstance(stmt, ast.Import) or target in self.files
                scope.bindings[local] = ("mod" if is_module else "slot", target)

    # -- value propagation -----------------------------------------------------

    def _get(self, slot: str) -> set[Value]:
        readers = self._readers.get(slot)
        if readers is None:
            self._readers[slot] = [self._reading]
        elif readers[-1] != self._reading:
            readers.append(self._reading)
        return self.values.setdefault(slot, set())

    def _add(self, slot: str, values: set[Value]) -> None:
        if not values:
            return
        current = self.values.setdefault(slot, set())
        before = len(current)
        current |= values
        if len(current) != before:
            for reader in self._readers.get(slot, ()):
                if not self._queued[reader]:
                    self._queued[reader] = 1
                    self._queue.append(reader)

    def eval_expr(self, expr: ast.expr, scope: Scope) -> set[Value]:
        if isinstance(expr, ast.Name):
            binding = scope.lookup(expr.id)
            if binding is None:
                return set()
            return self._binding_values(binding)
        if isinstance(expr, ast.Attribute):
            out: set[Value] = set()
            for value in self.eval_expr(expr.value, scope):
                out |= self._attr_values(value, expr.attr)
            return out
        if isinstance(expr, ast.Call):
            out = set()
            for target in self.eval_expr(expr.func, scope):
                kind, fqn = target
                if kind == "func":
                    out |= self._get(f"{fqn}.{RETURN_SLOT}")
                elif kind == "class":
                    out.add(("class", fqn))
            return out
        return set()

    def _binding_values(self, binding: tuple[str, str]) -> set[Value]:
        kind, ref = binding
        if kind == "slot":
            return set(self._get(ref))
        if kind == "mod":
            return {("mod", ref)}
        return {("ext", ref)}

    def _attr_values(self, value: Value, attr: str) -> set[Value]:
        kind, fqn = value
        if kind == "ext":
            return {("ext", f"{fqn}.{attr}")}
        if kind == "mod":
            dotted = f"{fqn}.{attr}"
            if dotted in self.table.modules:
                return {("mod", dotted)}
            mod_scope = self.table.modules.get(fqn)
            if mod_scope is not None and attr in mod_scope.bindings:
                return self._binding_values(mod_scope.bindings[attr])
            return set()
        if kind == "class":
            class_scope = self.table.classes.get(fqn)
            if class_scope is None:
                return set()
            if attr in class_scope.methods:
                return {("func", class_scope.methods[attr])}
            if attr in class_scope.bindings:
                return self._binding_values(class_scope.bindings[attr])
            return set()
        return set()

    def solve(self) -> None:
        """Evaluate every statement once in scope order, then again whenever
        a slot it read has grown, until no slot grows."""
        work = [(scope, stmt) for scope in self.table.scopes for stmt in scope.statements]
        self._queue = deque(range(len(work)))
        self._queued = bytearray([1]) * len(work)
        while self._queue:
            self._reading = self._queue.popleft()
            self._queued[self._reading] = 0
            self._evaluate(*work[self._reading])

    def _evaluate(self, scope: Scope, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.FunctionDef):
            fqn = scope.slot(stmt.name)
            self._add(fqn, {("func", fqn)})
            params = self._params(fqn)
            for name, default in zip(reversed(params), reversed(stmt.args.defaults)):
                self._add(f"{fqn}.{name}", self.eval_expr(default, scope))
        elif isinstance(stmt, ast.ClassDef):
            fqn = scope.slot(stmt.name)
            self._add(fqn, {("class", fqn)})
        elif isinstance(stmt, ast.Assign):
            values = self.eval_expr(stmt.value, scope)
            for target in stmt.targets:
                self._assign_target(scope, target, stmt.value, values)
        elif isinstance(stmt, ast.Return) and stmt.value is not None and scope.kind == "function":
            self._add(f"{scope.fqn}.{RETURN_SLOT}", self.eval_expr(stmt.value, scope))

        for expr in head_exprs(stmt):
            for call in iter_calls(expr):
                self._process_call(scope, call)

    def _assign_target(self, scope: Scope, target: ast.expr, value_expr: ast.expr,
                       values: set[Value]) -> None:
        if isinstance(target, ast.Name):
            binding = scope.lookup(target.id) or ("slot", scope.slot(target.id))
            if binding[0] == "slot":
                self._add(binding[1], values)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elementwise = (
                isinstance(value_expr, (ast.Tuple, ast.List))
                and len(value_expr.elts) == len(target.elts)
            )
            for i, elt in enumerate(target.elts):
                if elementwise:
                    inner_expr = value_expr.elts[i]
                    inner_vals = self.eval_expr(inner_expr, scope)
                else:
                    inner_expr, inner_vals = elt, set()
                self._assign_target(scope, elt, inner_expr, inner_vals)

    def _process_call(self, scope: Scope, call: ast.Call) -> None:
        caller = scope.fqn
        func = call.func

        if isinstance(func, ast.Name) and func.id in _DYNAMIC_NAMES and scope.lookup(func.id) is None:
            self._diagnose(scope, call, f"dynamic feature {func.id!r} ignored")
            return

        receivers: set[Value] = set()
        if isinstance(func, ast.Attribute):
            receivers = self.eval_expr(func.value, scope)
        targets = self.eval_expr(func, scope)

        for kind, fqn in sorted(targets):
            if kind == "func":
                self.call_edges.add((caller, fqn))
                self_offset = 0
                if isinstance(func, ast.Attribute) and any(k == "class" for k, _ in receivers):
                    params = self._params(fqn)
                    if params:
                        for r_kind, r_fqn in receivers:
                            if r_kind == "class":
                                self._add(f"{fqn}.{params[0]}", {("class", r_fqn)})
                        self_offset = 1
                self._flow_arguments(scope, call, fqn, self_offset)
            elif kind == "class":
                self.call_edges.add((caller, fqn))
                init = self._attr_values(("class", fqn), "__init__")
                for i_kind, i_fqn in init:
                    if i_kind == "func":
                        self.call_edges.add((caller, i_fqn))
                        params = self._params(i_fqn)
                        if params:
                            self._add(f"{i_fqn}.{params[0]}", {("class", fqn)})
                        self._flow_arguments(scope, call, i_fqn, 1)
            elif kind == "ext":
                self.call_edges.add((caller, fqn))

    def _flow_arguments(self, scope: Scope, call: ast.Call, fqn: str, offset: int) -> None:
        params = self._params(fqn)
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            slot_index = i + offset
            if slot_index < len(params):
                self._add(f"{fqn}.{params[slot_index]}", self.eval_expr(arg, scope))
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in params:
                self._add(f"{fqn}.{kw.arg}", self.eval_expr(kw.value, scope))

    def _params(self, fqn: str) -> list[str]:
        scope = self.table.functions.get(fqn)
        return scope.params if scope is not None else []

    def _diagnose(self, scope: Scope, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        text = f"{scope.module}:{line}: {message}"
        if text not in self._diag_seen:
            self._diag_seen.add(text)
            self.diagnostics.append(text)

    # -- result assembly -------------------------------------------------------

    def result(self) -> CallGraph:
        graph = CallGraph()
        graph.internal_mods = set(self.table.modules)
        graph.external_mods = set(self.external_mods)
        graph.diagnostics = list(self.diagnostics)

        for fqn in self.table.modules:
            graph.nodes[fqn] = "module"
        for scope in self.table.scopes:
            if scope.kind != "module":
                graph.nodes[scope.fqn] = scope.kind
        for caller, callee in self.call_edges:
            graph.nodes.setdefault(callee, "external")
            graph.nodes.setdefault(caller, "external")
        for fqn in graph.nodes:
            graph.edges.setdefault(fqn, set())
        for caller, callee in self.call_edges:
            graph.edges[caller].add(callee)

        graph.assignment_graph = AssignmentGraph(
            nodes=set(self.values),
            value_sets={slot: set(vals) for slot, vals in self.values.items()},
        )
        return graph


def analyze(entry_points: list[str | Path], package_root: str | Path | None = None) -> CallGraph:
    """Build the call graph reachable from ``entry_points``.

    ``package_root`` names the project directory; imports of the modules
    :func:`~lancet.modgraph.discover` finds under it are followed and become
    internal modules, everything else is external.  An entry file keeps its
    module name from that walk; any other is named by its stem.  With a
    package root and no entry points, every module of the package is an
    entry point.  Entry files missing from disk raise ``OSError``; files that
    fail to parse are skipped with a diagnostic.
    """
    root = Path(package_root).resolve() if package_root is not None else None
    analyzer = _Analyzer(root)
    names = {path: name for name, path in analyzer.files.items()}
    for entry in entry_points:
        path = Path(entry)
        if not path.is_file():
            raise FileNotFoundError(f"entry point not found: {entry}")
        path = path.resolve()
        analyzer.load(path, names.get(path, path.stem))
    if root is not None and not entry_points:
        if not analyzer.files:
            raise FileNotFoundError(f"no Python files under {package_root}")
        for name, path in analyzer.files.items():
            analyzer.load(path, name)

    analyzer.solve()
    return analyzer.result()


def output_edges(cg: CallGraph) -> list[tuple[str, str]]:
    """Flattened (caller, callee) pairs, lexicographically sorted."""
    return sorted((caller, callee) for caller, callees in cg.edges.items() for callee in callees)


def output_mods(cg: CallGraph) -> tuple[list[str], list[str]]:
    return sorted(cg.internal_mods), sorted(cg.external_mods)


def to_simple_json(cg: CallGraph) -> str:
    """Every node mapped to its sorted callee list; deterministic bytes."""
    payload = {fqn: sorted(callees) for fqn, callees in cg.edges.items()}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"

"""Project call graphs via a flow-insensitive value-set fixpoint.

Every module, function, and class gets a fully qualified name; every
variable, parameter, and return slot gets a value set of callables that may
flow into it.  Assignments, argument passing, and returns propagate those
sets until nothing grows, then each syntactic call contributes edges from
its enclosing definition (module-body calls attach to the module node) to
every callable in its callee's value set.

The fixpoint is solved on the :class:`~lancet.modgraph.Worklist` that type
inference also uses, with statements as its units.  Every statement is
evaluated once, in scope pre-order, and each slot notes the statements that
read it; when a slot grows, its readers are queued to be evaluated again.
Value sets only grow, over a finite set of callables, so the queue runs dry,
and what it leaves is the least fixpoint, whatever the order of evaluation.

Design points:

* one value set per qualified name - no context, flow, or field
  sensitivity; calling a class yields an instance of it, so a later
  ``obj.method()`` resolves through the class;
* calling a class yields edges to both the class node and its ``__init__``
  when one is defined, calling an instance an edge to its ``__call__``, and
  :func:`~lancet.modgraph.binds_receiver` says whether a call passes a receiver;
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
from pathlib import Path
from typing import NamedTuple

from .cfg import statement_calls
from .frontend import dump_json
from .modgraph import (RETURN_SLOT, DiagnosticLog, Scope, ScopeTable, Worklist, bind_arguments,
                       bind_defaults, binds_receiver, discover, import_bindings, load_module)
from .ssa import unpack

__all__ = [
    "CgNode",
    "AssignmentGraph",
    "CallGraph",
    "analyze",
    "output_edges",
    "output_mods",
    "to_simple_json",
]

_DYNAMIC_NAMES = {"eval", "exec", "getattr", "globals", "locals", "vars", "__import__"}

Value = tuple[str, str]  # ("func" | "class" | "inst" | "mod" | "ext", fqn)


class CgNode(NamedTuple):
    fqn: str
    kind: str  # "module" | "function" | "class" | "external"


class AssignmentGraph:
    """The slots (qualified names) read or written, with the value sets they carry."""

    def __init__(self, nodes: set[str] | None = None,
                 value_sets: dict[str, set[Value]] | None = None) -> None:
        self.nodes = set() if nodes is None else nodes
        self.value_sets = {} if value_sets is None else value_sets


class CallGraph:
    def __init__(self, edges: dict[str, set[str]] | None = None,
                 nodes: dict[str, str] | None = None, internal_mods: set[str] | None = None,
                 external_mods: set[str] | None = None, diagnostics: list[str] | None = None,
                 assignment_graph: AssignmentGraph | None = None) -> None:
        self.edges = {} if edges is None else edges
        self.nodes = {} if nodes is None else nodes
        self.internal_mods = set() if internal_mods is None else internal_mods
        self.external_mods = set() if external_mods is None else external_mods
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.assignment_graph = AssignmentGraph() if assignment_graph is None else assignment_graph

    def node_list(self) -> list[CgNode]:
        return [CgNode(fqn=fqn, kind=self.nodes[fqn]) for fqn in sorted(self.nodes)]


class _Analyzer:
    def __init__(self, package_root: Path | None) -> None:
        self.files: dict[str, Path] = {}  # package modules, loaded once reached
        self.failed: set[str] = set()  # modules that did not load; not retried
        self.table = ScopeTable()
        self.solver = Worklist()
        self.values: dict[str, set[Value]] = self.solver.values
        self.call_edges: set[tuple[str, str]] = set()
        self.external_mods: set[str] = set()
        self.diagnostics = DiagnosticLog()
        if package_root is not None and package_root.is_dir():
            tree, diagnostics = discover(package_root)
            self.diagnostics.extend(diagnostics)
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
        self.table.add_module(module, fqn, lambda scope, stmt: self._reach(scope, stmt, is_package),
                              is_package=is_package)

    def _reach(self, scope: Scope, stmt: ast.stmt, is_package: bool) -> None:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._bind_import(scope, stmt, is_package)
        elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.decorator_list:
            names = [d.id for d in stmt.decorator_list]  # bare names only (see frontend)
            if not (scope.kind == "class" and isinstance(stmt, ast.FunctionDef)
                    and names in (["staticmethod"], ["classmethod"])):  # what Scope.receiver models
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
            for kind, fqn in self.eval_expr(expr.func, scope):
                if kind == "class":
                    out.add(("inst", fqn))
                for function, _ in self._runs((kind, fqn), None):
                    out |= self.solver.get(f"{function}.{RETURN_SLOT}")
            return out
        return set()

    def _runs(self, value: Value, receiver: Value | None) -> list[tuple[str, Value | None]]:
        """The functions a call of ``value`` through ``receiver`` runs, each with the
        receiver it passes: a class's ``__init__`` and an instance's ``__call__`` take an instance."""
        kind, fqn = value
        if kind in ("class", "inst"):
            methods = self._attr_values(value, "__init__" if kind == "class" else "__call__")
            return [(function, ("inst", fqn)) for k, function in methods if k == "func"]
        return [(fqn, receiver)] if kind == "func" else []

    def _binding_values(self, binding: tuple[str, str]) -> set[Value]:
        kind, ref = binding
        if kind == "slot":
            return set(self.solver.get(ref))
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
        if kind in ("class", "inst"):
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
        self.solver.solve(work, lambda item: self._evaluate(*item))

    def _evaluate(self, scope: Scope, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.FunctionDef):
            fqn = scope.slot(stmt.name)
            self.solver.add(fqn, {("func", fqn)})
            for name, default in bind_defaults(stmt):
                self.solver.add(f"{fqn}.{name}", self.eval_expr(default, scope))
        elif isinstance(stmt, ast.ClassDef):
            fqn = scope.slot(stmt.name)
            self.solver.add(fqn, {("class", fqn)})
        elif isinstance(stmt, ast.Assign):
            values = self.eval_expr(stmt.value, scope)
            for target in stmt.targets:
                for name, expr in unpack(target, stmt.value):
                    if expr is None:
                        continue
                    found = values if expr is stmt.value else self.eval_expr(expr, scope)
                    binding = scope.lookup(name) or ("slot", scope.slot(name))
                    if binding[0] == "slot":
                        self.solver.add(binding[1], found)
        elif isinstance(stmt, ast.Return) and stmt.value is not None and scope.kind == "function":
            self.solver.add(f"{scope.fqn}.{RETURN_SLOT}", self.eval_expr(stmt.value, scope))

        for call in statement_calls(stmt):
            self._process_call(scope, call)

    def _process_call(self, scope: Scope, call: ast.Call) -> None:
        caller = scope.fqn
        func = call.func

        if isinstance(func, ast.Name) and func.id in _DYNAMIC_NAMES and scope.lookup(func.id) is None:
            self._diagnose(scope, call, f"dynamic feature {func.id!r} ignored")
            return

        if isinstance(func, ast.Attribute):
            targets = [(target, receiver) for receiver in self.eval_expr(func.value, scope)
                       for target in self._attr_values(receiver, func.attr)]
        else:
            targets = [(target, None) for target in self.eval_expr(func, scope)]

        for target, receiver in targets:
            if target[0] in ("class", "ext"):
                self.call_edges.add((caller, target[1]))
            for function, passed in self._runs(target, receiver):
                self.call_edges.add((caller, function))
                self._bind(scope, call, function, passed)

    def _bind(self, scope: Scope, call: ast.Call, fqn: str, receiver: Value | None) -> None:
        """Flow ``call``'s arguments, and the receiver it reaches ``fqn``
        through when it passes one, into ``fqn``'s parameters."""
        callee = self.table.functions[fqn]
        bound = binds_receiver(callee, receiver and receiver[0])
        if bound:
            self.solver.add(callee.slot(callee.params[0]), {(callee.receiver, receiver[1])})
        for name, arg in bind_arguments(call, callee.params, bound):
            if arg is not None:
                self.solver.add(callee.slot(name), self.eval_expr(arg, scope))

    def _diagnose(self, scope: Scope, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.diagnostics.append(f"{scope.module}:{line}: {message}")

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
    return dump_json(payload)

"""Project value sets: the one abstract interpreter, and the call graph read off it.

Every module, function, and class gets a fully qualified name; every
variable, parameter, and return slot gets a set of the values that may flow
into it.  A value is a project callable (a function, a class, an instance of
a class), a module, an external name, or a type tag from the vocabulary
``str``, ``int``, ``float``, ``bool``, ``List``, ``Dict``, ``Tuple``,
``Set``, ``None``, ``callable`` and ``Any``.  Assignments, argument passing,
and returns propagate those sets until nothing grows, then each syntactic
call contributes edges from its enclosing definition (module-body calls
attach to the module node) to every callable in its callee's value set.
Type inference (:mod:`lancet.typeinfer`) reads its records off the same
solved slots, of an analyzer built with ``tags=True``.

Tags come from literals, an operator table, a method table for calls on a
tagged receiver, and the signature table of a :class:`HeuristicTable` for
calls of external names, keyed by the FQN an ``ext`` value carries, or for
an unbound name by its dotted text.  An ``Any`` receiver keeps ``Any`` in a
method call's result, so every rule is monotone.  Tags make no edges, so a
call-graph run (:func:`analyze`) keeps none: with ``tags=False`` every slot
write drops them, and an expression that could only take them (all but a
name, attribute, call or ``and``/``or``) is not walked; the calls under
it are still processed from the statement.

The fixpoint is solved on a :class:`~lancet.ssa.Worklist`, which constant
folding runs on too, with statements as its units.  Every statement is
evaluated once, in scope pre-order, and each slot notes the statements that
read it; when a slot grows, its readers are queued to be evaluated again.
Value sets only grow, over finitely many callables and tags, so the queue
runs dry, and what it leaves is the least fixpoint, whatever the order of
evaluation.

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
import os
from pathlib import Path

from .cfg import head_exprs
from .frontend import NODE_FIELDS, _defaults, child_nodes, dump_json
from .modgraph import (RETURN_SLOT, DiagnosticLog, Scope, ScopeTable, bind_arguments, bind_defaults,
                       binds_receiver, discover, dotted_parts, load_module, resolve_import)
from .ssa import Worklist

__all__ = [
    "AssignmentGraph",
    "CallGraph",
    "HeuristicTable",
    "load_signature_table",
    "default_table",
    "type_name",
    "analyze",
    "output_edges",
    "output_mods",
    "to_simple_json",
]

_DYNAMIC_NAMES = {"eval", "exec", "getattr", "globals", "locals", "vars", "__import__"}

Value = tuple[str, str]  # ("func" | "class" | "inst" | "mod" | "ext", fqn) or ("type", type name)

ANY = "Any"
_ANY: Value = ("type", ANY)
_NUMERIC = ("bool", "int", "float")
_LITERALS: dict[type, Value] = {t: ("type", name) for t, name in (
    (bool, "bool"), (int, "int"), (float, "float"), (str, "str"), (type(None), "None"))}
_CALLABLE_KINDS = {ast.Name, ast.Attribute, ast.Call, ast.BoolOp}  # the rest take only tags
_HEAD_KINDS = {ast.Call, ast.BinOp, ast.Yield}  # the head nodes that a reader uses
_EXPR_TYPES = {ast.List: "List", ast.ListComp: "List", ast.Dict: "Dict", ast.DictComp: "Dict",
           ast.SetComp: "Set", ast.Tuple: "Tuple", ast.Lambda: "callable", ast.Compare: "bool"}


# (operator, left type, right type) -> result type; a triple not listed is ``Any``.
_OPERATORS: dict[tuple[str, str, str], str] = {
    **{(op, left, right): "float" if "float" in (left, right) else "int"
       for op in ("Add", "Sub", "Mult", "FloorDiv", "Mod", "Pow")
       for left in _NUMERIC for right in _NUMERIC},
    **{("Div", left, right): "float" for left in _NUMERIC for right in _NUMERIC},
    ("Add", "str", "str"): "str",
    ("Mult", "str", "int"): "str",
    ("Mult", "int", "str"): "str",
    ("Mod", "str", "str"): "str",
    ("Add", "List", "List"): "List",
    ("Mult", "List", "int"): "List",
    ("Mult", "int", "List"): "List",
    ("Add", "Tuple", "Tuple"): "Tuple",
}

# Method name -> (receiver type, result type).  Only entries whose runtime
# result type matches the vocabulary exactly belong here.
_METHODS: dict[str, tuple[str, str]] = {
    method: (receiver, result) for receiver, result, methods in (
        ("str", "str", "upper lower strip lstrip rstrip title capitalize casefold swapcase replace"
                       " format join zfill"),
        ("str", "List", "split rsplit splitlines"),
        ("str", "bool", "startswith endswith isdigit isalpha isalnum isupper islower"),
        ("str", "int", "find rfind count"),
        ("List", "None", "append extend insert remove sort reverse"),
        ("List", "List", "copy"),
        ("List", "int", "index"),
        ("Dict", "None", "update clear"),
        ("Set", "None", "add discard"),
        ("Set", "Set", "union intersection"),
        ("Set", "bool", "issubset"),
    ) for method in methods.split()
}


class HeuristicTable:
    """The signature table behind the tag rule for calls of external names:
    FQN (or an unbound name's dotted text) -> result type; a miss is ``Any``.
    The literal, operator and method rules are fixed."""

    def __init__(self, known_signatures: dict[str, str] | None = None) -> None:
        self.known_signatures = {} if known_signatures is None else known_signatures

    def signature(self, fqn: str) -> str | None:
        return self.known_signatures.get(fqn)


def load_signature_table(path: str | Path) -> dict[str, str]:
    """Parse a ``<fqn> <type>`` signature file; ``#`` starts a comment."""
    table: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed signature line: {raw!r}")
        table[parts[0]] = parts[1]
    return table


def default_table() -> HeuristicTable:
    """The table of the bundled signature file, or of the file that
    ``LANCET_SIGNATURES`` names, which replaces it."""
    override = os.environ.get("LANCET_SIGNATURES")
    path = Path(override) if override else Path(__file__).parent / "data" / "signatures.txt"
    return HeuristicTable(known_signatures=load_signature_table(path))


def type_name(value: Value) -> str:
    """``value`` in the type vocabulary: a tag is its name, an instance its
    class, a function ``callable``, and a class, module or external name ``Any``."""
    kind, name = value
    if kind in ("type", "inst"):
        return name
    return "callable" if kind == "func" else ANY


class AssignmentGraph:
    """The slots (qualified names) read or written, with the value sets they
    carry: callables, modules and external names, since a call-graph run keeps no tags."""

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


class _Analyzer:
    def __init__(self, package_root: Path | None, simplify: bool = True, *, tags: bool = False) -> None:
        self.simplify = simplify  # whether each module loaded is simplified first
        self.files: dict[str, Path] = {}  # package modules, loaded once reached
        self.failed: dict[str, str] = {}  # modules that did not load, with why; not retried
        self.pending: list[tuple[str | Path, str]] = []  # what load has reached, in order
        self.table = ScopeTable()
        self.signatures = default_table() if tags else HeuristicTable()  # only tags read it
        self.solver = Worklist()
        self.tags = tags  # with tags off, self.add drops them from each slot write that may carry one
        add = self.solver.add
        self.add = add if tags else lambda slot, values: add(slot, {v for v in values if v[0] != "type"})
        self.values: dict[str, set[Value]] = self.solver.values
        self.call_edges: set[tuple[str, str]] = set()
        self.heads: dict[ast.stmt, list[ast.AST]] = {}  # see head_nodes
        self.operations: dict[tuple[str, Value, Value], Value] = {}  # each operator rule, applied once
        self.reached: dict[ast.Call, list[tuple[Value, Value | None]]] = {}  # see _targets
        self.external_mods: set[str] = set()
        self.diagnostics = DiagnosticLog()
        self.type_diagnostics = DiagnosticLog()  # what only type inference reports
        self.escapes: list[str] = []  # relative imports that reach above the project root
        if package_root is not None and package_root.is_dir():
            tree, diagnostics = discover(package_root)
            self.diagnostics.extend(diagnostics)
            self.files = {node.full_name: Path(node.path) for node in tree.iter_modules()}

    # -- module loading ------------------------------------------------------

    def load(self, path: str | Path, fqn: str) -> None:
        """Load module ``fqn`` from ``path``, then each project package that
        holds it, which Python runs first, and each project module its
        imports reach, first reached first, after the module that reached it."""
        self.pending = [(path, fqn)]
        for path, fqn in self.pending:  # _bind_import appends to it
            if fqn in self.table.modules or fqn in self.failed:
                continue
            parts = fqn.split(".")
            holders = (".".join(parts[:i]) for i in range(1, len(parts)))
            self.pending += [(self.files[name], name) for name in holders if name in self.files]
            module, diagnostic = load_module(path, simplify=self.simplify)
            if module is None:
                self.diagnostics.append(diagnostic)
                self.failed[fqn] = diagnostic
                continue
            is_package = Path(path).name == "__init__.py"
            self.table.add_module(module, fqn, lambda scope, stmt: self._reach(scope, stmt, path, is_package))

    def _reach(self, scope: Scope, stmt: ast.stmt, path: str | Path, is_package: bool) -> None:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._bind_import(scope, stmt, path, is_package)
        elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.decorator_list:
            names = [d.id for d in stmt.decorator_list]  # bare names only (see frontend)
            if not (scope.kind == "class" and isinstance(stmt, ast.FunctionDef)
                    and names in (["staticmethod"], ["classmethod"])):  # what Scope.receiver models
                self._diagnose(scope, stmt, "decorated definition; wrapper effects ignored")

    def _bind_import(self, scope: Scope, stmt: ast.Import | ast.ImportFrom, path: str | Path,
                     is_package: bool) -> None:
        """Queue the project modules ``stmt`` loads (:func:`~lancet.modgraph.resolve_import`)
        and give each name it binds a kind: ``ext`` outside the project, else ``mod`` or ``slot``."""
        entries, escape = resolve_import(stmt, scope.module, is_package, path)
        if escape is not None:
            self.diagnostics.append(escape)
            self.escapes.append(escape)
        for module, pairs, loads in entries:
            self.pending += [(self.files[name], name) for name in loads if name in self.files]
            # ``from .. import util`` binds a module even where ``..`` is a
            # directory with no ``__init__.py``.
            if module not in self.files and all(target not in self.files for _, target in pairs):
                self.external_mods.add(module)
                for local, target in pairs:
                    scope.bindings[local] = ("ext", target)
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.names[0].name == "*":
                self._diagnose(scope, stmt, "star import; names not tracked")
            for local, target in pairs:
                # ``import a.b`` binds package ``a`` even if ``a`` has no file.
                is_module = isinstance(stmt, ast.Import) or target in self.files
                scope.bindings[local] = ("mod" if is_module else "slot", target)

    # -- value propagation -----------------------------------------------------

    def eval_expr(self, expr: ast.expr, scope: Scope) -> set[Value]:
        """The values ``expr`` may take.  Chains that need no brackets run in a
        loop: an attribute's receiver, a callee, a unary ``+``/``-`` operand, a
        binary left operand, and the right operand of ``**``, whose left one is
        evaluated on the way down."""
        kind = type(expr)  # compared by identity: the commonest kinds first
        if kind is ast.Name or kind is ast.Constant:
            return self._leaf(expr, scope)
        if not self.tags and kind not in _CALLABLE_KINDS:  # it could only take tags
            return set()
        spine: list[tuple[ast.expr, set[Value] | None]] = []  # (chain node, a ``**``'s left values)
        while True:
            if kind is ast.Attribute:
                spine.append((expr, None))
                expr = expr.value
            elif kind is ast.Call and expr not in self.reached:
                spine.append((expr, None))
                expr = expr.func.value if type(expr.func) is ast.Attribute else expr.func
            elif kind is ast.BinOp and type(expr.op) is ast.Pow:
                spine.append((expr, self.eval_expr(expr.left, scope)))
                expr = expr.right
            elif kind is ast.BinOp or kind is ast.UnaryOp and type(expr.op) in (ast.USub, ast.UAdd):
                spine.append((expr, None))
                expr = expr.left if kind is ast.BinOp else expr.operand
            else:
                break
            kind = type(expr)
        values = self._leaf(expr, scope)
        for node, left in reversed(spine):
            kind = type(node)
            if kind is ast.Attribute:
                values = {value for receiver in values for value in self._attr_values(receiver, node.attr)}
            elif kind is ast.Call:
                values = self._call_values(node, self._targets(node, scope, values), scope)
            elif kind is ast.UnaryOp:
                values = {("type", "int" if t == "bool" else t if t in _NUMERIC else ANY)
                          for t in map(type_name, values)}
            elif left is None:
                values = self._binop(type(node.op).__name__, values, self.eval_expr(node.right, scope))
            else:
                values = self._binop("Pow", left, values)
        return values

    def _leaf(self, expr: ast.expr, scope: Scope) -> set[Value]:
        """The values of an expression that :meth:`eval_expr` does not walk into."""
        kind = type(expr)
        if kind is ast.Name:
            binding = scope.lookup(expr.id)
            return {_ANY} if binding is None else self._binding_values(binding)
        if kind is ast.Constant:
            return {_LITERALS.get(type(expr.value), _ANY)}
        if kind is ast.Call:  # its targets were found earlier in this evaluation
            return self._call_values(expr, self._targets(expr, scope), scope)
        if kind is ast.BoolOp:
            return set().union(*(self.eval_expr(value, scope) for value in expr.values))
        if kind is ast.UnaryOp and type(expr.op) is ast.Not:
            return {("type", "bool")}
        return {("type", _EXPR_TYPES.get(kind, ANY))}

    def _binop(self, op: str, left: set[Value], right: set[Value]) -> set[Value]:
        # An empty operand is no evidence yet, and gives none.
        out: set[Value] = set()
        for l in left:
            for r in right:
                value = self.operations.get((op, l, r))
                if value is None:
                    value = self.operations[(op, l, r)] = self._operation(op, type_name(l), type_name(r))
                out.add(value)
        return out

    def _operation(self, op: str, l: str, r: str) -> Value:
        rule = None if ANY in (l, r) else _OPERATORS.get((op, l, r))
        if rule is None and op == "Add" and {l, r} == {"str", "int"}:
            self.type_diagnostics.append(f"suspicious str/int concatenation ({l} + {r})")
        return ("type", rule or ANY)

    def _call_values(self, call: ast.Call, targets: list[tuple[Value, Value | None]],
                     scope: Scope) -> set[Value]:
        """What ``call`` returns: an instance of a class it calls, the return
        set of a function, the signature of an external name (of an unbound
        one by its dotted text), a method-table result on a tag, else ``Any``."""
        root = call.func
        while type(root) is ast.Attribute:
            root = root.value
        if type(root) is ast.Name and scope.lookup(root.id) is None:
            return {("type", self.signatures.signature(".".join(dotted_parts(call.func))) or ANY)}
        out: set[Value] = set()
        for (kind, fqn), receiver in targets:
            if receiver is not None and receiver[0] == "type":
                method = _METHODS.get(call.func.attr)
                if method is None or receiver[1] == ANY:
                    out.add(_ANY)
                elif method[0] == receiver[1]:
                    out.add(("type", method[1]))
            elif kind == "class":
                out.add(("inst", fqn))
            elif kind == "ext":
                out.add(("type", self.signatures.signature(fqn) or ANY))
            else:
                runs = self._runs((kind, fqn), receiver)
                for function, _ in runs:
                    out |= self.solver.get(f"{function}.{RETURN_SLOT}")
                if not runs:
                    out.add(_ANY)
        return out

    def _targets(self, call: ast.Call, scope: Scope,
                 callee: set[Value] | None = None) -> list[tuple[Value, Value | None]]:
        """What ``call`` calls, each with the receiver it is reached through;
        found once per evaluation of its statement, which a slot it read
        queues again when it grows.  ``callee`` holds the values of the
        callee, or of its receiver for a method call, when they are known."""
        targets = self.reached.get(call)
        if targets is None:
            func = call.func
            method = type(func) is ast.Attribute
            if callee is None:
                callee = self.eval_expr(func.value if method else func, scope)
            targets = self.reached[call] = (
                [(target, receiver) for receiver in callee for target in self._attr_values(receiver, func.attr)]
                if method else [(target, None) for target in callee])
        return targets

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
        if kind in ("class", "inst"):
            class_scope = self.table.classes.get(fqn)
            if class_scope is not None and attr in class_scope.methods:
                return {("func", class_scope.methods[attr])}
            if class_scope is not None and attr in class_scope.bindings:
                return self._binding_values(class_scope.bindings[attr])
        return {_ANY}  # a field, or an attribute of a tag

    def solve(self) -> None:
        """Evaluate every statement once in scope order, then again whenever
        a slot it read has grown, until no slot grows."""
        work = [(scope, stmt) for scope in self.table.scopes for stmt in scope.statements]
        self.solver.solve(work, lambda item: self._evaluate(*item))

    def _evaluate(self, scope: Scope, stmt: ast.stmt) -> None:
        self.reached = {}
        kind = type(stmt)
        if kind is ast.Assign or kind is ast.AugAssign or kind is ast.For:
            # Evaluated even where no name takes it (``x.a = s + 1``): with tags on, that reads slots and may diagnose.
            value = stmt.value if kind is ast.Assign else None
            values = None if value is None else self.eval_expr(value, scope)
            for name, expr, _ in self.table.definitions[stmt]:
                found = {_ANY} if expr is None else values if expr is value else self.eval_expr(expr, scope)
                self._assign(scope, name, found)
        elif kind is ast.Return and stmt.value is not None and scope.kind == "function":
            self.add(f"{scope.fqn}.{RETURN_SLOT}", self.eval_expr(stmt.value, scope))
        elif kind is ast.FunctionDef:
            fqn = scope.slot(stmt.name)
            self.solver.add(fqn, {("func", fqn)})
            for name, default in bind_defaults(stmt):
                self.add(f"{fqn}.{name}", self.eval_expr(default, scope))
        elif kind is ast.ClassDef:
            fqn = scope.slot(stmt.name)
            self.solver.add(fqn, {("class", fqn)})

        for node in self.head_nodes(stmt):
            if type(node) is ast.Call:
                self._process_call(scope, node)

    def head_nodes(self, stmt: ast.stmt) -> list[ast.AST]:
        """The calls, operators and yields of :func:`~lancet.cfg.iter_eager` over
        :func:`~lancet.cfg.head_exprs`, walked once, on one stack: the calls are those of
        :meth:`~lancet.cfg.Block.get_calls`; type inference reads the rest."""
        nodes = self.heads.get(stmt)
        if nodes is None:
            nodes = self.heads[stmt] = []
            stack = head_exprs(stmt)[::-1]
            while stack:
                node = stack.pop()
                kind = type(node)
                if kind in _HEAD_KINDS:
                    nodes.append(node)
                fields = NODE_FIELDS[kind]
                if fields:  # a leaf is tested before any call
                    stack += reversed(_defaults(node.args) if kind is ast.Lambda else child_nodes(node, fields))
        return nodes

    def _assign(self, scope: Scope, name: str, values: set[Value]) -> None:
        binding = scope.lookup(name) or ("slot", scope.slot(name))
        if binding[0] == "slot":
            self.add(binding[1], values)

    def _process_call(self, scope: Scope, call: ast.Call) -> None:
        caller = scope.fqn
        func = call.func

        if type(func) is ast.Name and func.id in _DYNAMIC_NAMES and scope.lookup(func.id) is None:
            self._diagnose(scope, call, f"dynamic feature {func.id!r} ignored")
            return

        for target, receiver in self._targets(call, scope):
            if target[0] in ("class", "ext"):
                self.call_edges.add((caller, target[1]))
            for function, passed in self._runs(target, receiver):
                self.call_edges.add((caller, function))
                self._bind(scope, call, function, passed)

    def _bind(self, scope: Scope, call: ast.Call, fqn: str, receiver: Value | None) -> None:
        """Flow ``call``'s arguments, and the receiver it reaches ``fqn``
        through when it passes one, into ``fqn``'s parameters; an argument
        whose value is unknown (past a star) flows ``Any``."""
        callee = self.table.functions[fqn]
        bound = binds_receiver(callee, receiver and receiver[0])
        if bound:
            self.solver.add(callee.slot(callee.params[0]), {(callee.receiver, receiver[1])})
        for name, arg in bind_arguments(call, callee.params, bound):
            self.add(callee.slot(name), {_ANY} if arg is None else self.eval_expr(arg, scope))

    def _diagnose(self, scope: Scope, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.diagnostics.append(f"{scope.module}:{line}: {message}")

    # -- result assembly -------------------------------------------------------

    def result(self) -> CallGraph:
        nodes = dict.fromkeys(self.table.modules, "module")
        nodes.update((scope.fqn, scope.kind) for scope in self.table.scopes if scope.kind != "module")
        for _, callee in self.call_edges:  # a caller is always a scope
            nodes.setdefault(callee, "external")
        edges: dict[str, set[str]] = {fqn: set() for fqn in nodes}
        for caller, callee in self.call_edges:
            edges[caller].add(callee)
        return CallGraph(edges, nodes, set(self.table.modules), set(self.external_mods), list(self.diagnostics),
                         AssignmentGraph(nodes=set(self.values), value_sets=self.values))


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

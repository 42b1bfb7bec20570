"""Heuristic type inference for variables, returns, and parameters.

The inference is deliberately lightweight: a flat vocabulary of type names
("str", "int", "float", "bool", "List", "Dict", "Tuple", "Set", "None",
"callable", class FQNs, and "Any" for no-evidence cases), no generics.
Evidence comes from three directions:

* forward evaluation of expressions - literals, operators via a rule table,
  calls via a seeded signature table (``data/signatures.txt``, overridable
  through the ``LANCET_SIGNATURES`` environment variable) and the return
  types of project functions, iterated to a fixpoint;
* call sites - every argument or default bound to a parameter adds its type;
* backward constraints - using a parameter with a known method
  (``s.upper()``) or concatenating it with a string pins its type.

Call names resolve once, before the fixpoint, by Python's nested rule on
the scope table the call graph also reads (:class:`~lancet.modgraph.ScopeTable`):
an import binds in the scope where it appears, and a nested function is
visible to its enclosing one.  A call's callees, for its type and for its
argument evidence alike, are those of its receiver's types for ``o.m(x)``,
else its name's (``_Engine.callees``).  The fixpoint runs on the call graph's solver
(:class:`~lancet.modgraph.Worklist`): each module, function and class body
is walked once, then again only when a return or parameter it read has
grown.  The records come from each body's final walk.

Each function return, each distinct local variable, and each parameter
yields one :class:`TypeRecord`; records sort by (file, line).  Rewriter
temporaries are analysis artifacts and are not reported.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path

from .cfg import head_exprs, iter_eager
from .modgraph import (RETURN_SLOT, DiagnosticLog, Scope, ScopeTable, Worklist, bind_arguments,
                       bind_defaults, binds_receiver, discover, dotted_parts, load_module)
from .rewriter import TEMP_PREFIX
from .ssa import target_names, unpack

__all__ = [
    "TypeRecord",
    "HeuristicTable",
    "load_signature_table",
    "default_table",
    "infer_types",
    "infer_types_report",
    "type_of_expr",
    "infer_parameters",
]

ANY = "Any"

_NUMERIC_TOWER = {"bool": 0, "int": 1, "float": 2}


class TypeRecord:
    """One inferred fact: a return value, a variable, or a parameter.

    Exactly one of ``variable``/``parameter`` is set for those record kinds;
    both are absent for a return record.
    """

    def __init__(self, file: str, line_number: int, type: set[str], function: str | None = None,
                 variable: str | None = None, parameter: str | None = None) -> None:
        self.file, self.line_number, self.type = file, line_number, type
        self.function, self.variable, self.parameter = function, variable, parameter

    def to_json_dict(self) -> dict:
        out: dict = {"file": self.file, "line_number": self.line_number}
        if self.function is not None:
            out["function"] = self.function
        if self.variable is not None:
            out["variable"] = self.variable
        if self.parameter is not None:
            out["parameter"] = self.parameter
        out["type"] = sorted(self.type)
        return out


def _default_operator_rules() -> dict[tuple[str, str, str], str]:
    rules: dict[tuple[str, str, str], str] = {}
    numeric = ("bool", "int", "float")
    for op in ("Add", "Sub", "Mult", "FloorDiv", "Mod", "Pow"):
        for left in numeric:
            for right in numeric:
                level = max(_NUMERIC_TOWER[left], _NUMERIC_TOWER[right], 1)
                rules[(op, left, right)] = "float" if level == 2 else "int"
    for left in numeric:
        for right in numeric:
            rules[("Div", left, right)] = "float"
    rules[("Add", "str", "str")] = "str"
    rules[("Mult", "str", "int")] = "str"
    rules[("Mult", "int", "str")] = "str"
    rules[("Mod", "str", "str")] = "str"
    rules[("Add", "List", "List")] = "List"
    rules[("Mult", "List", "int")] = "List"
    rules[("Mult", "int", "List")] = "List"
    rules[("Add", "Tuple", "Tuple")] = "Tuple"
    return rules


# Method name -> (receiver type, result type).  Only entries whose runtime
# result type matches the vocabulary exactly belong here.
_DEFAULT_METHODS: dict[str, tuple[str, str]] = {
    "upper": ("str", "str"),
    "lower": ("str", "str"),
    "strip": ("str", "str"),
    "lstrip": ("str", "str"),
    "rstrip": ("str", "str"),
    "title": ("str", "str"),
    "capitalize": ("str", "str"),
    "casefold": ("str", "str"),
    "swapcase": ("str", "str"),
    "replace": ("str", "str"),
    "format": ("str", "str"),
    "join": ("str", "str"),
    "zfill": ("str", "str"),
    "split": ("str", "List"),
    "rsplit": ("str", "List"),
    "splitlines": ("str", "List"),
    "startswith": ("str", "bool"),
    "endswith": ("str", "bool"),
    "isdigit": ("str", "bool"),
    "isalpha": ("str", "bool"),
    "isalnum": ("str", "bool"),
    "isupper": ("str", "bool"),
    "islower": ("str", "bool"),
    "find": ("str", "int"),
    "rfind": ("str", "int"),
    "count": ("str", "int"),
    "append": ("List", "None"),
    "extend": ("List", "None"),
    "insert": ("List", "None"),
    "remove": ("List", "None"),
    "sort": ("List", "None"),
    "reverse": ("List", "None"),
    "copy": ("List", "List"),
    "index": ("List", "int"),
    "update": ("Dict", "None"),
    "clear": ("Dict", "None"),
    "add": ("Set", "None"),
    "discard": ("Set", "None"),
    "union": ("Set", "Set"),
    "intersection": ("Set", "Set"),
    "issubset": ("Set", "bool"),
}


class HeuristicTable:
    """Lookup tables behind the inference rules; misses resolve to ``Any``."""

    def __init__(self, known_signatures: dict[str, str] | None = None,
                 operator_rules: dict[tuple[str, str, str], str] | None = None,
                 method_signatures: dict[str, tuple[str, str]] | None = None) -> None:
        self.known_signatures = {} if known_signatures is None else known_signatures
        self.operator_rules = _default_operator_rules() if operator_rules is None else operator_rules
        self.method_signatures = dict(_DEFAULT_METHODS) if method_signatures is None else method_signatures

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
    """Table seeded from the bundled signature file (or LANCET_SIGNATURES)."""
    override = os.environ.get("LANCET_SIGNATURES")
    path = Path(override) if override else Path(__file__).parent / "data" / "signatures.txt"
    return HeuristicTable(known_signatures=load_signature_table(path))


# ---------------------------------------------------------------------------
# Expression typing


def _literal_type(value: object) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if value is None:
        return "None"
    return ANY


def _binop_types(op: ast.operator, left: set[str], right: set[str],
                 table: HeuristicTable, diagnostics: list[str] | None) -> set[str]:
    # Empty operand sets mean "no evidence yet" during the fixpoint and must
    # stay empty; they are normalized to Any only when records are emitted.
    op_name = type(op).__name__
    out: set[str] = set()
    for l in left:
        for r in right:
            if l == ANY or r == ANY:
                out.add(ANY)
                continue
            rule = table.operator_rules.get((op_name, l, r))
            if rule is not None:
                out.add(rule)
            else:
                if op_name == "Add" and {l, r} == {"str", "int"} and diagnostics is not None:
                    diagnostics.append(f"suspicious str/int concatenation ({l} + {r})")
                out.add(ANY)
    return out


def type_of_expr(
    expr: ast.expr,
    env: dict[str, set[str]],
    table: HeuristicTable,
    *,
    resolver: "_Engine | None" = None,
    diagnostics: list[str] | None = None,
) -> set[str]:
    """Type set of an expression under ``env`` (name -> type set).

    Literals map directly; operators consult the rule table; calls consult
    the signature table and, when a resolver is supplied, project function
    returns and class constructors.  Anything else is ``Any``.
    """
    if isinstance(expr, ast.Constant):
        return {_literal_type(expr.value)}
    if isinstance(expr, ast.Name):
        return set(env.get(expr.id, {ANY}))
    if isinstance(expr, (ast.List, ast.ListComp)):
        return {"List"}
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return {"Dict"}
    if isinstance(expr, ast.SetComp):
        return {"Set"}
    if isinstance(expr, ast.Tuple):
        return {"Tuple"}
    if isinstance(expr, ast.Lambda):
        return {"callable"}
    if isinstance(expr, ast.BoolOp):
        out: set[str] = set()
        for value in expr.values:
            out |= type_of_expr(value, env, table, resolver=resolver, diagnostics=diagnostics)
        return out
    if isinstance(expr, ast.Compare):
        return {"bool"}
    if isinstance(expr, ast.UnaryOp):
        if isinstance(expr.op, ast.Not):
            return {"bool"}
        inner = type_of_expr(expr.operand, env, table, resolver=resolver, diagnostics=diagnostics)
        if isinstance(expr.op, (ast.USub, ast.UAdd)):
            return {("int" if t == "bool" else t) if t in ("bool", "int", "float") else ANY for t in inner}
        return {ANY}
    if isinstance(expr, ast.BinOp):
        left = type_of_expr(expr.left, env, table, resolver=resolver, diagnostics=diagnostics)
        right = type_of_expr(expr.right, env, table, resolver=resolver, diagnostics=diagnostics)
        return _binop_types(expr.op, left, right, table, diagnostics)
    if isinstance(expr, ast.Call):
        return _type_of_call(expr, env, table, resolver, diagnostics)
    return {ANY}


def _type_of_call(
    call: ast.Call,
    env: dict[str, set[str]],
    table: HeuristicTable,
    resolver: "_Engine | None",
    diagnostics: list[str] | None,
) -> set[str]:
    func = call.func
    receiver = None
    out: set[str] = set()
    # A method call unions the receiver's types that have the method, so it
    # grows with the receiver; a receiver with no type yet gives none yet.
    if isinstance(func, ast.Attribute):
        receiver = type_of_expr(func.value, env, table, resolver=resolver, diagnostics=diagnostics)
        method = table.method_signatures.get(func.attr)
        if method is not None and method[0] in receiver:
            out.add(method[1])
    callees = resolver.callees(call, receiver) if resolver is not None else None
    if callees is not None:
        for fqn, _ in callees:
            out |= resolver.result_of(fqn)
        return out
    if out or receiver == set():
        return out
    # No project definition: the signature table, by the FQN the name's
    # root binds it to, then by the name's own dotted text.
    parts = dotted_parts(func)
    for name in (resolver and resolver.targets.get(func), parts and ".".join(parts)):
        sig = table.signature(name) if name else None
        if sig is not None:
            return {sig}
    return {ANY}


# ---------------------------------------------------------------------------
# Project model


_Bindings = dict[str, tuple[int, set[str]]]  # variable -> (first line, types)
_Returns = list[tuple[int, set[str], bool]]  # (line, types, bare) per return


class _Engine:
    """The fixpoint over the project's returns and parameters; also what
    :func:`type_of_expr` resolves calls through."""

    def __init__(self, table: HeuristicTable) -> None:
        self.table = table
        self.scopes = ScopeTable()
        self.files: dict[str, str] = {}  # module name -> file
        self.targets: dict[ast.expr, str] = {}  # callee node -> resolved FQN
        self.sites: dict[ast.stmt, list[ast.Call]] = {}
        self.generators: set[str] = set()
        self.solver = Worklist()  # slots: each function's return and parameters
        self.walks: dict[Scope, tuple[_Bindings, _Returns]] = {}  # each scope's final walk
        self.diagnostics = DiagnosticLog()

    def add_module(self, module: ast.Module, file: str, name: str) -> None:
        self.files[name] = file
        self.scopes.add_module(module, name, is_package=Path(file).name == "__init__.py")

    def index(self, units: list[Scope]) -> None:
        """Resolve the callee name of every call in ``units`` once, by
        Python's nested rule: the root name's binding (:meth:`Scope.lookup`)
        plus the attribute tail.  A statement's calls are :func:`~lancet.cfg.statement_calls`,
        so a lambda body's are not; the statements nested in a branch have
        their own entries.  The same pass finds the generators and seeds the
        parameters with their body constraints: a use (:func:`_pin`) pins the
        parameter its name resolves to."""
        slots = {scope.slot(name) for scope in self.scopes.functions.values() for name in scope.arguments}
        for scope in units:
            for stmt in scope.statements:
                sites = []
                for node in (n for expr in head_exprs(stmt) for n in iter_eager(expr)):
                    if isinstance(node, ast.Yield):
                        self.generators.add(scope.fqn)
                    pinned = _pin(node, self.table)
                    binding = scope.lookup(pinned[0]) if pinned is not None else None
                    if binding is not None and binding[1] in slots:
                        self.solver.add(binding[1], {pinned[1]})
                    if not isinstance(node, ast.Call):
                        continue
                    parts = dotted_parts(node.func)
                    binding = scope.lookup(parts[0]) if parts else None
                    if binding is not None:
                        self.targets[node.func] = ".".join([binding[1], *parts[1:]])
                    if isinstance(node.func, ast.Attribute) or self.callees(node, None) is not None:
                        sites.append(node)  # a call that may reach the project
                if sites:
                    self.sites[stmt] = sites

    def callees(self, call: ast.Call, receiver: set[str] | None) -> list[tuple[str, str | None]] | None:
        """The project functions and classes ``call`` calls, each with how it
        reaches them (:func:`~lancet.modgraph.binds_receiver`): given the types of
        ``o`` in ``o.m(x)``, each one's ``m``, through an instance (none while ``o``
        has no type); if none has one, what the name resolves to, through its class
        for ``C.m(o, x)``, or None if that is no project definition."""
        func = call.func
        if receiver is not None:
            classes = [self.scopes.classes.get(t) for t in sorted(receiver)]
            found = [(cls.methods[func.attr], "inst") for cls in classes
                     if cls is not None and func.attr in cls.methods]
            if found or not receiver:
                return found
        fqn = self.targets.get(func)
        if fqn in self.scopes.classes:
            return [(fqn, None)]
        if fqn in self.scopes.functions:
            through = isinstance(func, ast.Attribute) and fqn.rpartition(".")[0] in self.scopes.classes
            return [(fqn, "class" if through else None)]
        return None

    def result_of(self, fqn: str) -> set[str]:
        """What calling the project function or class ``fqn`` gives."""
        if fqn in self.scopes.classes:
            return {fqn}
        if fqn in self.generators:
            return {ANY}
        # A return not walked yet is bottom, not Any.
        return set(self.solver.get(f"{fqn}.{RETURN_SLOT}"))

    # -- environment walks -----------------------------------------------------

    def _walk_body(self, scope: Scope, evidence: dict[str, set[str]]) -> tuple[_Bindings, _Returns]:
        """Flow-insensitive walk: types accumulate as unions in the scope's
        environment.  Returns the variables (name -> first line, types) and
        the return statements (line, types, bare); adds to ``evidence`` the
        types that defaults and calls bind to parameters (``Any`` past a star)."""
        env = {name: set(self.solver.get(scope.slot(name))) for name in scope.arguments}
        if scope.receiver:
            env[scope.params[0]] = {scope.parent.fqn}  # a method's self or cls
        bindings: _Bindings = {}
        returns: _Returns = []
        for stmt in scope.statements:
            # A def's or class's own calls sit in its head (defaults,
            # bases), so they bind before its name does.
            for call in self.sites.get(stmt, ()):
                self._bind(call, env, evidence)
            if isinstance(stmt, ast.FunctionDef):
                for param, default in bind_defaults(stmt):
                    types = type_of_expr(default, env, self.table, resolver=self)
                    evidence.setdefault(f"{scope.slot(stmt.name)}.{param}", set()).update(types)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                env[stmt.name] = {"callable" if isinstance(stmt, ast.FunctionDef) else ANY}
                continue
            if isinstance(stmt, ast.Assign):
                value_types = type_of_expr(
                    stmt.value, env, self.table, resolver=self, diagnostics=self.diagnostics
                )
                for target in stmt.targets:
                    for name, expr in unpack(target, stmt.value):
                        types = (value_types if expr is stmt.value
                                 else {ANY} if expr is None
                                 else type_of_expr(expr, env, self.table, resolver=self))
                        env[name] = env.get(name, set()) | types
                        bindings.setdefault(name, (stmt.lineno, set()))[1].update(types)
            elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
                value_types = type_of_expr(
                    stmt.value, env, self.table, resolver=self, diagnostics=self.diagnostics
                )
                combined = _binop_types(
                    stmt.op, env.get(stmt.target.id, {ANY}), value_types, self.table, None
                )
                env[stmt.target.id] = env.get(stmt.target.id, set()) | combined
                if stmt.target.id in bindings:
                    bindings[stmt.target.id][1].update(combined)
            elif isinstance(stmt, ast.For):
                for name in target_names(stmt.target):
                    env[name] = env.get(name, set()) | {ANY}
            elif isinstance(stmt, ast.Return):
                bare = stmt.value is None
                types = {"None"} if bare else type_of_expr(
                    stmt.value, env, self.table, resolver=self, diagnostics=self.diagnostics
                )
                returns.append((stmt.lineno, types, bare))
        return bindings, returns

    def _bind(self, call: ast.Call, env: dict[str, set[str]], evidence: dict[str, set[str]]) -> None:
        """Add to ``evidence`` the types ``call`` binds to its :meth:`callees`' parameters."""
        receiver = None
        if isinstance(call.func, ast.Attribute):
            receiver = type_of_expr(call.func.value, env, self.table, resolver=self)
        for fqn, via in self.callees(call, receiver) or ():
            if fqn in self.scopes.classes:
                fqn, via = self.scopes.classes[fqn].methods.get("__init__"), "inst"
            callee = self.scopes.functions.get(fqn)
            if callee is None:
                continue
            for name, arg in bind_arguments(call, callee.params, binds_receiver(callee, via)):
                if name in callee.arguments:
                    types = {ANY} if arg is None else type_of_expr(arg, env, self.table, resolver=self)
                    evidence.setdefault(callee.slot(name), set()).update(types)

    # -- fixpoint ----------------------------------------------------------------

    def run(self) -> None:
        """Walk every module body, then every function and class body by FQN
        (not a def that a later one replaced), and walk a body again whenever
        a return or parameter it read has grown."""
        units = [*self.scopes.modules.values(), *sorted(
            [*self.scopes.functions.values(), *self.scopes.classes.values()],
            key=lambda scope: scope.fqn,
        )]
        self.index(units)
        self.solver.solve(units, self._walk)

    def _walk(self, scope: Scope) -> None:
        """Walk one body, then grow its return and the parameters of the
        functions it calls or defines."""
        evidence: dict[str, set[str]] = {}  # parameter slot -> types
        bindings, returns = self._walk_body(scope, evidence)
        self.walks[scope] = (bindings, returns)
        if scope.kind == "function":
            self.solver.add(f"{scope.fqn}.{RETURN_SLOT}", self._return_set(scope, returns))
        for slot, types in evidence.items():
            self.solver.add(slot, types)

    def _return_set(self, scope: Scope, returns: _Returns) -> set[str]:
        if scope.fqn in self.generators:
            return {ANY}
        out: set[str] = set().union(*(types for _, types, _ in returns))
        falls_through = not isinstance(scope.node.body[-1], ast.Return)
        if not returns or falls_through and not any(bare for _, _, bare in returns):
            out.add("None")
        return out

    # -- records -------------------------------------------------------------------

    def records(self) -> list[TypeRecord]:
        """Records from each module's and function's final walk, which read
        the final returns and parameters.  Class bodies give none."""
        values = self.solver.values
        records: list[TypeRecord] = []
        for scope, (bindings, returns) in self.walks.items():
            if scope.kind == "class":
                continue
            file = self.files[scope.module]
            function = scope.node.name if scope.kind == "function" else None
            records += [
                TypeRecord(file=file, line_number=line, function=function, variable=name,
                           type=set(types) or {ANY})
                for name, (line, types) in sorted(bindings.items())
                if not name.startswith(TEMP_PREFIX)
            ]
            if function is not None:
                records.append(TypeRecord(
                    file=file, line_number=returns[0][0] if returns else scope.node.lineno,
                    function=function, type=set(values.get(f"{scope.fqn}.{RETURN_SLOT}", ())) or {ANY},
                ))
                records += [
                    TypeRecord(file=file, line_number=scope.node.lineno, function=function,
                               parameter=name, type=set(values.get(scope.slot(name), ())) or {ANY})
                    for name in scope.arguments
                ]

        records.sort(
            key=lambda r: (
                r.file,
                r.line_number,
                r.variable or "",
                r.parameter or "",
                r.function or "",
            )
        )
        return records


def _pin(node: ast.AST, table: HeuristicTable) -> tuple[str, str] | None:
    """The type a use forces on a bare name, as (name, type): a known method
    called on it (``s.upper()``), or ``+`` with a string literal."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        method = table.method_signatures.get(node.func.attr)
        if isinstance(node.func.value, ast.Name) and method is not None:
            return node.func.value.id, method[0]
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        for side, other in ((node.left, node.right), (node.right, node.left)):
            if (isinstance(side, ast.Name) and isinstance(other, ast.Constant)
                    and isinstance(other.value, str)):
                return side.id, "str"
    return None


def infer_parameters(
    function: ast.FunctionDef,
    call_sites: list[tuple[list[set[str]], dict[str, set[str]]]],
    body_constraints: dict[str, set[str]] | None = None,
    *,
    file: str = "<string>",
    table: HeuristicTable | None = None,
) -> list[TypeRecord]:
    """Parameter records from call-site argument types plus body constraints.

    ``call_sites`` holds (positional type sets, keyword type sets) per
    observed call; with no evidence at all a parameter is ``Any``.  Uses pin
    as in :func:`infer_types`: not in nested def, class or lambda bodies.
    """
    engine = _Engine(table or default_table())
    engine.scopes.add_module(ast.Module(body=[function], type_ignores=[]), "")
    scope = engine.scopes.scopes[1]
    engine.index([scope])
    for positional, keywords in [([], body_constraints or {}), *call_sites]:  # constraints by name
        for name, types in [*zip(scope.params, positional), *keywords.items()]:
            engine.solver.add(scope.slot(name), types)
    return [
        TypeRecord(file=file, line_number=function.lineno, function=function.name,
                   parameter=name, type=set(engine.solver.get(scope.slot(name))) or {ANY})
        for name in scope.params
    ]


def infer_types(
    name: str,
    entry: str | Path,
    *,
    simplify: bool = True,
    table: HeuristicTable | None = None,
) -> list[TypeRecord]:
    """Infer type records for a file or for every module under a directory.

    ``name`` labels the analysis run; it does not affect the results.
    Unparsable files are skipped, the rest are analyzed.
    """
    del name
    records, _ = infer_types_report(entry, simplify=simplify, table=table)
    return records


def infer_types_report(
    entry: str | Path,
    *,
    simplify: bool = True,
    table: HeuristicTable | None = None,
) -> tuple[list[TypeRecord], list[str]]:
    """Like :func:`infer_types`, but also returns the diagnostics collected
    (skipped files, suspicious operations)."""
    engine = _Engine(table or default_table())
    entry_path = Path(entry)
    if entry_path.is_dir():
        tree, diagnostics = discover(entry_path)
        engine.diagnostics.extend(diagnostics)
        files = [(node.path, node.full_name) for node in tree.iter_modules()]
    elif entry_path.is_file():
        files = [(str(entry), entry_path.stem)]
    else:
        raise FileNotFoundError(f"entry point not found: {entry}")
    for file, name in files:
        module, diagnostic = load_module(file, simplify=simplify)
        if module is None:
            engine.diagnostics.append(diagnostic)
        else:
            engine.add_module(module, file, name)
    engine.run()
    return engine.records(), list(engine.diagnostics)

"""Heuristic type inference for variables, returns, and parameters.

The inference is deliberately lightweight: a flat vocabulary of type names
("str", "int", "float", "bool", "List", "Dict", "Tuple", "Set", "None",
"callable", class FQNs, and "Any" for no-evidence cases), no generics.
Evidence comes from three directions:

* forward evaluation of expressions - literals, operators via a rule table,
  calls via a seeded signature table (``data/signatures.txt``, overridable
  through the ``LANCET_SIGNATURES`` environment variable) and the return
  types of project functions, iterated to a fixpoint;
* call sites - a parameter's type includes every argument type observed;
* backward constraints - using a parameter with a known method
  (``s.upper()``) or concatenating it with a string pins its type.

Each function return, each distinct local variable, and each parameter
yields one :class:`TypeRecord`; records sort by (file, line).  Rewriter
temporaries are analysis artifacts and are not reported.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path

from .cfg import contains_yield, head_exprs
from .frontend import positional_params, walk
from .modgraph import (
    NameContext, Scope, ScopeTable, Unresolved, build_name_context, discover, load_module,
    resolve_fqn,
)
from .rewriter import TEMP_PREFIX
from .ssa import target_names

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


@dataclass
class TypeRecord:
    """One inferred fact: a return value, a variable, or a parameter.

    Exactly one of ``variable``/``parameter`` is set for those record kinds;
    both are absent for a return record.
    """

    file: str
    line_number: int
    type: set[str]
    function: str | None = None
    variable: str | None = None
    parameter: str | None = None

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


@dataclass
class HeuristicTable:
    """Lookup tables behind the inference rules; misses resolve to ``Any``."""

    known_signatures: dict[str, str] = field(default_factory=dict)
    operator_rules: dict[tuple[str, str, str], str] = field(default_factory=_default_operator_rules)
    method_signatures: dict[str, tuple[str, str]] = field(default_factory=lambda: dict(_DEFAULT_METHODS))

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
    resolver: "_Resolver | None" = None,
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
    resolver: "_Resolver | None",
    diagnostics: list[str] | None,
) -> set[str]:
    func = call.func
    # Method call on a value whose type we know.
    if isinstance(func, ast.Attribute):
        receiver = type_of_expr(func.value, env, table, resolver=resolver, diagnostics=diagnostics)
        method = table.method_signatures.get(func.attr)
        if method is not None and method[0] in receiver:
            return {method[1]}
        if resolver is not None:
            for recv_type in sorted(receiver):
                ret = resolver.method_return(recv_type, func.attr)
                if ret is not None:
                    return set(ret)
    if resolver is not None:
        resolved = resolver.call_target(func)
        if resolved is not None:
            return set(resolved)
    # Fallback: a bare name that appears verbatim in the signature table.
    if isinstance(func, (ast.Name, ast.Attribute)):
        dotted = ast.unparse(func)
        sig = table.signature(dotted)
        if sig is not None:
            return {sig}
    return {ANY}


# ---------------------------------------------------------------------------
# Project model


class _Resolver:
    """Resolves call targets for one module against project-wide results."""

    def __init__(self, engine: "_Engine", ctx: NameContext) -> None:
        self.engine = engine
        self.ctx = ctx

    def call_target(self, func: ast.expr) -> set[str] | None:
        fqn = resolve_fqn(func, self.ctx)
        if isinstance(fqn, Unresolved):
            return None
        engine = self.engine
        if fqn in engine.scopes.classes:
            return {fqn}
        if fqn in engine.scopes.functions:
            if fqn in engine.generators:
                return {ANY}
            # Not-yet-computed returns are bottom, not Any; the fixpoint
            # fills them in.
            return set(engine.returns.get(fqn, set()))
        sig = engine.table.signature(fqn)
        if sig is not None:
            return {sig}
        return None

    def method_return(self, receiver_type: str, attr: str) -> set[str] | None:
        cls = self.engine.scopes.classes.get(receiver_type)
        if cls is None or attr not in cls.methods:
            return None
        method_fqn = cls.methods[attr]
        if method_fqn in self.engine.generators:
            return {ANY}
        return set(self.engine.returns.get(method_fqn, set()))


_MAX_ROUNDS = 10


class _DiagnosticLog(list):
    """List of diagnostics that ignores repeats (fixpoint sweeps re-walk code)."""

    def append(self, item: str) -> None:
        if item not in self:
            super().append(item)


class _Engine:
    def __init__(self, table: HeuristicTable) -> None:
        self.table = table
        self.scopes = ScopeTable()
        self.modules: dict[str, tuple[str, NameContext]] = {}  # name -> (file, context)
        self.generators: set[str] = set()
        self.constraints: dict[str, dict[str, set[str]]] = {}  # fqn -> body constraints
        self.returns: dict[str, set[str]] = {}
        self.params: dict[str, dict[str, set[str]]] = {}
        self.diagnostics: list[str] = _DiagnosticLog()

    def add_module(self, module: ast.Module, file: str, name: str) -> None:
        ctx = build_name_context(module, name, is_package=Path(file).name == "__init__.py")
        self.modules[name] = (file, ctx)
        self.scopes.add_module(module, name)

    # -- environment walks -----------------------------------------------------

    def _param_env(self, scope: Scope) -> dict[str, set[str]]:
        env: dict[str, set[str]] = {}
        inferred = self.params.get(scope.fqn, {})
        owner = _class_of(scope)
        for i, name in enumerate(scope.params):
            if i == 0 and owner is not None and name in ("self", "cls"):
                env[name] = {owner}
            else:
                env[name] = set(inferred.get(name, set()))
        return env

    def _walk_body(
        self,
        scope: Scope,
        env: dict[str, set[str]],
        bindings: dict[str, tuple[int, set[str]]] | None,
        returns: list[tuple[int, set[str], bool]] | None,
        call_sink: dict[str, list[tuple[list[set[str]], dict[str, set[str]]]]] | None,
    ) -> None:
        """Flow-insensitive walk: types accumulate as unions in ``env``."""
        resolver = _Resolver(self, self.modules[scope.module][1])
        for stmt in scope.statements:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                kind = "callable" if isinstance(stmt, ast.FunctionDef) else ANY
                env[stmt.name] = {kind}
                continue
            if call_sink is not None:
                self._record_calls(stmt, env, resolver, call_sink)
            if isinstance(stmt, ast.Assign):
                value_types = type_of_expr(
                    stmt.value, env, self.table, resolver=resolver, diagnostics=self.diagnostics
                )
                for target in stmt.targets:
                    self._bind_target(target, stmt, value_types, env, bindings, resolver)
            elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
                value_types = type_of_expr(
                    stmt.value, env, self.table, resolver=resolver, diagnostics=self.diagnostics
                )
                combined = _binop_types(
                    stmt.op, env.get(stmt.target.id, {ANY}), value_types, self.table, None
                )
                env[stmt.target.id] = env.get(stmt.target.id, set()) | combined
                if bindings is not None and stmt.target.id in bindings:
                    bindings[stmt.target.id][1].update(combined)
            elif isinstance(stmt, ast.For):
                for name in target_names(stmt.target):
                    env[name] = env.get(name, set()) | {ANY}
            elif isinstance(stmt, ast.Return) and returns is not None:
                bare = stmt.value is None
                types = {"None"} if bare else type_of_expr(
                    stmt.value, env, self.table, resolver=resolver, diagnostics=self.diagnostics
                )
                returns.append((stmt.lineno, types, bare))

    def _bind_target(
        self,
        target: ast.expr,
        stmt: ast.stmt,
        value_types: set[str],
        env: dict[str, set[str]],
        bindings: dict[str, tuple[int, set[str]]] | None,
        resolver: "_Resolver | None" = None,
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = env.get(target.id, set()) | value_types
            if bindings is not None:
                bindings.setdefault(target.id, (stmt.lineno, set()))[1].update(value_types)
        elif isinstance(target, (ast.Tuple, ast.List)):
            value = stmt.value if isinstance(stmt, ast.Assign) else None
            elementwise = (
                isinstance(value, (ast.Tuple, ast.List))
                and len(value.elts) == len(target.elts)
            )
            for i, elt in enumerate(target.elts):
                if isinstance(elt, ast.Name):
                    inner = (type_of_expr(value.elts[i], env, self.table, resolver=resolver)
                             if elementwise else {ANY})
                    self._bind_target(elt, stmt, inner, env, bindings)

    def _record_calls(
        self,
        stmt: ast.stmt,
        env: dict[str, set[str]],
        resolver: _Resolver,
        call_sink: dict[str, list[tuple[list[set[str]], dict[str, set[str]]]]],
    ) -> None:
        """Record the argument types of each project-function call in the
        statement's own expressions (lambda bodies included); the statements
        nested in a branch record theirs when the walk reaches them."""
        for node in (node for expr in head_exprs(stmt) for node in walk(expr)):
            if not isinstance(node, ast.Call):
                continue
            fqn = resolve_fqn(node.func, resolver.ctx)
            if isinstance(fqn, Unresolved) or fqn not in self.scopes.functions:
                continue
            pos = [
                type_of_expr(arg, env, self.table, resolver=resolver)
                for arg in node.args
                if not isinstance(arg, ast.Starred)
            ]
            kw = {
                k.arg: type_of_expr(k.value, env, self.table, resolver=resolver)
                for k in node.keywords
                if k.arg is not None
            }
            call_sink.setdefault(fqn, []).append((pos, kw))

    # -- fixpoint ----------------------------------------------------------------

    def run(self) -> None:
        functions = self.scopes.functions
        self.generators = {
            fqn for fqn, scope in functions.items()
            if any(contains_yield(stmt) for stmt in scope.statements)
        }
        self.constraints = {
            fqn: _backward_constraints(scope.node, self.table) for fqn, scope in functions.items()
        }
        for _ in range(_MAX_ROUNDS):
            changed = False
            call_sites: dict[str, list[tuple[list[set[str]], dict[str, set[str]]]]] = {}

            for module in self.scopes.modules.values():
                self._walk_body(module, {}, None, None, call_sites)
            for fqn in sorted(functions):
                scope = functions[fqn]
                returns: list[tuple[int, set[str], bool]] = []
                self._walk_body(scope, self._param_env(scope), None, returns, call_sites)
                new_ret = self._return_set(scope, returns)
                if new_ret != self.returns.get(fqn):
                    self.returns[fqn] = new_ret
                    changed = True

            for fqn in sorted(functions):
                new_params = self._infer_params(functions[fqn], call_sites.get(fqn, []))
                if new_params != self.params.get(fqn):
                    self.params[fqn] = new_params
                    changed = True
            if not changed:
                break
        else:
            self.diagnostics.append(
                f"type inference stopped after {_MAX_ROUNDS} rounds without converging; "
                "some types may be incomplete"
            )

    def _return_set(self, scope: Scope, returns: list[tuple[int, set[str], bool]]) -> set[str]:
        if scope.fqn in self.generators:
            return {ANY}
        if not returns:
            return {"None"}
        out: set[str] = set()
        bare = False
        for _, types, is_bare in returns:
            out |= types
            bare = bare or is_bare
        body = scope.node.body
        falls_through = not isinstance(body[-1], ast.Return)
        if falls_through and not bare:
            out.add("None")
        return out

    def _infer_params(
        self,
        scope: Scope,
        sites: list[tuple[list[set[str]], dict[str, set[str]]]],
    ) -> dict[str, set[str]]:
        params = scope.params
        skip_self = 1 if _class_of(scope) is not None and params and params[0] in ("self", "cls") else 0
        return _param_evidence(params[skip_self:], self.constraints[scope.fqn], sites)

    # -- records -------------------------------------------------------------------

    def records(self) -> list[TypeRecord]:
        records: list[TypeRecord] = []
        functions = [self.scopes.functions[fqn] for fqn in sorted(self.scopes.functions)]
        for scope in [*self.scopes.modules.values(), *functions]:
            file = self.modules[scope.module][0]
            function = scope.node.name if scope.kind == "function" else None
            bindings: dict[str, tuple[int, set[str]]] = {}
            returns: list[tuple[int, set[str], bool]] = []
            self._walk_body(scope, self._param_env(scope), bindings, returns, None)
            if function is not None:
                records.append(TypeRecord(
                    file=file, line_number=returns[0][0] if returns else scope.node.lineno,
                    function=function, type=set(self.returns.get(scope.fqn, {"None"})) or {ANY},
                ))
            records += [
                TypeRecord(file=file, line_number=line, function=function, variable=name,
                           type=set(types) or {ANY})
                for name, (line, types) in sorted(bindings.items())
                if not name.startswith(TEMP_PREFIX)
            ]
            if function is not None:
                records += [
                    TypeRecord(file=file, line_number=scope.node.lineno, function=function,
                               parameter=name, type=set(types) or {ANY})
                    for name, types in self.params.get(scope.fqn, {}).items()
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


def _backward_constraints(fn: ast.FunctionDef, table: HeuristicTable) -> dict[str, set[str]]:
    """Types forced on parameters by how the body uses them."""
    params = {a.arg for a in positional_params(fn.args)}
    out: dict[str, set[str]] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            base = node.func.value
            if isinstance(base, ast.Name) and base.id in params:
                method = table.method_signatures.get(node.func.attr)
                if method is not None:
                    out.setdefault(base.id, set()).add(method[0])
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            for param_side, other in ((node.left, node.right), (node.right, node.left)):
                if isinstance(param_side, ast.Name) and param_side.id in params:
                    if isinstance(other, ast.Constant) and isinstance(other.value, str):
                        out.setdefault(param_side.id, set()).add("str")
    return out


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
    observed call; with no evidence at all a parameter is ``Any``.
    """
    table = table or default_table()
    constraints = dict(body_constraints or {})
    for name, types in _backward_constraints(function, table).items():
        constraints.setdefault(name, set()).update(types)
    params = [a.arg for a in positional_params(function.args)]
    return [
        TypeRecord(file=file, line_number=function.lineno, function=function.name,
                   parameter=name, type=evidence or {ANY})
        for name, evidence in _param_evidence(params, constraints, call_sites).items()
    ]


def _param_evidence(
    params: list[str],
    constraints: dict[str, set[str]],
    sites: list[tuple[list[set[str]], dict[str, set[str]]]],
) -> dict[str, set[str]]:
    """Each parameter's body constraints plus the argument types that call
    sites pass it, by position or by keyword."""
    out: dict[str, set[str]] = {}
    for i, name in enumerate(params):
        evidence: set[str] = set(constraints.get(name, set()))
        for pos, kw in sites:
            if i < len(pos):
                evidence |= pos[i]
            if name in kw:
                evidence |= kw[name]
        out[name] = evidence
    return out


def _class_of(scope: Scope) -> str | None:
    """The class a method is defined in, else None."""
    parent = scope.parent
    return parent.fqn if parent is not None and parent.kind == "class" else None


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

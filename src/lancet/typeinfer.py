"""Type inference for variables, returns, and parameters: a view of the
call graph's solved value sets.

The vocabulary is flat: "str", "int", "float", "bool", "List", "Dict",
"Tuple", "Set", "None", "callable", class FQNs, and "Any" for no-evidence
cases, with no generics.  There is one interpreter,
:class:`lancet.callgraph._Analyzer`, built here with tags on (a call-graph
run keeps none), so its slots hold project callables and type tags alike:
literals, operators, methods on tags and the signature table
(``data/signatures.txt``, or in its place the file that the
``LANCET_SIGNATURES`` environment variable names) give tags, and calls,
arguments, defaults and returns flow them between slots as they flow callables.

Before the fixpoint, one pass over each scope's head nodes (:func:`_seed`)
adds the facts a call-graph run does not need: a use that pins a
parameter's type (``s.upper()`` or ``s + 'x'``), ``Any`` for a generator's
return, and ``None`` for a function that may end without a value.  After
it, one pass over each scope's statements (:func:`_records`) finds each
variable's first assignment in the scope table's definitions and the
first ``return``, and reads each record off its solved slot: an instance
is its class, a function ``callable``, a class, module or external name
``Any``, a tag its name, and an empty slot ``Any``.

Each function return, each distinct local variable, and each parameter
yields one :class:`TypeRecord`, sorted once by (file, line, variable,
parameter, function).  A variable's line is the first assignment in its
scope that binds it; class bodies give no records.  The temporaries the
rewriter made (the ``temporaries`` that :func:`~lancet.rewriter.simplify_module`
leaves on a module) are not reported; a user's own ``_ret`` is.
"""

from __future__ import annotations

import ast
from operator import itemgetter
from pathlib import Path

from .callgraph import (ANY, _METHODS, HeuristicTable, _Analyzer, default_table, load_signature_table,
                        type_name)
from .modgraph import RETURN_SLOT, DiagnosticLog

__all__ = [
    "TypeRecord",
    "HeuristicTable",
    "load_signature_table",
    "default_table",
    "infer_types",
    "infer_types_report",
]


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


def _pin(node: ast.AST) -> tuple[str, str] | None:
    """The type a use forces on a bare name, as (name, type): a known method
    called on it (``s.upper()``), or ``+`` with a string literal."""
    if type(node) is ast.Call:
        func = node.func
        if type(func) is ast.Attribute and type(func.value) is ast.Name and func.attr in _METHODS:
            return func.value.id, _METHODS[func.attr][0]
    elif type(node) is ast.BinOp and type(node.op) is ast.Add:
        for side, other in ((node.left, node.right), (node.right, node.left)):
            if type(side) is ast.Name and type(other) is ast.Constant and type(other.value) is str:
                return side.id, "str"
    return None


def _seed(analyzer: _Analyzer) -> None:
    """Add what type inference knows before the fixpoint and a call-graph run
    does not need, in one pass over the head nodes of each scope the table
    indexes by its FQN (not a def that a later one replaced): the type a use
    pins on the parameter its name resolves to (:func:`_pin`), not in a lambda
    body; ``Any`` for a generator's return; and ``None`` for a function's
    return when it has a bare ``return`` or does not end in a ``return``."""
    table, add = analyzer.table, analyzer.solver.add
    arguments = {scope.slot(name) for scope in table.functions.values() for name in scope.arguments}
    for scope in [*table.modules.values(), *table.functions.values(), *table.classes.values()]:
        generator = bare = False
        for stmt in scope.statements:
            bare = bare or type(stmt) is ast.Return and stmt.value is None
            for node in analyzer.head_nodes(stmt):  # its calls, operators and yields
                generator = generator or type(node) is ast.Yield
                pinned = _pin(node)
                binding = pinned and scope.lookup(pinned[0])
                if binding and binding[1] in arguments:
                    add(binding[1], {("type", pinned[1])})
        if scope.kind == "function" and (generator or bare or type(scope.node.body[-1]) is not ast.Return):
            add(f"{scope.fqn}.{RETURN_SLOT}", {("type", ANY if generator else "None")})


def _records(analyzer: _Analyzer, files: dict[str, str]) -> list[TypeRecord]:
    """The records of each module and function scope that the table indexes
    by its FQN, read off the solved slots in one pass over each scope's
    statements; each record's sort key is built once, with it."""
    table, values = analyzer.table, analyzer.values
    keyed: list[tuple[tuple[str, int, str, str, str], TypeRecord]] = []
    for scope in [*table.modules.values(), *table.functions.values()]:
        first: dict[str, int] = {}  # variable -> the line of the first assignment to it
        returned = None  # the line of the first ``return``
        for stmt in scope.statements:
            if type(stmt) is ast.Assign:
                for name, _, _ in table.definitions[stmt]:
                    first.setdefault(name, stmt.lineno)
            elif type(stmt) is ast.Return and returned is None:
                returned = stmt.lineno
        temporaries = getattr(table.modules[scope.module].node, "temporaries", ())
        # (line, variable, parameter, slot) of each record; a variable's slot is its binding's
        facts = [(line, name, "", scope.bindings[name][1]) for name, line in first.items() if name not in temporaries]
        if scope.kind == "function":
            facts.append((returned or scope.node.lineno, "", "", f"{scope.fqn}.{RETURN_SLOT}"))
            facts += [(scope.node.lineno, "", name, scope.slot(name)) for name in scope.arguments]
        file, function = files[scope.module], scope.node.name if scope.kind == "function" else None
        keyed += [((file, line, variable, parameter, function or ""),
                   TypeRecord(file, line, set(map(type_name, values.get(slot, ()))) or {ANY}, function,
                              variable or None, parameter or None))
                  for line, variable, parameter, slot in facts]
    keyed.sort(key=itemgetter(0))
    return [record for _, record in keyed]


def infer_types(name: str, entry: str | Path, *, simplify: bool = True) -> list[TypeRecord]:
    """Infer type records for a file or for every module under a directory.

    ``name`` labels the analysis run; it does not affect the results.
    Unparsable files are skipped, the rest are analyzed.
    """
    del name
    return infer_types_report(entry, simplify=simplify)[0]


def infer_types_report(entry: str | Path, *, simplify: bool = True) -> tuple[list[TypeRecord], list[str]]:
    """Like :func:`infer_types`, but also returns the diagnostics collected:
    the directory walk's, one per skipped file in the walk's order, one per
    import that escapes the project root, then the suspicious operations."""
    entry_path = Path(entry)
    if not (entry_path.is_dir() or entry_path.is_file()):
        raise FileNotFoundError(f"entry point not found: {entry}")
    analyzer = _Analyzer(entry_path, simplify, tags=True)  # it walks a directory only
    files = ({name: str(path) for name, path in analyzer.files.items()} if entry_path.is_dir()
             else {entry_path.stem: str(entry)})
    diagnostics = DiagnosticLog(analyzer.diagnostics)  # so far, the directory walk's
    for name, file in files.items():
        analyzer.load(file, name)
    _seed(analyzer)
    analyzer.solve()
    diagnostics.extend(analyzer.failed[name] for name in files if name in analyzer.failed)
    diagnostics.extend(analyzer.escapes)
    diagnostics.extend(analyzer.type_diagnostics)
    return _records(analyzer, files), list(diagnostics)

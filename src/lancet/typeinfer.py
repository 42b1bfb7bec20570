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

Before the fixpoint, type inference adds the facts a call-graph run does
not need (:func:`_seed`): a use that pins a parameter's type (``s.upper()``
or ``s + 'x'``), ``Any`` for a generator's return, and ``None`` for a
function that may end without a value.  Then it reads the records off the
solved slots: an instance is its class, a function is ``callable``, a
class, module or external name is ``Any``, a tag is its name, and an empty
slot is ``Any``.

Each function return, each distinct local variable, and each parameter
yields one :class:`TypeRecord`; records sort by (file, line).  A variable's
line is the first assignment in its scope that binds it; class bodies give
no records.  The temporaries the rewriter made (the ``temporaries`` that
:func:`~lancet.rewriter.simplify_module` leaves on a module) are analysis
artifacts and are not reported; a user's own ``_ret`` is.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .callgraph import (ANY, _METHODS, HeuristicTable, _Analyzer, default_table,
                        load_signature_table, type_name)
from .modgraph import RETURN_SLOT, DiagnosticLog
from .ssa import definitions

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
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        method = _METHODS.get(node.func.attr)
        if isinstance(node.func.value, ast.Name) and method is not None:
            return node.func.value.id, method[0]
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        for side, other in ((node.left, node.right), (node.right, node.left)):
            if (isinstance(side, ast.Name) and isinstance(other, ast.Constant)
                    and isinstance(other.value, str)):
                return side.id, "str"
    return None


def _seed(analyzer: _Analyzer) -> None:
    """Add what type inference knows before the fixpoint and a call-graph
    run does not need, for each scope that the table indexes by its FQN (not
    a def that a later one replaced): the type a use pins on the parameter
    its name resolves to (:func:`_pin`), not in a lambda body; ``Any`` for a
    generator's return; and ``None`` for a function's return when it has a
    bare ``return`` or its body's last statement is no ``return``."""
    table = analyzer.table
    arguments = {scope.slot(name) for scope in table.functions.values() for name in scope.arguments}
    for scope in [*table.modules.values(), *table.functions.values(), *table.classes.values()]:
        generator = False
        for node in (node for stmt in scope.statements for node in analyzer.head_nodes(stmt)):
            generator = generator or isinstance(node, ast.Yield)
            pinned = _pin(node)
            binding = scope.lookup(pinned[0]) if pinned is not None else None
            if binding is not None and binding[1] in arguments:
                analyzer.solver.add(binding[1], {("type", pinned[1])})
        if scope.kind != "function":
            continue
        bare = any(isinstance(stmt, ast.Return) and stmt.value is None for stmt in scope.statements)
        ends = bare or not isinstance(scope.node.body[-1], ast.Return)
        if generator or ends:
            analyzer.solver.add(f"{scope.fqn}.{RETURN_SLOT}", {("type", ANY if generator else "None")})


def _types(analyzer: _Analyzer, slot: str) -> set[str]:
    return {type_name(value) for value in analyzer.values.get(slot, ())} or {ANY}


def _records(analyzer: _Analyzer, files: dict[str, str]) -> list[TypeRecord]:
    """The records of each module and function scope that the table indexes
    by its FQN, read off the solved slots."""
    table = analyzer.table
    records: list[TypeRecord] = []
    for scope in [*table.modules.values(), *table.functions.values()]:
        file = files[scope.module]
        function = scope.node.name if scope.kind == "function" else None
        first: dict[str, int] = {}  # variable -> the line of the first assignment to it
        for stmt in scope.statements:
            if isinstance(stmt, ast.Assign):
                for name, _, _ in definitions(stmt):
                    first.setdefault(name, stmt.lineno)
        temporaries = getattr(table.modules[scope.module].node, "temporaries", ())
        records += [
            TypeRecord(file=file, line_number=line, function=function, variable=name,
                       type=_types(analyzer, scope.lookup(name)[1]))
            for name, line in sorted(first.items())
            if name not in temporaries
        ]
        if function is not None:
            returns = [stmt.lineno for stmt in scope.statements if isinstance(stmt, ast.Return)]
            records.append(TypeRecord(
                file=file, line_number=returns[0] if returns else scope.node.lineno,
                function=function, type=_types(analyzer, f"{scope.fqn}.{RETURN_SLOT}"),
            ))
            records += [
                TypeRecord(file=file, line_number=scope.node.lineno, function=function,
                           parameter=name, type=_types(analyzer, scope.slot(name)))
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


def infer_types(
    name: str,
    entry: str | Path,
    *,
    simplify: bool = True,
) -> list[TypeRecord]:
    """Infer type records for a file or for every module under a directory.

    ``name`` labels the analysis run; it does not affect the results.
    Unparsable files are skipped, the rest are analyzed.
    """
    del name
    records, _ = infer_types_report(entry, simplify=simplify)
    return records


def infer_types_report(
    entry: str | Path,
    *,
    simplify: bool = True,
) -> tuple[list[TypeRecord], list[str]]:
    """Like :func:`infer_types`, but also returns the diagnostics collected:
    the directory walk's, one per skipped file in the walk's order, one per
    import that escapes the project root, then the suspicious operations."""
    entry_path = Path(entry)
    if entry_path.is_dir():
        analyzer = _Analyzer(entry_path, simplify, tags=True)
        files = {name: str(path) for name, path in analyzer.files.items()}
    elif entry_path.is_file():
        analyzer = _Analyzer(None, simplify, tags=True)
        files = {entry_path.stem: str(entry)}
    else:
        raise FileNotFoundError(f"entry point not found: {entry}")
    diagnostics = DiagnosticLog(analyzer.diagnostics)  # so far, the directory walk's
    for name, file in files.items():
        analyzer.load(file, name)
    _seed(analyzer)
    analyzer.solve()
    diagnostics.extend(analyzer.failed[name] for name in files if name in analyzer.failed)
    diagnostics.extend(analyzer.escapes)
    diagnostics.extend(analyzer.type_diagnostics)
    return _records(analyzer, files), list(diagnostics)

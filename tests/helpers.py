"""Shared test utilities: corpus discovery and independent oracles.

The oracles here deliberately re-derive results through different machinery
than the library uses: reaching definitions via chaotic iteration over
statement-level equations, call edges and concrete types via tracing real
executions.  They validate the analyses without sharing their code paths.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import io
import re
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

CORPUS = Path(__file__).parent / "corpus"
GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"

TEMP_NAME = re.compile(r"^_ret(_\d+)?$")


def corpus_files(*groups: str) -> list[Path]:
    """All corpus .py files in the given groups (all groups when empty)."""
    if not groups:
        groups = tuple(sorted(p.name for p in CORPUS.iterdir() if p.is_dir()))
    out: list[Path] = []
    for group in groups:
        out.extend(sorted((CORPUS / group).rglob("*.py")))
    return out


def perfbench_gen(monkeypatch) -> types.ModuleType:
    """``perfbench/gen.py``, the benchmark's workload generators, imported
    by path (``perfbench`` is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while it executes.
    monkeypatch.setitem(sys.modules, spec.name, gen)
    spec.loader.exec_module(gen)
    return gen


def write_files(base: Path, files: dict[str, str]) -> None:
    """Write each relative path of ``files`` under ``base``."""
    for rel, text in files.items():
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def run_program(path: Path, timeout: float = 20.0) -> str:
    """Stdout of the program under the reference interpreter."""
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    return proc.stdout


def run_source(source: str, tmp_path: Path, name: str = "rewritten.py") -> str:
    target = tmp_path / name
    target.write_text(source, encoding="utf-8")
    return run_program(target)


# ---------------------------------------------------------------------------
# Alpha-equivalence up to generated temporary names


class _CanonTemps(ast.NodeTransformer):
    def __init__(self) -> None:
        self.mapping: dict[str, str] = {}

    def _canon(self, name: str) -> str:
        if not TEMP_NAME.match(name):
            return name
        if name not in self.mapping:
            self.mapping[name] = f"_t{len(self.mapping)}"
        return self.mapping[name]

    def visit_Name(self, node: ast.Name) -> ast.Name:
        node.id = self._canon(node.id)
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.FunctionDef:
        node.name = self._canon(node.name)
        self.generic_visit(node)
        return node


def canonical_dump(source: str) -> str:
    tree = ast.parse(source)
    tree = _CanonTemps().visit(tree)
    return ast.dump(tree, include_attributes=False)


def alpha_equal(actual_source: str, expected_source: str) -> bool:
    """Structural equality after canonicalizing `_ret*` temporaries."""
    return canonical_dump(actual_source) == canonical_dump(expected_source)


def trees_equal(a: ast.AST, b: ast.AST) -> bool:
    """Structural equality modulo spans."""
    return ast.dump(a, include_attributes=False) == ast.dump(b, include_attributes=False)


def rewrite_text(source: str, path: str = "<string>") -> str:
    """What ``lancet rewrite`` prints for ``source``: parse, simplify, unparse."""
    from lancet.frontend import parse_module, unparse
    from lancet.rewriter import simplify_module

    return unparse(simplify_module(parse_module(source, path)))


# ---------------------------------------------------------------------------
# Independent reaching-definitions oracle.
#
# Consumes the library's Cfg shape (blocks and links are data, not analysis)
# but recomputes reaching definitions from scratch: program points are
# (block, statement) pairs and the equations are iterated chaotically with
# full sweeps until nothing changes, with its own def/use extraction.

Site = tuple[int, int]  # (block id, statement index)


def _oracle_target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for elt in target.elts:
            if isinstance(elt, ast.Starred):
                elt = elt.value
            names.extend(_oracle_target_names(elt))
        return names
    return []


def _oracle_defs(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, ast.Assign):
        names: list[str] = []
        for target in stmt.targets:
            names.extend(_oracle_target_names(target))
        return names
    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    if isinstance(stmt, ast.For):
        return _oracle_target_names(stmt.target)
    return []


def _oracle_uses(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.If, ast.While)):
        roots: list[ast.expr] = [stmt.test]
    elif isinstance(stmt, ast.For):
        roots = [stmt.iter]
    elif isinstance(stmt, ast.FunctionDef):
        roots = list(stmt.args.defaults)
    elif isinstance(stmt, ast.ClassDef):
        roots = list(stmt.bases)
    elif isinstance(stmt, ast.Assign):
        roots = [stmt.value] + [t for t in stmt.targets if not isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AugAssign):
        roots = [stmt.value]
    elif isinstance(stmt, (ast.Expr, ast.Return)):
        roots = [stmt.value] if stmt.value is not None else []
    else:
        roots = []
    used: set[str] = set()
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        used.add(stmt.target.id)
    return used


def oracle_reaching_sites(cfg) -> dict[Site, dict[str, set[Site]]]:
    """For every statement point, the def sites reaching it, per used name."""
    block_ids = sorted(cfg.blocks)
    stmts = {bid: list(cfg.blocks[bid].statements) for bid in block_ids}
    universe: set[str] = set()
    for bid in block_ids:
        for stmt in stmts[bid]:
            universe.update(_oracle_defs(stmt))

    # IN set per statement point; block-final OUT is point (bid, len(stmts)).
    points: dict[Site, set[tuple[str, Site]]] = {}
    for bid in block_ids:
        for i in range(len(stmts[bid]) + 1):
            points[(bid, i)] = set()

    preds = {
        bid: [edge.source.id for edge in cfg.blocks[bid].predecessors]
        for bid in block_ids
    }

    changed = True
    while changed:
        changed = False
        for bid in block_ids:
            incoming: set[tuple[str, Site]] = set()
            for pred in preds[bid]:
                incoming |= points[(pred, len(stmts[pred]))]
            if incoming != points[(bid, 0)]:
                points[(bid, 0)] = incoming
                changed = True
            for i, stmt in enumerate(stmts[bid]):
                defined = _oracle_defs(stmt)
                flowing = set(points[(bid, i)])
                if defined:
                    flowing = {(n, s) for (n, s) in flowing if n not in defined}
                    flowing |= {(n, (bid, i)) for n in defined}
                if flowing != points[(bid, i + 1)]:
                    points[(bid, i + 1)] = flowing
                    changed = True

    result: dict[Site, dict[str, set[Site]]] = {}
    for bid in block_ids:
        for i, stmt in enumerate(stmts[bid]):
            row: dict[str, set[Site]] = {}
            for name in _oracle_uses(stmt):
                if name in universe:
                    row[name] = {s for (n, s) in points[(bid, i)] if n == name}
            result[(bid, i)] = row
    return result


def all_cfgs(cfg):
    """The cfg plus every nested function/class cfg, recursively."""
    yield cfg
    for sub in cfg.function_cfgs.values():
        yield from all_cfgs(sub)
    for sub in cfg.class_cfgs.values():
        yield from all_cfgs(sub)


# ---------------------------------------------------------------------------
# Dynamic call-edge tracer


def qualified_function_names(source: str, module_fqn: str,
                             classes: bool = False) -> dict[tuple[str, int], str]:
    """(name, first line) -> fully qualified name of each def, and with
    ``classes`` of each class body too, from an independent AST walk.  A
    decorated definition's first line is its first decorator's, as in the
    code object's ``co_firstlineno``."""
    tree = ast.parse(source)
    out: dict[tuple[str, int], str] = {}

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                fqn = f"{prefix}.{stmt.name}"
                if classes or isinstance(stmt, ast.FunctionDef):
                    out[(stmt.name, (stmt.decorator_list or [stmt])[0].lineno)] = fqn
                visit(stmt.body, fqn)
            elif isinstance(stmt, (ast.If, ast.While, ast.For)):
                visit(list(stmt.body) + list(stmt.orelse), prefix)

    visit(tree.body, module_fqn)
    return out


def trace_call_edges(path: Path, module_fqn: str | None = None) -> set[tuple[str, str]]:
    """(caller FQN, callee FQN) pairs observed while executing the program.
    A call made while a class body runs is charged to the class, as the call
    graph charges it; the class body's own run is not a call."""
    fqn = module_fqn or path.stem
    source = path.read_text(encoding="utf-8")
    name_map = qualified_function_names(source, fqn, classes=True)
    filename = str(path)
    edges: set[tuple[str, str]] = set()

    def lookup(code: types.CodeType) -> str | None:
        if code.co_filename != filename:
            return None
        if code.co_name == "<module>":
            return fqn
        return name_map.get((code.co_name, code.co_firstlineno))

    def tracer(frame, event, arg):
        if event != "call":
            return tracer
        callee = lookup(frame.f_code)
        # Only a function body runs in new locals; a module or class body does not.
        if callee is None or not frame.f_code.co_flags & inspect.CO_NEWLOCALS:
            return tracer
        caller_frame = frame.f_back
        while caller_frame is not None:
            caller = lookup(caller_frame.f_code)
            if caller is not None:
                edges.add((caller, callee))
                break
            caller_frame = caller_frame.f_back
        return tracer

    code = compile(source, filename, "exec")
    module_globals = {"__name__": "__main__", "__file__": filename}
    sys.settrace(tracer)
    try:
        with redirect_stdout(io.StringIO()):
            exec(code, module_globals)
    finally:
        sys.settrace(None)
    return edges


# ---------------------------------------------------------------------------
# Dynamic type recorder


_VOCAB = {
    bool: "bool",
    int: "int",
    float: "float",
    str: "str",
    type(None): "None",
    list: "List",
    dict: "Dict",
    tuple: "Tuple",
    set: "Set",
}


def vocab_type(value: object, module_fqn: str) -> str | None:
    tp = type(value)
    if tp in _VOCAB:
        return _VOCAB[tp]
    if isinstance(
        value,
        (types.FunctionType, types.BuiltinFunctionType, types.MethodType, types.LambdaType),
    ):
        return "callable"
    if tp.__module__ == "__main__":
        return f"{module_fqn}.{tp.__qualname__}"
    return None


class TypeObservations:
    def __init__(self) -> None:
        self.module_vars: dict[str, set[str]] = {}
        self.locals: dict[tuple[str, str], set[str]] = {}  # (function, var) -> types
        self.params: dict[tuple[str, str], set[str]] = {}
        self.returns: dict[str, set[str]] = {}


def observe_types(path: Path, module_fqn: str | None = None) -> TypeObservations:
    """Concrete runtime types at bindings, parameters, and returns."""
    fqn = module_fqn or path.stem
    source = path.read_text(encoding="utf-8")
    name_map = qualified_function_names(source, fqn)
    by_position = {(name, line): name for (name, line) in name_map}
    filename = str(path)
    obs = TypeObservations()

    def record(store: dict, key, value) -> None:
        mapped = vocab_type(value, fqn)
        store.setdefault(key, set()).add(mapped if mapped is not None else "<unknown>")

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename != filename or code.co_name == "<module>":
            return tracer
        func_name = by_position.get((code.co_name, code.co_firstlineno))
        if func_name is None:
            return tracer
        if event == "call":
            arg_count = code.co_argcount
            for var in code.co_varnames[:arg_count]:
                if var in frame.f_locals and var not in ("self", "cls"):
                    record(obs.params, (func_name, var), frame.f_locals[var])
        elif event == "return":
            record(obs.returns, func_name, arg)
            for var, value in frame.f_locals.items():
                record(obs.locals, (func_name, var), value)
        return tracer

    code = compile(source, filename, "exec")
    module_globals: dict = {"__name__": "__main__", "__file__": filename}
    sys.settrace(tracer)
    try:
        with redirect_stdout(io.StringIO()):
            exec(code, module_globals)
    finally:
        sys.settrace(None)
    for var, value in module_globals.items():
        if var.startswith("__"):
            continue
        record(obs.module_vars, var, value)
    return obs


def type_agrees(observed: set[str], inferred: set[str]) -> bool:
    """Every observed concrete type is covered by the inferred set."""
    if "Any" in inferred:
        return True
    for seen in observed:
        if seen == "<unknown>" or seen not in inferred:
            return False
    return True


def round_robin(analyzer) -> None:
    """Reference solver for ``callgraph._Analyzer.solve``: evaluate every
    statement with the analyzer's own ``_evaluate``, over and over, until no
    value set and no edge changes."""
    statements = [(scope, stmt) for scope in analyzer.table.scopes for stmt in scope.statements]
    analyzer.solver.queued = bytearray(len(statements))  # readers get queued; nothing drains them
    while True:
        before = ({slot: set(values) for slot, values in analyzer.values.items()},
                  set(analyzer.call_edges))
        for scope, stmt in statements:
            analyzer._evaluate(scope, stmt)
        if (analyzer.values, analyzer.call_edges) == before:
            return

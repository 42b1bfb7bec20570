"""Parsing front end for the analyzed Python sources.

All analyses in this package operate on the standard :mod:`ast` node types,
restricted to a fixed statement/expression subset (see ``SUPPORTED_STMTS`` /
``SUPPORTED_EXPRS``).  Anything outside the subset is rejected up front with a
:class:`ParseError` carrying the first offending source location, so the
downstream passes never have to defend against constructs they do not model.

Two normalizations happen at parse time:

* f-strings are replaced by opaque string constants (their verbatim text),
  so no ``JoinedStr``/``FormattedValue`` nodes survive parsing;
* contextual rules the bare grammar does not enforce (``return``/``yield``
  outside a function, ``break``/``continue`` outside a loop) are checked here.

Spans use 1-based line numbers and 0-based columns, as produced by the
tokenizer (tabs expand per the usual 8-column convention).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = [
    "ParseError",
    "SourceFile",
    "parse_module",
    "unparse",
    "module_name_for_path",
    "positional_params",
    "walk",
    "node_span",
    "trees_equal",
    "dump_structure",
]


class ParseError(Exception):
    """Raised for malformed syntax or constructs outside the supported subset."""

    def __init__(self, path: str, line: int, col: int, message: str) -> None:
        self.path = str(path)
        self.line = max(1, int(line))
        self.col = max(0, int(col))
        self.message = message
        super().__init__(f"{self.path}:{self.line}:{self.col}: {message}")


@dataclass(frozen=True)
class SourceFile:
    """A source file queued for analysis.

    ``module_name`` is the dotted name the file is known by; for standalone
    files it is the file stem, for files inside a project it is derived with
    :func:`module_name_for_path`.
    """

    path: str
    text: str
    module_name: str

    @classmethod
    def load(cls, path: str | Path, root: str | Path | None = None) -> "SourceFile":
        """Read ``path`` as UTF-8 and derive its module name.

        Raises :class:`ParseError` when the bytes do not decode as UTF-8 and
        ``OSError`` for filesystem problems.
        """
        p = Path(path)
        raw = p.read_bytes()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(str(p), 1, 0, f"not valid UTF-8: {exc.reason}") from None
        if root is not None:
            name = module_name_for_path(root, p)
        else:
            name = p.stem if p.suffix == ".py" else p.name
        return cls(path=str(p), text=text, module_name=name)


# Statement node types the analyses model.  `global`/`nonlocal` are accepted
# and recorded as ordinary statements.
SUPPORTED_STMTS = (
    ast.Module,
    ast.FunctionDef,
    ast.ClassDef,
    ast.Assign,
    ast.AugAssign,
    ast.Return,
    ast.If,
    ast.While,
    ast.For,
    ast.Break,
    ast.Continue,
    ast.Pass,
    ast.Import,
    ast.ImportFrom,
    ast.Expr,
    ast.Global,
    ast.Nonlocal,
)

SUPPORTED_EXPRS = (
    ast.Call,
    ast.Attribute,
    ast.Subscript,
    ast.Name,
    ast.Constant,
    ast.BinOp,
    ast.UnaryOp,
    ast.BoolOp,
    ast.Compare,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.List,
    ast.Tuple,
    ast.Dict,
    ast.Slice,
    ast.Starred,
    ast.Yield,
)

# Auxiliary grammar nodes that carry no statement/expression semantics of
# their own (operators, contexts, comprehension clauses, argument lists).
_AUX_NODES = (
    ast.expr_context,
    ast.boolop,
    ast.operator,
    ast.unaryop,
    ast.cmpop,
    ast.comprehension,
    ast.arguments,
    ast.arg,
    ast.keyword,
    ast.alias,
)

_REJECT_HINTS = {
    ast.AsyncFunctionDef: "async function definitions are not supported",
    ast.AsyncFor: "async for is not supported",
    ast.AsyncWith: "async with is not supported",
    ast.Await: "await is not supported",
    ast.Match: "match statements are not supported",
    ast.Try: "try statements are not supported",
    ast.Raise: "raise statements are not supported",
    ast.Assert: "assert statements are not supported",
    ast.Delete: "del statements are not supported",
    ast.With: "with statements are not supported",
    ast.AnnAssign: "annotated assignments are not supported",
    ast.NamedExpr: "assignment expressions are not supported",
    ast.IfExp: "conditional expressions are not supported",
    ast.Set: "set literals are not supported",
    ast.YieldFrom: "yield from is not supported",
}


class _FStringFolder(ast.NodeTransformer):
    """Replace f-string nodes with opaque string constants (their source text)."""

    def visit_JoinedStr(self, node: ast.JoinedStr) -> ast.Constant:
        folded = ast.Constant(value=ast.unparse(node))
        return ast.copy_location(folded, node)


def parse_module(text: str, path: str | Path = "<string>") -> ast.Module:
    """Parse ``text`` into a module tree restricted to the supported subset.

    Raises :class:`ParseError` on malformed syntax or on the first construct
    (in source order) that falls outside the subset.
    """
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        raise ParseError(
            str(path), exc.lineno or 1, (exc.offset or 1) - 1, exc.msg or "invalid syntax"
        ) from None
    except ValueError as exc:  # e.g. null bytes
        raise ParseError(str(path), 1, 0, str(exc)) from None
    except RecursionError:
        raise ParseError(str(path), 1, 0, "too deeply nested to parse") from None
    tree = _FStringFolder().visit(tree)
    ast.fix_missing_locations(tree)
    _validate(tree, str(path))
    return tree


def _reject(node: ast.AST, path: str, message: str) -> None:
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    raise ParseError(path, line, col, message)


def _validate(node: ast.AST, path: str, *, in_function: bool = False, in_loop: bool = False) -> None:
    for hint_type, message in _REJECT_HINTS.items():
        if isinstance(node, hint_type):
            _reject(node, path, message)

    if isinstance(node, ast.FunctionDef):
        for dec in node.decorator_list:
            if not isinstance(dec, ast.Name):
                _reject(dec, path, "only bare-name decorators are supported")
        if node.returns is not None:
            _reject(node.returns, path, "return annotations are not supported")
        for a in _all_args(node.args):
            if a.annotation is not None:
                _reject(a.annotation, path, "parameter annotations are not supported")
        for child in node.decorator_list + node.args.defaults + node.args.kw_defaults:
            if child is not None:
                _validate(child, path, in_function=in_function, in_loop=in_loop)
        for stmt in node.body:
            _validate(stmt, path, in_function=True, in_loop=False)
        return
    if isinstance(node, ast.ClassDef):
        for dec in node.decorator_list:
            if not isinstance(dec, ast.Name):
                _reject(dec, path, "only bare-name decorators are supported")
        for child in node.bases + [kw.value for kw in node.keywords]:
            _validate(child, path, in_function=in_function, in_loop=in_loop)
        for stmt in node.body:
            # A class body is not a loop/function context for break/return.
            _validate(stmt, path, in_function=False, in_loop=False)
        return
    if isinstance(node, ast.Lambda):
        for a in _all_args(node.args):
            if a.annotation is not None:
                _reject(a.annotation, path, "parameter annotations are not supported")
        for default in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]:
            _validate(default, path, in_function=in_function, in_loop=in_loop)
        _validate(node.body, path, in_function=True, in_loop=False)
        return
    if isinstance(node, (ast.Return, ast.Yield)):
        if not in_function:
            kind = "return" if isinstance(node, ast.Return) else "yield"
            _reject(node, path, f"'{kind}' outside function")
    if isinstance(node, (ast.Break, ast.Continue)):
        if not in_loop:
            kind = "break" if isinstance(node, ast.Break) else "continue"
            _reject(node, path, f"'{kind}' outside loop")
    if isinstance(node, (ast.While, ast.For)):
        for field, value in ast.iter_fields(node):
            children = value if isinstance(value, list) else [value]
            # The else clause of a loop is not a loop context for break/continue.
            inner = in_loop or field == "body"
            for child in children:
                if isinstance(child, ast.AST):
                    _validate(child, path, in_function=in_function, in_loop=inner)
        return
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        for gen in node.generators:
            if gen.is_async:
                _reject(node, path, "async comprehensions are not supported")
        for child in ast.walk(node):
            if isinstance(child, ast.Yield):
                _reject(child, path, "'yield' inside a comprehension")

    if isinstance(node, ast.stmt) and not isinstance(node, SUPPORTED_STMTS):
        _reject(node, path, f"unsupported statement: {type(node).__name__}")
    if isinstance(node, ast.expr) and not isinstance(node, SUPPORTED_EXPRS):
        _reject(node, path, f"unsupported expression: {type(node).__name__}")
    if not isinstance(node, (ast.Module, ast.stmt, ast.expr) + _AUX_NODES):
        _reject(node, path, f"unsupported construct: {type(node).__name__}")

    for child in ast.iter_child_nodes(node):
        _validate(child, path, in_function=in_function, in_loop=in_loop)


def _all_args(args: ast.arguments) -> list[ast.arg]:
    out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg:
        out.append(args.vararg)
    if args.kwarg:
        out.append(args.kwarg)
    return out


def unparse(node: ast.AST) -> str:
    """Render a tree back to source text.

    Module output carries a trailing newline (empty modules render as ``""``);
    expression/statement nodes render without one.  The result reparses to a
    structurally equal tree, spans aside.
    """
    text = ast.unparse(node)
    if isinstance(node, ast.Module):
        return text + "\n" if text else ""
    return text


def module_name_for_path(root: str | Path, file: str | Path) -> str:
    """Dotted module name of ``file`` relative to the project directory ``root``.

    The root directory's own name is the first component; ``__init__.py``
    maps to its package's name.
    """
    rootp = Path(root).resolve()
    filep = Path(file).resolve()
    try:
        rel = filep.relative_to(rootp)
    except ValueError:
        raise ValueError(f"{file} is not under {root}") from None
    if rel.suffix != ".py":
        raise ValueError(f"not a Python source file: {file}")
    parts = [rootp.name] + list(rel.parts[:-1])
    if rel.stem != "__init__":
        parts.append(rel.stem)
    return ".".join(parts)


def positional_params(args: ast.arguments) -> list[ast.arg]:
    """Parameters that call-site positions bind: positional-only, then regular."""
    return list(args.posonlyargs) + list(args.args)


def walk(node: ast.AST, order: str = "pre") -> Iterator[ast.AST]:
    """Yield every node of the tree exactly once, in deterministic order.

    ``order`` is ``"pre"`` (node before children) or ``"post"``.
    """
    if order not in ("pre", "post"):
        raise ValueError(f"order must be 'pre' or 'post', got {order!r}")
    if order == "pre":
        yield node
    for child in ast.iter_child_nodes(node):
        yield from walk(child, order)
    if order == "post":
        yield node


def node_span(node: ast.AST) -> tuple[int, int, int, int] | None:
    """(start_line, start_col, end_line, end_col) for located nodes, else None."""
    if not hasattr(node, "lineno"):
        return None
    end_line = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_line is None or end_col is None:
        return None
    return (node.lineno, node.col_offset, end_line, end_col)


def dump_structure(node: ast.AST) -> str:
    """Canonical structural dump, ignoring source locations."""
    return ast.dump(node, include_attributes=False)


def trees_equal(a: ast.AST, b: ast.AST) -> bool:
    """Structural equality modulo spans."""
    return dump_structure(a) == dump_structure(b)

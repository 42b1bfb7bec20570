"""Parsing front end for the analyzed Python sources.

All analyses in this package operate on the standard :mod:`ast` node types,
restricted to a fixed statement/expression subset (see ``SUPPORTED_STMTS`` /
``SUPPORTED_EXPRS``).  Anything outside the subset is rejected up front with a
:class:`ParseError` carrying the first offending source location, so the
downstream passes never have to defend against constructs they do not model.

Parsing is ``ast.parse`` followed by one pre-order pass over an explicit
stack, which does both normalizations at once:

* f-strings are replaced by opaque string constants (their source text, at
  the f-string's location), so no ``JoinedStr``/``FormattedValue`` nodes
  survive parsing and nothing inside an f-string is checked;
* every other node is checked against the subset through a table keyed by
  node type, together with the contextual rules the bare grammar does not
  enforce (``return``/``yield`` outside a function, ``break``/``continue``
  outside a loop).

The pass checks nodes in source order, so an error names the first offending
construct, and it does not recurse, so only ``ast.parse`` itself limits how
deeply an input may nest.  Every node ``ast.parse`` returns is located, so
no location-fixing pass runs.

Spans use 1-based line numbers and 0-based columns, as produced by the
tokenizer (tabs expand per the usual 8-column convention).
"""

from __future__ import annotations

import ast
import codecs
import re
import sys
from collections import deque
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterator, NamedTuple

__all__ = [
    "ParseError",
    "SourceFile",
    "parse_module",
    "unparse",
    "source_text",
    "dump_json",
    "positional_params",
    "walk",
    "child_nodes",
    "NODE_FIELDS",
    "node_span",
]


class ParseError(Exception):
    """Raised for malformed syntax or constructs outside the supported subset."""

    def __init__(self, path: str, line: int, col: int, message: str) -> None:
        self.path = str(path)
        self.line = max(1, int(line))
        self.col = max(0, int(col))
        self.message = message
        super().__init__(f"{self.path}:{self.line}:{self.col}: {message}")


class SourceFile(NamedTuple):
    """A source file queued for analysis.

    ``module_name`` is the file stem; a module of a project is named by
    :func:`lancet.modgraph.discover` instead.
    """

    path: str
    text: str
    module_name: str

    @classmethod
    def load(cls, path: str | Path) -> "SourceFile":
        """Read ``path`` in its PEP 263 encoding and take its stem as the
        module name.  The encoding is found as ``tokenize.detect_encoding``
        finds it: a ``coding`` cookie on line 1, or on line 2 when line 1 is
        blank or a comment, else UTF-8.  A leading byte order mark is dropped
        and allows no cookie but UTF-8.

        Raises :class:`ParseError` for an unknown encoding, a cookie that
        contradicts the mark, or at the first byte that does not decode, and
        ``OSError`` for filesystem problems.
        """
        p = Path(path)
        raw = p.read_bytes()
        body = raw[3:] if raw.startswith(b"\xef\xbb\xbf") else raw
        cookie = re.match(_CODING, body)
        encoding, line = (cookie[1].decode(), cookie[0].count(b"\n") + 1) if cookie else ("UTF-8", 1)
        try:
            if body is not raw and not codecs.lookup(encoding).name.startswith("utf-8"):
                raise ParseError(str(p), line, 0, f"encoding problem: {encoding} with BOM")
            text = body.decode(encoding)
        except UnicodeDecodeError as exc:
            before = exc.object[:exc.start].decode(exc.encoding, "replace")
            line, col = before.count("\n") + 1, len(before) - before.rfind("\n") - 1
            raise ParseError(str(p), line, col, f"not valid {encoding}: {exc.reason}") from None
        except (LookupError, UnicodeError) as exc:  # no bytes-to-text codec, or one refusing the bytes
            raise ParseError(str(p), line, 0, f"cannot decode as {encoding}: {exc}") from None
        name = p.stem if p.suffix == ".py" else p.name
        return cls(path=str(p), text=text, module_name=name)


# A PEP 263 coding cookie, on line 1 or after a blank or comment line 1; compiled on first use.
_CODING = rb"(?:[ \t\f]*(?:#[^\n]*)?\r?\n)??[ \t\f]*#.*?coding[:=][ \t]*([-\w.]+)"


# Statement node types the analyses model.  `global`/`nonlocal` are accepted
# and recorded as ordinary statements.
SUPPORTED_STMTS = (
    ast.Module, ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AugAssign, ast.Return, ast.If,
    ast.While, ast.For, ast.Break, ast.Continue, ast.Pass, ast.Import, ast.ImportFrom, ast.Expr,
    ast.Global, ast.Nonlocal,
)

SUPPORTED_EXPRS = (
    ast.Call, ast.Attribute, ast.Subscript, ast.Name, ast.Constant, ast.BinOp, ast.UnaryOp,
    ast.BoolOp, ast.Compare, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
    ast.List, ast.Tuple, ast.Dict, ast.Slice, ast.Starred, ast.Yield,
)

# Auxiliary grammar nodes that carry no statement/expression semantics of
# their own (comprehension clauses, argument lists).  Operator and context
# objects are accepted too: they sit in ``ctx``/``op``/``ops`` fields, which
# no walk enters (:data:`NODE_FIELDS`).
_AUX_NODES = (ast.comprehension, ast.arguments, ast.arg, ast.keyword, ast.alias)

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
    except (RecursionError, MemoryError):  # 3.11's parser raises a bare MemoryError on deep nesting
        raise ParseError(str(path), 1, 0, "too deeply nested to parse") from None
    _fold_and_validate(tree, str(path))
    return tree


# The fields of each node class that can hold nodes.  ``ctx``, ``op`` and ``ops`` hold the
# context and operator objects, one per kind shared across the whole tree by ``ast.parse``, so
# no walk visits them; the others left out hold identifiers and flags.  A leaf, such as
# ``Name`` or ``Constant``, has no fields here, so a walk tests for it before any call.
_NOT_NODES = frozenset("ctx op ops id attr name asname arg module level kind is_async conversion simple "
                       "tag type_comment rest kwd_attrs".split())
NODE_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(name for name in cls._fields if name not in _NOT_NODES)
    for cls in vars(ast).values() if isinstance(cls, type) and issubclass(cls, ast.AST)
}
NODE_FIELDS[ast.Constant] = NODE_FIELDS[ast.Global] = NODE_FIELDS[ast.Nonlocal] = ()
_AST = ast.AST  # a global, not an attribute lookup, for every field of every node


def child_nodes(node: ast.AST, fields: tuple[str, ...] | None = None) -> list[ast.AST]:
    """The nodes held in ``fields`` of ``node`` (default: :data:`NODE_FIELDS`),
    in field order: ``list(ast.iter_child_nodes(node))`` without context and
    operator objects.
    """
    out: list[ast.AST] = []
    for name in NODE_FIELDS[type(node)] if fields is None else fields:
        value = getattr(node, name, None)
        if isinstance(value, _AST):
            out.append(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, _AST):
                    out.append(item)
    return out


# A handler checks one node and returns the children to visit next, in visit order, as groups
# of (owner, nodes, in_function, in_loop); an f-string in ``nodes`` is replaced in ``owner``.
_Group = tuple[ast.AST, list, bool, bool]
# Children that carry no check and hold no nodes, so they are never pushed.
_NO_CHECK = frozenset({ast.Name, ast.Constant, type(None)})


def _fold_and_validate(tree: ast.Module, path: str) -> None:
    """Fold f-strings and validate the subset in one pre-order pass.

    The pass keeps an explicit stack of (node, in_function, in_loop), so tree
    depth is bounded by memory, not by the interpreter's recursion limit.
    Children are pushed in reverse, so nodes are checked in source order and
    the first offending construct is the one reported.  An f-string is
    replaced in its owner's field by a constant holding its source text; the
    constant takes the f-string's location.  Names, constants, and context
    and operator objects carry no check and are never pushed; a node with no
    check of its own has its children pushed here, with its context.
    """
    stack: list[tuple[ast.AST, bool, bool]] = [(tree, False, False)]
    pop, push = stack.pop, stack.append
    while stack:
        node, in_function, in_loop = pop()
        fields = _PLAIN_FIELDS.get(type(node))
        if fields is not None:
            for name in fields:
                value = getattr(node, name, None)
                for kid in reversed(value) if type(value) is list else (value,):
                    if type(kid) is ast.JoinedStr:
                        _fold_fstring(node, kid)
                    elif type(kid) not in _NO_CHECK:
                        push((kid, in_function, in_loop))
            continue
        handler = _HANDLERS.get(type(node), _unsupported)
        for owner, kids, fn, loop in reversed(handler(node, path, in_function, in_loop)):
            for kid in reversed(kids):
                if type(kid) is ast.JoinedStr:
                    _fold_fstring(owner, kid)
                elif type(kid) not in _NO_CHECK:
                    push((kid, fn, loop))


def _fold_fstring(owner: ast.AST, node: ast.JoinedStr) -> None:
    """Replace ``node`` in ``owner``'s fields by its source text as a constant."""
    folded = ast.copy_location(ast.Constant(value=source_text(node)), node)
    for name in owner._fields:
        value = getattr(owner, name, None)
        if value is node:
            setattr(owner, name, folded)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if item is node:
                    value[i] = folded


def _reject(node: ast.AST, path: str, message: str) -> None:
    raise ParseError(path, getattr(node, "lineno", 1), getattr(node, "col_offset", 0), message)


def _unsupported(node: ast.AST, path: str, in_function: bool, in_loop: bool) -> tuple[_Group, ...]:
    kind = ("statement" if isinstance(node, ast.stmt)
            else "expression" if isinstance(node, ast.expr) else "construct")
    _reject(node, path, _REJECT_HINTS.get(type(node)) or f"unsupported {kind}: {type(node).__name__}")
    return ()


def _check_decorators(node: ast.FunctionDef | ast.ClassDef, path: str) -> None:
    for dec in node.decorator_list:
        if type(dec) is not ast.Name:
            _reject(dec, path, "only bare-name decorators are supported")


def _defaults(args: ast.arguments) -> list[ast.expr]:
    """A function's or lambda's defaults, which run when it is defined, in order."""
    return args.defaults + [d for d in args.kw_defaults if d is not None]


def _function_def(node: ast.FunctionDef, path: str, in_function: bool, in_loop: bool) -> tuple[_Group, ...]:
    _check_decorators(node, path)
    if node.returns is not None:
        _reject(node.returns, path, "return annotations are not supported")
    args = node.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
        if a is not None and a.annotation is not None:
            _reject(a.annotation, path, "parameter annotations are not supported")
    return (
        (node, node.decorator_list, in_function, in_loop),
        (args, _defaults(args), in_function, in_loop),
        (node, node.body, True, False),
    )


def _class_def(node: ast.ClassDef, path: str, in_function: bool, in_loop: bool) -> tuple[_Group, ...]:
    _check_decorators(node, path)
    return (
        (node, node.bases, in_function, in_loop),
        *((kw, [kw.value], in_function, in_loop) for kw in node.keywords),
        # A class body is not a loop/function context for break/return.
        (node, node.body, False, False),
    )


def _lambda(node: ast.Lambda, path: str, in_function: bool, in_loop: bool) -> tuple[_Group, ...]:
    return (
        (node.args, _defaults(node.args), in_function, in_loop),
        (node, [node.body], True, False),
    )


def _jump(node: ast.Return | ast.Yield | ast.Break | ast.Continue, path: str, in_function: bool,
          in_loop: bool) -> tuple[_Group, ...]:
    """``return`` and ``yield`` need a function, ``break`` and ``continue`` a loop."""
    kind, needs_loop = type(node).__name__.lower(), type(node) in (ast.Break, ast.Continue)
    if not (in_loop if needs_loop else in_function):
        _reject(node, path, f"'{kind}' outside {'loop' if needs_loop else 'function'}")
    return ((node, child_nodes(node), in_function, in_loop),)


def _loop(node: ast.While | ast.For, path: str, in_function: bool, in_loop: bool) -> tuple[_Group, ...]:
    # The else clause of a loop is not a loop context for break/continue.
    return tuple(
        (node, child_nodes(node, (name,)), in_function, in_loop or name == "body")
        for name in NODE_FIELDS[type(node)]
    )


def _comprehension(node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp, path: str,
                   in_function: bool, in_loop: bool) -> tuple[_Group, ...]:
    for gen in node.generators:
        if gen.is_async:
            _reject(node, path, "async comprehensions are not supported")
    # Breadth-first, as ``ast.walk``, so the yield reported stays the same; an
    # f-string is an opaque constant, so its inside is not searched.
    queue = deque([node])
    while queue:
        inner = queue.popleft()
        if type(inner) is ast.Yield:
            _reject(inner, path, "'yield' inside a comprehension")
        if type(inner) is not ast.JoinedStr:
            queue.extend(child_nodes(inner))
    return ((node, child_nodes(node), in_function, in_loop),)


_HANDLERS = {
    ast.FunctionDef: _function_def, ast.ClassDef: _class_def, ast.Lambda: _lambda,
    **dict.fromkeys((ast.Return, ast.Yield, ast.Break, ast.Continue), _jump),
    **dict.fromkeys((ast.While, ast.For), _loop),
    **dict.fromkeys((ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp), _comprehension),
}

# Every other supported node has no check of its own, and its children
# inherit its context; its node fields are listed last first, for the stack.
_PLAIN_FIELDS = {
    cls: NODE_FIELDS[cls][::-1]
    for cls in (ast.Module, *SUPPORTED_STMTS, *SUPPORTED_EXPRS, *_AUX_NODES)
    if cls not in _HANDLERS
}


def unparse(node: ast.AST) -> str:
    """Render a tree back to source text.

    Module output carries a trailing newline (empty modules render as ``""``);
    expression/statement nodes render without one.  The result reparses to a
    structurally equal tree, spans aside.
    """
    text = source_text(node)
    return text + "\n" if text and isinstance(node, ast.Module) else text


def source_text(node: ast.AST) -> str:
    """``ast.unparse(node)``, except that an int past the interpreter's int-to-str digit limit
    prints in hex, which is exact and takes linear time.  Only brackets and indentation, which
    the tokenizer bounds, nest the printer's frames, four per level; ``node`` is not modified."""
    return _Printer().visit(node)


if not (3, 11) <= sys.version_info[:2] <= (3, 13):  # the versions whose ast._Unparser _Printer mirrors
    raise ImportError("lancet runs on Python 3.11 to 3.13: its printer subclasses their ast._Unparser")
_U, _TEST, _ATOM = ast._Unparser, int(ast._Precedence.TEST), int(ast._Precedence.ATOM)
_RECEIVER = _ATOM + 1  # an attribute's receiver: an atom, where a decimal int takes a space (1 .real)
# Operator class -> (text item, own precedence, left operand's, right operand's), as plain ints.
_BINOPS = {getattr(ast, name): ((f" {op} ", 0), p, p + (op == "**"), p + (op != "**"))
           for name, op in _U.binop.items() for p in [int(_U.binop_precedence[op])]}
_UNOPS = {getattr(ast, name): (op + " " * (op == "not"), int(_U.unop_precedence[op]))
          for name, op in _U.unop.items()}
_STACKED = {ast.Name, ast.Constant, ast.BinOp, ast.UnaryOp, ast.Attribute, ast.Call, ast.Subscript,
            ast.Lambda}


def _items(nodes: list[ast.AST]) -> list[tuple]:
    """Stack items for ``nodes`` at test precedence, comma-separated, last node first."""
    return [item for node in reversed(nodes) for item in ((", ", 0), (node, _TEST))][1:]


class _Printer(_U):
    """``ast.unparse``'s own printer, except that the kinds in ``_STACKED``, which nest without
    brackets, print from one explicit stack of (node or text, precedence) items."""

    defaults = None  # while a lambda's parameters are buffered, the defaults they hold

    def traverse(self, node):  # no super() call and no frame per list
        for node in node if isinstance(node, list) else (node,):
            if self.defaults is not None and isinstance(node, ast.expr):  # printed as a NUL
                self.defaults.append(node)
                self.write("\0")
            elif type(node) in _STACKED:
                self._print(node)
            else:
                getattr(self, "visit_" + type(node).__name__, self.generic_visit)(node)

    def _print(self, node: ast.expr) -> None:
        out, precedences = self._source.append, self._precedences
        stack = [(node, precedences.get(node, _TEST))]
        pop, push = stack.pop, stack.append
        while stack:
            node, prec = pop()
            kind = type(node)
            if kind is str:
                out(node)
            elif kind is ast.Name:
                out(node.id)
            elif kind is ast.Constant and isinstance(node.value, int):
                try:
                    out(repr(node.value) + " " * (prec == _RECEIVER))
                except ValueError:  # past the int-to-str digit limit; 0x1.real needs no space
                    out(hex(node.value))
            elif kind is ast.BinOp:
                text, own, left, right = _BINOPS[type(node.op)]
                if prec > own:
                    out("(")
                    push((")", 0))
                stack += (node.right, right), text, (node.left, left)
            elif kind is ast.UnaryOp or kind is ast.Lambda:
                if kind is ast.UnaryOp:
                    (text, own), operand, tail = _UNOPS[type(node.op)], node.operand, ()
                else:  # the parameters' text, split where each default goes; no printed source holds a NUL
                    self.defaults = defaults = []
                    with self.buffered() as args:
                        self.traverse(node.args)
                    self.defaults = None
                    text, *pieces = f"lambda {''.join(args)}: ".split("\0") if args else ("lambda: ",)
                    tail = [item for default, piece in zip(defaults[::-1], pieces[::-1])
                            for item in ((piece, 0), (default, _TEST))]
                    own, operand = _TEST, node.body
                if prec > own:
                    text = "(" + text
                    push((")", 0))
                out(text)
                push((operand, own))
                stack += tail
            elif kind is ast.Attribute:
                stack += ("." + node.attr, 0), (node.value, _RECEIVER)
            elif kind is ast.Call:
                stack += (")", 0), *_items(node.args + node.keywords), ("(", 0), (node.func, _ATOM)
            elif kind is ast.Subscript:  # x[a,] and x[()] as ast.unparse prints them
                elts = type(node.slice) is ast.Tuple and node.slice.elts
                close = ",]" if elts and len(elts) == 1 else "]"
                stack += (close, 0), *_items(elts or [node.slice]), ("[", 0), (node.value, _ATOM)
            else:
                precedences[node] = prec
                getattr(self, "visit_" + type(node).__name__, self.generic_visit)(node)


def dump_json(obj: object) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    ``json.dumps`` drops to its pure-Python generator encoder whenever
    ``indent`` is set; this writer builds one list of pieces and joins it
    once, quoting strings with the C encoder.  Values are what ``json.dumps``
    takes, except that dict keys must be strings; anything else raises
    ``TypeError``, as there.
    """
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_JSON_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The text of each scalar type, by exact type; bool comes before int for a subclass (see _write_json).
_JSON_SCALARS = {str: _json_str, bool: {True: "true", False: "false"}.__getitem__, int: int.__repr__,
                 float: lambda value: _JSON_FLOAT_WORDS.get(text := float.__repr__(value), text),
                 type(None): lambda value: "null"}
_JSON_TYPES = (dict, list, tuple, *_JSON_SCALARS)


def _write_json(obj: object, newline: str, out: list[str]) -> None:
    """Append ``obj``'s JSON text to ``out``; ``newline`` is a newline and the
    indent of the line ``obj`` starts on.  Dispatch is on the exact type, and a
    container writes its scalar items itself; a subclass takes the first of
    :data:`_JSON_TYPES` that it is an instance of."""
    kind = type(obj)
    if kind not in _JSON_TYPES:
        kind = next((base for base in _JSON_TYPES if isinstance(obj, base)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None or not obj:  # a scalar, or an empty container
        out.append("{}" if kind is dict else "[]" if scalar is None else scalar(obj))
        return
    inner = newline + "  "
    if kind is dict:
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = obj[key]
            scalar = _JSON_SCALARS.get(type(value))
            if scalar is None:
                out.append(f"{sep}{_json_str(key)}: ")
                _write_json(value, inner, out)
            else:
                out.append(f"{sep}{_json_str(key)}: {scalar(value)}")
            sep = "," + inner
        out.append(newline + "}")
        return
    sep = "[" + inner
    for item in obj:
        scalar = _JSON_SCALARS.get(type(item))
        if scalar is None:
            out.append(sep)
            _write_json(item, inner, out)
        else:
            out.append(sep + scalar(item))
        sep = "," + inner
    out.append(newline + "]")


def positional_params(args: ast.arguments) -> list[ast.arg]:
    """Parameters that call-site positions bind: positional-only, then regular."""
    return list(args.posonlyargs) + list(args.args)


def walk(node: ast.AST) -> Iterator[ast.AST]:
    """Yield every node of the tree once, in pre-order (node before
    children, children in field order, as from ``ast.iter_child_nodes``),
    except the context and operator objects, which ``ast.parse`` shares
    across the tree.  The walk keeps an explicit stack, so tree depth is not
    limited by the recursion limit.
    """
    return _walk(node, False)


def _walk(node: ast.AST, eager: bool) -> Iterator[ast.AST]:
    """:func:`walk`'s loop; ``eager`` enters only a lambda's defaults (:func:`~lancet.cfg.iter_eager`)."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        fields = NODE_FIELDS[type(node)]
        if fields:  # a leaf is tested before any call
            children = _defaults(node.args) if eager and type(node) is ast.Lambda else child_nodes(node, fields)
            children.reverse()
            stack += children


def node_span(node: ast.AST) -> tuple[int, int, int, int] | None:
    """(start_line, start_col, end_line, end_col) for located nodes, else None.
    A decorated definition starts at its first decorator's ``@``, in the ``def``'s column."""
    if not hasattr(node, "lineno"):
        return None
    end_line = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_line is None or end_col is None:
        return None
    decorators = getattr(node, "decorator_list", None)
    return (decorators[0].lineno if decorators else node.lineno, node.col_offset, end_line, end_col)

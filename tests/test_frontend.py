from __future__ import annotations

import ast
import enum
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lancet.frontend import (
    _REJECT_HINTS,
    ParseError,
    SourceFile,
    dump_json,
    node_span,
    parse_module,
    source_text,
    unparse,
    walk,
)
from lancet.modgraph import Unresolved

from helpers import corpus_files, trees_equal
from strategies import programs

FIB_SOURCE = """# example.py
def fib():
    a, b = 0, 1
    while True:
        yield a
        a, b = b, a + b

fib_gen = fib()
for _ in range(10):
    next(fib_gen)
"""


def test_parse_single_assignment():
    tree = parse_module("x = 1")
    assert isinstance(tree, ast.Module)
    (stmt,) = tree.body
    assert isinstance(stmt, ast.Assign)
    assert isinstance(stmt.targets[0], ast.Name) and stmt.targets[0].id == "x"
    assert isinstance(stmt.value, ast.Constant) and stmt.value.value == 1


def test_parse_fib_listing_positions():
    tree = parse_module(FIB_SOURCE, "example.py")
    kinds = {type(s).__name__: s.lineno for s in tree.body}
    assert kinds["FunctionDef"] == 2
    assert kinds["Assign"] == 8
    assert kinds["For"] == 9


def test_malformed_input_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_module("def f(:", "bad.py")
    assert exc.value.line == 1
    assert exc.value.path == "bad.py"


@pytest.mark.parametrize(
    "source",
    [
        "try:\n    pass\nexcept Exception:\n    pass",
        "with open('x') as f:\n    pass",
        "async def f():\n    pass",
        "match x:\n    case 1:\n        pass",
        "assert True",
        "del x",
        "x: int = 1",
        "raise ValueError()",
        "s = {1, 2}",
        "y = x if c else d",
        "if (n := 3) > 2:\n    pass",
        "def f(x: int):\n    return x",
        "def f() -> int:\n    return 1",
        "@wraps(inner)\ndef f():\n    pass",
        "def f():\n    yield from g()",
        "return 1",
        "yield 2",
        "break",
        "continue",
        "while True:\n    pass\nbreak",
        "while x:\n    pass\nelse:\n    break",
        "for i in y:\n    pass\nelse:\n    continue",
        "def f(y):\n    lst = [(yield x) for x in y]",
    ],
)
def test_constructs_outside_subset_are_rejected(source):
    with pytest.raises(ParseError):
        parse_module(source)


def test_accepted_fringe_constructs():
    parse_module("global x")
    parse_module("def f():\n    nonlocal_free = 1\n    return nonlocal_free")
    parse_module("@staticmethod\ndef f():\n    pass")
    parse_module("def f(*args, **kwargs):\n    pass")
    parse_module("for i in range(3):\n    if i:\n        break\n    continue")


def test_first_offending_location_is_reported():
    source = "x = 1\ny = 2\nassert y\nwith open('f') as f:\n    pass\n"
    with pytest.raises(ParseError) as exc:
        parse_module(source)
    assert exc.value.line == 3


# (source, expected ParseError text or None for accepted).  The texts pin the
# message and location of every rejection, so a change to the validation pass
# that reorders the visit or drops a check shows here.
DIAGNOSTICS = [
    ('async def f():\n    pass\n', 'm.py:1:0: async function definitions are not supported'),
    ('async for x in y:\n    pass\n', 'm.py:1:0: async for is not supported'),
    ('async with a as b:\n    pass\n', 'm.py:1:0: async with is not supported'),
    ('x = await y\n', 'm.py:1:4: await is not supported'),
    ('match x:\n    case 1:\n        pass\n', 'm.py:1:0: match statements are not supported'),
    ('try:\n    pass\nexcept E:\n    pass\n', 'm.py:1:0: try statements are not supported'),
    ('raise ValueError()\n', 'm.py:1:0: raise statements are not supported'),
    ('assert x\n', 'm.py:1:0: assert statements are not supported'),
    ('del x\n', 'm.py:1:0: del statements are not supported'),
    ('with a as b:\n    pass\n', 'm.py:1:0: with statements are not supported'),
    ('x: int = 1\n', 'm.py:1:0: annotated assignments are not supported'),
    ('if (n := 3) > 2:\n    pass\n', 'm.py:1:4: assignment expressions are not supported'),
    ('y = a if b else c\n', 'm.py:1:4: conditional expressions are not supported'),
    ('s = {1, 2}\n', 'm.py:1:4: set literals are not supported'),
    ('def f():\n    yield from g()\n', 'm.py:2:4: yield from is not supported'),
    ('try:\n    pass\nexcept* E:\n    pass\n', 'm.py:1:0: unsupported statement: TryStar'),
    ('return 1\n', "m.py:1:0: 'return' outside function"),
    ('x = (yield 2)\n', "m.py:1:5: 'yield' outside function"),
    ('break\n', "m.py:1:0: 'break' outside loop"),
    ('continue\n', "m.py:1:0: 'continue' outside loop"),
    ('for i in x:\n    pass\nelse:\n    break\n', "m.py:4:4: 'break' outside loop"),
    ('while x:\n    pass\nelse:\n    continue\n', "m.py:4:4: 'continue' outside loop"),
    ('for i in x:\n    pass\nelse:\n    return 1\n', "m.py:4:4: 'return' outside function"),
    ('def f():\n    for i in x:\n        pass\n    else:\n        return 1\n', None),
    ('def f():\n    while x:\n        pass\n    else:\n        break\n', "m.py:5:8: 'break' outside loop"),
    ('def f():\n    class A:\n        return 1\n', "m.py:3:8: 'return' outside function"),
    ('def f():\n    class A:\n        x = (yield)\n', "m.py:3:13: 'yield' outside function"),
    ('for i in x:\n    class A:\n        break\n', "m.py:3:8: 'break' outside loop"),
    ('while x:\n    def g():\n        continue\n', "m.py:3:8: 'continue' outside loop"),
    ('for i in x:\n    f = lambda: (yield)\n', None),
    ('f = lambda: (yield)\n', None),
    ('f = lambda a=(yield): a\n', "m.py:1:14: 'yield' outside function"),
    ('def f():\n    g = lambda a=(yield): a\n', None),
    ('class A:\n    def m(self):\n        return 1\n', None),
    ('@a.b\ndef f():\n    pass\n', 'm.py:1:1: only bare-name decorators are supported'),
    ('@a()\nclass A:\n    pass\n', 'm.py:1:1: only bare-name decorators are supported'),
    ("@f'{x}'\ndef g():\n    pass\n", 'm.py:1:1: only bare-name decorators are supported'),
    ('def f(x: int):\n    pass\n', 'm.py:1:9: parameter annotations are not supported'),
    ('def f(a, /, b: int):\n    pass\n', 'm.py:1:15: parameter annotations are not supported'),
    ('def f(*, k: int):\n    pass\n', 'm.py:1:12: parameter annotations are not supported'),
    ('def f(*a: int):\n    pass\n', 'm.py:1:10: parameter annotations are not supported'),
    ('def f(**k: int):\n    pass\n', 'm.py:1:11: parameter annotations are not supported'),
    ('def f() -> int:\n    pass\n', 'm.py:1:11: return annotations are not supported'),
    ("def f(x: f'{a}'):\n    pass\n", 'm.py:1:9: parameter annotations are not supported'),
    ("def f(y):\n    return [f'{(yield)}' for x in y]\n", None),
    ("x = [f'{await a}' for a in y]\n", None),
    ("x = f'{(yield)}'\n", None),
    ("def f(a=f'{x if y else z}'):\n    pass\n", None),
    ('def f(y):\n    lst = [(yield x) for x in y]\n', "m.py:2:12: 'yield' inside a comprehension"),
    ('x = [a async for a in y]\n', 'm.py:1:4: async comprehensions are not supported'),
    ('def f(y):\n    return {k: (yield) for k in y}\n', "m.py:2:16: 'yield' inside a comprehension"),
    ('def f(y):\n    return [lambda: (yield) for x in y]\n', "m.py:2:21: 'yield' inside a comprehension"),
    ('assert x\ndel y\n', 'm.py:1:0: assert statements are not supported'),
    ('x = (a if b else c) + {1}\n', 'm.py:1:5: conditional expressions are not supported'),
    ('x = {1} if a else b\n', 'm.py:1:4: conditional expressions are not supported'),
    ('def f(a=(b if c else d)):\n    assert x\n', 'm.py:1:9: conditional expressions are not supported'),
    ('@a.b\ndef f(x: int):\n    pass\n', 'm.py:1:1: only bare-name decorators are supported'),
    ('def f(x: int) -> int:\n    pass\n', 'm.py:1:17: return annotations are not supported'),
    ('class A(b if c else d, metaclass={1}):\n    pass\n', 'm.py:1:8: conditional expressions are not supported'),
    ('for i in {1}:\n    break\nelse:\n    break\n', 'm.py:1:9: set literals are not supported'),
    ('x = [a async for a in y if (yield)]\n', 'm.py:1:4: async comprehensions are not supported'),
    ('def f(y):\n    return [(a if b else c, (yield)) for x in y]\n', "m.py:2:29: 'yield' inside a comprehension"),
    ('def f(y):\n    return [(g((yield 1)), (yield 2)) for x in y]\n', "m.py:2:28: 'yield' inside a comprehension"),
    ('def f(y):\n    return [((yield 1), g((yield 2))) for x in y]\n', "m.py:2:14: 'yield' inside a comprehension"),
    ('x = lambda a={1}: (b if c else d)\n', 'm.py:1:13: set literals are not supported'),
    ('while (yield):\n    break\n', "m.py:1:7: 'yield' outside function"),
]


@pytest.mark.parametrize("source, expected", DIAGNOSTICS)
def test_diagnostics_are_pinned(source, expected):
    if expected is None:
        parse_module(source, "m.py")
    else:
        with pytest.raises(ParseError) as exc:
            parse_module(source, "m.py")
        assert str(exc.value) == expected


_LOCATION_ATTRS = ("lineno", "col_offset", "end_lineno", "end_col_offset")


def _assert_fully_located(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        if "lineno" in node._attributes:
            for attr in _LOCATION_ATTRS:
                assert getattr(node, attr, None) is not None, (ast.dump(node), attr)


@pytest.mark.parametrize(
    "source",
    [
        "x = f'{a}-b'\n",
        "def f(a=f'{x!r:>{w}}', *, b=f'{y}'):\n    return [f'{i}' for i in a]\n",
        "class A(metaclass=f'{m}'):\n    x = (f'{a}', f'{b}')\n",
    ],
)
def test_folded_fstrings_are_located(source):
    _assert_fully_located(parse_module(source))


def test_folded_fstring_takes_its_location():
    (stmt,) = parse_module("x = (\n  f'{a}'\n)\n").body
    assert (stmt.value.lineno, stmt.value.col_offset) == (2, 2)
    assert (stmt.value.end_lineno, stmt.value.end_col_offset) == (2, 8)


# Each expression construct outside the subset, and an f-string, as written alone.
_CONSTRUCTS = {
    ast.Await: "(await w)",
    ast.NamedExpr: "(y := 2)",
    ast.IfExp: "(a if b else 3)",
    ast.Set: "{k, 4}",
    ast.YieldFrom: "(yield from g)",
    ast.JoinedStr: "f'{n + 1}!'",
}
# Places beside names and constants, which validation does not push.
_BESIDE_LEAVES = ["f(n, 1, {}, m)", "s[n, 1, {}]", "[n, 1, {}, m]", "[(n, 1, {}) for n in ms]"]


def test_every_rejected_expression_construct_is_placed_beside_leaves():
    assert {cls for cls in _REJECT_HINTS if issubclass(cls, ast.expr)} | {ast.JoinedStr} == set(_CONSTRUCTS)


@pytest.mark.parametrize("context", _BESIDE_LEAVES, ids=["call-argument", "subscript-index", "list-element",
                                                         "comprehension-element"])
@pytest.mark.parametrize("kind", list(_CONSTRUCTS), ids=lambda kind: kind.__name__)
def test_a_construct_beside_leaves_is_checked_as_at_top_level(kind, context):
    """The same located error, or the same folded constant, as alone."""
    text, shift = _CONSTRUCTS[kind], context.index("{}")
    source = context.format(text)
    if kind is ast.JoinedStr:
        (alone,) = parse_module(text).body
        folded = [(n.value, n.col_offset, n.end_col_offset) for n in walk(parse_module(source))
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        assert folded == [(alone.value.value, shift, alone.value.end_col_offset + shift)]
        return
    with pytest.raises(ParseError) as alone:
        parse_module(text, "m.py")
    with pytest.raises(ParseError) as placed:
        parse_module(source, "m.py")
    assert (placed.value.line, placed.value.col) == (1, alone.value.col + shift)
    assert placed.value.message == alone.value.message == _REJECT_HINTS[kind]


DEEP_CHAIN_SCRIPT = """
import ast
from lancet.frontend import parse_module, walk
tree = parse_module("x = " + "+".join(["1"] * 2900) + "\\n")
print(sum(isinstance(n, ast.BinOp) for n in walk(tree)))
"""


def test_deep_chain_parses_without_recursion():
    # A fresh interpreter: how deep ``ast.parse`` itself may go depends on the
    # caller's stack depth, and under pytest that is already large.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", DEEP_CHAIN_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.split() == ["2899"]


def test_fstrings_become_opaque_string_constants():
    tree = parse_module("x = f'{a}-b'")
    value = tree.body[0].value
    assert isinstance(value, ast.Constant)
    assert isinstance(value.value, str)
    assert not any(isinstance(n, (ast.JoinedStr, ast.FormattedValue)) for n in walk(tree))


def test_unparse_terminates_module_with_newline():
    assert unparse(parse_module("x = 1")) == "x = 1\n"
    assert unparse(parse_module("")) == ""


def test_unparse_function_def_shape():
    tree = parse_module("def fun(x):\n    return x + 1\n")
    assert unparse(tree) == "def fun(x):\n    return x + 1\n"


def test_round_trip_on_fib():
    tree = parse_module(FIB_SOURCE)
    again = parse_module(unparse(tree))
    assert trees_equal(tree, again)


def test_parse_is_deterministic():
    a = parse_module(FIB_SOURCE)
    b = parse_module(FIB_SOURCE)
    assert trees_equal(a, b)


_COMMENT = b"# -*- mode: python -*-\n"  # no coding cookie, so UTF-8


@pytest.mark.parametrize("raw,line,col", [
    (b"x = '\xe9'\n", 1, 5),
    (_COMMENT + b"x = '\xe9'\n", 2, 5),
    (b"\xef\xbb\xbf" + _COMMENT + b"x = '\xe9'\n", 2, 5),
    (b"\xef\xbb\xbfx = '\xe9'\n", 1, 5),
    ("y = 'é'\nz = 'ü' + '".encode() + b"\xff'\n", 2, 11),
    (b"x = 1\r\n\r\ny = '\xe9", 3, 5),
    (b"x = '\xe2\x82'\n", 1, 5),  # a truncated three-byte sequence
], ids=["line-1", "line-2", "bom-line-2", "bom-line-1", "multibyte-before", "crlf", "truncated"])
def test_source_file_rejects_non_utf8(tmp_path, raw, line, col):
    """Placed at the first bad byte: the line counts the newlines before it,
    the column the characters before it on its line; a byte order mark
    counts for neither."""
    bad = tmp_path / "latin.py"
    bad.write_bytes(raw)
    with pytest.raises(ParseError) as info:
        SourceFile.load(bad)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value).startswith(f"{bad}:{line}:{col}: not valid UTF-8: ")


@pytest.mark.parametrize("raw,line,message", [
    (b"\xef\xbb\xbf# -*- coding: latin-1 -*-\nx = '\xe9'\n", 1, "encoding problem: latin-1 with BOM"),
    (b"#!/usr/bin/env python3\n# coding=no-such-codec\nx = 1\n", 2, "cannot decode as no-such-codec: "),
    (b"# coding: base64\nx = 1\n", 1, "cannot decode as base64: "),
    (b"x = 1\n# coding: latin-1\ny = '\xe9'\n", 3, "not valid UTF-8: "),  # a cookie after code is none
    (b"# coding: ascii\n\ny = '\xe9'\n", 3, "not valid ascii: "),
], ids=["bom-and-latin-1", "unknown-codec", "not-a-text-codec", "line-2-after-code", "ascii"])
def test_a_coding_cookie_that_cannot_be_honoured_is_a_located_error(tmp_path, raw, line, message):
    bad = tmp_path / "cookie.py"
    bad.write_bytes(raw)
    with pytest.raises(ParseError) as info:
        SourceFile.load(bad)
    assert str(info.value).startswith(f"{bad}:{line}:")
    assert info.value.message.startswith(message)


def test_a_coding_cookie_selects_the_decoding(tmp_path):
    """On line 1, or on line 2 after a blank or comment-only line, as
    ``tokenize.detect_encoding`` finds it; a UTF-8 cookie may follow a BOM."""
    cases = {
        b"# -*- coding: latin-1 -*-\nx = '\xe9'\n": "x = '\xe9'\n",
        b"\n# vim: set fileencoding=cp1252 :\nx = '\x80'\n": "x = '\u20ac'\n",
        b"\xef\xbb\xbf# coding: utf-8\nx = '\xc3\xa9'\n": "x = '\xe9'\n",
        b"\xef\xbb\xbf# coding: utf-8-sig\nx = '\xc3\xa9'\n": "x = '\xe9'\n",
        b"# coding: utf-8\n# coding: latin-1\nx = '\xc3\xa9'\n": "x = '\xe9'\n",
    }
    for raw, body in cases.items():
        path = tmp_path / "mod.py"
        path.write_bytes(raw)
        assert SourceFile.load(path).text.splitlines()[-1] == body.rstrip("\n"), raw


def test_source_file_module_names(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n", encoding="utf-8")
    assert SourceFile.load(target).module_name == "mod"


def test_walk_visits_each_node_once():
    tree = parse_module(FIB_SOURCE)
    nodes = list(walk(tree))
    # expr_context/operator leaves are interned singletons; every other node
    # object must appear exactly once.
    distinct = [
        n
        for n in nodes
        if not isinstance(n, (ast.expr_context, ast.operator, ast.unaryop, ast.boolop, ast.cmpop))
    ]
    assert len({id(n) for n in distinct}) == len(distinct)
    assert sum(isinstance(n, ast.FunctionDef) for n in nodes) == 1


_SHARED = (ast.expr_context, ast.operator, ast.unaryop, ast.boolop, ast.cmpop)


def _recursive_walk(node: ast.AST) -> list[ast.AST]:
    """Recursive ``ast.iter_child_nodes`` without the shared context and
    operator objects."""
    out = [node]
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, _SHARED):
            out.extend(_recursive_walk(child))
    return out


@settings(max_examples=60, deadline=None)
@given(programs())
def test_walk_matches_recursive_reference(source: str):
    tree = parse_module(source)
    assert [id(n) for n in walk(tree)] == [id(n) for n in _recursive_walk(tree)]


def test_leaf_walk():
    leaf = ast.Constant(value=3)
    assert list(walk(leaf)) == [leaf]


def _spans_nested(parent: ast.AST) -> bool:
    parent_span = node_span(parent)
    for child in ast.iter_child_nodes(parent):
        child_span = node_span(child)
        if parent_span and child_span:
            if not (
                (parent_span[0], parent_span[1])
                <= (child_span[0], child_span[1])
                <= (child_span[2], child_span[3])
                <= (parent_span[2], parent_span[3])
            ):
                return False
        if not _spans_nested(child):
            return False
    return True


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_round_trip_and_spans(path: Path):
    text = path.read_text(encoding="utf-8")
    tree = parse_module(text, str(path))
    assert trees_equal(tree, parse_module(unparse(tree)))
    _assert_fully_located(tree)
    for node in walk(tree):
        span = node_span(node)
        if span is not None:
            assert (span[0], span[1]) <= (span[2], span[3])
    assert _spans_nested(tree)


def test_a_decorated_definition_spans_from_its_first_decorator():
    tree = parse_module("if x:\n    @a\n    @b\n    class C:\n        @staticmethod\n"
                        "        def s():\n            pass\n")
    cls = tree.body[0].body[0]
    assert node_span(cls) == (2, 4, 7, 16)
    assert node_span(cls.body[0]) == (5, 8, 7, 16)
    assert _spans_nested(tree)


@settings(max_examples=60, deadline=None)
@given(programs())
def test_generated_programs_round_trip(source: str):
    tree = parse_module(source)
    _assert_fully_located(tree)
    assert trees_equal(tree, parse_module(unparse(tree)))
    assert trees_equal(parse_module(source), tree)


def test_source_text_prints_an_int_past_the_digit_limit_in_hex():
    huge = "0x" + "f" * 4000
    tree = parse_module(f"y = ({huge}).bit_length() + 1\nz = f'{{{huge}}}'\n")
    constant = tree.body[0].value.left.func.value
    assert source_text(tree.body[0]) == f"y = {huge}.bit_length() + 1"
    assert tree.body[1].value.value == f"f'{{{huge}}}'"  # folded through source_text
    assert type(constant) is ast.Constant and constant.value == 16 ** 4000 - 1  # not modified
    assert source_text(ast.parse("x = 10 ** 2").body[0]) == "x = 10 ** 2"


# ---------------------------------------------------------------------------
# The JSON writer against json.dumps

# Characters the encoder escapes or spells out: quotes, backslashes, control
# characters, line separators, non-ASCII, an astral character and lone
# surrogates.
_TRICKY = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "é", "\U0001f600", "\ud800", "\udfff"]
_texts = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(_TRICKY)))
_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=-(2 ** 200), max_value=2 ** 200),  # wider than 64 bits
        st.floats(),  # with nan, +-inf and -0.0
        _texts,
    ),
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(_texts, inner)
    ),
    max_leaves=20,
)


_Level = enum.IntEnum("_Level", "LOW HIGH")  # an int subclass


@settings(max_examples=150, deadline=None)
@given(_json_values)
@example(float("nan"))
@example([float("inf"), float("-inf"), -0.0, 2 ** 64, -(2 ** 100)])
@example({"": [], "a": {}, "b": ((),), "c": [{"d": [[], {}]}]})
@example({"\ud800": "\udfff", '"\\': "\x00\u2028é"})
# Subclasses of the types written by their exact type take the isinstance path.
@example({Unresolved("a.b"): Unresolved("c"), "k": [Unresolved("d")]})
@example([_Level.HIGH, {"level": _Level.LOW}, (_Level.LOW,)])
@example([True, [False, {"t": True, "f": [False, None]}], {"b": False}])
def test_dump_json_is_json_dumps_byte_for_byte(value):
    assert dump_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [1j, {1, 2}, [{"a": 1j}], {"k": frozenset()}],
                         ids=["complex", "set", "nested-complex", "frozenset"])
def test_dump_json_raises_type_error_where_json_dumps_does(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dump_json(value)

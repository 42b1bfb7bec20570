from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from lancet.cfg import (
    build_from_file,
    build_from_source,
    iter_eager,
    stmt_head_text,
    to_dot,
    to_json,
    to_json_dict,
    visit_function_cfgs,
)
from lancet.frontend import parse_module
from helpers import all_cfgs, corpus_files
from strategies import programs

DATA = Path(__file__).parent / "data"

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

MERGE_SOURCE = """c = 10
a = -1
if c > 0:
    a = a + 1
else:
    a = 0
total = c + a
"""

DOUBLE_DEF_SOURCE = """x = 0
if x > 0:
    def solve():
        return 1
else:
    def solve():
        return 2
solve(x)
"""

# Generators in every kind of scope, with yields that a module or class CFG
# must not split on (a lambda's); ``yield_scope_cfg_golden.json`` holds their
# ``to_json_dict`` output from before only function bodies were searched.
YIELD_SCOPE_SOURCES = {
    "method": (
        "class Counter:\n"
        "    start = 0\n"
        "\n"
        "    def count(self, n):\n"
        "        i = self.start\n"
        "        while i < n:\n"
        "            sent = yield i\n"
        "            i = i + 1\n"
        "        yield\n"
        "        return i\n"
        "\n"
        "\n"
        "c = Counter()\n"
    ),
    "nested": (
        "def outer(xs):\n"
        "    def gen():\n"
        "        for x in xs:\n"
        "            if x:\n"
        "                y = yield x\n"
        "                print(y)\n"
        "    total = len(xs)\n"
        "    return gen()\n"
        "\n"
        "\n"
        "it = outer([1, 2])\n"
    ),
    "lambda": "g = lambda: (yield)\nh = g()\n\n\nclass K:\n    m = lambda self: (yield self)\n",
}


def _shape(cfg) -> dict:
    return {
        "statements_per_block": {str(b.id): len(b.statements) for b in cfg},
        "edges": [[b.id, e.target.id] for b in cfg for e in b.exits],
        "final_blocks": sorted(cfg.final_blocks),
        "function_keys": [[bid, name] for (bid, name) in sorted(cfg.function_cfgs)],
    }


def test_fib_produces_exactly_two_cfgs_matching_golden():
    """A yield in a function body ends its block; also pinned for the
    generators of ``YIELD_SCOPE_SOURCES``."""
    golden = json.loads((DATA / "fib_cfg_golden.json").read_text())
    cfg = build_from_source("example", FIB_SOURCE)
    assert _shape(cfg) == golden["module"]
    fib_cfg = cfg.function_cfgs[(1, "fib")]
    assert _shape(fib_cfg) == golden["fib"]
    assert not fib_cfg.function_cfgs
    scopes = json.loads((DATA / "yield_scope_cfg_golden.json").read_text())
    for name, source in YIELD_SCOPE_SOURCES.items():
        assert to_json_dict(build_from_source(name, source)) == scopes[name], name


def test_merge_blocks_and_join_numbering():
    cfg = build_from_source("demo", MERGE_SOURCE)
    assert sorted(cfg.blocks) == [1, 2, 3, 4]
    join = cfg.block(3)
    assert [stmt_head_text(s) for s in join.statements] == ["total = c + a"]
    assert sorted(link.source.id for link in join.predecessors) == [2, 4]
    true_edge, false_edge = cfg.block(1).exits
    assert true_edge.target.id == 2 and ast.unparse(true_edge.condition) == "c > 0"
    assert false_edge.target.id == 4 and ast.unparse(false_edge.condition) == "not c > 0"


def test_same_name_definitions_get_distinct_keys():
    cfg = build_from_source("m", DOUBLE_DEF_SOURCE)
    keys = sorted(cfg.function_cfgs)
    assert [name for _, name in keys] == ["solve", "solve"]
    assert len({bid for bid, _ in keys}) == 2


def test_empty_module_is_one_empty_block():
    cfg = build_from_source("empty", "")
    assert sorted(cfg.blocks) == [1]
    assert cfg.block(1).statements == []
    assert cfg.block(1).exits == []
    assert cfg.final_blocks == {1}


def test_build_from_file_matches_source(tmp_path):
    path = tmp_path / "example.py"
    path.write_text(FIB_SOURCE, encoding="utf-8")
    from_file = build_from_file("example", path)
    from_source = build_from_source("example", FIB_SOURCE)
    assert _shape(from_file) == _shape(from_source)


def test_build_from_file_errors(tmp_path):
    with pytest.raises(OSError):
        build_from_file("missing", tmp_path / "nope.py")
    with pytest.raises(OSError):
        build_from_file("dir", tmp_path)


def test_get_calls_per_block():
    cfg = build_from_source("example", FIB_SOURCE)
    def_block_calls = [c.func.id for c in cfg.block(1).get_calls()]
    assert def_block_calls == ["fib"]
    loop_body_calls = [c.func.id for c in cfg.block(3).get_calls()]
    assert loop_body_calls == ["next"]
    fib_cfg = cfg.function_cfgs[(1, "fib")]
    assert fib_cfg.block(4).get_calls() == []  # a, b = b, a + b


def test_get_calls_includes_nested_calls_in_order():
    cfg = build_from_source("m", "x = funA(funB())\n")
    names = [c.func.id for c in cfg.block(1).get_calls()]
    assert names == ["funA", "funB"]


def test_get_calls_skips_function_bodies():
    cfg = build_from_source("m", "def f():\n    g()\n")
    assert cfg.block(1).get_calls() == []


def test_visit_function_cfgs_orders_and_recurses():
    cfg = build_from_source("m", DOUBLE_DEF_SOURCE)
    entries = list(visit_function_cfgs(cfg))
    assert [key for key, _ in entries] == sorted(cfg.function_cfgs)
    empty = build_from_source("m", "x = 1\n")
    assert list(visit_function_cfgs(empty)) == []


def test_unreachable_statements_are_kept_in_recorded_blocks():
    source = "def f():\n    return 1\n    leftover = 2\n\nf()\n"
    cfg = build_from_source("m", source)
    fn = cfg.function_cfgs[(1, "f")]
    assert fn.unreachable_blocks
    dead = [fn.blocks[bid] for bid in fn.unreachable_blocks]
    assert any(s for b in dead for s in b.statements)


def test_break_and_continue_edges():
    source = "for i in range(10):\n    if i > 5:\n        break\n    continue\n"
    cfg = build_from_source("m", source)
    header = cfg.block(1)
    assert len(header.exits) == 2
    loop_edge, exit_edge = header.exits
    assert ast.unparse(loop_edge.condition) == "i"
    assert exit_edge.condition is None
    after_id = exit_edge.target.id
    break_sources = {
        link.source.id
        for link in cfg.block(after_id).predecessors
        if link.source.id != header.id
    }
    assert break_sources  # the break block jumps straight to the loop exit
    continue_targets = {
        e.target.id
        for b in cfg
        for e in b.exits
        if b.statements and isinstance(b.statements[-1], ast.Continue)
    }
    assert continue_targets == {header.id}


def test_dot_empty_module():
    dot = to_dot(build_from_source("empty", ""))
    assert dot.startswith('digraph "empty" {')
    assert dot.count("[label=") == 1  # one node, no edges
    assert "->" not in dot


def test_dot_merge_example_shape():
    dot = to_dot(build_from_source("demo", MERGE_SOURCE))
    node_lines = [l for l in dot.splitlines() if l.strip().startswith("b") and "[label=" in l and "->" not in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 4
    assert len(edge_lines) == 4
    labeled = [l for l in edge_lines if "label=" in l]
    assert len(labeled) == 2
    assert any("c > 0" in l for l in labeled)
    assert any("not c > 0" in l for l in labeled)


def test_dot_function_clusters():
    cfg = build_from_source("example", FIB_SOURCE)
    assert "subgraph" not in to_dot(cfg)
    dot = to_dot(cfg, include_functions=True)
    assert "subgraph cluster_0" in dot
    assert "fib (block 1)" in dot


def test_dot_and_json_are_deterministic():
    cfg_a = build_from_source("example", FIB_SOURCE)
    cfg_b = build_from_source("example", FIB_SOURCE)
    assert to_dot(cfg_a, include_functions=True) == to_dot(cfg_b, include_functions=True)
    assert to_json(cfg_a) == to_json(cfg_b)


def test_json_schema_fields():
    payload = json.loads(to_json(build_from_source("demo", MERGE_SOURCE)))
    assert set(payload) == {"name", "blocks", "links", "functions", "classes"}
    assert [b["id"] for b in payload["blocks"]] == [1, 2, 3, 4]
    for block in payload["blocks"]:
        for span in block["statements"]:
            assert len(span) == 4
    conditions = {l["condition"] for l in payload["links"]}
    assert "c > 0" in conditions and "not c > 0" in conditions and None in conditions


def test_json_span_of_a_decorated_def_covers_its_decorators():
    source = ("x = 1\n\n@deco\ndef g():\n    return x\n\n\n"
              "class C:\n    @staticmethod\n    def s():\n        pass\n")
    payload = json.loads(to_json(build_from_source("demo", source)))
    assert payload["blocks"][0]["statements"] == [[1, 0, 1, 5], [3, 0, 5, 12], [8, 0, 11, 12]]
    (method,) = payload["classes"][0]["cfg"]["blocks"][0]["statements"]
    assert method == [9, 4, 11, 12]


# ---------------------------------------------------------------------------
# Invariants over the corpus


def _corpus_cfgs():
    for path in corpus_files("programs", "rewrite", "callgraph", "typeinfer"):
        top = build_from_file(path.stem, path)
        for cfg in all_cfgs(top):
            yield path, cfg


def test_every_statement_lands_in_exactly_one_block():
    for path in corpus_files("programs", "rewrite", "callgraph", "typeinfer"):
        top = build_from_file(path.stem, path)
        seen: dict[int, int] = {}
        for cfg in all_cfgs(top):
            for block in cfg:
                for stmt in block.statements:
                    seen[id(stmt)] = seen.get(id(stmt), 0) + 1
        assert all(count == 1 for count in seen.values()), path.name
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total_stmts = sum(isinstance(n, ast.stmt) for n in ast.walk(tree))
        assert len(seen) == total_stmts, path.name


def test_edge_consistency_across_corpus():
    for path, cfg in _corpus_cfgs():
        for block in cfg:
            for edge in block.exits:
                assert edge.source is block, path.name
                assert edge in edge.target.predecessors, path.name
            for edge in block.predecessors:
                assert edge.target is block, path.name
                assert edge in edge.source.exits, path.name
            assert block.id in cfg.blocks


def test_branch_blocks_have_condition_and_negation_exits():
    for path, cfg in _corpus_cfgs():
        for block in cfg:
            if not block.statements:
                continue
            last = block.statements[-1]
            if isinstance(last, (ast.If, ast.While)):
                assert len(block.exits) == 2, (path.name, block.id)
                cond, negated = block.exits
                assert cond.condition is last.test
                assert isinstance(negated.condition, ast.UnaryOp)
                assert isinstance(negated.condition.op, ast.Not)
                assert negated.condition.operand is last.test
            elif isinstance(last, ast.For):
                assert len(block.exits) == 2, (path.name, block.id)
                loop_edge, exhausted = block.exits
                assert loop_edge.condition is last.target
                assert exhausted.condition is None


def test_reachability_accounting():
    for path, cfg in _corpus_cfgs():
        reachable = set()
        stack = [cfg.entry]
        while stack:
            block = stack.pop()
            if block.id in reachable:
                continue
            reachable.add(block.id)
            stack.extend(e.target for e in block.exits)
        assert reachable | cfg.unreachable_blocks == set(cfg.blocks), path.name
        assert not reachable & cfg.unreachable_blocks, path.name
        assert cfg.final_blocks <= reachable


# ---------------------------------------------------------------------------
# Path soundness on loop-free branch structures


def _structural_paths(body: list[ast.stmt]) -> int:
    total = 1
    for stmt in body:
        if isinstance(stmt, ast.If):
            branches = _structural_paths(stmt.body)
            branches += _structural_paths(stmt.orelse) if stmt.orelse else 1
            total *= branches
    return total


def _cfg_paths(cfg) -> int:
    final = cfg.final_blocks

    def count(block) -> int:
        if block.id in final:
            return 1
        return sum(count(edge.target) for edge in block.exits)

    return count(cfg.entry)


@pytest.mark.parametrize(
    "source",
    [
        MERGE_SOURCE,
        "a = 4\nb = 7\nif a > 1:\n    if b > 5:\n        l = 1\n    else:\n        l = 2\nelse:\n    l = 3\nprint(l)\n",
        "v = 7\nif v < 3:\n    b = 1\nelif v < 6:\n    b = 2\nelif v < 9:\n    b = 3\nelse:\n    b = 4\nprint(b)\n",
        "x = 1\nif x:\n    y = 1\nprint(x)\n",
    ],
)
def test_loop_free_path_enumeration_matches_structure(source):
    cfg = build_from_source("m", source)
    tree = ast.parse(source)
    assert _cfg_paths(cfg) == _structural_paths(tree.body)


def _recursive_eager(expr: ast.AST) -> list[ast.AST]:
    out = [expr]
    if isinstance(expr, ast.Lambda):
        children = expr.args.defaults + [d for d in expr.args.kw_defaults if d is not None]
    else:
        children = list(ast.iter_child_nodes(expr))
    for child in children:
        out.extend(_recursive_eager(child))
    return out


@settings(max_examples=60, deadline=None)
@given(programs())
def test_iter_eager_matches_recursive_reference(source: str):
    tree = parse_module(source + "f = lambda a=g(1), *, b=h(2): k(a)\n")
    for node in ast.walk(tree):
        if isinstance(node, ast.expr):
            assert [id(n) for n in iter_eager(node)] == [id(n) for n in _recursive_eager(node)]

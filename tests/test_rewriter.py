from __future__ import annotations

import ast
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lancet.frontend import ParseError, parse_module, unparse, walk
from lancet.rewriter import (
    RULES,
    FixpointError,
    RewriteRule,
    TempNamer,
    _locate,
    collect_identifiers,
    simplify_module,
)

from helpers import alpha_equal, corpus_files, perfbench_gen, rewrite_text, trees_equal
from strategies import programs

SIMPLIFICATION_CASES = [
    (
        "lst = [i for i in range(N)]",
        "lst = []\nfor i in range(N):\n    lst.append(i)\n",
    ),
    (
        "x = funA(funB())",
        "_ret = funB()\nx = funA(_ret)\n",
    ),
    (
        "x = funA()[1:10]",
        "_ret = funA()\nx = _ret[1:10]\n",
    ),
    (
        "fun = lambda x: x + 1",
        "def fun(x):\n    return x + 1\n",
    ),
    (
        "f1().f2().f3()",
        "_ret = f1()\n_ret_1 = _ret.f2()\n_ret_1.f3()\n",
    ),
    (
        "x = lambda a: a + 10",
        "def x(a):\n    return a + 10\n",
    ),
]


@pytest.mark.parametrize("source,expected", SIMPLIFICATION_CASES)
def test_simplification_golden_cases(source, expected):
    assert alpha_equal(rewrite_text(source), expected)


def test_nested_calls_hoist_innermost_first():
    result = rewrite_text("x = funA(funB(funC()))")
    lines = result.strip().splitlines()
    assert len(lines) == 3
    # The innermost call is evaluated first and the original target last.
    assert "funC()" in lines[0]
    assert lines[2].startswith("x = funA(")


def test_module_without_matches_is_unchanged():
    source = "a = 1\nb = a + 2\nif b > 2:\n    print(b)\n"
    tree = parse_module(source)
    assert trees_equal(simplify_module(tree), tree)


def test_lambda_in_function_body_becomes_nested_def():
    result = rewrite_text("def wrap():\n    f = lambda y: y * 2\n    return f(4)\n")
    tree = parse_module(result)
    outer = tree.body[0]
    assert isinstance(outer, ast.FunctionDef)
    inner = outer.body[0]
    assert isinstance(inner, ast.FunctionDef) and inner.name == "f"


def test_simplify_is_idempotent_on_corpus():
    for path in corpus_files("rewrite", "programs"):
        tree = parse_module(path.read_text(encoding="utf-8"), str(path))
        once = simplify_module(tree)
        twice = simplify_module(once)
        assert trees_equal(once, twice), path.name


def test_fixpoint_reached_on_corpus():
    for path in corpus_files("rewrite", "programs"):
        tree = parse_module(path.read_text(encoding="utf-8"), str(path))
        simplified = simplify_module(tree)
        for node in walk(simplified):
            if isinstance(node, ast.stmt):
                for rule in RULES:
                    assert rule.apply(node, TempNamer()) is None, (path.name, rule.name)


def test_temporaries_never_shadow_existing_names():
    source = "_ret = 1\n_ret_1 = 2\nx = funA(funB(_ret))\ny = funC(funD())\n"
    tree = parse_module(source)
    original = collect_identifiers(tree)
    simplified = simplify_module(tree)
    introduced = collect_identifiers(simplified) - original
    assert introduced
    assert not introduced & original
    # Old names survive untouched.
    assert {"_ret", "_ret_1"} <= collect_identifiers(simplified)


def test_the_result_records_exactly_the_temporaries_the_rewrite_made():
    tree = parse_module("_ret = 1\n_ret_1 = 2\nx = funA(funB(_ret))\ny = funC(funD())\n")
    simplified = simplify_module(tree)
    assert simplified.temporaries == collect_identifiers(simplified) - collect_identifiers(tree)
    assert simplified.temporaries == {"_ret_2", "_ret_3"}
    assert simplify_module(parse_module("_ret = f()\n")).temporaries == set()


def test_evaluation_order_guard_blocks_unsafe_hoists():
    # funB() inside the first argument must run before funC(); no rule may
    # reorder them, so the statement is left alone.
    source = "x = funA(g + funB(), funC())\n"
    assert rewrite_text(source) == source


def test_chains_inside_arguments_settle():
    result = rewrite_text("x = funA(funB().m())")
    tree = parse_module(result)
    for node in walk(tree):
        if isinstance(node, ast.stmt):
            for rule in RULES:
                assert rule.apply(node, TempNamer()) is None


def test_simplify_raises_on_non_terminating_rule():
    bad = RewriteRule(
        id=99,
        name="KeepsMatching",
        apply=lambda stmt, namer: [ast.Pass(), ast.Pass()] if isinstance(stmt, ast.Pass) else None,
    )
    with pytest.raises(FixpointError):
        simplify_module(parse_module("pass"), rules=[bad])


def test_a_large_module_simplifies_without_a_rewrite_cap():
    count = 10_001
    tree = parse_module("".join(f"x_{i} = f(g({i}))\n" for i in range(count)))
    body = simplify_module(tree).body
    assert len(body) == 2 * count
    temps = set()
    for i in range(count):
        hoisted, rewritten = body[2 * i], body[2 * i + 1]
        temp = hoisted.targets[0].id
        assert temp.startswith("_ret") and temp not in temps
        temps.add(temp)
        assert unparse(hoisted) == f"{temp} = g({i})"
        assert unparse(rewritten) == f"x_{i} = f({temp})"


CHAIN_SPLITTING = (RULES[4],)


def test_chain_splitting_alone_splits_a_chain():
    assert CHAIN_SPLITTING[0].name == "CallChainSplitting"
    tree = parse_module("f1().f2().f3()")
    result = simplify_module(tree, rules=CHAIN_SPLITTING)
    assert len(result.body) == 3


def test_chain_splitting_alone_is_a_fixpoint_on_split_code():
    tree = parse_module("_x = f1()\n_y = _x.f2()\n_y.f3()\n")
    result = simplify_module(tree, rules=CHAIN_SPLITTING)
    assert trees_equal(result, tree)


def test_chain_splitting_alone_gives_two_chains_distinct_temps():
    source = "def run():\n    a().b().c()\n    d().e().f()\n"
    result = simplify_module(parse_module(source), rules=CHAIN_SPLITTING)
    fn = result.body[0]
    assert len(fn.body) == 6
    temps = [
        s.targets[0].id
        for s in fn.body
        if isinstance(s, ast.Assign) and isinstance(s.targets[0], ast.Name)
    ]
    assert len(temps) == len(set(temps)) == 4


def test_temp_namer_sequence_and_collisions():
    namer = TempNamer(forbidden={"_ret", "_ret_2"})
    assert namer.fresh() == "_ret_1"
    assert namer.fresh() == "_ret_3"


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(["_ret", "_ret_1", "_ret_2", "_ret_3", "x"]), max_size=5))
def test_temp_namer_never_collides(forbidden):
    namer = TempNamer(forbidden=set(forbidden))
    produced = [namer.fresh() for _ in range(4)]
    assert len(set(produced)) == 4
    assert not set(produced) & forbidden


@settings(max_examples=40, deadline=None)
@given(programs())
def test_generated_programs_simplify_to_a_fixpoint(source):
    tree = parse_module(source)
    simplified = simplify_module(tree)
    # Output reparses and is stable under a second pass.
    reparsed = parse_module(unparse(simplified))
    assert trees_equal(simplified, reparsed)
    assert trees_equal(simplify_module(simplified), simplified)
    for node in walk(simplified):
        if isinstance(node, ast.stmt):
            for rule in RULES:
                assert rule.apply(node, TempNamer()) is None


# ---------------------------------------------------------------------------
# Copy-on-write: the input is never modified and untouched statements are
# shared, so no whole-module copy can come back unnoticed.


def _assert_rewrites_leave_input_alone(tree: ast.Module) -> None:
    before = ast.dump(tree, include_attributes=True)
    simplified = simplify_module(tree)
    assert ast.dump(tree, include_attributes=True) == before
    for node in walk(simplified):
        if "lineno" in node._attributes:
            assert getattr(node, "lineno", None) is not None, ast.dump(node)
            assert getattr(node, "end_lineno", None) is not None, ast.dump(node)
    namer = TempNamer.for_module(tree)
    for stmt in [node for node in walk(tree) if isinstance(node, ast.stmt)]:
        for rule in RULES:
            rule.apply(stmt, namer)
            assert ast.dump(tree, include_attributes=True) == before, rule.name


@settings(max_examples=60, deadline=None)
@given(programs())
def test_generated_programs_are_not_modified_by_rewriting(source):
    _assert_rewrites_leave_input_alone(parse_module(source))


def test_corpus_is_not_modified_by_rewriting():
    for path in corpus_files():
        try:
            tree = parse_module(path.read_text(encoding="utf-8"), str(path))
        except ParseError:
            continue
        _assert_rewrites_leave_input_alone(tree)


def test_module_without_matches_shares_every_statement():
    tree = parse_module("a = 1\nb = a + 2\nif b > 2:\n    print(b)\nelse:\n    b = -a\n")
    simplified = simplify_module(tree)
    assert simplified is not tree and simplified.body is not tree.body
    assert len(simplified.body) == len(tree.body)
    assert all(new is old for new, old in zip(simplified.body, tree.body))


def test_rewrite_in_a_branch_copies_only_that_branch():
    tree = parse_module("a = 1\nif a:\n    x = f(g())\nelse:\n    y = 2\n")
    simplified = simplify_module(tree)
    assert simplified.body[0] is tree.body[0]
    branch, original = simplified.body[1], tree.body[1]
    assert branch is not original and len(original.body) == 1 and len(branch.body) == 2
    assert branch.test is original.test and branch.orelse is original.orelse


# ---------------------------------------------------------------------------
# Locations, rule dispatch and the fixpoint bound.


def _assert_every_locatable_node_is_located(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        if "lineno" in node._attributes:
            assert getattr(node, "lineno", None) is not None, ast.dump(node)
            assert getattr(node, "end_col_offset", None) is not None, ast.dump(node)


def test_every_locatable_node_of_a_rewritten_corpus_file_is_located():
    for path in corpus_files():
        try:
            tree = parse_module(path.read_text(encoding="utf-8"), str(path))
        except ParseError:
            continue
        _assert_every_locatable_node_is_located(simplify_module(tree))


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
@pytest.mark.parametrize("workload", ["branchy", "chain"])
def test_every_locatable_node_of_a_rewritten_workload_is_located(monkeypatch, workload, seed):
    files = perfbench_gen(monkeypatch).GENERATORS[workload](seed).files
    for path, text in files.items():
        _assert_every_locatable_node_is_located(simplify_module(parse_module(text, path)))


def _span(node: ast.AST) -> tuple[int, int, int, int]:
    return node.lineno, node.col_offset, node.end_lineno, node.end_col_offset


def _names(tree: ast.AST, name: str) -> list[ast.Name]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == name]


@pytest.mark.parametrize("source,anchor", [
    ("x = 1\nx = f(g())\n", lambda stmt: stmt.value),  # rule 2, positional: the call
    ("x = 1\nx = f(a, k=g())\n", lambda stmt: stmt.value.keywords[0]),  # rule 2, keyword: the keyword
    ("x = 1\nx = f()[1:2]\n", lambda stmt: stmt.value),  # rule 3: the subscript
    ("x = 1\nx = f().m()\n", lambda stmt: stmt.value.func),  # rule 5: the attribute
], ids=["positional", "keyword", "subscript", "chain"])
def test_a_hoisted_temporary_takes_the_location_of_the_node_it_replaces(source, anchor):
    tree = parse_module(source)
    stmt = tree.body[1]
    load, store = sorted(_names(simplify_module(tree), "_ret"), key=lambda n: type(n.ctx).__name__)
    assert isinstance(load.ctx, ast.Load) and _span(load) == _span(anchor(stmt))
    assert isinstance(store.ctx, ast.Store) and _span(store) == _span(stmt)


def test_a_rule_outside_rules_is_tried_on_every_statement():
    seen = []

    def pass_to_assign(stmt, namer):
        seen.append(type(stmt).__name__)
        if type(stmt) is ast.Pass:
            return parse_module("p = 0").body
        return None

    custom = RewriteRule(9, "PassToAssign", pass_to_assign)
    source = "global g\nif a:\n    pass\nelif b:\n    x = f(g())\nfor i in c:\n    pass\n"
    result = simplify_module(parse_module(source), rules=(*RULES, custom))
    assert unparse(result) == (
        "global g\nif a:\n    p = 0\nelif b:\n    _ret = g()\n    x = f(_ret)\nfor i in c:\n    p = 0\n"
    )
    assert sorted(set(seen)) == ["Assign", "For", "Global", "If", "Pass"]
    _assert_every_locatable_node_is_located(result)


def test_what_a_caller_s_rule_builds_unlocated_takes_the_location_of_what_it_replaces():
    def pass_to_assign(stmt, namer):
        if type(stmt) is ast.Pass:
            return [ast.Assign(targets=[ast.Name("p", ast.Store())], value=ast.Constant(0))]
        return None

    tree = parse_module("x = 1\nif x:\n    pass\n")
    result = simplify_module(tree, rules=(RewriteRule(9, "PassToAssign", pass_to_assign),))
    assert unparse(result) == "x = 1\nif x:\n    p = 0\n"
    _assert_every_locatable_node_is_located(result)
    (assign,) = result.body[1].body
    assert {_span(node) for node in ast.walk(assign) if "lineno" in node._attributes} == {
        _span(tree.body[1].body[0])}


def _firing(times: int) -> RewriteRule:
    """A rule that fires ``times`` times in all, each time giving the statement back."""
    left = [times]

    def apply(stmt, namer):
        if not left[0]:
            return None
        left[0] -= 1
        return [stmt]

    return RewriteRule(9, f"Fires{times}Times", apply)


@pytest.mark.parametrize("source", ["pass", "x = 1", "x = f(a, b.c)"])
def test_a_statement_may_fire_once_per_node_and_no_more(source):
    tree = parse_module(source)
    nodes = sum(1 for _ in walk(tree.body[0]))
    assert simplify_module(tree, rules=[_firing(nodes)]).body == tree.body
    with pytest.raises(FixpointError):
        simplify_module(tree, rules=[_firing(nodes + 1)])


def _recursive_rewrite_block(stmts, namer, rules):
    """Reference: the one-pass driver that tried every rule on every
    statement and recursed into each ``body`` and ``orelse``."""
    out, changed = [], False
    for origin in stmts:
        pending, budget = [origin], None
        while pending:
            stmt = pending.pop()
            for fname in ("body", "orelse"):
                inner = getattr(stmt, fname, None)
                if isinstance(inner, list) and inner and isinstance(inner[0], ast.stmt):
                    new_inner, inner_changed = _recursive_rewrite_block(inner, namer, rules)
                    if inner_changed:
                        stmt = copy.copy(stmt)
                        setattr(stmt, fname, new_inner)
                        changed = True
            for rule in rules:
                built = rule.apply(stmt, namer)
                if built is not None:
                    budget = sum(1 for _ in walk(origin)) if budget is None else budget
                    if budget == 0:
                        raise FixpointError("rewrite did not settle")
                    budget -= 1
                    pending += reversed(_locate(built, stmt))
                    changed = True
                    break
            else:
                out.append(stmt)
    return out, changed


def _assert_rewrite_matches_reference(tree: ast.Module, rules=RULES) -> None:
    namer = TempNamer.for_module(tree)
    body, _ = _recursive_rewrite_block(tree.body, namer, rules)
    result = simplify_module(tree, rules)
    assert ast.dump(ast.Module(body=body, type_ignores=[]), include_attributes=True) == ast.dump(
        ast.Module(body=result.body, type_ignores=[]), include_attributes=True)
    assert result.temporaries == namer.issued


_ELIF_SOURCES = [
    "if a:\n    x = f(g())\nelif b:\n    y = h().k()\nelif c:\n    pass\nelse:\n    z = [i for i in d]\n",
    "for i in a:\n    x = f(g(i))\nelse:\n    if b:\n        y = f()[0]\n"
    "    elif c:\n        z = lambda: g(h())\n",
    "def f(a):\n    if a:\n        return g(h(a))\n    elif a > 1:\n        if b:\n            x = k(m())\n"
    "        elif c:\n            x = n().p()\n    return 3\n",
]


@pytest.mark.parametrize("source", _ELIF_SOURCES)
def test_an_elif_chain_is_rewritten_as_recursion_rewrote_it(source):
    _assert_rewrite_matches_reference(parse_module(source))


def test_the_corpus_is_rewritten_as_recursion_rewrote_it():
    for path in corpus_files():
        try:
            tree = parse_module(path.read_text(encoding="utf-8"), str(path))
        except ParseError:
            continue
        _assert_rewrite_matches_reference(tree)
        _assert_rewrite_matches_reference(tree, CHAIN_SPLITTING)


@settings(max_examples=60, deadline=None)
@given(programs())
def test_generated_programs_are_rewritten_as_recursion_rewrote_them(source):
    _assert_rewrite_matches_reference(parse_module(source))


def test_an_elif_chain_is_rewritten_branch_by_branch():
    source = _ELIF_SOURCES[0]
    assert unparse(simplify_module(parse_module(source))) == (
        "if a:\n    _ret = g()\n    x = f(_ret)\nelif b:\n    _ret_1 = h()\n    y = _ret_1.k()\n"
        "elif c:\n    pass\nelse:\n    z = []\n    for i in d:\n        z.append(i)\n"
    )


def test_a_2900_branch_elif_chain_is_rewritten_without_recursion():
    """Built by hand: under pytest's stack the parser rejects a chain this long."""
    branches = [ast.parse(f"if x == {i}:\n    y = f(g({i}))\n").body[0] for i in range(2900)]
    for outer, inner in zip(branches, branches[1:]):
        outer.orelse = [inner]
    node, count = simplify_module(ast.Module(body=branches[:1], type_ignores=[])).body[0], 0
    while node is not None:
        count += 1
        assert [unparse(stmt) for stmt in node.body] == [f"{node.body[0].targets[0].id} = g({count - 1})",
                                                         f"y = f({node.body[0].targets[0].id})"]
        node = node.orelse[0] if node.orelse else None
    assert count == len(branches)

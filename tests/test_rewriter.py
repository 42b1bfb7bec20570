from __future__ import annotations

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lancet.frontend import ParseError, parse_module, unparse, walk
from lancet.rewriter import (
    RULES,
    FixpointError,
    RewriteRule,
    TempNamer,
    collect_identifiers,
    simplify_module,
)

from helpers import alpha_equal, corpus_files, rewrite_text, trees_equal
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
                    assert not rule.matcher(node), (path.name, rule.name)


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
                assert not rule.matcher(node)


def test_simplify_raises_on_non_terminating_rule():
    bad = RewriteRule(
        id=99,
        name="KeepsMatching",
        matcher=lambda stmt: isinstance(stmt, ast.Pass),
        builder=lambda stmt, namer: [ast.Pass(), ast.Pass()],
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
                assert not rule.matcher(node)


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
            if rule.matcher(stmt):
                rule.builder(stmt, namer)
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

from __future__ import annotations

import ast
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lancet.cfg import build_from_file, build_from_source
from lancet.rewriter import simplify_module
from lancet.frontend import parse_module, walk
from lancet.cfg import build_from_ast
from lancet.ssa import (
    MAX_FOLD_INT_BITS,
    MAX_FOLD_STR_LEN,
    AliasPair,
    ConstDict,
    alias_pairs,
    compute_ssa,
    definition_table,
    definitions,
    fold_constants,
    target_names,
    to_json_dict,
    unpack,
)

from helpers import all_cfgs, corpus_files, oracle_reaching_sites
from strategies import programs

MERGE_SOURCE = """c = 10
a = -1
if c > 0:
    a = a + 1
else:
    a = 0
total = c + a
"""


def _ssa_for(source: str):
    cfg = build_from_source("m", source)
    use_map, const = compute_ssa(cfg)
    return cfg, use_map, const


def test_merge_join_use_sets_are_exact():
    _, use_map, _ = _ssa_for(MERGE_SOURCE)
    assert use_map[3] == [{"c": {0}, "a": {1, 2}}]


def test_merge_version_numbering_follows_definition_order():
    _, _, const = _ssa_for(MERGE_SOURCE)
    assert ast.unparse(const[("a", 0)].expr) == "-1"
    assert ast.unparse(const[("a", 1)].expr) == "a + 1"
    assert ast.unparse(const[("a", 2)].expr) == "0"
    assert ast.unparse(const[("c", 0)].expr) == "10"


def test_straight_line_uses_and_kinds():
    _, use_map, const = _ssa_for("a = 1\nb = a\n")
    assert use_map[1] == [{}, {"a": {0}}]
    assert const[("a", 0)].kind == "literal"
    assert const[("b", 0)].kind == "name-reference"


def test_loop_condition_sees_both_versions():
    _, use_map, _ = _ssa_for("x = 0\nwhile x < 10:\n    x = x + 1\n")
    condition_row = use_map[2][0]
    assert condition_row == {"x": {0, 1}}


def test_augmented_assignment_is_use_and_definition():
    _, use_map, const = _ssa_for("x = 1\nx += 2\ny = x\n")
    assert use_map[1] == [{}, {"x": {0}}, {"x": {1}}]
    assert const[("x", 1)].kind == "arithmetic"
    assert ast.unparse(const[("x", 1)].expr) == "x + 2"


def test_tuple_unpacking_versions_elementwise():
    _, use_map, const = _ssa_for("a = 1\nb = 2\na, b = b, a + b\n")
    assert use_map[1][2] == {"a": {0}, "b": {0}}
    assert const[("a", 1)].kind == "name-reference"
    assert const[("b", 1)].kind == "arithmetic"


def test_unversioned_names_do_not_appear_in_use_rows():
    _, use_map, _ = _ssa_for("def f():\n    return 1\n\nx = f()\nprint(x)\n")
    rows = use_map[1]
    assert rows[1] == {}  # f and print are not versioned
    assert rows[2] == {"x": {0}}


def test_versions_are_contiguous_and_singly_defined():
    for path in corpus_files("programs"):
        cfg = build_from_file(path.stem, path)
        for sub in all_cfgs(cfg):
            _, const = compute_ssa(sub)
            by_name: dict[str, list[int]] = {}
            for name, version in const.entries:
                by_name.setdefault(name, []).append(version)
            for name, versions in by_name.items():
                assert sorted(versions) == list(range(len(versions))), (path.name, name)


def test_compute_ssa_is_deterministic():
    cfg = build_from_source("m", MERGE_SOURCE)
    first = compute_ssa(cfg)
    second = compute_ssa(cfg)
    assert first[0].per_block == second[0].per_block
    assert {k: (v.kind, v.site) for k, v in first[1].entries.items()} == {
        k: (v.kind, v.site) for k, v in second[1].entries.items()
    }


# ---------------------------------------------------------------------------
# Constant folding


def test_merge_folding_values():
    _, use_map, const = _ssa_for(MERGE_SOURCE)
    folded = fold_constants(const, use_map)
    assert folded[("c", 0)].folded_value() == 10
    assert folded[("a", 0)].folded_value() == -1
    assert folded[("a", 1)].folded_value() == 0
    assert folded[("a", 2)].folded_value() == 0
    assert not folded[("total", 0)].is_folded


def test_fold_constants_leaves_input_unchanged():
    _, use_map, const = _ssa_for("a = 1\nb = a + 1\n")
    fold_constants(const, use_map)
    assert not const[("b", 0)].is_folded


def test_call_result_stays_unknown():
    _, use_map, const = _ssa_for("x = input()\n")
    folded = fold_constants(const, use_map)
    assert folded[("x", 0)].kind == "call"
    assert not folded[("x", 0)].is_folded


def test_literal_arithmetic_folds():
    _, use_map, const = _ssa_for("y = 2 + 3\n")
    folded = fold_constants(const, use_map)
    assert folded[("y", 0)].folded_value() == 5


def test_division_by_zero_is_flagged_not_folded():
    _, use_map, const = _ssa_for("z = 1 / 0\n")
    folded = fold_constants(const, use_map)
    value = folded[("z", 0)]
    assert not value.is_folded
    assert value.fold_failed


def test_boolean_and_comparison_folding():
    _, use_map, const = _ssa_for("a = 3\nb = a > 2\nc = b and a\nd = not b\n")
    folded = fold_constants(const, use_map)
    assert folded[("b", 0)].folded_value() is True
    assert folded[("c", 0)].folded_value() == 3  # `and` yields the last operand
    assert folded[("d", 0)].folded_value() is False


def test_merged_versions_block_folding():
    source = "a = 1\nif a > 0:\n    b = 2\nelse:\n    b = 3\nc = b + 1\n"
    _, use_map, const = _ssa_for(source)
    folded = fold_constants(const, use_map)
    assert not folded[("c", 0)].is_folded


@pytest.mark.parametrize("expr, fails", [
    ("a ** (1 // 0)", False),
    ("a + 1 // 0", False),
    ("(1 // 0) ** a", True),
    ("-(1 // 0) + a", True),
    ("a - -(1 // 0)", False),
])
def test_operands_are_evaluated_in_source_order(expr, fails):
    """A two-version ``a`` stops evaluation where it is read, and a fault
    only counts when it comes first; ``**``'s left operand comes first
    although the chain runs right."""
    source = f"a = 1\nif c:\n    a = 2\nx = {expr}\n"
    _, use_map, const = _ssa_for(source)
    value = fold_constants(const, use_map)[("x", 0)]
    assert not value.is_folded
    assert value.fold_failed is fails


def test_folding_does_not_depend_on_entry_order():
    source = "x = 0\nwhile x < 3:\n    y = x\n    x = 1\nz = 2\nw = z * 3 + 4\nv = w - z\n"
    _, use_map, const = _ssa_for(source)
    shuffled = ConstDict(entries=dict(reversed(list(const.entries.items()))))
    forward = fold_constants(const, use_map)
    backward = fold_constants(shuffled, use_map)
    summary = {k: (v.folded if v.is_folded else None, v.fold_failed) for k, v in forward.items()}
    assert summary == {
        k: (v.folded if v.is_folded else None, v.fold_failed) for k, v in backward.items()
    }
    assert summary[("v", 0)] == (8, False)
    assert summary[("y", 0)] == (None, False)


_POW3_ABOVE_BOUND = next(
    k for k in itertools.count(MAX_FOLD_INT_BITS // 2) if 3**k >> MAX_FOLD_INT_BITS
)


# A step certain to exceed a bound is refused before it is computed, so the
# just-above cases wrap it in an operation that would bring the value back
# under the bound.  The 3 ** k and a + a cases pass every step and are
# refused on the definition's final value.
@pytest.mark.parametrize(
    "source, folds",
    [
        (f"x = 2 ** {MAX_FOLD_INT_BITS - 1}\n", True),
        (f"x = 2 ** {MAX_FOLD_INT_BITS} % 7\n", False),
        (f"x = 3 ** {_POW3_ABOVE_BOUND - 1}\n", True),
        (f"x = 3 ** {_POW3_ABOVE_BOUND}\n", False),
        (f"x = 1 << {MAX_FOLD_INT_BITS - 1}\n", True),
        (f"x = (1 << {MAX_FOLD_INT_BITS}) >> {MAX_FOLD_INT_BITS}\n", False),
        (f"a = 1 << {MAX_FOLD_INT_BITS // 2 - 1}\nx = a * a\n", True),
        (f"a = 1 << {MAX_FOLD_INT_BITS // 2}\nx = a * a % 7\n", False),
        (f"a = 1 << {MAX_FOLD_INT_BITS - 1}\nx = a + a\n", False),
        (f"x = 'ab' * {MAX_FOLD_STR_LEN // 2}\n", True),
        (f"x = 'ab' * {MAX_FOLD_STR_LEN // 2 + 1} == ''\n", False),
        (f"x = {MAX_FOLD_STR_LEN // 2 + 1} * 'ab' == ''\n", False),
        (f"a = 'ab' * {MAX_FOLD_STR_LEN // 2}\nx = a + 'c' == ''\n", False),
        ("x = 1 ** 10 ** 9\n", True),
        (f"x = '%{MAX_FOLD_STR_LEN}d' % 1\n", True),
        (f"x = '%{MAX_FOLD_STR_LEN + 1}d' % 1 == ''\n", False),
        (f"x = '%0{MAX_FOLD_STR_LEN + 1}x' % 1 == ''\n", False),
        (f"x = '%.{MAX_FOLD_STR_LEN + 1}f' % 1.5 == ''\n", False),
        ("x = '%*d' % 1\n", False),
        (f"x = '%%{MAX_FOLD_STR_LEN + 1}d %d' % 1\n", True),
        (f"x = {MAX_FOLD_STR_LEN + 1} % 7\n", True),
    ],
)
def test_fold_bounds(source, folds):
    _, use_map, const = _ssa_for(source)
    value = fold_constants(const, use_map)[("x", 0)]
    assert value.is_folded is folds
    assert value.fold_failed is not folds


# ---------------------------------------------------------------------------
# Alias pairs


def test_single_alias_pair():
    _, _, const = _ssa_for("b = a\n")
    assert alias_pairs(const) == [AliasPair(alias=("b", 0), target="a")]


def test_no_alias_pairs_without_name_copies():
    _, _, const = _ssa_for("b = 1\nc = b + 1\n")
    assert alias_pairs(const) == []


def test_alias_chain_in_key_order():
    _, _, const = _ssa_for("b = a\nc = b\n")
    assert alias_pairs(const) == [
        AliasPair(alias=("b", 0), target="a"),
        AliasPair(alias=("c", 0), target="b"),
    ]


# ---------------------------------------------------------------------------
# Oracle equality and dominance


def _version_of(const, name: str, site) -> int | None:
    for (n, version), value in const.entries.items():
        if n == name and value.site == site:
            return version
    return None


@pytest.mark.parametrize("path", corpus_files("programs", "rewrite"), ids=lambda p: p.name)
def test_use_sets_match_independent_oracle(path):
    module = simplify_module(parse_module(path.read_text(encoding="utf-8"), str(path)))
    top = build_from_ast(path.stem, module)
    for cfg in all_cfgs(top):
        if len(cfg.blocks) > 8:
            continue
        use_map, const = compute_ssa(cfg)
        expected = oracle_reaching_sites(cfg)
        for (bid, idx), oracle_row in expected.items():
            got_row = use_map[bid][idx]
            translated = {
                name: {_version_of(const, name, site) for site in sites}
                for name, sites in oracle_row.items()
            }
            assert got_row == translated, (path.name, cfg.name, bid, idx)


@settings(max_examples=80, deadline=None)
@given(programs())
def test_use_sets_match_independent_oracle_on_generated_programs(source):
    # Simplified first, as above: the oracle reads lambda bodies and
    # comprehension targets as uses, which the rewrite turns into functions
    # and loops.  Every CFG is checked, whatever its size.
    top = build_from_ast("m", simplify_module(parse_module(source)))
    for cfg in all_cfgs(top):
        use_map, const = compute_ssa(cfg)
        version_at = {(name, value.site): version for (name, version), value in const.items()}
        for (bid, idx), oracle_row in oracle_reaching_sites(cfg).items():
            translated = {
                name: {version_at[(name, site)] for site in sites}
                for name, sites in oracle_row.items()
            }
            assert use_map[bid][idx] == translated, (source, cfg.name, bid, idx)


def test_long_straight_line_uses_see_the_latest_definition():
    lines = ["v = 0"] + [f"v = v + {i % 7}" if i % 3 else f"w{i} = v" for i in range(1, 6000)]
    cfg = build_from_source("m", "\n".join(lines) + "\n")
    use_map, const = compute_ssa(cfg)
    (rows,) = use_map.per_block.values()
    assert len(rows) == 6000
    latest_v = 0
    for i, row in enumerate(rows[1:], start=1):
        assert row == {"v": {latest_v}}, i
        if i % 3:
            latest_v += 1
    assert len(const) == 6000


def _dominators(cfg) -> dict[int, set[int]]:
    reachable = set()
    stack = [cfg.entry]
    while stack:
        block = stack.pop()
        if block.id in reachable:
            continue
        reachable.add(block.id)
        stack.extend(e.target for e in block.exits)
    dom = {bid: set(reachable) for bid in reachable}
    dom[cfg.entry.id] = {cfg.entry.id}
    changed = True
    while changed:
        changed = False
        for bid in sorted(reachable):
            if bid == cfg.entry.id:
                continue
            preds = [
                e.source.id for e in cfg.blocks[bid].predecessors if e.source.id in reachable
            ]
            if not preds:
                continue
            new = set.intersection(*(dom[p] for p in preds)) | {bid}
            if new != dom[bid]:
                dom[bid] = new
                changed = True
    return dom


def test_singleton_use_sets_are_dominated_by_their_definition():
    for path in corpus_files("programs"):
        top = build_from_file(path.stem, path)
        for cfg in all_cfgs(top):
            use_map, const = compute_ssa(cfg)
            dom = _dominators(cfg)
            for bid, rows in use_map.per_block.items():
                if bid not in dom:
                    continue
                for idx, row in enumerate(rows):
                    for name, versions in row.items():
                        if len(versions) != 1:
                            continue
                        (version,) = versions
                        def_block, def_idx = const[(name, version)].site
                        if def_block == bid:
                            assert def_idx < idx, (path.name, name, version)
                        else:
                            assert def_block in dom[bid], (path.name, name, version)


# ---------------------------------------------------------------------------
# Serialization


def test_json_payload_shape():
    _, use_map, const = _ssa_for(MERGE_SOURCE)
    payload = to_json_dict(use_map, fold_constants(const, use_map))
    assert payload["blocks"]["3"] == [{"a": [1, 2], "c": [0]}]
    constants = payload["constants"]
    assert constants["c#0"] == {"kind": "literal", "folded": 10, "source": "10"}
    assert constants["a#1"]["folded"] == 0
    assert constants["total#0"]["folded"] is None
    assert constants["total#0"]["source"] == "c + a"


# ---------------------------------------------------------------------------
# The unpacking rule


@st.composite
def _unpack_cases(draw) -> tuple[str, str]:
    """``target = value`` source text.  The target holds distinct names,
    nested tuples and lists, and at most one starred name; the value follows
    the target's shape with int and tuple literals, filling a star with
    0-2 ints, and may fold a run of its elements into a starred list
    literal or drop or add one element."""
    names = iter(f"n{i}" for i in range(1000))
    star_left = [draw(st.booleans())]

    def target(depth: int):
        if depth == 0 or draw(st.booleans()):
            return next(names)
        elts = []
        for _ in range(draw(st.integers(1, 3))):
            if star_left[0] and draw(st.integers(0, 2)) == 0:
                star_left[0] = False
                elts.append(("*", next(names)))
            else:
                elts.append(target(depth - 1))
        return elts

    def text(parts: list[str]) -> str:
        if draw(st.booleans()):
            return "[" + ", ".join(parts) + "]"
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    def target_text(node) -> str:
        if isinstance(node, str):
            return node
        if isinstance(node, tuple):
            return "*" + node[1]
        return text([target_text(e) for e in node])

    def value_text(node) -> str:
        if not isinstance(node, list):
            return str(draw(st.integers(0, 9))) if draw(st.booleans()) else text(
                [str(draw(st.integers(0, 9))) for _ in range(draw(st.integers(1, 2)))])
        parts: list[str] = []
        for elt in node:
            if isinstance(elt, tuple):
                parts += [str(draw(st.integers(0, 9))) for _ in range(draw(st.integers(0, 2)))]
            else:
                parts.append(value_text(elt))
        if parts and draw(st.booleans()):
            i = draw(st.integers(0, len(parts) - 1))
            j = draw(st.integers(i, len(parts)))
            parts[i:j] = ["*[" + ", ".join(parts[i:j]) + "]"]
        change = draw(st.integers(0, 5))
        if change == 0 and parts:
            parts.pop()
        elif change == 1:
            parts.append("9")
        return text(parts)

    shape = target(3)
    if isinstance(shape, str):
        shape = [shape]
    return target_text(shape), value_text(shape)


@settings(max_examples=400, deadline=None)
@given(_unpack_cases())
def test_unpack_pairs_agree_with_the_interpreter(case):
    target_src, value_src = case
    source = f"{target_src} = {value_src}"
    namespace: dict = {}
    try:
        exec(source, namespace)
    except (TypeError, ValueError):  # the shapes do not fit at runtime
        return
    stmt = ast.parse(source).body[0]
    pairs = unpack(stmt.targets[0], stmt.value)
    assert sorted(name for name, _ in pairs) == sorted(
        node.id for node in ast.walk(stmt.targets[0]) if isinstance(node, ast.Name))
    for name, expr in pairs:
        if expr is not None:
            assert namespace[name] == eval(ast.unparse(expr)), (source, name)
    if "*" not in source:
        assert all(expr is not None for _, expr in pairs), source


@pytest.mark.parametrize("source, expected", [
    ("a, *b = 1, 2, 3", {"a": "1", "b": None}),
    ("*a, b = 1, 2, 3", {"a": None, "b": "3"}),
    ("a, *b, c = 1, 2", {"a": "1", "b": None, "c": "2"}),
    ("a, b, c = 1, *x, 2", {"a": "1", "b": None, "c": "2"}),
    ("a, *b = *x, 1", {"a": None, "b": None}),
    ("(a, (b, c)) = (1, (2, 3))", {"a": "1", "b": "2", "c": "3"}),
    ("a, b = 1, 2, 3", {"a": None, "b": None}),
    ("a, b = f()", {"a": None, "b": None}),
    ("x.y, z[0] = 1, 2", {}),
])
def test_unpack_pairs_from_both_ends_of_a_star(source, expected):
    stmt = ast.parse(source).body[0]
    pairs = unpack(stmt.targets[0], stmt.value)
    assert {name: expr and ast.unparse(expr) for name, expr in pairs} == expected


def test_a_starred_assignment_folds_the_names_before_the_star():
    _, use_map, const = _ssa_for("a, *b = 1, 2, 3\nc = a + 1\n")
    folded = fold_constants(const, use_map)
    assert folded[("a", 0)].folded_value() == 1
    assert folded[("c", 0)].folded_value() == 2
    assert folded[("b", 0)].kind == "unknown"


# ---------------------------------------------------------------------------
# The binding rule


def _assert_definitions_bind_target_names(module: ast.Module) -> None:
    """``definitions`` binds the names ``target_names`` reads off each
    ``Assign`` target, a name ``AugAssign``'s target and a ``for`` target."""
    for stmt in walk(module):
        if isinstance(stmt, ast.Assign):
            expected = [name for target in stmt.targets for name in target_names(target)]
        elif isinstance(stmt, (ast.For, ast.AugAssign)):
            expected = target_names(stmt.target)
        elif isinstance(stmt, ast.stmt):
            expected = []
        else:
            continue
        assert [name for name, _, _ in definitions(stmt)] == expected, ast.unparse(stmt)


def test_definitions_bind_the_target_names_on_corpus():
    for path in corpus_files():
        module = parse_module(path.read_text(encoding="utf-8"), str(path))
        _assert_definitions_bind_target_names(module)
        _assert_definitions_bind_target_names(simplify_module(module))


@settings(max_examples=100, deadline=None)
@given(programs())
def test_definitions_bind_the_target_names_on_generated_programs(source: str):
    _assert_definitions_bind_target_names(simplify_module(parse_module(source, "m.py")))


def _assert_definition_table_matches_compute_ssa(module: ast.Module) -> None:
    """``definition_table`` gives every CFG the entries ``compute_ssa`` does:
    the same keys in the same order, with the same kinds, sites and value
    nodes.  An ``x op= e`` gets a new ``x op e`` on each call, over the same ``e``."""
    for cfg in all_cfgs(build_from_ast("m", module)):
        table, (_, const) = definition_table(cfg), compute_ssa(cfg)
        assert list(table.entries) == list(const.entries), cfg.name
        for key, value in table.entries.items():
            other = const.entries[key]
            assert (value.kind, value.site) == (other.kind, other.site), (cfg.name, key)
            bid, idx = value.site
            stmt = cfg.blocks[bid].statements[idx]
            if isinstance(stmt, ast.AugAssign):
                assert value.expr.right is other.expr.right is stmt.value, (cfg.name, key)
                assert (ast.dump(value.expr, include_attributes=True)
                        == ast.dump(other.expr, include_attributes=True)), (cfg.name, key)
            else:
                assert value.expr is other.expr, (cfg.name, key)


def test_definition_table_numbers_versions_in_reverse_post_order():
    """Block 4, the ``else`` branch, precedes block 3, the ``for`` header, in
    reverse post-order, so its ``x`` is version 1 and the loop target version 2."""
    cfg = build_from_source("m", "if c:\n    x = 1\nelse:\n    x = 2\nfor x in y:\n    pass\nz = x\n")
    assert [(key, value.site, value.kind) for key, value in definition_table(cfg).entries.items()] == [
        (("x", 0), (2, 0), "literal"), (("x", 1), (4, 0), "literal"),
        (("x", 2), (3, 0), "unknown"), (("z", 0), (6, 0), "name-reference"),
    ]


def test_definition_table_matches_compute_ssa_on_corpus():
    for path in corpus_files():
        module = parse_module(path.read_text(encoding="utf-8"), str(path))
        _assert_definition_table_matches_compute_ssa(module)
        _assert_definition_table_matches_compute_ssa(simplify_module(module))


@settings(max_examples=100, deadline=None)
@given(programs())
def test_definition_table_matches_compute_ssa_on_generated_programs(source: str):
    module = parse_module(source, "m.py")
    _assert_definition_table_matches_compute_ssa(module)
    _assert_definition_table_matches_compute_ssa(simplify_module(module))


@pytest.mark.parametrize("source, expected", [
    ("a, (b, *c) = 1, (2, 3)", [("a", "1", "literal"), ("b", "2", "literal"), ("c", None, "unknown")]),
    ("x = y = f()", [("x", "f()", "call"), ("y", "f()", "call")]),
    ("x.a = s + 1", []),
    ("n += 1", [("n", "n + 1", "arithmetic")]),
    ("x[0] += 1", []),
    ("for i, j in pairs:\n    pass", [("i", None, "unknown"), ("j", None, "unknown")]),
    ("def f():\n    pass", []),
])
def test_definitions_pair_each_bound_name_with_its_value(source, expected):
    (stmt,) = ast.parse(source).body
    assert [(name, expr and ast.unparse(expr), kind) for name, expr, kind in definitions(stmt)] == expected

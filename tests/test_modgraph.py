from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lancet import modgraph
from lancet.cfg import build_from_ast
from lancet.frontend import ParseError, parse_module, walk
from lancet.modgraph import (
    ImportRelation,
    ScopeTable,
    TreeNode,
    Unresolved,
    build_dir_tree,
    build_import_graph,
    bind_arguments,
    binds_receiver,
    bind_defaults,
    build_name_context,
    call_sites,
    leaf_nodes,
    parse_imports,
    resolve_fqn,
    resolve_import,
    resolve_relative,
)
from lancet.rewriter import simplify_module
from lancet.ssa import alias_pairs, compute_ssa

from helpers import CORPUS, perfbench_gen, write_files
from strategies import programs

EXAMPLE = CORPUS / "imports" / "example"


def test_dir_tree_mirrors_example_package():
    tree = build_dir_tree(EXAMPLE)
    assert tree.name == "example"
    assert [child.name for child in tree.children] == ["module_a", "module_b", "module_c"]
    assert all(child.module is not None for child in tree.children)
    assert [child.full_name for child in tree.children] == [
        "example.module_a",
        "example.module_b",
        "example.module_c",
    ]


def test_dir_tree_empty_directory(tmp_path):
    (tmp_path / "proj").mkdir()
    tree = build_dir_tree(tmp_path / "proj")
    assert tree.children == []


def test_dir_tree_nested_packages(tmp_path):
    root = tmp_path / "pkg"
    (root / "sub").mkdir(parents=True)
    (root / "sub" / "mod.py").write_text("x = 1\n")
    (root / "sub" / "__init__.py").write_text("")
    tree = build_dir_tree(root)
    (sub,) = tree.children
    assert sub.full_name == "pkg.sub"
    names = {child.name: child.full_name for child in sub.children}
    assert names == {"__init__": "pkg.sub", "mod": "pkg.sub.mod"}


def test_dir_tree_collects_parse_errors_without_failing(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "good.py").write_text("x = 1\n")
    (root / "bad.py").write_text("def broken(:\n")
    tree = build_dir_tree(root)
    by_name = {c.name: c for c in tree.children}
    assert by_name["good"].module is not None
    assert by_name["bad"].module is None
    assert by_name["bad"].parse_error is not None
    graph = build_import_graph(root)
    assert graph.diagnostics


def test_dir_tree_rejects_missing_root(tmp_path):
    with pytest.raises(OSError):
        build_dir_tree(tmp_path / "absent")


def test_package_shadows_module_of_same_name(tmp_path):
    root = tmp_path / "proj"
    (root / "sub").mkdir(parents=True)
    (root / "sub" / "__init__.py").write_text("")
    (root / "sub.py").write_text("x = 1\n")
    tree = build_dir_tree(root)
    names = [child.name for child in tree.children]
    assert names.count("sub") == 1
    (sub,) = tree.children
    assert sub.path.endswith("sub")


def test_parse_imports_relations():
    tree = build_dir_tree(EXAMPLE)
    module_dict = parse_imports(tree)
    a_rels = module_dict["example.module_a"]
    assert [r.imported_module for r in a_rels] == ["example.module_b", "example.module_c"]
    assert all(r.relative_level == 1 for r in a_rels)
    assert a_rels[0].symbols == (("B", None),)

    c_rels = module_dict["example.module_c"]
    assert c_rels == [
        ImportRelation(
            importer="example.module_c",
            imported_module="os",
            symbols=(("os", None),),
            relative_level=0,
        )
    ]


def test_parse_imports_no_imports(tmp_path):
    root = tmp_path / "p"
    root.mkdir()
    (root / "plain.py").write_text("x = 1\n")
    module_dict = parse_imports(build_dir_tree(root))
    assert module_dict["p.plain"] == []


def test_internal_edges_and_leaves():
    graph = build_import_graph(EXAMPLE)
    assert graph.internal_edges == {
        ("example.module_a", "example.module_b"),
        ("example.module_a", "example.module_c"),
        ("example.module_b", "example.module_c"),
    }
    assert [n.full_name for n in leaf_nodes(graph)] == ["example.module_c"]


def test_package_importing_its_own_submodule_has_no_self_edge(tmp_path):
    root = tmp_path / "app"
    (root / "core").mkdir(parents=True)
    (root / "core" / "__init__.py").write_text("from . import engine\n")
    (root / "core" / "engine.py").write_text("x = 1\n")
    graph = build_import_graph(root)
    assert graph.internal_edges == {("app.core", "app.core.engine")}
    assert [n.full_name for n in leaf_nodes(graph)] == ["app.core.engine"]


@pytest.mark.parametrize("source,edges", [
    ("import app\n", {("app.main", "app")}),
    ("from app import app\n", {("app.main", "app"), ("app.main", "app.app")}),
    ("import app.app\n", {("app.main", "app.app")}),
])
def test_an_import_draws_edges_to_the_modules_it_loads(tmp_path, source, edges):
    """Edges follow ``resolve_import``: ``import app`` loads the package, not
    a submodule that happens to share its name."""
    root = tmp_path / "app"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "app.py").write_text("x = 1\n")
    (root / "main.py").write_text(source)
    assert build_import_graph(root).internal_edges == edges


def test_every_non_leaf_has_an_outgoing_internal_edge():
    graph = build_import_graph(EXAMPLE)
    leaves = {n.full_name for n in leaf_nodes(graph)}
    importers = {importer for importer, _ in graph.internal_edges}
    for node in graph.tree.iter_modules():
        if node.module is None:
            continue
        if node.full_name not in leaves:
            assert node.full_name in importers


def test_mutually_importing_modules_have_no_leaves(tmp_path):
    root = tmp_path / "cycle"
    root.mkdir()
    (root / "one.py").write_text("from .two import f\n\ndef g():\n    return f\n")
    (root / "two.py").write_text("from .one import g\n\ndef f():\n    return g\n")
    graph = build_import_graph(root)
    assert leaf_nodes(graph) == []


def test_unresolvable_relative_import_is_diagnosed(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "mod.py").write_text("from ...far import thing\n")
    graph = build_import_graph(root)
    assert graph.diagnostics
    (relation,) = graph.module_dict["proj.mod"]
    assert not relation.resolved


@pytest.mark.parametrize("source,importer,is_package,entries", [
    # The packages above the named module load, except those holding the importer.
    ("import p.a.b", "p.m", False, [("p.a.b", [("p", "p")], ["p.a.b", "p.a"])]),
    ("import p.a.b as c", "q.m", False, [("p.a.b", [("c", "p.a.b")], ["p.a.b", "p", "p.a"])]),
    ("from p.a.b import f", "p.q.m", False, [("p.a.b", [("f", "p.a.b.f")], ["p.a.b", "p.a", "p.a.b.f"])]),
    ("from app import core", "app.core.engine", False, [("app", [("core", "app.core")], ["app"])]),
    # The named module loads even when it holds the importer, but never the importer itself.
    ("from .. import util", "p.q.m", False, [("p", [("util", "p.util")], ["p", "p.util"])]),
    ("from . import x", "p", True, [("p", [("x", "p.x")], ["p.x"])]),
    ("from .m import *", "p.n", False, [("p.m", [], ["p.m"])]),
    ("import os.path, json", "p.m", False,
     [("os.path", [("os", "os")], ["os.path", "os"]), ("json", [("json", "json")], ["json"])]),
], ids=lambda value: value if isinstance(value, str) else None)
def test_an_import_binds_and_loads_by_one_rule(source, importer, is_package, entries):
    (stmt,) = parse_module(source).body
    assert resolve_import(stmt, importer, is_package, "p/m.py") == (entries, None)


def test_an_escaping_import_loads_nothing_and_gets_one_located_line():
    (stmt,) = parse_module("\n\nfrom ... import x\n").body
    assert resolve_import(stmt, "p.q.m", False, "p/q/m.py") == (
        [], "p/q/m.py:3: relative import reaches above the project root")


def test_resolve_relative_anchoring():
    assert resolve_relative("example.module_a", False, 1, "module_b") == "example.module_b"
    assert resolve_relative("pkg.sub", True, 1, "mod") == "pkg.sub.mod"
    assert resolve_relative("pkg.sub.mod", False, 2, "other") == "pkg.other"
    assert resolve_relative("pkg.mod", False, 0, "os.path") == "os.path"
    assert resolve_relative("pkg.mod", False, 3, "x") is None


def _branching_resolve_relative(importer, is_package, level, module):
    """Reference: anchoring step by step, as ``resolve_relative`` once did."""
    if level == 0:
        return module
    parts = importer.split(".")
    if not is_package:
        parts = parts[:-1]
    strip = level - 1
    if strip > len(parts):
        return None
    if strip:
        parts = parts[:-strip]
    if not parts and not module:
        return None
    if module:
        parts = parts + module.split(".")
    return ".".join(parts) if parts else None


def test_resolve_relative_matches_the_branching_reference():
    for importer in ("a", "a.b", "a.b.c", "w.x.y.z"):
        for is_package in (False, True):
            for level in range(6):
                for module in (None, "m", "m.n"):
                    args = (importer, is_package, level, module)
                    assert resolve_relative(*args) == _branching_resolve_relative(*args), args


def test_an_import_in_a_function_binds_only_in_that_function():
    table = ScopeTable()
    table.add_module(parse_module("def f():\n    import os.path\n\n\ndef g():\n    pass\n"), "m")
    assert table.functions["m.f"].bindings == {"os": ("import", "os")}
    assert "os" not in table.functions["m.g"].bindings
    assert table.functions["m.g"].lookup("os") is None
    assert table.modules["m"].bindings == {"f": ("slot", "m.f"), "g": ("slot", "m.g")}


def test_a_package_init_binds_its_relative_imports_under_the_package():
    module = parse_module("from . import x\nfrom .y import z as w\n")
    table = ScopeTable()
    table.add_module(module, "pkg", is_package=True)
    assert table.modules["pkg"].bindings == {"x": ("import", "pkg.x"), "w": ("import", "pkg.y.z")}
    # In a plain module named "pkg", ``from . import x`` reaches above the root.
    table.add_module(module, "pkg")
    assert table.modules["pkg"].bindings == {"w": ("import", "y.z")}


# ---------------------------------------------------------------------------
# FQN resolution


def _ctx_for(source: str, module_name: str = "m"):
    tree = parse_module(source)
    return tree, build_name_context(tree, module_name)


def test_from_import_binding():
    tree, ctx = _ctx_for("from os import getcwd\ngetcwd()\n")
    (call,) = call_sites(tree)
    assert resolve_fqn(call.func, ctx) == "os.getcwd"


def test_import_alias_substitution():
    tree, ctx = _ctx_for("import a.b as ab\nab.f()\n")
    (call,) = call_sites(tree)
    assert resolve_fqn(call.func, ctx) == "a.b.f"


def test_alias_pair_composition():
    tree, ctx = _ctx_for("from os import getcwd\ng = getcwd\ng()\n")
    (call,) = call_sites(tree)
    assert resolve_fqn(call.func, ctx) == "os.getcwd"


def test_local_definitions_resolve_to_module_qualified_names():
    tree, ctx = _ctx_for("def f():\n    return 1\n\nf()\n")
    (call,) = call_sites(tree)
    assert resolve_fqn(call.func, ctx) == "m.f"


def test_unknown_roots_are_unresolved_with_syntactic_text():
    tree, ctx = _ctx_for("mystery.fn()\n")
    (call,) = call_sites(tree)
    result = resolve_fqn(call.func, ctx)
    assert isinstance(result, Unresolved)
    assert result == "mystery.fn"


def test_star_imports_do_not_bind_names():
    tree, ctx = _ctx_for("from os import *\ngetcwd()\n")
    (call,) = call_sites(tree)
    assert isinstance(resolve_fqn(call.func, ctx), Unresolved)


def test_resolution_is_idempotent_on_qualified_names():
    _, ctx = _ctx_for("x = 1\n")
    expr = ast.parse("os.path.join", mode="eval").body
    once = resolve_fqn(expr, ctx)
    assert once == "os.path.join"
    again = resolve_fqn(ast.parse(str(once), mode="eval").body, ctx)
    assert again == once


def test_non_dotted_callees_are_unresolved():
    tree, ctx = _ctx_for("(lambda: 1)()\n")
    (call,) = call_sites(tree)
    assert isinstance(resolve_fqn(call.func, ctx), Unresolved)


# ---------------------------------------------------------------------------
# The fqn alias map against SSA alias pairs (the way ``lancet fqn`` built it
# before it stopped building a CFG and SSA)

def _ssa_alias_map(tree: ast.Module) -> dict[str, str]:
    _, const = compute_ssa(build_from_ast("m", tree))
    targets: dict[str, set[str]] = {}
    for pair in alias_pairs(const):
        targets.setdefault(pair.alias[0], set()).add(pair.target)
    return {name: next(iter(found)) for name, found in targets.items() if len(found) == 1}


def _assert_alias_map_matches_ssa(source: str) -> None:
    tree = parse_module(source)
    assert build_name_context(tree, "m").alias_map == _ssa_alias_map(tree)


def _parsable_corpus_files() -> list[Path]:
    out = []
    for path in sorted(CORPUS.rglob("*.py")):
        try:
            parse_module(path.read_text(encoding="utf-8"))
        except (ParseError, UnicodeDecodeError):
            continue
        out.append(path)
    return out


@pytest.mark.parametrize("path", _parsable_corpus_files(), ids=lambda p: p.name)
def test_alias_map_matches_ssa_alias_pairs_on_corpus(path):
    _assert_alias_map_matches_ssa(path.read_text(encoding="utf-8"))


def test_alias_map_matches_ssa_alias_pairs_on_workloads(monkeypatch):
    gen = perfbench_gen(monkeypatch)
    checked = 0
    for seed in (1, 2, 3, 7):
        for generate in gen.GENERATORS.values():
            for text in generate(seed).files.values():
                _assert_alias_map_matches_ssa(text)
                checked += 1
    assert checked > 100


@settings(max_examples=300, deadline=None)
@given(programs())
def test_alias_map_matches_ssa_alias_pairs_on_generated_programs(source):
    _assert_alias_map_matches_ssa(source)


# ---------------------------------------------------------------------------
# Import relations from the statement lists against a walk of every node


def _assert_relations_match_full_walk(tree: ast.Module, monkeypatch) -> None:
    every_stmt = [node for node in walk(tree) if isinstance(node, ast.stmt)]
    assert list(modgraph._statements(tree)) == every_stmt
    node = TreeNode("m", "pkg.sub.m", "pkg/sub/m.py", module=tree, is_module=True)
    relations = modgraph._relations_for(node)
    with monkeypatch.context() as patched:
        patched.setattr(modgraph, "_statements", lambda module: every_stmt)
        assert modgraph._relations_for(node) == relations


@pytest.mark.parametrize("path", _parsable_corpus_files(), ids=lambda p: p.name)
def test_import_relations_match_a_full_walk_on_corpus(path, monkeypatch):
    tree = parse_module(path.read_text(encoding="utf-8"))
    _assert_relations_match_full_walk(tree, monkeypatch)
    _assert_relations_match_full_walk(simplify_module(tree), monkeypatch)


@settings(max_examples=200, deadline=None)
@given(programs())
def test_import_relations_match_a_full_walk_on_generated_programs(source):
    tree = parse_module(source)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_relations_match_full_walk(tree, monkeypatch)
        _assert_relations_match_full_walk(simplify_module(tree), monkeypatch)


def test_import_relations_match_a_full_walk_on_the_package(tmp_path, monkeypatch):
    workload = perfbench_gen(monkeypatch).gen_package(1)
    write_files(tmp_path, workload.files)
    graph = build_import_graph(tmp_path / workload.facts["root"])
    relations = 0
    for node in graph.tree.iter_modules():
        _assert_relations_match_full_walk(node.module, monkeypatch)
        relations += len(graph.module_dict[node.full_name])
    assert relations > 100


def test_alias_map_takes_starred_and_nested_copies():
    _, ctx = _ctx_for("from os import getcwd, sep\na, *b = getcwd, sep, sep\n(c, (d, e)) = (1, (a, b))\n")
    assert ctx.alias_map == {"a": "getcwd", "d": "a", "e": "b"}


# ---------------------------------------------------------------------------
# Argument binding: one rule for every analysis


def _pairs(call_source: str, params: list[str]) -> dict[str, list[str | None]]:
    call = ast.parse(call_source, mode="eval").body
    out: dict[str, list[str | None]] = {}
    for name, arg in bind_arguments(call, params):
        out.setdefault(name, []).append(None if arg is None else ast.unparse(arg))
    return out


@pytest.mark.parametrize("call_source, expected", [
    ("f(1, 2)", {"a": ["1"], "b": ["2"]}),
    ("f(1, c=2)", {"a": ["1"], "c": ["2"]}),
    ("f(1, 2, 3, 4)", {"a": ["1"], "b": ["2"], "c": ["3"]}),
    ("f(*xs, 's')", {"a": [None, "'s'"], "b": [None, "'s'"], "c": [None, "'s'"]}),
    ("f(1, *xs, 2)", {"a": ["1"], "b": [None, "2"], "c": [None, "2"]}),
    ("f(1, **kw)", {"a": ["1"], "b": [None], "c": [None]}),
    ("f(1, x=2)", {"a": ["1"]}),
])
def test_bind_arguments_pairs_in_order_up_to_a_star(call_source, expected):
    assert _pairs(call_source, ["a", "b", "c"]) == expected


def test_bind_defaults_pairs_the_last_positional_parameters():
    node = ast.parse("def f(a, b=1, /, c=2, *, d=3):\n    pass\n").body[0]
    assert [(name, ast.literal_eval(d)) for name, d in bind_defaults(node)] == [("c", 2), ("b", 1)]


@st.composite
def _binding_cases(draw):
    """A def of up to four positional parameters, the last ones defaulted
    to strings, and a call of it that mixes distinct int literals as plain,
    ``*[...]``, keyword and ``**{...}`` arguments."""
    params = [f"p{i}" for i in range(draw(st.integers(0, 4)))]
    defaulted = draw(st.integers(0, len(params)))
    signature = [p if i < len(params) - defaulted else f"{p}='d'" for i, p in enumerate(params)]
    literals = iter(range(10, 100))
    args = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            args.append(str(next(literals)))
        else:
            args.append("*[" + ", ".join(str(next(literals)) for _ in range(draw(st.integers(0, 2)))) + "]")
    names = st.sampled_from(params)
    for _ in range(draw(st.integers(0, 3 if params else 0))):
        if draw(st.booleans()):
            args.append(f"{draw(names)}={next(literals)}")
        else:
            keys = draw(st.lists(names, max_size=2, unique=True))
            args.append("**{" + ", ".join(f"'{key}': {next(literals)}" for key in keys) + "}")
    return params, f"def f({', '.join(signature)}):\n    return locals()\n", f"f({', '.join(args)})"


@settings(max_examples=600, deadline=None)
@given(_binding_cases())
def test_bind_arguments_agree_with_the_interpreter(case):
    params, def_source, call_source = case
    namespace: dict = {}
    try:
        exec(f"{def_source}result = {call_source}\n", namespace)
    except (SyntaxError, TypeError):  # a repeated keyword, or the call does not fit the def
        return
    call = ast.parse(call_source, mode="eval").body
    pairs = bind_arguments(call, params)
    passed = {name: value for name, value in namespace["result"].items() if value != "d"}
    defaults = {name: ast.literal_eval(d) for name, d in bind_defaults(ast.parse(def_source).body[0])}
    assert all(defaults.get(name) == "d" for name in namespace["result"].keys() - passed.keys())
    # Every star here is a literal, so the pairs are exactly the interpreter's.
    assert sorted(name for name, _ in pairs) == sorted(passed), call_source
    assert all(ast.literal_eval(arg) == passed[name] for name, arg in pairs), call_source
    assert bind_arguments(call, ["self", *params], bound=True) == pairs


@pytest.mark.parametrize("call_source, expected", [
    ("f(*[1, 2], 3)", {"a": ["1"], "b": ["2"], "c": ["3"]}),
    ("f(*(1,), *[], c=3)", {"a": ["1"], "c": ["3"]}),
    ("f(**{'b': 2, 'c': 3})", {"b": ["2"], "c": ["3"]}),
    ("f(*[*xs], 2)", {"a": [None, "2"], "b": [None, "2"], "c": [None, "2"]}),
    ("f(1, **{**kw})", {"a": ["1"], "b": [None], "c": [None]}),
])
def test_bind_arguments_expands_literal_stars(call_source, expected):
    assert _pairs(call_source, ["a", "b", "c"]) == expected


_RECEIVERS = (
    "class C:\n    def m(self, x):\n        pass\n\n"
    "    @classmethod\n    def cm(cls, x):\n        pass\n\n"
    "    @staticmethod\n    def sm(x):\n        pass\n\n"
    "    def bare():\n        pass\n\n\n"
    "def f(x):\n    pass\n"
)


@pytest.mark.parametrize("name, receiver, through_instance, through_class", [
    ("r.C.m", "inst", True, False),
    ("r.C.cm", "class", True, True),
    ("r.C.sm", None, False, False),
    ("r.C.bare", None, False, False),
    ("r.f", None, False, False),
])
def test_a_call_passes_a_receiver_by_the_callee_and_how_the_call_reaches_it(
        name, receiver, through_instance, through_class):
    table = ScopeTable()
    table.add_module(parse_module(_RECEIVERS), "r")
    callee = table.functions[name]
    assert callee.receiver == receiver
    assert binds_receiver(callee, "inst") is through_instance
    assert binds_receiver(callee, "class") is through_class
    assert binds_receiver(callee, None) is False
    assert callee.arguments == callee.params[through_instance:]

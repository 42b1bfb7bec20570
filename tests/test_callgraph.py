from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from lancet import callgraph
from lancet.callgraph import analyze, output_edges, output_mods, to_simple_json
from lancet.cfg import head_exprs, iter_eager
from lancet.cli import main
from lancet.typeinfer import infer_types

from helpers import CORPUS, corpus_files, perfbench_gen, round_robin, trace_call_edges, write_files
from strategies import programs

CG = CORPUS / "callgraph"
EXAMPLE = CORPUS / "imports" / "example"

GOLDEN_SIMPLE_JSON = {
    "direct_calls.py": {
        "direct_calls": ["direct_calls.f"],
        "direct_calls.f": ["direct_calls.g"],
        "direct_calls.g": [],
    },
    "higher_order.py": {
        "higher_order": ["higher_order.g"],
        "higher_order.g": [],
    },
    "nested_defs.py": {
        "nested_defs": ["nested_defs.outer"],
        "nested_defs.outer": ["nested_defs.outer.inner"],
        "nested_defs.outer.inner": [],
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SIMPLE_JSON), ids=lambda n: n)
def test_golden_simple_json(name):
    graph = analyze([CG / name])
    expected = json.dumps(GOLDEN_SIMPLE_JSON[name], sort_keys=True, indent=2) + "\n"
    assert to_simple_json(graph) == expected


def test_direct_call_edges():
    graph = analyze([CG / "direct_calls.py"])
    assert output_edges(graph) == [
        ("direct_calls", "direct_calls.f"),
        ("direct_calls.f", "direct_calls.g"),
    ]


def test_function_passed_as_argument():
    graph = analyze([CG / "function_argument.py"])
    edges = set(output_edges(graph))
    assert ("function_argument.apply", "function_argument.target") in edges


def test_function_returned_from_factory():
    graph = analyze([CG / "returned_function.py"])
    edges = set(output_edges(graph))
    assert ("returned_function", "returned_function.worker") in edges
    assert ("returned_function", "returned_function.factory") in edges


def test_methods_and_instantiation():
    graph = analyze([CG / "methods.py"])
    edges = set(output_edges(graph))
    assert ("methods", "methods.Greeter") in edges
    assert ("methods", "methods.Greeter.__init__") in edges
    assert ("methods", "methods.Greeter.hello") in edges
    assert ("methods.Greeter.hello", "methods.Greeter.bump") in edges


def test_recursion_self_edge():
    graph = analyze([CG / "recursion.py"])
    assert ("recursion.countdown", "recursion.countdown") in set(output_edges(graph))


def test_conditional_definitions_merge_value_sets():
    graph = analyze([CG / "conditional_def.py"])
    callees = graph.edges["conditional_def"]
    assert "conditional_def.solve" in callees


def test_empty_module(tmp_path):
    path = tmp_path / "vacant.py"
    path.write_text("")
    graph = analyze([path])
    assert output_edges(graph) == []
    assert output_mods(graph) == (["vacant"], [])
    assert to_simple_json(graph) == '{\n  "vacant": []\n}\n'


def test_duplicate_call_sites_collapse_to_one_edge(tmp_path):
    path = tmp_path / "dup.py"
    path.write_text("def g():\n    pass\n\ng()\ng()\ng()\n")
    graph = analyze([path])
    assert output_edges(graph) == [("dup", "dup.g")]


def test_external_module_via_plain_import(tmp_path):
    path = tmp_path / "uses_os.py"
    path.write_text("import os\n\nos.getcwd()\n")
    graph = analyze([path])
    assert output_mods(graph) == (["uses_os"], ["os"])
    assert ("uses_os", "os.getcwd") in set(output_edges(graph))


def test_unresolved_dotted_import_is_external(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import a.b\n")
    graph = analyze([path])
    assert output_mods(graph) == (["m"], ["a.b"])


def test_builtin_calls_are_dropped(tmp_path):
    path = tmp_path / "plain.py"
    path.write_text("print(len([1, 2]))\n")
    graph = analyze([path])
    assert output_edges(graph) == []


def test_package_analysis_follows_relative_imports():
    graph = analyze([EXAMPLE / "module_a.py"], package_root=EXAMPLE)
    internal, external = output_mods(graph)
    assert internal == ["example.module_a", "example.module_b", "example.module_c"]
    assert external == ["os"]


def test_package_with_subdirectories(tmp_path):
    root = tmp_path / "app"
    (root / "sub").mkdir(parents=True)
    (root / "sub" / "__init__.py").write_text("")
    (root / "sub" / "util.py").write_text("def helper():\n    pass\n")
    (root / "main.py").write_text(
        "from .sub.util import helper\n\ndef run():\n    helper()\n\nrun()\n"
    )
    graph = analyze([root / "main.py"], package_root=root)
    edges = set(output_edges(graph))
    assert ("app.main.run", "app.sub.util.helper") in edges
    internal, external = output_mods(graph)
    assert "app.sub.util" in internal
    assert external == []


def test_relative_import_inside_a_package_function(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("def f():\n    from .m import g\n    return g()\n")
    (root / "m.py").write_text("def g():\n    return 1\n")
    (root / "main.py").write_text("from . import f\n\nf()\n")
    edges = set(output_edges(analyze([], package_root=root)))
    assert ("pkg.f", "pkg.m.g") in edges
    assert ("pkg.f", "m.g") not in edges


def test_unparsable_module_is_reported_once(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "bad.py").write_text("def broken(:\n")
    (root / "a.py").write_text("from .bad import x\n")
    (root / "b.py").write_text("from .bad import y\n")
    graph = analyze([], package_root=root)
    skipped = [d for d in graph.diagnostics if str(root / "bad.py") in d]
    assert skipped == [f"{root / 'bad.py'}:1:11: invalid syntax"]


def test_missing_entry_point_raises():
    with pytest.raises(FileNotFoundError):
        analyze([CG / "no_such_file.py"])


def test_unparsable_entry_is_skipped_with_diagnostic(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("def f():\n    pass\n\nf()\n")
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    graph = analyze([good, bad])
    assert ("good", "good.f") in set(output_edges(graph))
    assert graph.diagnostics


def test_dynamic_features_are_diagnosed(tmp_path):
    path = tmp_path / "dyn.py"
    path.write_text("def f():\n    pass\n\neval(\"f()\")\ngetattr(f, '__name__')\n")
    graph = analyze([path])
    assert len([d for d in graph.diagnostics if "dynamic feature" in d]) == 2


def test_analysis_is_deterministic():
    first = analyze([CG / "methods.py"])
    second = analyze([CG / "methods.py"])
    assert to_simple_json(first) == to_simple_json(second)
    assert output_edges(first) == output_edges(second)


def test_value_sets_are_stable_at_fixpoint():
    graph = analyze([CG / "higher_order.py"])
    slot = "higher_order.h"
    assert graph.assignment_graph.value_sets[slot] == {("func", "higher_order.g")}


def test_node_kinds():
    graph = analyze([CG / "methods.py"])
    assert graph.nodes["methods"] == "module"
    assert graph.nodes["methods.Greeter"] == "class"
    assert graph.nodes["methods.Greeter.hello"] == "function"
    assert set(graph.nodes) == set(graph.edges)


@pytest.mark.parametrize("path", corpus_files("callgraph", "typeinfer", "programs"), ids=lambda p: p.name)
def test_traced_edges_are_a_subset_of_computed_edges(path: Path):
    traced = trace_call_edges(path)
    computed = set(output_edges(analyze([path])))
    missing = traced - computed
    assert not missing, f"{path.name}: traced edges not covered: {sorted(missing)}"


def _return_chain(n: int) -> str:
    """``f0`` returns ``f1()``, ..., ``f<n>`` returns ``g``; ``h = f0()`` then
    calls ``g``, a value that flows back through ``n`` returns."""
    defs = [f"def f{i}():\n    return f{i + 1}()\n" for i in range(n)]
    return "\n".join([*defs, f"def f{n}():\n    return g\n", "def g():\n    pass\n",
                      "h = f0()\nh()\n"])


def test_deep_return_chain_reaches_its_callee(tmp_path, capsys):
    path = tmp_path / "chain.py"
    path.write_text(_return_chain(1200))
    assert main(["callgraph", "--entry", str(path), "--format", "edges"]) == 0
    out, err = capsys.readouterr()
    assert "chain -> chain.g" in out.splitlines()
    assert err == ""


def _evaluated(monkeypatch) -> list:
    """The statements ``_Analyzer._evaluate`` runs from now on, in order."""
    evaluated = []
    evaluate = callgraph._Analyzer._evaluate

    def counted(self, scope, stmt):
        evaluated.append(stmt)
        evaluate(self, scope, stmt)

    monkeypatch.setattr(callgraph._Analyzer, "_evaluate", counted)
    return evaluated


def test_return_chain_evaluations_are_linear(tmp_path, monkeypatch):
    """Each statement is evaluated once, plus once more per growth of a slot
    it read: on a return chain that is linear in the chain's length."""
    path = tmp_path / "chain.py"
    path.write_text(_return_chain(800))
    evaluated = _evaluated(monkeypatch)
    analyzer = _loaded(path)
    analyzer.solve()
    statements = sum(len(scope.statements) for scope in analyzer.table.scopes)
    grown = sum(1 for values in analyzer.values.values() if values)
    assert len(evaluated) <= statements + grown == 3210
    assert ("chain", "chain.g") in analyzer.call_edges


def test_a_literal_from_a_later_caller_costs_the_call_graph_no_evaluation(tmp_path, monkeypatch):
    """``run``, defined after ``f``, passes ``f`` a literal.  A call-graph run
    keeps no tags, so ``f``'s ``a`` does not grow and ``return a`` is not
    evaluated again: each statement is evaluated once.  Type inference still
    types ``a`` from the literal."""
    path = tmp_path / "late.py"
    path.write_text("def f(a):\n    return a\n\n\ndef run():\n    return f(1)\n")
    evaluated = _evaluated(monkeypatch)
    assert ("late.run", "late.f") in set(output_edges(analyze([path])))
    assert len(evaluated) == sum(len(scope.statements) for scope in _loaded(path).table.scopes) == 4
    evaluated.clear()
    [a] = [r for r in infer_types("t", path) if r.function == "f" and r.parameter == "a"]
    assert a.type == {"int"}
    assert len(evaluated) == 6  # ``return a`` and ``return f(1)`` again, as ``a`` and ``f``'s return grow


def test_the_call_graph_evaluates_each_statement_of_a_package_once(tmp_path, monkeypatch):
    """On the ``package`` benchmark's seed 1 the call graph evaluates each of
    its 4,991 statements once; type inference, which keeps tags, 5,901 times."""
    workload = perfbench_gen(monkeypatch).gen_package(1)
    write_files(tmp_path, workload.files)
    root = tmp_path / workload.facts["root"]
    evaluated = _evaluated(monkeypatch)
    analyze([], root)
    assert len(evaluated) == len(set(evaluated)) == 4991
    evaluated.clear()
    infer_types("t", root)
    assert len(evaluated) == 5901


def _loaded(path: Path) -> callgraph._Analyzer:
    analyzer = callgraph._Analyzer(None)
    analyzer.load(path.resolve(), path.stem)
    return analyzer


def _round_robin(path: Path) -> callgraph._Analyzer:
    analyzer = _loaded(path)
    round_robin(analyzer)
    return analyzer


def _assert_worklist_matches_round_robin(path: Path) -> None:
    expected = _round_robin(path)
    actual = _loaded(path)
    actual.solve()
    assert actual.values == expected.values
    assert actual.call_edges == expected.call_edges
    assert actual.diagnostics == expected.diagnostics


@pytest.mark.parametrize(
    "path", corpus_files("callgraph", "programs"), ids=lambda p: p.name
)
def test_worklist_matches_round_robin_on_corpus(path: Path):
    _assert_worklist_matches_round_robin(path)


@settings(max_examples=60, deadline=None)
@given(programs())
def test_worklist_matches_round_robin_on_generated_programs(tmp_path_factory, source):
    path = tmp_path_factory.mktemp("generated") / "generated.py"
    path.write_text(source)
    _assert_worklist_matches_round_robin(path)


def _solved(entry: Path, tags: bool) -> callgraph._Analyzer:
    """An analyzer solved on a file, or on every module under a directory;
    with tags on it is type inference's, before type inference seeds it."""
    analyzer = callgraph._Analyzer(entry if entry.is_dir() else None, tags=tags)
    for name, path in analyzer.files.items() if entry.is_dir() else [(entry.stem, entry)]:
        analyzer.load(path, name)
    analyzer.solve()
    return analyzer


def _assert_tags_make_no_edge(entry: Path) -> None:
    """Tags off or on, the analyzer draws the same edges, reports the same
    diagnostics and loads the same modules; with tags off it keeps none."""
    untagged, tagged = _solved(entry, tags=False), _solved(entry, tags=True)
    assert untagged.call_edges == tagged.call_edges
    assert list(untagged.diagnostics) == list(tagged.diagnostics)
    assert untagged.table.modules.keys() == tagged.table.modules.keys()
    assert untagged.external_mods == tagged.external_mods
    assert all(kind != "type" for values in untagged.values.values() for kind, _ in values)


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: f"{p.parent.name}/{p.name}")
def test_tags_make_no_edge_on_corpus_files(path: Path):
    _assert_tags_make_no_edge(path)


@pytest.mark.parametrize("root", [CORPUS, *sorted(p for p in CORPUS.rglob("*") if p.is_dir())],
                         ids=lambda root: str(root.relative_to(CORPUS.parent)))
def test_tags_make_no_edge_on_corpus_directories(root: Path):
    _assert_tags_make_no_edge(root)


@settings(max_examples=60, deadline=None)
@given(programs())
def test_tags_make_no_edge_on_generated_programs(tmp_path_factory, source):
    path = tmp_path_factory.mktemp("generated") / "generated.py"
    path.write_text(source)
    _assert_tags_make_no_edge(path)


def test_a_starred_assignment_pairs_the_names_before_the_star(tmp_path):
    path = tmp_path / "star.py"
    path.write_text(
        "def f():\n    pass\n\n\ndef g():\n    pass\n\n\ndef h():\n    pass\n\n\n"
        "a, *b = f, g, h\na()\n*c, d = f, g, h\nd()\n"
    )
    graph = analyze([path])
    assert output_edges(graph) == [("star", "star.f"), ("star", "star.h")]


def test_an_argument_past_a_star_may_bind_an_earlier_parameter(tmp_path):
    path = tmp_path / "star_call.py"
    path.write_text("def g():\n    pass\n\n\ndef f(a, b):\n    return a()\n\n\nf(*[], g, 1)\n")
    edges = output_edges(analyze([path]))
    assert ("star_call.f", "star_call.g") in edges
    assert trace_call_edges(path) <= set(edges)


def test_a_global_assignment_in_a_function_binds_the_module_name(tmp_path):
    path = tmp_path / "glob.py"
    path.write_text("def g():\n    pass\n\n\ndef f():\n    global h\n    h = g\n\n\nf()\nh()\n")
    edges = output_edges(analyze([path]))
    assert ("glob", "glob.g") in edges
    assert trace_call_edges(path) <= set(edges)


def test_a_repeated_unresolvable_import_line_is_diagnosed_once(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "mod.py").write_text("from ...x import a; from ...y import b\n")
    graph = analyze([], package_root=root)
    assert graph.diagnostics == [f"{root / 'mod.py'}:1: relative import reaches above the project root"]


# ---------------------------------------------------------------------------
# Receivers: one rule (modgraph.binds_receiver) for every call


def test_a_method_called_through_its_class_takes_its_first_argument_as_self():
    edges = set(output_edges(analyze([CG / "receivers.py"])))
    assert ("receivers.C.m", "receivers.g") in edges
    assert ("receivers.C.m", "receivers.C") not in edges


def test_a_staticmethod_takes_no_receiver_and_a_classmethod_its_class():
    graph = analyze([CG / "decorated.py"])
    edges = set(output_edges(graph))
    assert {("decorated.C.s", "decorated.g"), ("decorated.C.make", "decorated.g"),
            ("decorated.C.make", "decorated.C")} <= edges
    assert ("decorated.C.s", "decorated.C") not in edges
    assert graph.diagnostics == []  # both decorators are modelled, so neither is reported


def test_only_a_lone_staticmethod_or_classmethod_on_a_method_goes_unreported(tmp_path):
    path = tmp_path / "wrapped.py"
    path.write_text(
        "def deco(f):\n    return f\n\n\n@staticmethod\ndef top(x):\n    return x\n\n\n"
        "class C:\n    @deco\n    def m(self):\n        pass\n\n"
        "    @deco\n    @classmethod\n    def k(cls):\n        pass\n\n"
        "    @classmethod\n    @staticmethod\n    def both():\n        pass\n\n"
        "    @staticmethod\n    def s():\n        pass\n\n\n"
        "@deco\nclass D:\n    pass\n"
    )
    lines = [int(d.split(":")[1]) for d in analyze([path]).diagnostics
             if d.endswith("decorated definition; wrapper effects ignored")]
    assert lines == [6, 12, 17, 22, 31]  # top, m, k, both (a stacked pair) and D; not s


def test_calling_an_instance_calls_its_dunder_call():
    edges = set(output_edges(analyze([CG / "receivers.py"])))
    assert ("receivers", "receivers.C.__call__") in edges
    assert ("receivers.C.__call__", "receivers.h") in edges
    assert ("receivers.C.__call__", "receivers.C") not in edges


def test_an_instance_call_reaches_no_class_or_init(tmp_path):
    path = tmp_path / "inst.py"
    path.write_text(
        "def g():\n    pass\n\n\nclass C:\n    def __init__(self):\n        pass\n\n"
        "    def __call__(self, f):\n        return f()\n\n\nc = C()\n\n\ndef run():\n    c(g)\n\n\nrun()\n"
    )
    edges = set(output_edges(analyze([path])))
    assert ("inst.run", "inst.C.__call__") in edges
    assert ("inst.run", "inst.C") not in edges
    assert ("inst.run", "inst.C.__init__") not in edges
    assert trace_call_edges(path) <= edges


def test_a_method_called_on_self_binds_its_arguments():
    edges = set(output_edges(analyze([CG / "receivers.py"])))
    assert ("receivers.C.run", "receivers.C.helper") in edges
    assert ("receivers.C.helper", "receivers.g") in edges


def test_literal_star_and_double_star_arguments_bind_their_elements():
    edges = set(output_edges(analyze([CG / "receivers.py"])))
    assert ("receivers.star", "receivers.g") in edges
    assert ("receivers.double_star", "receivers.h") in edges


def test_a_from_import_out_of_a_directory_without_init_binds_the_module(tmp_path):
    """``from . import b`` where ``.`` has no ``__init__.py``: ``b`` is the
    project module, loaded and called into like any other."""
    root = tmp_path / "proj"
    root.mkdir()
    (root / "b.py").write_text("def g(x):\n    return x\n")
    (root / "a.py").write_text("from . import b\n\n\ndef f():\n    return b.g(1)\n")
    graph = analyze([root / "a.py"], package_root=root)
    assert graph.internal_mods == {"proj.a", "proj.b"}
    assert graph.external_mods == set()
    assert ("proj.a.f", "proj.b.g") in set(output_edges(graph))
    # A call-graph run keeps no tags; type inference reads the literal's.
    [x] = [r for r in infer_types("t", root) if r.function == "g" and r.parameter == "x"]
    assert x.type == {"int"}


@pytest.mark.parametrize("simplify", [True, False], ids=["simplified", "raw"])
def test_head_nodes_are_the_eager_walk_of_the_heads_filtered(simplify):
    """``_Analyzer.head_nodes`` walks on its own stack; it keeps exactly the
    calls, operators and yields of ``iter_eager`` over ``head_exprs``, in order."""
    kinds = (ast.Call, ast.BinOp, ast.Yield)
    for path in corpus_files():
        analyzer = callgraph._Analyzer(None, simplify, tags=True)
        analyzer.load(path, path.stem)
        for stmt in (stmt for scope in analyzer.table.scopes for stmt in scope.statements):
            expected = [node for expr in head_exprs(stmt) for node in iter_eager(expr) if type(node) in kinds]
            assert [id(node) for node in analyzer.head_nodes(stmt)] == [id(node) for node in expected], path

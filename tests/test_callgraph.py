from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from lancet import callgraph
from lancet.callgraph import analyze, output_edges, output_mods, to_simple_json
from lancet.cli import main

from helpers import CORPUS, corpus_files, trace_call_edges
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


def test_node_list_kinds():
    graph = analyze([CG / "methods.py"])
    kinds = {node.fqn: node.kind for node in graph.node_list()}
    assert kinds["methods"] == "module"
    assert kinds["methods.Greeter"] == "class"
    assert kinds["methods.Greeter.hello"] == "function"
    fqns = [node.fqn for node in graph.node_list()]
    assert fqns == sorted(fqns)


@pytest.mark.parametrize(
    "path", corpus_files("callgraph", "programs"), ids=lambda p: p.name
)
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


def test_return_chain_evaluations_are_linear(tmp_path, monkeypatch):
    """Each statement is evaluated once, plus once more per growth of a slot
    it read: on a return chain that is linear in the chain's length."""
    path = tmp_path / "chain.py"
    path.write_text(_return_chain(800))
    evaluate = callgraph._Analyzer._evaluate
    calls = 0

    def counted(self, scope, stmt):
        nonlocal calls
        calls += 1
        evaluate(self, scope, stmt)

    monkeypatch.setattr(callgraph._Analyzer, "_evaluate", counted)
    analyzer = _loaded(path)
    analyzer.solve()
    statements = sum(len(scope.statements) for scope in analyzer.table.scopes)
    grown = sum(1 for values in analyzer.values.values() if values)
    assert calls <= statements + grown == 3210
    assert ("chain", "chain.g") in analyzer.call_edges


def _loaded(path: Path) -> callgraph._Analyzer:
    analyzer = callgraph._Analyzer(None)
    analyzer.load(path.resolve(), path.stem)
    return analyzer


def _round_robin(path: Path) -> callgraph._Analyzer:
    """Reference solver: evaluate every statement with the analyzer's own
    ``_evaluate``, over and over, until no value set and no edge changes."""
    analyzer = _loaded(path)
    statements = [(scope, stmt) for scope in analyzer.table.scopes for stmt in scope.statements]
    analyzer._queued = bytearray(len(statements))  # readers get queued; nothing drains them
    while True:
        before = ({slot: set(values) for slot, values in analyzer.values.items()},
                  set(analyzer.call_edges))
        for scope, stmt in statements:
            analyzer._evaluate(scope, stmt)
        if (analyzer.values, analyzer.call_edges) == before:
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

"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Tolerances and time bounds are asserted here, not just eyeballed.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lancet.callgraph import analyze, output_edges, to_simple_json
from lancet.cfg import build_from_ast, build_from_source
from lancet.cli import main as cli_main
from lancet.frontend import parse_module, unparse
from lancet.modgraph import build_import_graph, leaf_nodes
from lancet.rewriter import simplify_module
from lancet.ssa import compute_ssa, fold_constants
from lancet.typeinfer import infer_types

from helpers import (
    CORPUS,
    all_cfgs,
    alpha_equal,
    corpus_files,
    observe_types,
    oracle_reaching_sites,
    rewrite_text,
    run_program,
    run_source,
    trace_call_edges,
    trees_equal,
    type_agrees,
)

DATA = Path(__file__).parent / "data"

MERGE_SOURCE = """c = 10
a = -1
if c > 0:
    a = a + 1
else:
    a = 0
total = c + a
"""

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

DOUBLE_DEF_SOURCE = """x = 0
if x > 0:
    def solve():
        return 1
else:
    def solve():
        return 2
solve(x)
"""


def _verdict(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {label}")


def test_criterion_01_ssa_exactness():
    started = time.perf_counter()
    cfg = build_from_source("m", MERGE_SOURCE)
    use_map, _ = compute_ssa(cfg)
    assert use_map[3] == [{"c": {0}, "a": {1, 2}}]
    join = cfg.block(3)
    assert {link.source.id for link in join.predecessors} == {2, 4}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _verdict(1, f"SSA exactness on the branch-merge program ({elapsed:.3f}s)")


def test_criterion_02_rewrite_rules():
    started = time.perf_counter()
    cases = [
        ("lst = [i for i in range(N)]", "lst = []\nfor i in range(N):\n    lst.append(i)\n"),
        ("x = funA(funB())", "_ret = funB()\nx = funA(_ret)\n"),
        ("x = funA()[1:10]", "_ret = funA()\nx = _ret[1:10]\n"),
        ("fun = lambda x: x + 1", "def fun(x):\n    return x + 1\n"),
        ("f1().f2().f3()", "_ret = f1()\n_ret_1 = _ret.f2()\n_ret_1.f3()\n"),
        ("x = lambda a: a + 10", "def x(a):\n    return a + 10\n"),
    ]
    for source, expected in cases:
        rewritten = rewrite_text(source)
        assert alpha_equal(rewritten, expected), (source, rewritten)
        assert trees_equal(parse_module(rewritten), parse_module(unparse(parse_module(rewritten))))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _verdict(2, f"all five rewrite rules match their expected forms ({elapsed:.3f}s)")


def test_criterion_03_rewrite_semantics(tmp_path):
    started = time.perf_counter()
    cases = corpus_files("rewrite")
    assert len(cases) >= 20
    for path in cases:
        original_out = run_program(path)
        rewritten = rewrite_text(path.read_text(encoding="utf-8"), str(path))
        rewritten_out = run_source(rewritten, tmp_path, name=f"rw_{path.name}")
        assert original_out == rewritten_out, path.name
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _verdict(3, f"{len(cases)} rewrite cases execute identically before/after ({elapsed:.1f}s)")


def test_criterion_04_cfg_structure():
    golden = json.loads((DATA / "fib_cfg_golden.json").read_text())
    cfg = build_from_source("example", FIB_SOURCE)
    assert list(cfg.function_cfgs) == [(1, "fib")]
    fib_cfg = cfg.function_cfgs[(1, "fib")]

    def shape(c):
        return {
            "statements_per_block": {str(b.id): len(b.statements) for b in c},
            "edges": [[b.id, e.target.id] for b in c for e in b.exits],
            "final_blocks": sorted(c.final_blocks),
            "function_keys": [[bid, name] for (bid, name) in sorted(c.function_cfgs)],
        }

    assert shape(cfg) == golden["module"]
    assert shape(fib_cfg) == golden["fib"]

    double = build_from_source("m", DOUBLE_DEF_SOURCE)
    keys = sorted(double.function_cfgs)
    assert [name for _, name in keys] == ["solve", "solve"]
    assert len({bid for bid, _ in keys}) == 2
    _verdict(4, "fib yields two CFGs matching the golden file; same-name defs get distinct keys")


def test_criterion_05_reaching_definitions_oracle():
    started = time.perf_counter()
    checked = 0
    for path in corpus_files("programs", "rewrite", "callgraph", "typeinfer"):
        module = simplify_module(parse_module(path.read_text(encoding="utf-8"), str(path)))
        for cfg in all_cfgs(build_from_ast(path.stem, module)):
            if len(cfg.blocks) > 8:
                continue
            use_map, const = compute_ssa(cfg)
            version_of = {
                (name, value.site): version
                for (name, version), value in const.entries.items()
            }
            for (bid, idx), oracle_row in oracle_reaching_sites(cfg).items():
                translated = {
                    name: {version_of[(name, site)] for site in sites}
                    for name, sites in oracle_row.items()
                }
                assert use_map[bid][idx] == translated, (path.name, cfg.name, bid, idx)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 40
    assert elapsed < 10.0
    _verdict(5, f"use sets equal the independent dataflow oracle on {checked} CFGs ({elapsed:.1f}s)")


def test_criterion_06_constant_folding(tmp_path):
    cfg = build_from_source("m", MERGE_SOURCE)
    use_map, const = compute_ssa(cfg)
    folded = fold_constants(const, use_map)
    assert folded[("c", 0)].folded_value() == 10
    assert folded[("a", 0)].folded_value() == -1
    assert folded[("a", 1)].folded_value() == 0
    assert folded[("a", 2)].folded_value() == 0
    assert not folded[("total", 0)].is_folded

    # Straight-line corpus: every folded final version must equal the value
    # the reference interpreter computes.
    path = CORPUS / "programs" / "straight_line_folding.py"
    source = path.read_text(encoding="utf-8")
    line_cfg = build_from_source("m", source)
    use_map, const = compute_ssa(line_cfg)
    folded = fold_constants(const, use_map)
    module_globals: dict = {}
    exec(compile(source, str(path), "exec"), module_globals)
    last_version: dict[str, int] = {}
    for name, version in folded.entries:
        last_version[name] = max(last_version.get(name, -1), version)
    compared = 0
    for name, version in last_version.items():
        value = folded[(name, version)]
        assert value.is_folded, name
        assert value.folded_value() == module_globals[name], name
        compared += 1
    assert compared >= 10
    _verdict(6, f"pinned folds match and {compared} straight-line folds equal execution")


def test_criterion_07_import_graph():
    graph = build_import_graph(CORPUS / "imports" / "example")
    assert graph.internal_edges == {
        ("example.module_a", "example.module_b"),
        ("example.module_a", "example.module_c"),
        ("example.module_b", "example.module_c"),
    }
    project = {node.full_name for node in graph.tree.iter_modules() if node.module is not None}
    imported = {rel.imported_module for rels in graph.module_dict.values() for rel in rels if rel.resolved}
    assert imported - project == {"os"}
    assert [n.full_name for n in leaf_nodes(graph)] == ["example.module_c"]
    _verdict(7, "three-module package: pinned edges, external {os}, leaf {module_c}")


def test_criterion_08_call_graph():
    started = time.perf_counter()
    golden = {
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
    for name, expected in golden.items():
        graph = analyze([CORPUS / "callgraph" / name])
        assert to_simple_json(graph) == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    traced_programs = 0
    for path in corpus_files("callgraph", "programs"):
        traced = trace_call_edges(path)
        computed = set(output_edges(analyze([path])))
        assert traced <= computed, (path.name, sorted(traced - computed))
        traced_programs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _verdict(8, f"golden call graphs pinned; traced edges covered on {traced_programs} programs ({elapsed:.1f}s)")


def test_criterion_09_type_inference():
    program = CORPUS / "typeinfer" / "cwd_concat.py"
    records = infer_types(name=str(program), entry=program)
    returns = {r.function: r.type for r in records if r.variable is None and r.parameter is None}
    variables = {(r.function, r.variable): r.type for r in records if r.variable is not None}
    assert returns["my_function"] == {"str"}
    assert variables[("my_function", "x")] == {"str"}

    agreed = 0
    for path in corpus_files("typeinfer", "programs"):
        recs = infer_types(name=str(path), entry=path)
        observed = observe_types(path)
        for record in recs:
            if record.variable is not None:
                key = (record.function, record.variable)
                seen = (
                    observed.module_vars.get(record.variable)
                    if record.function is None
                    else observed.locals.get(key)
                )
            elif record.parameter is not None:
                seen = observed.params.get((record.function, record.parameter))
            else:
                seen = observed.returns.get(record.function)
            if seen:
                assert type_agrees(seen, record.type), (path.name, record, seen)
                agreed += 1
    assert agreed >= 40
    _verdict(9, f"getcwd program types pinned; dynamic agreement on {agreed} records")


def test_criterion_10_cli_determinism():
    merge = str(CORPUS / "programs" / "merge_branches.py")
    direct = str(CORPUS / "callgraph" / "direct_calls.py")
    cwd_program = str(CORPUS / "typeinfer" / "cwd_concat.py")
    example = str(CORPUS / "imports" / "example")
    invocations = [
        ["rewrite", merge],
        ["cfg", merge, "--format", "dot"],
        ["cfg", merge, "--format", "json"],
        ["ssa", merge],
        ["alias", merge],
        ["imports", example],
        ["fqn", cwd_program],
        ["callgraph", "--entry", direct, "--format", "simple-json"],
        ["callgraph", "--entry", direct, "--format", "edges"],
        ["typeinfer", cwd_program],
    ]

    def run(argv: list[str]) -> bytes:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
        assert code == 0, (argv, err.getvalue())
        return out.getvalue().encode()

    for argv in invocations:
        assert run(argv) == run(argv), argv
    _verdict(10, f"{len(invocations)} CLI invocations are byte-identical across runs")


def test_criterion_11_round_trip():
    files = corpus_files()
    assert len(files) >= 50
    for path in files:
        text = path.read_text(encoding="utf-8")
        first = parse_module(text, str(path))
        second = parse_module(unparse(first), str(path))
        assert trees_equal(first, second), path.name
        assert unparse(first) == unparse(second), path.name
    _verdict(11, f"parse/unparse/parse idempotent on all {len(files)} corpus files")

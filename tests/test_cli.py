from __future__ import annotations

import contextlib
import gc
import json
from pathlib import Path

import pytest

from lancet import cli
from lancet.cli import main

from helpers import CORPUS, fresh_python, perfbench_gen, write_files

EXAMPLE = CORPUS / "imports" / "example"
MERGE = CORPUS / "programs" / "merge_branches.py"
DIRECT = CORPUS / "callgraph" / "direct_calls.py"
CWD_PROGRAM = CORPUS / "typeinfer" / "cwd_concat.py"


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv,code", [
    (["cfg", str(MERGE)], 0),
    (["imports", "PROJ", "--strict"], 1),
    (["cfg", "BAD"], 2),
    (["ssa", str(MERGE), "--output", "OUT"], 0),
], ids=["exit-0", "strict-exit-1", "parse-error-exit-2", "output-file"])
def test_a_fresh_process_matches_main_in_process(capsys, tmp_path, argv, code):
    """``python -m lancet.cli`` freezes the collector before it exits; its
    stdout, stderr, exit code and ``--output`` bytes are those of ``main``."""
    write_files(tmp_path, {"bad.py": "def broken(:\n", "proj/mod.py": "from ...above import thing\n"})
    results = []
    for side in ("fresh", "in-process"):
        sink = tmp_path / f"{side}.out"
        paths = {"BAD": tmp_path / "bad.py", "PROJ": tmp_path / "proj", "OUT": sink}
        args = [str(paths.get(arg, arg)) for arg in argv]
        if side == "fresh":
            proc = fresh_python("-m", "lancet.cli", *args)
            result = (proc.returncode, proc.stdout, proc.stderr)
        else:
            result = _run(capsys, *args)
        results.append((*result, sink.read_bytes() if sink.exists() else None))
    assert results[0] == results[1]
    fresh_code, out, err, written = results[0]
    assert fresh_code == code
    assert err if code else (written if "OUT" in argv else out)


_USAGE_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_usage_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _USAGE_GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_help_and_usage_errors_match_golden(capsys, monkeypatch, case):
    """``lancet --help``, each subcommand's ``--help`` and four usage errors print, at 80
    columns, the bytes that the hand-written parser printed before ``_COMMANDS`` built it."""
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def test_run_exits_frozen_and_still_runs_atexit_handlers():
    proc = fresh_python("-c", "import atexit, gc, sys\nfrom lancet import cli\n"
                        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                        f"sys.argv = ['lancet', 'cfg', {str(MERGE)!r}]\ncli.run()\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith('digraph "merge_branches" {')
    assert proc.stdout.endswith("}\nfrozen True\n")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every subcommand is a fresh process, so what ``import lancet.cli``
    pulls in is paid on each run; ``dataclasses`` also imports ``inspect``.
    Compared against the modules loaded before, whatever ``site`` preloads."""
    proc = fresh_python("-c", "import sys\nbefore = set(sys.modules)\nimport lancet.cli\n"
                        "print(' '.join(sorted(set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "lancet.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_cfg_dot_to_stdout(capsys):
    code, out, err = _run(capsys, "cfg", str(MERGE), "--format", "dot")
    assert code == 0
    assert out.startswith('digraph "merge_branches" {')
    assert err == ""


def test_cfg_json_schema(capsys):
    code, out, _ = _run(capsys, "cfg", str(MERGE), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {"name", "blocks", "links", "functions", "classes"} == set(payload)


def test_ssa_json(capsys):
    code, out, err = _run(capsys, "ssa", str(MERGE))
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"]["3"][0] == {"a": [1, 2], "c": [0]}
    assert payload["constants"]["c#0"]["folded"] == 10
    assert err == ""


def test_alias_json(capsys, tmp_path):
    target = tmp_path / "aliases.py"
    target.write_text("b = a\nc = b\na = 1\n")
    code, out, _ = _run(capsys, "alias", str(target))
    assert code == 0
    assert json.loads(out) == [
        {"alias": "b#0", "target": "a"},
        {"alias": "c#0", "target": "b"},
    ]


def test_alias_folds_nothing(capsys, tmp_path, monkeypatch):
    """``alias`` reads each definition's kind and expression, never its folded value."""
    def _no_fold(*args):
        raise AssertionError("alias folded constants")

    monkeypatch.setattr(cli.ssa, "fold_constants", _no_fold)
    target = tmp_path / "aliases.py"
    target.write_text("a = 1\nb = a + 1\nc = b\n")
    for argv in (["alias"], ["alias", "--no-simplify"]):
        code, out, err = _run(capsys, *argv, str(target))
        assert (code, err) == (0, "")
        assert json.loads(out) == [{"alias": "c#0", "target": "b"}]


def test_alias_solves_no_reaching_definitions(capsys, tmp_path, monkeypatch):
    """``alias`` reads only the definition table, so it prints the same pairs
    with ``compute_ssa`` unavailable."""
    def _no_solve(*args):
        raise AssertionError("alias computed reaching definitions")

    monkeypatch.setattr(cli.ssa, "compute_ssa", _no_solve)
    target = tmp_path / "aliases.py"
    target.write_text("a = 1\nif a:\n    b = a\nelse:\n    b = f(a)\nc = b\nfor x in [c]:\n    d = x\n")
    for argv in (["alias"], ["alias", "--no-simplify"]):
        code, out, err = _run(capsys, *argv, str(target))
        assert (code, err) == (0, "")
        assert json.loads(out) == [{"alias": "b#0", "target": "a"}, {"alias": "c#0", "target": "b"},
                                   {"alias": "d#0", "target": "x"}]


def test_rewrite_stdout(capsys, tmp_path):
    target = tmp_path / "in.py"
    target.write_text("x = funA(funB())\n")
    code, out, _ = _run(capsys, "rewrite", str(target))
    assert code == 0
    assert out == "_ret = funB()\nx = funA(_ret)\n"


def test_imports_json(capsys):
    code, out, _ = _run(capsys, "imports", str(EXAMPLE))
    assert code == 0
    payload = json.loads(out)
    assert payload["leaves"] == ["example.module_c"]
    assert payload["edges"] == [
        ["example.module_a", "example.module_b"],
        ["example.module_a", "example.module_c"],
        ["example.module_b", "example.module_c"],
    ]
    assert payload["modules"] == [
        "example.module_a",
        "example.module_b",
        "example.module_c",
    ]


def test_fqn_lines(capsys, tmp_path):
    target = tmp_path / "calls.py"
    target.write_text("from os import getcwd\ng = getcwd\ng()\nmystery()\n")
    code, out, _ = _run(capsys, "fqn", str(target))
    assert code == 0
    assert out.splitlines() == [
        "3:0 g -> os.getcwd",
        "4:0 mystery -> UNRESOLVED",
    ]


def test_fqn_resolves_a_def_in_a_module_level_branch(capsys, tmp_path):
    target = tmp_path / "found.py"
    target.write_text('c = 1\nif c:\n    def h(a):\n        return a\nh("s")\n')
    code, out, _ = _run(capsys, "fqn", str(target))
    assert code == 0
    assert out.splitlines() == ["5:0 h -> found.h"]


def test_fqn_sees_a_function_local_import_only_in_that_function(capsys, tmp_path):
    target = tmp_path / "local.py"
    target.write_text("def f():\n    from os import getcwd as cwd\n    return cwd()\n\n\n"
                      "def g():\n    return cwd()\n")
    code, out, _ = _run(capsys, "fqn", str(target))
    assert code == 0
    assert out.splitlines() == ["3:11 cwd -> os.getcwd", "7:11 cwd -> UNRESOLVED"]


def test_fqn_leaves_a_parameter_or_local_that_shadows_an_import_unresolved(capsys, tmp_path):
    target = tmp_path / "shadow.py"
    target.write_text("from os import getcwd, sep\n\n\ndef f(getcwd):\n    return getcwd()\n\n\n"
                      "def g():\n    sep = str\n    return sep(1)\n\n\n"
                      "def h():\n    return getcwd(), [lambda: sep()]\n")
    code, out, _ = _run(capsys, "fqn", str(target))
    assert code == 0
    assert out.splitlines() == [
        "5:11 getcwd -> UNRESOLVED",
        "10:11 sep -> UNRESOLVED",
        "14:11 getcwd -> os.getcwd",
        "14:30 sep -> os.sep",
    ]


def test_fqn_leaves_a_nested_def_that_shadows_a_module_def_unresolved(capsys, tmp_path):
    target = tmp_path / "nested.py"
    target.write_text("def inner():\n    return 0\n\n\n"
                      "def outer():\n    def inner():\n        return 1\n    return inner()\n\n\n"
                      "inner()\n")
    code, out, _ = _run(capsys, "fqn", str(target))
    assert code == 0
    assert out.splitlines() == ["8:11 inner -> UNRESOLVED", "11:0 inner -> nested.inner"]


def test_fqn_takes_an_import_that_rebinds_a_module_def(capsys, tmp_path):
    target = tmp_path / "rebind.py"
    target.write_text("def getcwd():\n    return 1\n\n\nfrom os import getcwd\ngetcwd()\n")
    code, out, _ = _run(capsys, "fqn", str(target))
    assert code == 0
    assert out == "6:0 getcwd -> os.getcwd\n"


def test_callgraph_simple_json(capsys):
    code, out, _ = _run(capsys, "callgraph", "--entry", str(DIRECT), "--format", "simple-json")
    assert code == 0
    payload = json.loads(out)
    assert payload["direct_calls"] == ["direct_calls.f"]


def test_callgraph_edges_format(capsys):
    code, out, _ = _run(capsys, "callgraph", "--entry", str(DIRECT), "--format", "edges")
    assert code == 0
    assert out.splitlines() == [
        "direct_calls -> direct_calls.f",
        "direct_calls.f -> direct_calls.g",
    ]


def test_callgraph_package_supplies_entries(capsys):
    code, out, _ = _run(capsys, "callgraph", "--package", str(EXAMPLE))
    assert code == 0
    payload = json.loads(out)
    assert "example.module_a" in payload
    assert "example.module_c" in payload


def test_callgraph_package_with_explicit_entry(capsys):
    code, out, _ = _run(
        capsys,
        "callgraph",
        "--entry", str(EXAMPLE / "module_a.py"),
        "--package", str(EXAMPLE),
        "--format", "simple-json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"example.module_a", "example.module_b", "example.module_c"}


def test_callgraph_without_entry_or_package_is_usage_error(capsys):
    code, _, err = _run(capsys, "callgraph")
    assert code == 2
    assert err != ""


def test_typeinfer_json(capsys):
    code, out, _ = _run(capsys, "typeinfer", str(CWD_PROGRAM))
    assert code == 0
    payload = json.loads(out)
    functions = {r.get("function") for r in payload}
    assert "my_function" in functions
    record = next(r for r in payload if r.get("variable") == "x")
    assert record["type"] == ["str"]


def test_output_file_matches_stdout(capsys, tmp_path):
    code, out, _ = _run(capsys, "ssa", str(MERGE))
    assert code == 0
    sink = tmp_path / "result.json"
    code2 = main(["ssa", str(MERGE), "--output", str(sink)])
    capsys.readouterr()
    assert code2 == 0
    assert sink.read_text(encoding="utf-8") == out


@pytest.mark.parametrize(
    "argv",
    [
        ["cfg", str(MERGE), "--format", "dot"],
        ["cfg", str(MERGE), "--format", "json"],
        ["ssa", str(MERGE)],
        ["alias", str(MERGE)],
        ["rewrite", str(MERGE)],
        ["imports", str(EXAMPLE)],
        ["fqn", str(MERGE)],
        ["callgraph", "--entry", str(DIRECT)],
        ["typeinfer", str(CWD_PROGRAM)],
    ],
    ids=lambda argv: argv[0] + "-" + argv[-1].rsplit("/", 1)[-1],
)
def test_every_subcommand_is_deterministic(capsys, argv):
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


def test_no_simplify_skips_the_rewrite_pre_pass(capsys, tmp_path):
    target = tmp_path / "nested.py"
    target.write_text("x = funA(funB())\n")
    code, simplified_out, _ = _run(capsys, "ssa", str(target))
    code2, raw_out, _ = _run(capsys, "ssa", str(target), "--no-simplify")
    assert code == code2 == 0
    assert "_ret#0" in simplified_out
    assert "_ret#0" not in raw_out


def test_missing_file_exits_2(capsys):
    code, out, err = _run(capsys, "ssa", "does_not_exist.py")
    assert code == 2
    assert out == ""
    assert "does_not_exist.py" in err


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    code, out, err = _run(capsys, "cfg", str(bad))
    assert code == 2
    assert out == ""
    assert "bad.py" in err


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = _run(capsys, "bogus")
    assert code == 2


def test_unsupported_format_exits_2(capsys):
    code, _, _ = _run(capsys, "ssa", str(MERGE), "--format", "dot")
    assert code == 2


def test_strict_promotes_diagnostics(capsys, tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "mod.py").write_text("from ...above import thing\n")
    code, out, err = _run(capsys, "imports", str(root))
    assert code == 0
    assert err != ""
    code_strict, out_strict, err_strict = _run(capsys, "imports", str(root), "--strict")
    assert code_strict == 1
    assert err_strict != ""
    # Machine output still lands on stdout in both runs.
    assert json.loads(out) == json.loads(out_strict)


def test_typeinfer_strict_on_unparsable_file(capsys, tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "good.py").write_text("x = 1\n")
    (root / "bad.py").write_text("def broken(:\n")
    code, out, err = _run(capsys, "typeinfer", str(root))
    assert code == 0
    assert "bad.py" in err
    assert json.loads(out)
    code_strict, _, _ = _run(capsys, "typeinfer", str(root), "--strict")
    assert code_strict == 1


def test_typeinfer_return_chain_converges(capsys, tmp_path):
    """A 40-function return chain walked callers first: the type reaches
    every function, with no diagnostic, so ``--strict`` passes."""
    target = tmp_path / "chain.py"
    target.write_text("\n".join(
        f"def f{i:02d}():\n    return {f'f{i + 1:02d}()' if i < 39 else '1'}\n" for i in range(40)
    ))
    code, out, err = _run(capsys, "typeinfer", str(target))
    assert code == 0
    assert err == ""
    assert [(r["function"], r["line_number"], r["type"]) for r in json.loads(out)] == [
        (f"f{i:02d}", 3 * i + 2, ["int"]) for i in range(40)
    ]
    code_strict, out_strict, err_strict = _run(capsys, "typeinfer", str(target), "--strict")
    assert (code_strict, out_strict, err_strict) == (0, out, "")


def test_dynamic_feature_diagnostics_on_stderr(capsys, tmp_path):
    target = tmp_path / "dyn.py"
    target.write_text("eval('1')\n")
    code, out, err = _run(capsys, "callgraph", "--entry", str(target))
    assert code == 0
    assert "dynamic feature" in err
    code_strict, _, _ = _run(capsys, "callgraph", "--entry", str(target), "--strict")
    assert code_strict == 1


def test_missing_typeinfer_entry_exits_2(capsys):
    code, out, err = _run(capsys, "typeinfer", "does_not_exist.py")
    assert code == 2
    assert out == ""
    assert "does_not_exist.py" in err


def _package_with_directory_named_like_a_module(tmp_path: Path) -> Path:
    root = tmp_path / "pkg"
    (root / "d.py").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "m.py").write_text("def f():\n    return 1\n\nx = f()\n")
    return root


def test_typeinfer_skips_a_directory_named_like_a_module(capsys, tmp_path):
    root = _package_with_directory_named_like_a_module(tmp_path)
    code, out, err = _run(capsys, "typeinfer", str(root))
    assert code == 0
    assert f"{root / 'd.py'}: skipped:" in err
    assert any(r.get("variable") == "x" for r in json.loads(out))


def test_callgraph_package_ignores_a_directory_named_like_a_module(capsys, tmp_path):
    root = _package_with_directory_named_like_a_module(tmp_path)
    code, out, _ = _run(capsys, "callgraph", "--package", str(root))
    assert code == 0
    assert json.loads(out)["pkg.m"] == ["pkg.m.f"]


@pytest.mark.parametrize("source,alias", [
    ("x = 7 ** 20000\ny = x % 10\n", []),
    ("x = (-8) ** 0.5\ny = x\n", [{"alias": "y#0", "target": "x"}]),  # a complex
    ("x = 1e308 * 10\ny = x\n", [{"alias": "y#0", "target": "x"}]),  # infinite
    ("x = 1e308 * 10 * 0\ny = x\n", [{"alias": "y#0", "target": "x"}]),  # NaN
], ids=["big-power", "complex", "infinity", "nan"])
def test_an_unfoldable_result_still_serializes(capsys, tmp_path, source, alias):
    """Also as RFC 8259 JSON: no ``Infinity`` or ``NaN`` token."""
    target = tmp_path / "unfoldable.py"
    target.write_text(source)
    code, out, err = _run(capsys, "ssa", str(target))
    assert code == 0, err
    constants = json.loads(out, parse_constant=pytest.fail)["constants"]
    assert constants["x#0"]["folded"] is None
    assert constants["y#0"]["folded"] is None
    code, out, err = _run(capsys, "alias", str(target))
    assert code == 0, err
    assert json.loads(out) == alias


@pytest.mark.parametrize("terms", [300, 3100])
def test_deeply_nested_input_never_crashes(tmp_path, terms):
    target = tmp_path / "deep.py"
    target.write_text("x = " + "+".join(["1"] * terms) + "\n")
    for argv in (
        ["rewrite", str(target)],
        ["cfg", str(target)],
        ["ssa", str(target)],
        ["alias", str(target)],
        ["fqn", str(target)],
        ["imports", str(tmp_path)],
        ["callgraph", "--entry", str(target)],
        ["typeinfer", str(target)],
    ):
        proc = fresh_python("-m", "lancet.cli", *argv)
        assert proc.returncode in (0, 2), (argv, proc.stderr[-500:])
        assert "Traceback" not in proc.stderr, (argv, proc.stderr[-500:])


def test_300_term_chain_is_analyzed_by_every_subcommand(tmp_path):
    target = tmp_path / "deep.py"
    target.write_text("x = " + "+".join(["1"] * 300) + "\n")
    outputs = {}
    for argv in (
        ["rewrite", str(target)],
        ["cfg", str(target)],
        ["ssa", str(target)],
        ["alias", str(target)],
        ["fqn", str(target)],
        ["imports", str(tmp_path)],
        ["callgraph", "--entry", str(target)],
        ["typeinfer", str(target)],
    ):
        proc = fresh_python("-m", "lancet.cli", *argv)
        assert proc.returncode == 0, (argv, proc.stderr[-500:])
        outputs[argv[0]] = proc.stdout
    assert json.loads(outputs["ssa"])["constants"]["x#0"]["folded"] == 300


def test_1000_term_chain_is_parsed_and_analyzed(tmp_path):
    # Parsing never recurses, so the subcommands that read the file get exit 0;
    # test_ssa_and_alias_fold_a_2900_deep_expression covers ssa and alias.
    target = tmp_path / "deep.py"
    target.write_text("x = " + "+".join(["1"] * 1000) + "\n")
    for argv in (["imports", str(tmp_path)], ["fqn", str(target)], ["callgraph", "--entry", str(target)]):
        proc = fresh_python("-m", "lancet.cli", *argv)
        assert proc.returncode == 0, (argv, proc.stderr[-500:])


_SUM_2900 = "+".join(["1"] * 2900)
_F_AND_G = "def f(*a):\n    return a\n\n\ndef g():\n    return 1\n\n\n"


def test_typeinfer_types_a_2900_term_sum(tmp_path):
    """The analyzer folds a left-leaning operator chain without recursion."""
    target = tmp_path / "deep.py"
    target.write_text(f"x = {_SUM_2900}\n")
    proc = fresh_python("-m", "lancet.cli", "typeinfer", str(target))
    assert proc.returncode == 0, proc.stderr[-500:]
    assert [(r["variable"], r["type"]) for r in json.loads(proc.stdout)] == [("x", ["int"])]


def test_a_call_hoisted_beside_a_deep_sum_is_analyzed(tmp_path):
    target = tmp_path / "hoist.py"
    target.write_text(f"{_F_AND_G}x = f(g(), {_SUM_2900})\n")
    proc = fresh_python("-m", "lancet.cli", "callgraph", "--entry", str(target), "--format", "edges")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout == "hoist -> hoist.f\nhoist -> hoist.g\n"


def test_a_call_hoisted_beside_a_deep_subscript_chain_is_analyzed(tmp_path):
    target = tmp_path / "sub.py"
    target.write_text(f"{_F_AND_G}a = [0]\nx = f(g(), a{'[0]' * 1000})\n")
    outputs = {}
    for argv in (
        ["alias", str(target)],
        ["callgraph", "--entry", str(target), "--format", "edges"],
        ["typeinfer", str(target)],
    ):
        proc = fresh_python("-m", "lancet.cli", *argv)
        assert proc.returncode == 0, (argv, proc.stderr[-500:])
        outputs[argv[0]] = proc.stdout
    assert json.loads(outputs["alias"]) == []
    assert outputs["callgraph"] == "sub -> sub.f\nsub -> sub.g\n"
    assert {r.get("variable") for r in json.loads(outputs["typeinfer"])} >= {"a", "x"}


@pytest.mark.parametrize("source,call", [
    (f"x = 0\nif {_SUM_2900} > 0:\n    x = 1\n", "build_from_ast('m', tree)"),
    (f"x = 0\nx += {_SUM_2900}\n", "compute_ssa(build_from_ast('m', tree))"),
], ids=["cfg-negated-test", "ssa-augmented-assignment"])
def test_a_deep_operand_is_built_into_cfg_and_ssa(tmp_path, source, call):
    target = tmp_path / "deep.py"
    target.write_text(source)
    proc = fresh_python("-c", "import sys\nfrom lancet.cfg import build_from_ast\n"
                  "from lancet.frontend import parse_module\nfrom lancet.ssa import compute_ssa\n"
                  f"tree = parse_module(open(sys.argv[1]).read())\n{call}\n", str(target))
    assert proc.returncode == 0, proc.stderr[-500:]


_HUGE = "0x" + "f" * 4000  # past the 4,300-digit int-to-str limit

# Shapes that nest 2,900 deep without brackets; the printer keeps them off the interpreter's stack.
_DEEP_SHAPES = {
    "sum": f"x = {_SUM_2900}\n",
    "str-sum": "x = " + "+".join(["'a'"] * 2900) + "\n",
    "minus": "x = " + "-" * 2900 + "1\n",
    "not": "x = " + "not " * 2900 + "a\n",
    "attribute": "import os\nx = os" + ".path" * 2900 + "\n",
    "call": "x = f" + "()" * 2900 + "\n",
    "subscript": "a = [0]\nx = a" + "[0]" * 2900 + "\n",
    "lambda": "x = " + "lambda: " * 2900 + "1\n",
    "hex-sum": f"x = {_SUM_2900}+{_HUGE}\n",
    "pow": "x = " + "**".join(["1"] * 2900) + "\n",
}


@pytest.mark.parametrize("shape", sorted(_DEEP_SHAPES))
def test_a_2900_deep_expression_is_printed(tmp_path, shape):
    """``rewrite``, ``cfg`` in both formats and ``fqn`` print source text,
    and each gets exit 0 on every shape, in a fresh interpreter."""
    target = tmp_path / "deep.py"
    target.write_text(_DEEP_SHAPES[shape])
    for argv in (["rewrite"], ["cfg"], ["cfg", "--format", "json"], ["fqn"]):
        proc = fresh_python("-m", "lancet.cli", *argv, str(target))
        assert proc.returncode == 0, (argv, proc.stderr[-500:])
        assert "Traceback" not in proc.stderr, argv
        assert proc.stdout or argv == ["fqn"], argv


def test_ssa_and_alias_fold_a_2900_deep_expression(tmp_path):
    """The folder walks operator chains in a loop, so ``ssa`` and ``alias``
    get exit 0 on every shape, in a fresh interpreter."""
    for shape, source in sorted(_DEEP_SHAPES.items()):
        target = tmp_path / f"{shape}.py"
        target.write_text(source)
        for command in ("ssa", "alias"):
            proc = fresh_python("-m", "lancet.cli", command, str(target))
            assert proc.returncode == 0, (shape, command, proc.stderr[-500:])
            if (shape, command) == ("sum", "ssa"):
                assert json.loads(proc.stdout)["constants"]["x#0"]["folded"] == 2900


def test_callgraph_and_typeinfer_analyze_a_2900_deep_expression(tmp_path):
    """The call graph's evaluator walks bracket-free chains in a loop, so
    ``callgraph --entry`` and ``typeinfer`` get exit 0 on every shape, in a
    fresh interpreter, and a 2,900-deep chain of project calls has its edge."""
    types = {"sum": "int", "str-sum": "str", "minus": "int", "not": "bool", "hex-sum": "int", "pow": "int"}
    for shape, source in sorted(_DEEP_SHAPES.items()):
        target = tmp_path / f"{shape}.py"
        target.write_text(source)
        for argv in (["callgraph", "--entry"], ["typeinfer"]):
            proc = fresh_python("-m", "lancet.cli", *argv, str(target))
            assert proc.returncode == 0, (shape, argv, proc.stderr[-500:])
        records = {r.get("variable"): r["type"] for r in json.loads(proc.stdout)}
        if shape != "lambda":  # rewritten to ``def x``
            assert records["x"] == [types.get(shape, "Any")], shape
    target = tmp_path / "calls.py"
    target.write_text("def f():\n    return f\n\n\nx = f" + "()" * 2900 + "\n")
    proc = fresh_python("-m", "lancet.cli", "callgraph", "--entry", str(target), "--format", "edges")
    assert (proc.returncode, proc.stdout) == (0, "calls -> calls.f\n"), proc.stderr[-500:]


_DEFAULTS_199 = "lambda a=" * 199 + "0" + ": 0" * 199


def _lambda_defaults(depth: int) -> str:
    return "x = " + "lambda a=" * depth + "0" + ": 0" * depth + "\n"


def _every_argv(target: Path) -> list[list[str]]:
    """Each subcommand on ``target``, and with ``--no-simplify`` where it takes it."""
    file = str(target)
    return [["rewrite", file], ["cfg", file], ["cfg", "--format", "json", file],
            ["cfg", "--include-functions", file], ["ssa", file], ["ssa", "--no-simplify", file],
            ["alias", file], ["alias", "--no-simplify", file], ["fqn", file], ["imports", str(target.parent)],
            ["callgraph", "--entry", file], ["typeinfer", file], ["typeinfer", "--no-simplify", file]]


def test_a_745_deep_chain_of_lambda_defaults_is_analyzed(tmp_path):
    """The printer pushes a lambda's defaults onto its stack, so the deepest
    chain the parser accepts gets exit 0 from every subcommand, in a fresh
    interpreter."""
    target = tmp_path / "defaults.py"
    target.write_text(_lambda_defaults(745))
    for argv in _every_argv(target):
        proc = fresh_python("-m", "lancet.cli", *argv)
        assert proc.returncode == 0, (argv, proc.stderr[-500:])
        assert proc.stderr == "", argv


def _elif_chain(branches: int) -> str:
    """``x = 0``, an ``if`` and ``branches - 1`` ``elif`` branches, then ``print(y)``."""
    return ("x = 0\nif x == 0:\n    y = 1\n"
            + "".join(f"elif x == {i}:\n    y = {i} + 1\n" for i in range(1, branches)) + "print(y)\n")


@pytest.mark.parametrize("branches", [250, 2900])
def test_a_long_elif_chain_is_analyzed(tmp_path, branches):
    """The CFG assembler and the rewriter build an ``elif`` chain in a loop, so
    every file subcommand, and the project ones on the directory that holds
    the file, get exit 0 in a fresh interpreter at the default recursion limit."""
    target = tmp_path / "chain.py"
    source = _elif_chain(branches)
    target.write_text(source)
    argvs = _every_argv(target) + [["callgraph", "--package", str(tmp_path)], ["typeinfer", str(tmp_path)]]
    outputs = {}
    for argv in argvs:
        proc = fresh_python("-m", "lancet.cli", *argv)
        assert (proc.returncode, proc.stderr) == (0, ""), (argv, proc.stderr[-500:])
        outputs[tuple(argv[:-1])] = proc.stdout
    assert outputs[("rewrite",)] == source
    cfg = json.loads(outputs[("cfg", "--format", "json")])
    assert len(cfg["blocks"]) == 3 * branches  # per branch: a head (the entry for the first), a then, a join
    assert set(json.loads(outputs[("ssa",)])["constants"]) >= {f"y#{i}" for i in range(branches)}


@pytest.mark.parametrize("source", [_lambda_defaults(746), "x = " + "-" * 6000 + "1\n"],
                         ids=["lambda-defaults-746", "minus-6000"])
def test_input_too_deep_to_parse_gets_a_located_diagnostic(tmp_path, source):
    """The parser's stack overflow is a located parse error: exit 2 from the
    subcommands that read one file, and from the project ones the diagnostic
    that skips the module, in a fresh interpreter."""
    target = tmp_path / "deep.py"
    target.write_text(source)
    for argv in _every_argv(target):
        proc = fresh_python("-m", "lancet.cli", *argv)
        skipped = argv[0] in ("imports", "callgraph", "typeinfer")
        assert proc.returncode == (0 if skipped else 2), (argv, proc.stderr[-500:])
        assert proc.stderr.endswith("deep.py:1:0: too deeply nested to parse\n"), (argv, proc.stderr[-500:])


@pytest.mark.parametrize("source", [
    "x = " + "[" * 199 + "1" + "]" * 199 + "\n",
    "x = " + "(" * 199 + "1," + ")," * 198 + ")\n",
    "x = " + "f(" * 199 + "1" + ")" * 199 + "\n",
    "x = " + "[" * 199 + " + ".join(["1"] * 1000) + "]" * 199 + "\n",
    "x = " + "[-" * 199 + "1" + "]" * 199 + "\n",
    f"x = lambda a={_DEFAULTS_199}: 0\n",
], ids=["list", "tuple", "call", "list-of-sum", "negated-list", "lambda-defaults"])
def test_a_199_deep_bracket_nest_is_printed(tmp_path, source):
    """Brackets still nest the printer's frames, four per level, and the
    tokenizer stops at 200 brackets.  No rule rewrites a list or a tuple,
    so ``rewrite`` prints those as written; the nested calls are hoisted one
    per statement, and the lambda becomes a def."""
    target = tmp_path / "nest.py"
    target.write_text(source)
    for argv in (["rewrite"], ["cfg"], ["cfg", "--format", "json"]):
        proc = fresh_python("-m", "lancet.cli", *argv, str(target))
        assert proc.returncode == 0, (argv, proc.stderr[-500:])
        if argv == ["rewrite"] and "f(" in source:
            assert proc.stdout.count("\n") == 199, proc.stdout[-500:]
        elif argv == ["rewrite"] and "lambda" in source:
            assert proc.stdout == f"def x(a={_DEFAULTS_199}):\n    return 0\n"
        elif argv == ["rewrite"]:
            assert proc.stdout == source


@pytest.mark.parametrize("source", [
    f"x = {_HUGE}\n",
    f'x = f"{{{_HUGE}}}"\n',
    f"y = ({_HUGE})()\n",
    f"y = ({_HUGE}).bit_length()\n",
], ids=["literal", "fstring", "called", "method"])
def test_a_huge_int_literal_is_analyzed_by_every_subcommand(capsys, tmp_path, source):
    target = tmp_path / "huge.py"
    target.write_text(source)
    outputs = {}
    for argv in (
        ["rewrite", str(target)],
        ["cfg", str(target)],
        ["ssa", str(target)],
        ["alias", str(target)],
        ["fqn", str(target)],
        ["imports", str(tmp_path)],
        ["callgraph", "--entry", str(target)],
        ["callgraph", "--package", str(tmp_path)],
        ["typeinfer", str(tmp_path)],
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 0, (argv, err[-500:])
        assert "Traceback" not in err, argv
        outputs[argv[0]] = out
    assert _HUGE in outputs["rewrite"]
    assert _HUGE in outputs["cfg"]


def _every_subcommand(capsys, target: Path) -> list[tuple[int, str, str]]:
    """What each of the eight subcommands prints for ``target``, the
    directory ones for the directory that holds it."""
    argvs = [["rewrite"], ["cfg"], ["ssa"], ["alias"], ["fqn"]]
    results = [_run(capsys, *argv, str(target)) for argv in argvs]
    for argv in (["imports"], ["callgraph", "--package"], ["typeinfer"]):
        results.append(_run(capsys, *argv, str(target.parent)))
    return results


def test_a_byte_order_mark_changes_no_output(capsys, tmp_path):
    """CPython runs a UTF-8 file that starts with a BOM; so does every subcommand."""
    target = tmp_path / "bom.py"
    source = "import os\n\n\ndef f(a):\n    return a + 1\n\n\nx = f(2)\ny = os.getcwd()\n"
    results = []
    for text in (source, "\ufeff" + source):
        target.write_text(text, encoding="utf-8")
        results.append(_every_subcommand(capsys, target))
    for plain, bom in zip(*results):
        assert plain[0] == 0, plain[2]
        assert bom == plain


@pytest.mark.parametrize("first", ["", "#!/usr/bin/env python3\n"], ids=["line-1", "line-2"])
def test_a_coding_cookie_decodes_the_file_as_python_does(capsys, tmp_path, first):
    """A latin-1 file with a PEP 263 cookie, on line 1 or after a comment
    line, prints what its UTF-8 twin prints, under every subcommand."""
    target = tmp_path / "latin1.py"
    source = "import os\n\n\ndef f(a):\n    return a + 'é'\n\n\nx = f('café')\ny = os.getcwd()\n"
    results = []
    for encoding in ("utf-8", "latin-1"):
        target.write_bytes(f"{first}# -*- coding: {encoding} -*-\n{source}".encode(encoding))
        results.append(_every_subcommand(capsys, target))
    for twin, latin1 in zip(*results):
        assert twin[0] == 0, twin[2]
        assert latin1 == twin
    assert "'café'" in results[1][0][1]


def test_a_repeated_diagnostic_line_prints_once(capsys, tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "mod.py").write_text("from ...x import a; from ...y import b\n")
    _, _, err = _run(capsys, "imports", str(root))
    assert err == f"{root / 'mod.py'}:1: relative import reaches above the project root\n"
    _, _, err = _run(capsys, "callgraph", "--package", str(root))
    assert err == f"{root / 'mod.py'}:1: relative import reaches above the project root\n"


def test_fqn_follows_a_copy_made_by_a_starred_assignment(capsys, tmp_path):
    target = tmp_path / "star.py"
    target.write_text("from os import getcwd\ng, *rest = getcwd, 1\ng()\n")
    code, out, _ = _run(capsys, "fqn", str(target))
    assert code == 0
    assert out == "3:0 g -> os.getcwd\n"


# ---------------------------------------------------------------------------
# The cyclic garbage collector is off while a subcommand runs


@contextlib.contextmanager
def _gc(enabled: bool):
    """Run the block with the collector on or off, then restore its state."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _raise(args):
    raise RuntimeError("escapes main")


def test_a_subcommand_runs_with_gc_off(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_cfg", lambda args: seen.append(gc.isenabled()) or 0)
    with _gc(True):
        assert main(["cfg", str(MERGE)]) == 0
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv,code", [
    (["ssa", str(MERGE)], 0),
    (["ssa"], 2),  # argparse: missing file
    (["cfg", "BAD"], 2),  # lancet: parse error
    (["cfg", str(MERGE)], None),  # an exception escapes main
], ids=["ok", "usage", "parse-error", "uncaught"])
def test_main_leaves_gc_as_it_found_it(capsys, monkeypatch, tmp_path, enabled, argv, code):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    argv = [str(bad) if a == "BAD" else a for a in argv]
    if code is None:
        monkeypatch.setattr(cli, "_cmd_cfg", _raise)
    with _gc(enabled):
        if code is None:
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() is enabled
    capsys.readouterr()


def test_cyclic_garbage_does_not_grow_with_the_input(capsys, monkeypatch, tmp_path):
    """With the collector off during a run, what the run leaves in cycles is
    the CLI's fixed set (argparse's parser), the same for one line as for
    the 45-module package."""
    workload = perfbench_gen(monkeypatch).gen_package(1)
    write_files(tmp_path, workload.files)
    root = str(tmp_path / workload.facts["root"])
    write_files(tmp_path, {"one/one.py": "x = 1\n"})
    with _gc(False):
        for argv in (["typeinfer"], ["callgraph", "--package"], ["imports"]):
            garbage = []
            for target in (str(tmp_path / "one"), root):
                main([*argv, target])  # warm-up: first-call caches
                gc.collect()
                assert main([*argv, target]) == 0
                garbage.append(gc.collect())
                capsys.readouterr()
            assert garbage[0] == garbage[1], argv

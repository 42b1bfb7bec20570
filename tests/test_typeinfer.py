from __future__ import annotations

import ast
from pathlib import Path

import pytest

from lancet import typeinfer
from lancet.frontend import parse_module
from lancet.typeinfer import (
    HeuristicTable,
    default_table,
    infer_parameters,
    infer_types,
    infer_types_report,
    load_signature_table,
    type_of_expr,
)

from helpers import CORPUS, corpus_files, observe_types, type_agrees

TI = CORPUS / "typeinfer"


def _by_kind(records):
    returns = {r.function: r for r in records if r.variable is None and r.parameter is None}
    variables = {(r.function, r.variable): r for r in records if r.variable is not None}
    parameters = {(r.function, r.parameter): r for r in records if r.parameter is not None}
    return returns, variables, parameters


def test_cwd_concat_program_types():
    records = infer_types(name="cwd", entry=TI / "cwd_concat.py")
    returns, variables, _ = _by_kind(records)
    assert returns["my_function"].type == {"str"}
    assert variables[("my_function", "x")].type == {"str"}
    assert variables[("my_function", "x")].line_number == 4
    assert returns["my_function"].line_number == 5


def test_literal_return(tmp_path):
    path = tmp_path / "lit.py"
    path.write_text("def f():\n    return 1\n")
    records = infer_types(name="lit", entry=path)
    returns, _, _ = _by_kind(records)
    assert returns["f"].type == {"int"}


def test_union_over_return_statements():
    records = infer_types(name="branches", entry=TI / "branches_types.py")
    returns, _, _ = _by_kind(records)
    assert returns["pick"].type == {"int", "str"}


def test_fall_through_adds_none(tmp_path):
    path = tmp_path / "fall.py"
    path.write_text("def f(b):\n    if b:\n        return 1\n")
    returns, _, _ = _by_kind(infer_types(name="fall", entry=path))
    assert returns["f"].type == {"int", "None"}


def test_generator_functions_report_any(tmp_path):
    path = tmp_path / "gen.py"
    path.write_text("def g():\n    yield 1\n")
    returns, _, _ = _by_kind(infer_types(name="gen", entry=path))
    assert returns["g"].type == {"Any"}


def test_a_yield_in_a_lambda_does_not_make_a_generator(tmp_path):
    path = tmp_path / "lam.py"
    path.write_text("def f():\n    g = lambda: (yield 1)\n    return 2\n")
    returns, _, _ = _by_kind(infer_types(name="lam", entry=path, simplify=False))
    assert returns["f"].type == {"int"}


def test_parameter_types_from_call_sites_and_methods():
    records = infer_types(name="params", entry=TI / "param_calls.py")
    _, _, parameters = _by_kind(records)
    assert parameters[("add_one", "a")].type == {"int"}
    assert parameters[("shout", "s")].type == {"str"}


def test_class_instantiation_and_method_returns():
    records = infer_types(name="classes", entry=TI / "classes_types.py")
    returns, variables, _ = _by_kind(records)
    assert variables[(None, "p")].type == {"classes_types.Point"}
    assert variables[(None, "tag")].type == {"str"}
    assert returns["label"].type == {"str"}


def test_records_are_sorted_by_file_and_line():
    records = infer_types(name="sorted", entry=TI)
    keys = [(r.file, r.line_number) for r in records]
    assert keys == sorted(keys)


def test_reassigned_variable_unions_distinct_literal_types(tmp_path):
    path = tmp_path / "multi.py"
    path.write_text("x = 1\nx = 's'\nx = 2\n")
    records = infer_types(name="multi", entry=path)
    (record,) = [r for r in records if r.variable == "x"]
    # Two distinct literal types among the versions -> set of at least 2.
    assert {"int", "str"} <= record.type
    assert record.line_number == 1


def test_rewriter_temporaries_are_not_reported(tmp_path):
    path = tmp_path / "temps.py"
    path.write_text("def f():\n    return 1\n\nx = str(f())[0]\n")
    records = infer_types(name="temps", entry=path)
    names = {r.variable for r in records if r.variable}
    assert names == {"x"}


# ---------------------------------------------------------------------------
# type_of_expr


def _expr(source: str) -> ast.expr:
    return parse_module(source).body[0].value


def test_string_literal_type():
    assert type_of_expr(_expr("'abc'"), {}, default_table()) == {"str"}


def test_str_concat_with_known_signature():
    table = HeuristicTable(known_signatures={"getcwd": "str"})
    env = {"x": {"str"}}
    assert type_of_expr(_expr("x + getcwd()"), env, table) == {"str"}


def test_unknown_call_is_any():
    assert type_of_expr(_expr("unknown_fn()"), {}, default_table()) == {"Any"}


def test_operator_rules():
    table = default_table()
    assert type_of_expr(_expr("1 + 2"), {}, table) == {"int"}
    assert type_of_expr(_expr("1 / 2"), {}, table) == {"float"}
    assert type_of_expr(_expr("1 + 2.0"), {}, table) == {"float"}
    assert type_of_expr(_expr("'a' * 3"), {}, table) == {"str"}
    assert type_of_expr(_expr("not x"), {"x": {"int"}}, table) == {"bool"}
    assert type_of_expr(_expr("1 < 2"), {}, table) == {"bool"}
    assert type_of_expr(_expr("-3"), {}, table) == {"int"}
    assert type_of_expr(_expr("[1] + [2]"), {}, table) == {"List"}


def test_mixed_str_int_concat_is_any_with_diagnostic():
    diags: list[str] = []
    result = type_of_expr(_expr("'a' + 1"), {}, default_table(), diagnostics=diags)
    assert result == {"Any"}
    assert diags


def test_method_table_lookup():
    table = default_table()
    env = {"s": {"str"}}
    assert type_of_expr(_expr("s.upper()"), env, table) == {"str"}
    assert type_of_expr(_expr("s.split(',')"), env, table) == {"List"}


# ---------------------------------------------------------------------------
# infer_parameters


def _fn(source: str) -> ast.FunctionDef:
    return parse_module(source).body[0]


def test_infer_parameters_from_call_sites():
    fn = _fn("def f(a):\n    return a + 1\n")
    records = infer_parameters(fn, call_sites=[([{"int"}], {})])
    assert records[0].parameter == "a"
    assert records[0].type == {"int"}


def test_infer_parameters_backward_constraint():
    fn = _fn("def f(s):\n    return s.upper()\n")
    records = infer_parameters(fn, call_sites=[])
    assert records[0].type == {"str"}


def test_infer_parameters_no_evidence_is_any():
    fn = _fn("def f(unused):\n    return 1\n")
    records = infer_parameters(fn, call_sites=[])
    assert records[0].type == {"Any"}


def test_infer_parameters_keyword_sites_and_explicit_constraints():
    fn = _fn("def f(a, b):\n    return a\n")
    records = infer_parameters(
        fn,
        call_sites=[([], {"b": {"float"}})],
        body_constraints={"a": {"str"}},
    )
    by_name = {r.parameter: r.type for r in records}
    assert by_name == {"a": {"str"}, "b": {"float"}}


# ---------------------------------------------------------------------------
# Signature table plumbing


def test_load_signature_table(tmp_path):
    table_file = tmp_path / "sigs.txt"
    table_file.write_text("# comment\nos.getcwd str\nmylib.make List  # trailing\n\n")
    table = load_signature_table(table_file)
    assert table == {"os.getcwd": "str", "mylib.make": "List"}


def test_malformed_signature_line(tmp_path):
    table_file = tmp_path / "sigs.txt"
    table_file.write_text("just_one_token\n")
    with pytest.raises(ValueError):
        load_signature_table(table_file)


def test_default_table_contains_getcwd():
    assert default_table().signature("os.getcwd") == "str"


def test_environment_override(tmp_path, monkeypatch):
    table_file = tmp_path / "custom.txt"
    table_file.write_text("os.getcwd List\n")
    monkeypatch.setenv("LANCET_SIGNATURES", str(table_file))
    assert default_table().signature("os.getcwd") == "List"
    assert default_table().signature("len") is None


# ---------------------------------------------------------------------------
# Dynamic agreement: observed runtime types are contained in inferred sets


@pytest.mark.parametrize(
    "path", corpus_files("typeinfer", "programs"), ids=lambda p: p.name
)
def test_dynamic_agreement(path: Path):
    records = infer_types(name=str(path), entry=path)
    observed = observe_types(path)
    returns, variables, parameters = _by_kind(records)

    for (function, variable), record in variables.items():
        if function is None:
            seen = observed.module_vars.get(variable)
        else:
            seen = observed.locals.get((function, variable))
        if seen:
            assert type_agrees(seen, record.type), (path.name, function, variable, seen, record.type)

    for function, record in returns.items():
        seen = observed.returns.get(function)
        if seen:
            assert type_agrees(seen, record.type), (path.name, function, seen, record.type)

    for (function, parameter), record in parameters.items():
        seen = observed.params.get((function, parameter))
        if seen:
            assert type_agrees(seen, record.type), (path.name, function, parameter, seen, record.type)


def test_each_call_is_recorded_once_per_round(tmp_path, monkeypatch):
    """A call three branches deep is one call site per fixpoint round, not
    one per enclosing statement."""
    path = tmp_path / "deep_call.py"
    path.write_text(
        "def f(a):\n    return a\n\n"
        "c = 1\nif c:\n    while c:\n        if c:\n            f(1)\n        c = 0\n",
        encoding="utf-8",
    )
    seen: list[int] = []
    infer = typeinfer._Engine._infer_params

    def counting(engine, scope, sites):
        if scope.fqn == "deep_call.f":
            seen.append(len(sites))
        return infer(engine, scope, sites)

    monkeypatch.setattr(typeinfer._Engine, "_infer_params", counting)
    records, _ = infer_types_report(path)
    assert seen and seen == [1] * len(seen)
    (param,) = [r for r in records if r.parameter == "a"]
    assert param.type == {"int"}


def test_call_in_a_branch_sees_the_branch_bindings(tmp_path):
    """Arguments bound earlier in the same branch, or inside a def in a
    branch, are typed where the call is, not as Any from outside."""
    path = tmp_path / "branchy.py"
    path.write_text(
        "def f(a):\n    return a\n\n"
        "def g(b):\n    return b\n\n"
        "c = 1\nif c:\n    y = 1\n    f(y)\nelse:\n    def h():\n        k = 's'\n        return g(k)\n",
        encoding="utf-8",
    )
    records, _ = infer_types_report(path)
    params = {(r.function, r.parameter): r.type for r in records if r.parameter is not None}
    assert params[("f", "a")] == {"int"}
    assert params[("g", "b")] == {"str"}

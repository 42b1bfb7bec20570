from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings

from lancet import callgraph
from lancet.typeinfer import default_table, infer_types, infer_types_report, load_signature_table

from helpers import (CORPUS, corpus_files, observe_types, perfbench_gen, round_robin, type_agrees,
                     write_files)
from strategies import programs

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
# The rules, one source-level case each: ``y`` is a module variable, ``f.a``
# the parameter ``a`` of ``f``.


def _type_of(tmp_path, source: str, name: str) -> tuple[set[str], list[str]]:
    path = tmp_path / "case.py"
    path.write_text(source, encoding="utf-8")
    records, diagnostics = infer_types_report(path)
    function, _, name = name.rpartition(".")
    (record,) = [r for r in records
                 if (r.function or "") == function and name in (r.variable, r.parameter)]
    return record.type, diagnostics


_SUSPICIOUS = ["suspicious str/int concatenation (str + int)"]


@pytest.mark.parametrize("source, name, types, diagnostics", [
    pytest.param("y = 'abc'\n", "y", {"str"}, [], id="str-literal"),
    pytest.param("y = unknown_fn()\n", "y", {"Any"}, [], id="unknown-call"),
    pytest.param("y = 1 + 2\n", "y", {"int"}, [], id="int-add"),
    pytest.param("y = 1 / 2\n", "y", {"float"}, [], id="true-division"),
    pytest.param("y = 1 + 2.0\n", "y", {"float"}, [], id="int-float-add"),
    pytest.param("y = 'a' * 3\n", "y", {"str"}, [], id="str-repeat"),
    pytest.param("x = 1\ny = not x\n", "y", {"bool"}, [], id="not"),
    pytest.param("y = 1 < 2\n", "y", {"bool"}, [], id="compare"),
    pytest.param("y = -3\n", "y", {"int"}, [], id="negation"),
    pytest.param("y = [1] + [2]\n", "y", {"List"}, [], id="list-concat"),
    pytest.param("y = 'a' + 1\n", "y", {"Any"}, _SUSPICIOUS, id="str-int-concat"),
    pytest.param("s = 'a'\nx = [0]\nx[0] = s + 1\n", "s", {"str"}, _SUSPICIOUS,
                 id="str-int-concat-stored-in-no-name"),
    pytest.param("s = 'a'\ns += 1\n", "s", {"str", "Any"}, _SUSPICIOUS, id="str-int-aug-assign"),
    pytest.param("n = 1\nn += 2.0\n", "n", {"int", "float"}, [], id="aug-assign"),
    pytest.param("s = 'a'\ny = s.upper()\n", "y", {"str"}, [], id="method-upper"),
    pytest.param("s = 'a'\ny = s.split(',')\n", "y", {"List"}, [], id="method-split"),
    pytest.param("s = 'a'\ns = 1\ny = s.upper()\n", "y", {"str"}, [],
                 id="method-on-str-or-int"),
    pytest.param("s = 'a'\ns = unknown\ny = s.upper()\n", "y", {"str", "Any"}, [],
                 id="method-on-any-receiver"),
    pytest.param("s = 1\ny = s.bit_length()\n", "y", {"Any"}, [], id="method-not-in-table"),
    pytest.param("def f(a):\n    return a + 1\n\n\nf(1)\n", "f.a", {"int"}, [],
                 id="call-site"),
    pytest.param("def f(a, b):\n    return a\n\n\nf('x', b=1.5)\n", "f.b", {"float"}, [],
                 id="keyword"),
    pytest.param("def f(s):\n    return s.upper()\n", "f.s", {"str"}, [], id="pinned-by-method"),
    pytest.param("def f(s):\n    return s + 'x'\n", "f.s", {"str"}, [], id="pinned-by-concat"),
    pytest.param("def f(unused):\n    return 1\n", "f.unused", {"Any"}, [], id="no-evidence"),
])
def test_tag_rule(tmp_path, source, name, types, diagnostics):
    assert _type_of(tmp_path, source, name) == (types, diagnostics)


def test_a_custom_signature_types_a_call_of_an_unbound_name(tmp_path, monkeypatch):
    source = "x = 'a'\ny = x + getcwd()\n"
    assert _type_of(tmp_path, source, "y") == ({"Any"}, [])
    table_file = tmp_path / "custom.txt"
    table_file.write_text("getcwd str\n", encoding="utf-8")
    monkeypatch.setenv("LANCET_SIGNATURES", str(table_file))
    assert _type_of(tmp_path, source, "y") == ({"str"}, [])


def test_a_suspicious_concatenation_is_reported_by_typeinfer_only(tmp_path):
    path = tmp_path / "concat.py"
    path.write_text("x = 'a' + 1\n")
    assert callgraph.analyze([path]).diagnostics == []
    assert infer_types_report(path)[1] == ["suspicious str/int concatenation (str + int)"]


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


def _observed(path: Path):
    """(what, observed types, inferred types) for each record that the
    runtime oracle observes on ``path``."""
    returns, variables, parameters = _by_kind(infer_types(name=str(path), entry=path))
    observed = observe_types(path)
    for (function, variable), record in variables.items():
        if function is None:
            seen = observed.module_vars.get(variable)
        else:
            seen = observed.locals.get((function, variable))
        if seen:
            yield (path.name, function, variable), seen, record.type
    for function, record in returns.items():
        if observed.returns.get(function):
            yield (path.name, function), observed.returns[function], record.type
    for (function, parameter), record in parameters.items():
        if observed.params.get((function, parameter)):
            yield (path.name, function, parameter), observed.params[(function, parameter)], record.type


@pytest.mark.parametrize(
    "path", corpus_files("typeinfer", "programs"), ids=lambda p: p.name
)
def test_dynamic_agreement(path: Path):
    for what, seen, inferred in _observed(path):
        assert type_agrees(seen, inferred), (what, seen, inferred)


def test_only_a_generator_and_a_field_read_type_as_any_alone(tmp_path, monkeypatch):
    """Of the records the runtime oracle observes on the corpus and the
    benchmark's branchy program with types of the vocabulary, only two are
    inferred as ``Any`` alone: a generator's return, ``Any`` by design, and
    a return of a field read, since no field is tracked."""
    write_files(tmp_path, perfbench_gen(monkeypatch).gen_branchy(1).files)
    paths = [*corpus_files("typeinfer", "programs"), tmp_path / "branchy" / "branchy.py"]
    only_any = [what for path in paths for what, seen, inferred in _observed(path)
                if inferred == {"Any"} and "<unknown>" not in seen]
    assert only_any == [("generator_fib.py", "fib"), ("branchy.py", "total")]


def _counted_evaluations(monkeypatch) -> list[tuple]:
    """Every ``(scope, statement)`` the shared analyzer evaluates from now on."""
    evaluated: list[tuple] = []
    evaluate = callgraph._Analyzer._evaluate

    def counted(analyzer, scope, stmt):
        evaluated.append((scope, stmt))
        evaluate(analyzer, scope, stmt)

    monkeypatch.setattr(callgraph._Analyzer, "_evaluate", counted)
    return evaluated


def test_each_call_is_bound_once_per_evaluation(tmp_path, monkeypatch):
    """A call three branches deep binds its arguments once per evaluation of
    its own statement, and never when an enclosing statement is evaluated."""
    path = tmp_path / "deep_call.py"
    path.write_text(
        "def f(a):\n    return a\n\n"
        "c = 1\nif c:\n    while c:\n        if c:\n            f(1)\n        c = 0\n",
        encoding="utf-8",
    )
    bindings: list[ast.stmt] = []
    evaluated = _counted_evaluations(monkeypatch)
    bind = callgraph.bind_arguments

    def binding(call, params, bound=False):
        bindings.append(evaluated[-1][1])
        return bind(call, params, bound)

    monkeypatch.setattr(callgraph, "bind_arguments", binding)
    records, _ = infer_types_report(path)
    call = [stmt for _, stmt in evaluated if isinstance(stmt, ast.Expr)]
    assert call and bindings == call
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


def _types(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    records, _ = infer_types_report(path)
    return _by_kind(records)


def test_a_nested_function_call_resolves_by_the_nested_rule(tmp_path):
    returns, _, parameters = _types(
        tmp_path, "nested.py",
        "def outer():\n    def inner(k):\n        return k\n    return inner(3)\n",
    )
    assert parameters[("inner", "k")].type == {"int"}
    assert returns["outer"].type == {"int"}


def test_a_function_local_import_binds_only_in_its_function(tmp_path):
    returns, _, _ = _types(
        tmp_path, "local_import.py",
        "def f():\n    from os import getcwd as cwd\n    return cwd()\n\n\n"
        "def g():\n    return cwd()\n",
    )
    assert returns["f"].type == {"str"}
    assert returns["g"].type == {"Any"}


def test_a_def_in_a_module_level_branch_is_a_call_target(tmp_path):
    returns, _, parameters = _types(
        tmp_path, "found.py", 'c = 1\nif c:\n    def h(a):\n        return a\nh("s")\n'
    )
    assert parameters[("h", "a")].type == {"str"}
    assert returns["h"].type == {"str"}


def test_a_nested_tuple_assignment_types_every_name(tmp_path):
    _, variables, _ = _types(tmp_path, "nested_tuple.py", "(a, (b, c)) = (1, (2, 's'))\n")
    assert variables[(None, "a")].type == {"int"}
    assert variables[(None, "b")].type == {"int"}
    assert variables[(None, "c")].type == {"str"}


def test_a_starred_assignment_types_the_names_around_the_star(tmp_path):
    _, variables, _ = _types(tmp_path, "star.py", "a, *b, c = 1, 2, 3, 's'\n")
    assert variables[(None, "a")].type == {"int"}
    assert variables[(None, "b")].type == {"Any"}
    assert variables[(None, "c")].type == {"str"}


def test_a_call_in_a_lambda_body_is_no_argument_evidence(tmp_path):
    # The lambda body runs later, in its own scope; only calls the
    # statement itself makes count (Block.get_calls).
    _, _, parameters = _types(
        tmp_path, "lam_call.py",
        "def f(a):\n    return a\n\n\nhandlers = [lambda: f(1)]\nf('s')\n",
    )
    assert parameters[("f", "a")].type == {"str"}


def test_a_call_in_a_class_body_is_argument_evidence():
    returns, variables, parameters = _by_kind(infer_types_report(TI / "class_body_call.py")[0])
    assert parameters[("double", "a")].type == {"int"}
    assert returns["double"].type == {"int"}
    assert variables == {}  # class-body variables get no records


# ---------------------------------------------------------------------------
# Arguments bind parameters by one rule (modgraph.bind_arguments)

_CALL_BINDING = (
    "class Point:\n    def __init__(self, x, y):\n        self.x = x\n        self.y = y\n\n\n"
    "class C:\n    def m(self, b):\n        return b\n\n"
    "    @classmethod\n    def cm(cls, a, b):\n        return a\n\n\n"
    "def f(p, q=1):\n    return q\n\n\n"
    "def g(a, b, c):\n    return c\n\n\n"
    "pt = Point(1, y=2.0)\nr = C.m(C(), 's')\nk = C.cm(1, 's')\nxs = [1]\ns = f(*xs, 's')\n"
    "d = {'b': 's', 'c': 2.0}\nt = g(1, **d)\n"
)


def test_a_constructor_binds_the_parameters_of_init(tmp_path):
    _, _, parameters = _types(tmp_path, "call_binding.py", _CALL_BINDING)
    assert parameters[("__init__", "x")].type == {"int"}
    assert parameters[("__init__", "y")].type == {"float"}


def test_a_method_called_through_its_class_binds_self_to_the_first_argument(tmp_path):
    returns, variables, parameters = _types(tmp_path, "call_binding.py", _CALL_BINDING)
    assert parameters[("m", "b")].type == {"str"}
    assert returns["m"].type == {"str"}
    assert variables[(None, "r")].type == {"str"}


def test_a_classmethod_called_through_its_class_binds_cls_to_the_class(tmp_path):
    returns, variables, parameters = _types(tmp_path, "call_binding.py", _CALL_BINDING)
    assert parameters[("cm", "a")].type == {"int"}
    assert parameters[("cm", "b")].type == {"str"}
    assert returns["cm"].type == {"int"}
    assert variables[(None, "k")].type == {"int"}


def test_starred_and_double_starred_arguments_bind_any(tmp_path):
    _, _, parameters = _types(tmp_path, "call_binding.py", _CALL_BINDING)
    assert parameters[("f", "p")].type == {"Any", "str"}
    assert parameters[("g", "a")].type == {"int"}
    assert parameters[("g", "b")].type == {"Any"}


def test_a_default_is_parameter_evidence(tmp_path):
    returns, variables, parameters = _types(
        tmp_path, "default.py", "def f(a, b=1):\n    return b\n\n\nx = f(2)\n"
    )
    assert parameters[("f", "b")].type == {"int"}
    assert returns["f"].type == {"int"}
    assert variables[(None, "x")].type == {"int"}


def test_a_call_in_a_def_head_is_parameter_evidence(tmp_path):
    """A call in a default or a base binds its arguments like any other."""
    path = tmp_path / "def_head_call.py"
    path.write_text(
        "def g(k):\n    return k\n\n\ndef f(a=g(1)):\n    return a\n\n\n"
        "def base(b):\n    return object\n\n\nclass C(base('s')):\n    pass\n\n\nx = f()\n",
        encoding="utf-8",
    )
    returns, variables, parameters = _by_kind(infer_types_report(path)[0])
    assert parameters[("g", "k")].type == {"int"}
    assert returns["g"].type == {"int"}
    assert parameters[("f", "a")].type == {"int"}
    assert variables[(None, "x")].type == {"int"}
    assert parameters[("base", "b")].type == {"str"}
    observed = observe_types(path)
    assert set(observed.params) == {("g", "k"), ("f", "a"), ("base", "b")}
    for key, seen in observed.params.items():
        assert type_agrees(seen, parameters[key].type), (key, seen, parameters[key].type)
    for name, seen in observed.returns.items():
        assert type_agrees(seen, returns[name].type), (name, seen, returns[name].type)


def test_bound_arguments_agree_with_the_runtime(tmp_path):
    path = tmp_path / "call_binding.py"
    path.write_text(_CALL_BINDING, encoding="utf-8")
    _, _, parameters = _by_kind(infer_types_report(path)[0])
    observed = observe_types(path)
    assert observed.params
    for key, seen in observed.params.items():
        assert type_agrees(seen, parameters[key].type), (key, seen, parameters[key].type)


# ---------------------------------------------------------------------------
# The worklist against the rounds it replaced


def _return_chain(n: int) -> str:
    """``h = f0()``, where each ``f<i>`` returns ``f<i + 1>()`` and the last
    one returns 1: the type reaches ``h`` through ``n`` returns."""
    defs = [f"def f{i}():\n    return f{i + 1}()\n" for i in range(n)]
    return "\n".join([*defs, f"def f{n}():\n    return 1\n", "h = f0()\n"])


def _report(path: Path) -> tuple[list[dict], list[str]]:
    records, diagnostics = infer_types_report(path)
    return [r.to_json_dict() for r in records], diagnostics


def _assert_worklist_matches_round_robin(path: Path, monkeypatch) -> None:
    """The records of the worklist's fixpoint are those read off the shared
    analyzer solved by rounds (``helpers.round_robin``)."""
    actual = _report(path)
    with monkeypatch.context() as patch:
        patch.setattr(callgraph._Analyzer, "solve", round_robin)
        expected = _report(path)
    assert actual == expected


def _corpus_targets() -> list[Path]:
    dirs = [d for d in sorted(CORPUS.rglob("*")) if d.is_dir() and d.name != "__pycache__"]
    return [*corpus_files(), CORPUS, *dirs]


@pytest.mark.parametrize("path", _corpus_targets(), ids=lambda p: str(p.relative_to(CORPUS.parent)))
def test_worklist_matches_round_robin_on_corpus(path: Path, monkeypatch):
    _assert_worklist_matches_round_robin(path, monkeypatch)


@settings(max_examples=60, deadline=None)
@given(programs())
def test_worklist_matches_round_robin_on_generated_programs(tmp_path_factory, source):
    path = tmp_path_factory.mktemp("generated") / "generated.py"
    path.write_text(source)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_worklist_matches_round_robin(path, monkeypatch)


def test_worklist_matches_round_robin_on_a_return_chain(tmp_path, monkeypatch):
    path = tmp_path / "chain.py"
    path.write_text(_return_chain(200))
    _assert_worklist_matches_round_robin(path, monkeypatch)


# ``g``'s receiver is a B, then an A or a B; ``a`` is walked before ``z``
# gives its receiver any type.
_METHOD_CALLS = {
    "two_receivers.py": (
        "class A:\n    def m(self):\n        return 1\n\n\n"
        "class B:\n    def m(self):\n        return 's'\n\n\n"
        "def g(o):\n    return o.m()\n\n\ndef h():\n    return A()\n\n\n"
        "x = g(B())\ny = g(h())\n"
    ),
    "late_receiver.py": (
        "class B:\n    def m(self):\n        return 's'\n\n\n"
        "def a(o):\n    return o.m()\n\n\ndef z():\n    return a(B())\n\n\nr = z()\n"
    ),
}


@pytest.mark.parametrize("name", sorted(_METHOD_CALLS))
def test_worklist_matches_round_robin_on_method_calls(tmp_path, monkeypatch, name):
    path = tmp_path / name
    path.write_text(_METHOD_CALLS[name])
    _assert_worklist_matches_round_robin(path, monkeypatch)


def test_a_method_call_unions_the_returns_of_its_receivers(tmp_path):
    returns, variables, _ = _types(tmp_path, "two_receivers.py", _METHOD_CALLS["two_receivers.py"])
    assert returns["g"].type == {"int", "str"}
    assert variables[(None, "x")].type == {"int", "str"}


def test_a_method_call_on_a_receiver_with_no_type_yet_adds_no_any(tmp_path):
    returns, _, _ = _types(tmp_path, "late_receiver.py", _METHOD_CALLS["late_receiver.py"])
    assert returns["a"].type == {"str"}
    assert returns["z"].type == {"str"}


def test_a_return_chain_converges_in_linear_evaluations(tmp_path, monkeypatch):
    """A statement is evaluated again only when a slot it read has grown: on
    a return chain, about twice per statement."""
    path = tmp_path / "chain.py"
    path.write_text(_return_chain(200))
    evaluated = _counted_evaluations(monkeypatch)
    records, diagnostics = infer_types_report(path)
    assert len(evaluated) <= 2 * len(set(evaluated)) == 2 * 403
    assert diagnostics == []
    (h,) = [r for r in records if r.variable == "h"]
    assert h.type == {"int"}


def test_package_evaluations_are_at_most_two_per_statement(tmp_path, monkeypatch):
    write_files(tmp_path, perfbench_gen(monkeypatch).gen_package(1).files)
    evaluated = _counted_evaluations(monkeypatch)
    infer_types_report(tmp_path / "pkg")
    assert len(evaluated) <= 2 * len(set(evaluated))
    assert len(evaluated) <= 6_000


def test_a_shadowed_name_pins_no_outer_parameter(tmp_path):
    """A use pins the parameter its name resolves to: a nested def's or a
    lambda's own parameter of the same name is not the outer one."""
    source = (
        "def outer(s):\n    def inner(s):\n        return s.upper()\n    return inner('a')\n\n\n"
        "def first(k):\n    return list(map(lambda k: k.upper(), ['a']))\n\n\n"
        "def f(s):\n    return s.upper()\n\n\ndef f(s):\n    return s\n\n\n"
        "outer(1)\nfirst(1)\nf(1)\n"
    )
    path = tmp_path / "shadow.py"
    path.write_text(source, encoding="utf-8")
    for simplify in (True, False):
        _, _, parameters = _by_kind(infer_types_report(path, simplify=simplify)[0])
        assert parameters[("outer", "s")].type == {"int"}
        assert parameters[("inner", "s")].type == {"str"}
        assert parameters[("first", "k")].type == {"int"}
        assert parameters[("f", "s")].type == {"int"}  # only the def that replaced the first


# ---------------------------------------------------------------------------
# Receivers: one rule (modgraph.binds_receiver) for result types and evidence


def test_a_method_called_on_an_instance_binds_its_arguments():
    returns, variables, parameters = _by_kind(infer_types_report(TI / "receivers.py")[0])
    assert parameters[("scale", "k")].type == {"int"}
    assert returns["scale"].type == {"int"}
    assert variables[(None, "r")].type == {"int"}


def test_a_method_called_on_self_binds_its_arguments():
    returns, variables, parameters = _by_kind(infer_types_report(TI / "receivers.py")[0])
    assert parameters[("twice", "x")].type == {"int"}
    assert returns["twice"].type == {"int"}
    assert variables[(None, "t")].type == {"int"}


def test_a_staticmethod_called_on_an_instance_takes_no_receiver(tmp_path):
    """Decorated, so not in the corpus, whose spans must nest."""
    path = tmp_path / "static.py"
    path.write_text(
        "class P:\n    @staticmethod\n    def half(n):\n        return n / 2\n\n"
        "    @classmethod\n    def of(cls, v):\n        return v\n\n\n"
        "p = P()\nw = p.half(5)\nz = p.of('s')\n"
    )
    returns, variables, parameters = _by_kind(infer_types_report(path)[0])
    assert parameters[("half", "n")].type == {"int"}
    assert variables[(None, "w")].type == {"float"}
    assert parameters[("of", "v")].type == {"str"}
    assert variables[(None, "z")].type == {"str"}
    observed = observe_types(path)
    for key, seen in observed.params.items():
        assert type_agrees(seen, parameters[key].type), (key, seen, parameters[key].type)


def test_the_receiver_is_the_first_parameter_whatever_its_name():
    returns, variables, parameters = _by_kind(infer_types_report(TI / "receivers.py")[0])
    assert ("m", "this") not in parameters
    assert "str" in parameters[("m", "x")].type
    assert "str" in variables[(None, "y")].type


# ---------------------------------------------------------------------------
# One interpreter: records read off the call graph's value sets


def _records_of(name: str):
    return _by_kind(infer_types_report(TI / name)[0])


def test_a_call_through_a_copied_name_reaches_the_callee():
    returns, variables, parameters = _records_of("copied_callee.py")
    assert parameters[("h", "p")].type == {"int"}
    assert returns["h"].type == {"int"}
    assert variables[(None, "k")].type == {"callable"}
    assert variables[(None, "r")].type == {"int"}


def test_calling_an_instance_binds_and_returns_through_its_dunder_call():
    returns, variables, parameters = _records_of("instance_call.py")
    assert parameters[("__call__", "g")].type == {"callable"}
    assert parameters[("__call__", "n")].type == {"int"}
    assert returns["__call__"].type == {"int"}
    assert variables[(None, "j")].type == {"int"}
    assert parameters[("h", "x")].type == {"int"}


def test_a_classmethod_that_calls_cls_returns_an_instance():
    returns, variables, _ = _records_of("classmethod_factory.py")
    assert returns["make"].type == {"classmethod_factory.C"}
    assert variables[(None, "m")].type == {"classmethod_factory.C"}


def test_a_module_level_name_read_in_a_function_is_typed():
    returns, variables, _ = _records_of("module_constant.py")
    assert returns["f"].type == {"int"}
    assert variables[(None, "x")].type == {"int"}


def test_a_nested_function_reads_the_enclosing_parameter():
    returns, variables, parameters = _records_of("enclosing_parameter.py")
    assert parameters[("inner", "k")].type == {"int"}
    assert returns["inner"].type == {"int"}
    assert returns["scaled"].type == {"int"}
    assert variables[(None, "y")].type == {"int"}


_ANY_RECEIVER = (
    "import os\n\n\nclass C:\n    def m(self):\n        return 1\n\n\n"
    "def a():\n    return b(os.sep)\n\n\ndef b(o):\n    return o.m()\n\n\n"
    "def c():\n    return b(C())\n"
)


def _reversed_solve(analyzer) -> None:
    """``_Analyzer.solve`` with its statements queued in reverse order."""
    work = [(scope, stmt) for scope in reversed(analyzer.table.scopes)
            for stmt in reversed(scope.statements)]
    analyzer.solver.solve(work, lambda item: analyzer._evaluate(*item))


@pytest.mark.parametrize("solve", [None, _reversed_solve, round_robin],
                         ids=["worklist", "reversed", "round_robin"])
def test_an_any_receiver_keeps_any_in_a_method_result_whatever_the_order(tmp_path, monkeypatch, solve):
    """``b``'s receiver is an external value (``os.sep``) and a ``C``: the
    first gives ``Any`` and the second ``C.m``'s ``int``, in any order."""
    if solve is not None:
        monkeypatch.setattr(callgraph._Analyzer, "solve", solve)
    returns, _, parameters = _types(tmp_path, "any_receiver.py", _ANY_RECEIVER)
    assert parameters[("b", "o")].type == {"Any", "any_receiver.C"}
    assert returns["b"].type == {"Any", "int"}
    assert returns["a"].type == returns["c"].type == {"Any", "int"}


USER_RET_NAMES = (
    "def f(a):\n    return a\n\n\n_retries = 3\n_ret = 's'\ny = f(f(_retries))\n\n\n"
    "def g():\n    _ret_2 = f(f(1))\n    return _ret_2\n"
)


@pytest.mark.parametrize("simplify", [True, False], ids=["simplified", "no-simplify"])
def test_only_the_rewriters_own_temporaries_are_hidden(tmp_path, simplify):
    """The rewriter makes ``_ret_1`` and ``_ret_3`` (``_ret`` and ``_ret_2``
    are taken) and hides them; the user's ``_ret``, ``_ret_2`` and
    ``_retries`` get records, and without simplification nothing is hidden."""
    path = tmp_path / "names.py"
    path.write_text(USER_RET_NAMES, encoding="utf-8")
    _, variables, _ = _by_kind(infer_types(name="names", entry=path, simplify=simplify))
    assert {key: r.type for key, r in variables.items()} == {
        (None, "_retries"): {"int"}, (None, "_ret"): {"str"}, (None, "y"): {"int"}, ("g", "_ret_2"): {"int"},
    }

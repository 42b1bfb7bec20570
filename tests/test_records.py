"""The record classes: construction by position and by keyword, defaults,
unshared containers, and value semantics for the immutable ones."""

from __future__ import annotations

import ast

import pytest

from lancet.callgraph import AssignmentGraph, CallGraph
from lancet.cfg import Block, Cfg, Link
from lancet.frontend import SourceFile
from lancet.modgraph import ImportGraph, ImportRelation, NameContext, Scope, ScopeTable, TreeNode
from lancet.rewriter import RewriteRule, TempNamer
from lancet.ssa import AliasPair, ConstDict, DefValue, SsaUseMap
from lancet.typeinfer import HeuristicTable, TypeRecord

_MODULE = ast.parse("x = 1")
_B1, _B2 = Block(1), Block(2)

# class -> (field, value) for every constructor parameter, in order.
MUTABLE = {
    Link: [("source", _B1), ("target", _B2), ("condition", ast.Name("c"))],
    Block: [("id", 3), ("statements", list(_MODULE.body)), ("exits", [Link(_B1, _B2)]),
            ("predecessors", [Link(_B2, _B1)])],
    Cfg: [("name", "m"), ("entry", _B1), ("blocks", {1: _B1}), ("final_blocks", {1}),
          ("unreachable_blocks", {2}), ("function_cfgs", {(1, "f"): None}),
          ("class_cfgs", {(1, "C"): None})],
    TreeNode: [("name", "m"), ("full_name", "p.m"), ("path", "p/m.py"),
               ("children", [TreeNode("q", "p.m.q", "p/m/q.py")]),
               ("module", _MODULE), ("parse_error", "bad"), ("is_module", True)],
    ImportGraph: [("tree", TreeNode("p", "p", "p")), ("module_dict", {"p": []}),
                  ("internal_edges", {("a", "b")}), ("diagnostics", ["d"])],
    Scope: [("fqn", "m.f"), ("kind", "function"), ("node", _MODULE), ("module", "m"),
            ("parent", None), ("params", ["self"]), ("receiver", "inst"),
            ("methods", {"g": "m.C.g"}), ("bindings", {"self": ("slot", "m.f.self")}),
            ("statements", list(_MODULE.body))],
    TempNamer: [("forbidden", {"_ret"}), ("counter", 2), ("pending", _MODULE), ("issued", {"_ret"})],
    DefValue: [("expr", ast.Constant(1)), ("kind", "literal"), ("site", (1, 0)),
               ("folded", 1), ("fold_failed", False)],
    ConstDict: [("entries", {("x", 0): DefValue(None, "unknown", (1, 0))})],
    SsaUseMap: [("per_block", {1: [{"x": {0}}]})],
    TypeRecord: [("file", "m.py"), ("line_number", 3), ("type", {"int"}), ("function", "f"),
                 ("variable", None), ("parameter", "a")],
    HeuristicTable: [("known_signatures", {"os.getcwd": "str"})],
    AssignmentGraph: [("nodes", {"m.x"}), ("value_sets", {"m.x": {("func", "m.f")}})],
    CallGraph: [("edges", {"m": {"m.f"}}), ("nodes", {"m": "module"}), ("internal_mods", {"m"}),
                ("external_mods", {"os"}), ("diagnostics", ["d"]),
                ("assignment_graph", AssignmentGraph())],
}

IMMUTABLE = {
    SourceFile: [("path", "m.py"), ("text", "x = 1\n"), ("module_name", "m")],
    ImportRelation: [("importer", "p.a"), ("imported_module", "p.b"),
                     ("symbols", (("f", None),)), ("relative_level", 1), ("resolved", False)],
    AliasPair: [("alias", ("b", 0)), ("target", "a")],
    RewriteRule: [("id", 9), ("name", "Rule"), ("apply", max)],
    NameContext: [("table", ScopeTable()), ("scope", None), ("scope_of", {}), ("alias_map", {})],
}


def _fields(record) -> dict:
    return record._asdict() if isinstance(record, tuple) else vars(record)


@pytest.mark.parametrize("cls", [*MUTABLE, *IMMUTABLE], ids=lambda cls: cls.__name__)
def test_records_construct_by_position_and_by_keyword(cls):
    fields = {**MUTABLE, **IMMUTABLE}[cls]
    expected = dict(fields)
    by_position = cls(*[value for _, value in fields])
    by_keyword = cls(**expected)
    for record in (by_position, by_keyword):
        assert _fields(record) == expected
        assert all(getattr(record, name) is value for name, value in fields)


# class -> (required arguments, the defaults of the rest)
DEFAULTS = {
    Link: ((_B1, _B2), {"condition": None}),
    Block: ((3,), {"statements": [], "exits": [], "predecessors": []}),
    Cfg: (("m", _B1), {"blocks": {}, "final_blocks": set(), "unreachable_blocks": set(),
                       "function_cfgs": {}, "class_cfgs": {}}),
    TreeNode: (("m", "p.m", "p/m.py"),
               {"children": [], "module": None, "parse_error": None, "is_module": False}),
    ImportGraph: ((TreeNode("p", "p", "p"),),
                  {"module_dict": {}, "internal_edges": set(), "diagnostics": []}),
    Scope: (("m", "module", _MODULE, "m"),
            {"parent": None, "params": [], "receiver": None, "methods": {}, "bindings": {},
             "statements": []}),
    TempNamer: ((), {"forbidden": set(), "counter": 0, "pending": None, "issued": set()}),
    ConstDict: ((), {"entries": {}}),
    SsaUseMap: ((), {"per_block": {}}),
    TypeRecord: (("m.py", 1, {"int"}), {"function": None, "variable": None, "parameter": None}),
    AssignmentGraph: ((), {"nodes": set(), "value_sets": {}}),
    ImportRelation: (("p.a", "p.b"), {"symbols": (), "relative_level": 0, "resolved": True}),
}


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda cls: cls.__name__)
def test_defaults_hold(cls):
    required, defaults = DEFAULTS[cls]
    record = cls(*required)
    assert {name: getattr(record, name) for name in defaults} == defaults


def test_defaults_that_are_not_plain_values():
    value = DefValue(None, "unknown", (1, 0))
    assert not value.is_folded and value.fold_failed is False
    graph = CallGraph()
    assert (graph.edges, graph.nodes, graph.internal_mods, graph.external_mods,
            graph.diagnostics) == ({}, {}, set(), set(), [])
    assert type(graph.assignment_graph) is AssignmentGraph
    assert _fields(graph.assignment_graph) == {"nodes": set(), "value_sets": {}}
    assert HeuristicTable().known_signatures == {}


@pytest.mark.parametrize("cls", [Block, Cfg, TreeNode, ImportGraph, Scope, TempNamer, ConstDict,
                                 SsaUseMap, AssignmentGraph, HeuristicTable, CallGraph],
                         ids=lambda cls: cls.__name__)
def test_default_constructed_records_share_no_container(cls):
    required = DEFAULTS[cls][0] if cls in DEFAULTS else ()
    first, second = cls(*required), cls(*required)
    containers = [name for name, value in vars(first).items()
                  if isinstance(value, (list, dict, set, AssignmentGraph))]
    assert containers
    for name in containers:
        assert getattr(first, name) is not getattr(second, name), name


@pytest.mark.parametrize("cls", list(IMMUTABLE), ids=lambda cls: cls.__name__)
def test_immutable_records_compare_by_value_and_cannot_be_assigned(cls):
    fields = IMMUTABLE[cls]
    first = cls(*[value for _, value in fields])
    second = cls(**dict(fields))
    assert first == second and first is not second
    changed = cls(**{**dict(fields), fields[0][0]: "other"})
    assert first != changed
    if cls is not NameContext:  # it holds dicts
        assert hash(first) == hash(second)
        assert len({first, second, changed}) == 2
    with pytest.raises(AttributeError):
        setattr(first, fields[0][0], "other")


def test_type_record_json_is_unchanged():
    full = TypeRecord("m.py", 3, {"str", "int"}, function="f", parameter="a")
    assert full.to_json_dict() == {"file": "m.py", "line_number": 3, "function": "f",
                                   "parameter": "a", "type": ["int", "str"]}
    assert list(full.to_json_dict()) == ["file", "line_number", "function", "parameter", "type"]
    variable = TypeRecord(file="m.py", line_number=1, type={"Any"}, variable="x")
    assert variable.to_json_dict() == {"file": "m.py", "line_number": 1, "variable": "x",
                                       "type": ["Any"]}
    assert TypeRecord("m.py", 5, set(), function="g").to_json_dict() == {
        "file": "m.py", "line_number": 5, "function": "g", "type": []}

"""Spans and counts around lancet's layer functions, recorded from outside.

:class:`Tracer` replaces each traced public function, in every ``lancet``
module that holds a reference to it, with a wrapper that records a span
(id, parent id, name, start, end) and, after the span closes, the counts
taken from the call's arguments and result.  Counting runs inside its own
``trace.count`` span, so it is charged to no layer.  A layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import ast
import json
import sys
import time
import types
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    op: str = ""


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name, time.perf_counter(),
                    op=parent.op if parent else name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                count_span = self.open("trace.count")
                counter(self, args, result)
                self.close(count_span)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function wherever a lancet module refers to it."""
        import lancet.cli

        originals = {}
        for (module_name, attr), (name, counter) in TRACED.items():
            fn = getattr(sys.modules[module_name], attr)
            originals[id(fn)] = self.wrap(name, fn, counter)
        modules = [m for n, m in sys.modules.items() if n == "lancet" or n.startswith("lancet.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and callable(value):
                    self._patch(module, attr, originals[id(value)])
        # The CLI serializes through ``json.dumps``; give it a traced copy.
        shim = types.SimpleNamespace(dumps=self.wrap("cli.json_dumps", json.dumps))
        self._patch(lancet.cli, "json", shim)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[tuple[str, str], float]:
        """(op, span name) -> summed self time."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[tuple[str, str], float] = {}
        for span in self.spans:
            key = (span.op, span.name)
            out[key] = out.get(key, 0.0) + (span.end - span.start) - child_time[span.id]
        return out

    def dump(self, path) -> None:
        rows = [vars(s) for s in self.spans]
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Counters, run after each traced call on its arguments and result.


def _stmts(tree: ast.AST) -> int:
    return sum(isinstance(n, ast.stmt) for n in ast.walk(tree))


def _count_parse(tracer: Tracer, args, tree) -> None:
    tracer.add("frontend.ast_nodes", sum(1 for _ in ast.walk(tree)))
    start = time.perf_counter()
    ast.parse(args[0])  # the floor: parsing without validation
    tracer.add("frontend.ast_parse_s", time.perf_counter() - start)


def _count_simplify(tracer: Tracer, args, result) -> None:
    tracer.add("rewriter.stmts_in", _stmts(args[0]))
    tracer.add("rewriter.stmts_out", _stmts(result))


def _count_cfg(tracer: Tracer, args, cfg) -> None:
    pending = [cfg]
    while pending:
        graph = pending.pop()
        tracer.add("cfg.blocks", len(graph.blocks))
        tracer.add("cfg.edges", sum(len(b.exits) for b in graph.blocks.values()))
        pending.extend(graph.function_cfgs.values())
        pending.extend(graph.class_cfgs.values())


def _count_ssa(tracer: Tracer, args, result) -> None:
    use_map, const = result
    tracer.add("ssa.defs", len(const))
    tracer.add("ssa.use_versions", sum(len(versions) for rows in use_map.per_block.values()
                                       for row in rows for versions in row.values()))


_FOLDABLE = ("literal", "name-reference", "arithmetic")


def _count_fold(tracer: Tracer, args, const) -> None:
    values = [v for _, v in const.items() if v.expr is not None and v.kind in _FOLDABLE]
    tracer.add("ssa.foldable", len(values))
    tracer.add("ssa.folded", sum(v.is_folded for v in values))


def _count_imports(tracer: Tracer, args, graph) -> None:
    tracer.add("modgraph.modules", sum(n.module is not None for n in graph.tree.iter_modules()))
    tracer.add("modgraph.internal_edges", len(graph.internal_edges))


def _count_resolve(tracer: Tracer, args, result) -> None:
    from lancet.modgraph import Unresolved

    tracer.add("modgraph.resolve_calls", 1)
    tracer.add("modgraph.resolved", not isinstance(result, Unresolved))


def _count_callgraph(tracer: Tracer, args, graph) -> None:
    tracer.add("callgraph.nodes", len(graph.nodes))
    tracer.add("callgraph.edges", sum(len(c) for c in graph.edges.values()))
    tracer.add("callgraph.diagnostics", len(graph.diagnostics))


def _count_types(tracer: Tracer, args, result) -> None:
    records, _ = result
    tracer.add("typeinfer.records", len(records))
    tracer.add("typeinfer.any", sum("Any" in r.type for r in records))


# (defining module, function) -> (span name, counter)
TRACED = {
    ("lancet.frontend", "parse_module"): ("frontend.parse_module", _count_parse),
    ("lancet.frontend", "unparse"): ("frontend.unparse", None),
    ("lancet.rewriter", "simplify_module"): ("rewriter.simplify_module", _count_simplify),
    ("lancet.cfg", "build_from_ast"): ("cfg.build_from_ast", _count_cfg),
    ("lancet.cfg", "to_json"): ("cfg.export", None),
    ("lancet.cfg", "to_dot"): ("cfg.export", None),
    ("lancet.ssa", "compute_ssa"): ("ssa.compute_ssa", _count_ssa),
    ("lancet.ssa", "fold_constants"): ("ssa.fold_constants", _count_fold),
    ("lancet.ssa", "alias_pairs"): ("ssa.alias_pairs", None),
    ("lancet.ssa", "to_json_dict"): ("ssa.to_json_dict", None),
    ("lancet.modgraph", "build_import_graph"): ("modgraph.build_import_graph", _count_imports),
    ("lancet.modgraph", "build_name_context"): ("modgraph.build_name_context", None),
    ("lancet.modgraph", "resolve_fqn"): ("modgraph.resolve_fqn", _count_resolve),
    ("lancet.callgraph", "analyze"): ("callgraph.analyze", _count_callgraph),
    ("lancet.typeinfer", "infer_types_report"): ("typeinfer.infer_types_report", _count_types),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every layer metric of one traced pass, except the ones the runner
    measures itself (``project.reparse_s``, output sizes, overhead)."""
    self_time = tracer.self_times()
    by_name: dict[str, float] = {}
    for (_, name), t in self_time.items():
        by_name[name] = by_name.get(name, 0.0) + t
    out = {f"{name}_s": by_name.get(name, 0.0) for name, _ in TRACED.values()
           if name != "ssa.to_json_dict"}
    # The SSA payload is built by to_json_dict and serialized by the CLI.
    out["ssa.to_json_s"] = by_name.get("ssa.to_json_dict", 0.0) + self_time.get(
        ("ssa", "cli.json_dumps"), 0.0)
    c = tracer.counts
    out["frontend.ast_parse_s"] = c.get("frontend.ast_parse_s", 0.0)
    out["frontend.validate_ratio"] = _ratio(out["frontend.parse_module_s"], out["frontend.ast_parse_s"])
    for key in ("frontend.ast_nodes", "rewriter.stmts_in", "rewriter.stmts_out", "cfg.blocks",
                "cfg.edges", "ssa.defs", "ssa.use_versions", "modgraph.modules",
                "modgraph.internal_edges", "callgraph.nodes", "callgraph.edges",
                "callgraph.diagnostics", "typeinfer.records"):
        out[key] = c.get(key, 0)
    out["ssa.fold_ratio"] = _ratio(c.get("ssa.folded", 0), c.get("ssa.foldable", 0))
    out["modgraph.resolved_ratio"] = _ratio(c.get("modgraph.resolved", 0), c.get("modgraph.resolve_calls", 0))
    out["typeinfer.any_ratio"] = _ratio(c.get("typeinfer.any", 0), c.get("typeinfer.records", 0))
    return out

"""Command-line entry point.

One subcommand per analysis, uniform conventions everywhere: machine output
goes to stdout (or ``--output``), diagnostics go to stderr, and two runs on
the same input produce byte-identical results.  Exit codes: 0 success, 1
diagnostics treated as errors under ``--strict``, 2 usage/parse/IO errors
and inputs nested too deeply (or too large) to analyze.
"""

from __future__ import annotations

import argparse
import gc
import json  # noqa: F401  (perfbench/spans.py swaps ``lancet.cli.json`` for a traced copy)
import sys
from pathlib import Path

from . import callgraph as cg
from . import cfg as cfg_mod
from . import modgraph, ssa, typeinfer
from .frontend import ParseError, SourceFile, dump_json, parse_module, source_text, unparse
from .modgraph import Unresolved
from .rewriter import FixpointError, simplify_module

USAGE_ERROR = 2
DIAGNOSTIC_ERROR = 1


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _report(diagnostics: list[str], strict: bool) -> int:
    for line in diagnostics:
        print(line, file=sys.stderr)
    return DIAGNOSTIC_ERROR if strict and diagnostics else 0


def _load(path: str):
    source = SourceFile.load(path)
    return source, parse_module(source.text, path)


def _cmd_rewrite(args: argparse.Namespace) -> int:
    _, tree = _load(args.file)
    _emit(unparse(simplify_module(tree)), args.output)
    return 0


def _cmd_cfg(args: argparse.Namespace) -> int:
    source, tree = _load(args.file)
    graph = cfg_mod.build_from_ast(source.module_name, tree)
    if args.format == "dot":
        _emit(cfg_mod.to_dot(graph, include_functions=args.include_functions), args.output)
    else:
        _emit(cfg_mod.to_json(graph), args.output)
    return 0


def _ssa_pipeline(args: argparse.Namespace):
    source, tree = _load(args.file)
    if not args.no_simplify:
        tree = simplify_module(tree)
    graph = cfg_mod.build_from_ast(source.module_name, tree)
    use_map, const = ssa.compute_ssa(graph)
    return use_map, ssa.fold_constants(const, use_map)


def _cmd_ssa(args: argparse.Namespace) -> int:
    use_map, const = _ssa_pipeline(args)
    payload = ssa.to_json_dict(use_map, const)
    _emit(dump_json(payload), args.output)
    return 0


def _cmd_alias(args: argparse.Namespace) -> int:
    _, const = _ssa_pipeline(args)
    pairs = [
        {"alias": f"{pair.alias[0]}#{pair.alias[1]}", "target": pair.target}
        for pair in ssa.alias_pairs(const)
    ]
    _emit(dump_json(pairs), args.output)
    return 0


def _cmd_imports(args: argparse.Namespace) -> int:
    graph = modgraph.build_import_graph(args.root)
    modules = sorted(
        node.full_name for node in graph.tree.iter_modules() if node.module is not None
    )
    payload = {
        "modules": modules,
        "edges": [list(edge) for edge in sorted(graph.internal_edges)],
        "leaves": [node.full_name for node in modgraph.leaf_nodes(graph)],
    }
    _emit(dump_json(payload), args.output)
    return _report(graph.diagnostics, args.strict)


def _cmd_fqn(args: argparse.Namespace) -> int:
    source, tree = _load(args.file)
    ctx = modgraph.build_name_context(tree, source.module_name)
    lines = []
    for call in modgraph.call_sites(tree):
        syntactic = source_text(call.func)
        resolved = modgraph.resolve_fqn(call.func, ctx)
        shown = "UNRESOLVED" if isinstance(resolved, Unresolved) else resolved
        lines.append(f"{call.lineno}:{call.col_offset} {syntactic} -> {shown}")
    _emit("".join(line + "\n" for line in lines), args.output)
    return 0


def _cmd_callgraph(args: argparse.Namespace) -> int:
    entries = list(args.entry or [])
    if not entries and args.package is None:
        print("error: provide --entry files or a --package root", file=sys.stderr)
        return USAGE_ERROR
    graph = cg.analyze(entries, package_root=args.package)
    if args.format == "simple-json":
        _emit(cg.to_simple_json(graph), args.output)
    else:
        edges = cg.output_edges(graph)
        _emit("".join(f"{caller} -> {callee}\n" for caller, callee in edges), args.output)
    return _report(graph.diagnostics, args.strict)


def _cmd_typeinfer(args: argparse.Namespace) -> int:
    records, diagnostics = typeinfer.infer_types_report(
        args.entry, simplify=not args.no_simplify
    )
    payload = [record.to_json_dict() for record in records]
    _emit(dump_json(payload), args.output)
    return _report(diagnostics, args.strict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lancet", description="Static analysis toolkit for Python 3 source code."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write results to this path instead of stdout")
        p.add_argument(
            "--strict", action="store_true", help="treat analysis diagnostics as errors"
        )

    p = sub.add_parser("rewrite", help="simplify a source file")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("cfg", help="control-flow graph of a file")
    p.add_argument("file")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument(
        "--include-functions", action="store_true",
        help="include nested function CFGs as DOT clusters",
    )
    common(p)
    p.set_defaults(fn=_cmd_cfg)

    p = sub.add_parser("ssa", help="SSA use sets and constants of a file")
    p.add_argument("file")
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--no-simplify", action="store_true", help="analyze the raw source")
    common(p)
    p.set_defaults(fn=_cmd_ssa)

    p = sub.add_parser("alias", help="alias pairs of a file")
    p.add_argument("file")
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--no-simplify", action="store_true", help="analyze the raw source")
    common(p)
    p.set_defaults(fn=_cmd_alias)

    p = sub.add_parser("imports", help="import graph of a project directory")
    p.add_argument("root")
    p.add_argument("--format", choices=["json"], default="json")
    common(p)
    p.set_defaults(fn=_cmd_imports)

    p = sub.add_parser("fqn", help="fully qualified names of call sites")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=_cmd_fqn)

    p = sub.add_parser("callgraph", help="project call graph")
    p.add_argument(
        "--entry", action="append",
        help="entry point file (repeatable; defaults to every file under --package)",
    )
    p.add_argument("--package", help="project root directory")
    p.add_argument("--format", choices=["simple-json", "edges"], default="simple-json")
    common(p)
    p.set_defaults(fn=_cmd_callgraph)

    p = sub.add_parser("typeinfer", help="inferred types for a file or package")
    p.add_argument("entry")
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--no-simplify", action="store_true", help="analyze the raw source")
    common(p)
    p.set_defaults(fn=_cmd_typeinfer)

    return parser


def _input_name(args: argparse.Namespace) -> str:
    for attr in ("file", "root", "entry", "package"):
        value = getattr(args, attr, None)
        if value:
            return value if isinstance(value, str) else " ".join(value)
    return "<input>"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else USAGE_ERROR
    # The trees an analysis builds are acyclic and reference counting frees
    # them; a cyclic-GC pass over them finds nothing, so none runs.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except FixpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (RecursionError, MemoryError) as exc:
        print(f"error: {_input_name(args)}: too deeply nested or too large to analyze "
              f"({type(exc).__name__})", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

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
    _emit(unparse(simplify_module(_load(args.file)[1])), args.output)
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
    _emit(dump_json(ssa.to_json_dict(*_ssa_pipeline(args))), args.output)
    return 0


def _cmd_alias(args: argparse.Namespace) -> int:
    _, const = _ssa_pipeline(args)
    pairs = [{"alias": f"{name}#{version}", "target": target}
             for (name, version), target in ssa.alias_pairs(const)]
    _emit(dump_json(pairs), args.output)
    return 0


def _cmd_imports(args: argparse.Namespace) -> int:
    graph = modgraph.build_import_graph(args.root)
    modules = sorted(node.full_name for node in graph.tree.iter_modules() if node.module is not None)
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
    if not args.entry and args.package is None:
        print("error: provide --entry files or a --package root", file=sys.stderr)
        return USAGE_ERROR
    graph = cg.analyze(list(args.entry or []), package_root=args.package)
    if args.format == "simple-json":
        _emit(cg.to_simple_json(graph), args.output)
    else:
        edges = cg.output_edges(graph)
        _emit("".join(f"{caller} -> {callee}\n" for caller, callee in edges), args.output)
    return _report(graph.diagnostics, args.strict)


def _cmd_typeinfer(args: argparse.Namespace) -> int:
    records, diagnostics = typeinfer.infer_types_report(args.entry, simplify=not args.no_simplify)
    payload = [record.to_json_dict() for record in records]
    _emit(dump_json(payload), args.output)
    return _report(diagnostics, args.strict)


# One row per subcommand, run by ``_cmd_<name>``: name, help, positional argument,
# ``--format`` choices (the first is the default) and whether it takes ``--no-simplify``.
_COMMANDS = (
    ("rewrite", "simplify a source file", "file", (), False),
    ("cfg", "control-flow graph of a file", "file", ("dot", "json"), False),
    ("ssa", "SSA use sets and constants of a file", "file", ("json",), True),
    ("alias", "alias pairs of a file", "file", ("json",), True),
    ("imports", "import graph of a project directory", "root", ("json",), False),
    ("fqn", "fully qualified names of call sites", "file", (), False),
    ("callgraph", "project call graph", None, ("simple-json", "edges"), False),
    ("typeinfer", "inferred types for a file or package", "entry", ("json",), True),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lancet", description="Static analysis toolkit for Python 3 source code."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, positional, formats, no_simplify in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if positional:
            p.add_argument(positional)
        if name == "callgraph":
            p.add_argument("--entry", action="append",
                           help="entry point file (repeatable; defaults to every file under --package)")
            p.add_argument("--package", help="project root directory")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        if name == "cfg":
            p.add_argument("--include-functions", action="store_true",
                           help="include nested function CFGs as DOT clusters")
        if no_simplify:
            p.add_argument("--no-simplify", action="store_true", help="analyze the raw source")
        p.add_argument("--output", help="write results to this path instead of stdout")
        p.add_argument("--strict", action="store_true", help="treat analysis diagnostics as errors")
        p.set_defaults(fn=globals()[f"_cmd_{name}"])  # looked up now, so tests may patch it
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
    except (FixpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (RecursionError, MemoryError) as exc:
        print(f"error: {_input_name(args)}: too deeply nested or too large to analyze "
              f"({type(exc).__name__})", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if gc_was_enabled:
            gc.enable()


def run() -> None:
    """The ``lancet`` script and ``python -m lancet.cli``: exit with ``main()``'s status."""
    status = main()
    # Exit collects over every unfrozen tracked object, even with the collector off.  Safe:
    # no finalizer sits in a cycle; flushing, atexit and the exit status need no collection.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()

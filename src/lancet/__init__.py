"""lancet: static analysis toolkit for Python 3 source code.

Submodules:

* :mod:`lancet.frontend` - parsing, unparsing, traversal
* :mod:`lancet.rewriter` - source simplification rules
* :mod:`lancet.cfg` - control-flow graphs with DOT/JSON export
* :mod:`lancet.ssa` - SSA use sets, constant folding, alias pairs
* :mod:`lancet.modgraph` - project discovery and naming, module loading, scopes,
  import graphs, FQN resolution
* :mod:`lancet.callgraph` - project call graphs
* :mod:`lancet.typeinfer` - heuristic type inference
* :mod:`lancet.cli` - the ``lancet`` command
"""

from .cfg import Block, Cfg, Link, build_from_file, build_from_source, to_dot
from .frontend import ParseError, SourceFile, parse_module, unparse, walk
from .rewriter import RewriteRule, TempNamer, simplify_module
from .ssa import AliasPair, ConstDict, SsaUseMap, alias_pairs, compute_ssa, fold_constants
from .modgraph import ImportGraph, TreeNode, build_import_graph, leaf_nodes, resolve_fqn
from .callgraph import CallGraph, analyze, output_edges, output_mods, to_simple_json
from .typeinfer import HeuristicTable, TypeRecord, infer_types

__version__ = "0.1.0"

__all__ = [  # one line per submodule, as imported above
    "Block", "Cfg", "Link", "build_from_file", "build_from_source", "to_dot",
    "ParseError", "SourceFile", "parse_module", "unparse", "walk",
    "RewriteRule", "TempNamer", "simplify_module",
    "AliasPair", "ConstDict", "SsaUseMap", "alias_pairs", "compute_ssa", "fold_constants",
    "ImportGraph", "TreeNode", "build_import_graph", "leaf_nodes", "resolve_fqn",
    "CallGraph", "analyze", "output_edges", "output_mods", "to_simple_json",
    "HeuristicTable", "TypeRecord", "infer_types",
    "__version__",
]

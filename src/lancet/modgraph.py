"""Project discovery, loading, scopes, import graphs, and name resolution.

This module owns the project model every project-level analysis shares:
which files form a project, what each one is named, how it is loaded, which
scopes it holds and what an import or a call binds.  :func:`discover` walks
a project directory once, without parsing; :func:`load_module` reads, parses
and optionally simplifies one module, or returns the one diagnostic that
skips it; :func:`build_dir_tree` loads the modules the walk finds into a
:class:`TreeNode` tree.  :class:`ScopeTable` walks a loaded module once into
its module, function and class :class:`Scope` records, each with its own
statements as one flat list; the call graph, type inference and ``lancet
fqn`` read it, and the call graph's analyzer, which type inference runs
too, solves its fixpoint on a :class:`Worklist`.
:func:`import_bindings` maps one import statement to the names it
binds, and :func:`parse_imports` turns each import statement into an
:class:`ImportRelation` with relative imports resolved against the
importer's package.  A module is a *leaf* when it has no outgoing
project-internal imports - the bottom of the dependency hierarchy,
analyzable without project context.

Names resolve by Python's nested rule, :meth:`Scope.lookup`, and an import
binds its names in the scope where it appears.  :func:`resolve_fqn` maps a
call name (a ``Name`` or dotted attribute chain, see :func:`dotted_parts`)
to its fully qualified dotted path through the import or module-level
definition its root is bound to, or a module-level bare-name copy
(``g = getcwd; g()`` resolves through ``getcwd``).  Other roots come back
as :class:`Unresolved`, a ``str`` subclass carrying the syntactic dotted
text unchanged, so resolution is idempotent.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .cfg import head_exprs
from .frontend import ParseError, SourceFile, parse_module, positional_params, source_text, walk
from .rewriter import FixpointError, simplify_module
from .ssa import target_names, unpack

__all__ = [
    "DiagnosticLog",
    "TreeNode",
    "Scope",
    "bind_arguments",
    "binds_receiver",
    "bind_defaults",
    "ScopeTable",
    "Worklist",
    "ImportRelation",
    "ImportGraph",
    "NameContext",
    "Unresolved",
    "discover",
    "load_module",
    "build_dir_tree",
    "import_bindings",
    "parse_imports",
    "build_import_graph",
    "leaf_nodes",
    "resolve_relative",
    "build_name_context",
    "dotted_parts",
    "resolve_fqn",
    "call_sites",
]

_SKIP_DIRS = {"__pycache__"}
RETURN_SLOT = "<ret>"  # a function's return slot: f"{fqn}.{RETURN_SLOT}"


class DiagnosticLog(list):
    """Diagnostic lines in first-seen order; appending a repeat does nothing."""

    def __init__(self, lines=()) -> None:
        super().__init__()
        self._seen: set[str] = set()
        self.extend(lines)

    def append(self, line: str) -> None:
        if line not in self._seen:
            self._seen.add(line)
            super().append(line)

    def extend(self, lines) -> None:
        for line in lines:
            self.append(line)


class TreeNode:
    """One directory or module file of a project.

    ``is_module`` marks ``.py`` leaves; once loaded, a leaf holds its
    ``module`` or, when it cannot be loaded, the diagnostic that skipped it
    (see :func:`load_module`) in ``parse_error``.
    """

    def __init__(self, name: str, full_name: str, path: str, children: list[TreeNode] | None = None,
                 module: ast.Module | None = None, parse_error: str | None = None,
                 is_module: bool = False) -> None:
        self.name, self.full_name, self.path = name, full_name, path
        self.children = [] if children is None else children
        self.module, self.parse_error, self.is_module = module, parse_error, is_module

    def iter_modules(self):
        if self.is_module:
            yield self
        for child in self.children:
            yield from child.iter_modules()


class ImportRelation(NamedTuple):
    """One import statement seen in ``importer``.

    ``symbols`` holds (name, alias) pairs for ``from``-imports and the plain
    ``import`` binding; a ``*`` name records a wildcard import.
    ``relative_level`` counts leading dots (0 = absolute); ``resolved`` is
    False when a relative import reaches above the project root, in which
    case ``imported_module`` keeps the unanchored text.
    """

    importer: str
    imported_module: str
    symbols: tuple[tuple[str, str | None], ...] = ()
    relative_level: int = 0
    resolved: bool = True


class ImportGraph:
    def __init__(self, tree: TreeNode, module_dict: dict[str, list[ImportRelation]] | None = None,
                 internal_edges: set[tuple[str, str]] | None = None,
                 diagnostics: list[str] | None = None) -> None:
        self.tree = tree
        self.module_dict = {} if module_dict is None else module_dict
        self.internal_edges = set() if internal_edges is None else internal_edges
        self.diagnostics = [] if diagnostics is None else diagnostics


def discover(root: str | Path) -> tuple[TreeNode, list[str]]:
    """Walk the project directory ``root`` without parsing anything.

    Returns the directory tree, whose paths extend ``root`` as given, and a
    diagnostic for each directory the walk skipped.  The rules:
    dot-directories and ``__pycache__`` are skipped; a package shadows a
    same-named module, as in CPython's import system; a directory named like
    a module (``d.py``) is skipped; entries come in sorted order; and each
    resolved directory is visited once, so a symlink back into the tree
    (or a second link to one directory) is skipped.  Module names start
    with the resolved root's name.  Raises ``OSError`` when ``root`` cannot
    be listed.
    """
    rootp = Path(root)
    real = rootp.resolve()
    diagnostics: list[str] = []
    return _walk_dir(rootp, real.name, {real}, diagnostics), diagnostics


def _walk_dir(path: Path, full_name: str, seen: set[Path], diagnostics: list[str]) -> TreeNode:
    node = TreeNode(name=path.name, full_name=full_name, path=str(path))
    taken: set[str] = set()
    for entry in sorted(path.iterdir(), key=lambda p: p.name):
        if entry.is_dir():
            if entry.name in _SKIP_DIRS or entry.name.startswith("."):
                continue
            taken.add(entry.name)
            if entry.suffix == ".py":
                diagnostics.append(f"{entry}: skipped: a directory, not a module")
                continue
            real = entry.resolve()
            if real in seen:
                diagnostics.append(f"{entry}: skipped: {real} is already part of the project")
                continue
            seen.add(real)
            node.children.append(_walk_dir(entry, f"{full_name}.{entry.name}", seen, diagnostics))
        elif entry.suffix == ".py" and entry.stem not in taken:
            stem = entry.stem
            child_full = full_name if stem == "__init__" else f"{full_name}.{stem}"
            node.children.append(
                TreeNode(name=stem, full_name=child_full, path=str(entry), is_module=True)
            )
            taken.add(stem)
    return node


def load_module(path: str | Path, *, simplify: bool = False) -> tuple[ast.Module | None, str | None]:
    """Read, parse and, with ``simplify``, simplify the module file ``path``.

    Returns the module and None, or None and the one diagnostic that skips
    the module: the :class:`ParseError` text (``path:line:col: message``)
    when the file does not parse or is not UTF-8, else
    ``path: skipped: reason`` (unreadable file, rewriter fixpoint failure).
    """
    try:
        module = parse_module(SourceFile.load(path).text, str(path))
        return (simplify_module(module) if simplify else module), None
    except ParseError as exc:
        return None, str(exc)
    except (OSError, FixpointError) as exc:
        return None, f"{path}: skipped: {getattr(exc, 'strerror', None) or exc}"


def _parsed_tree(root: str | Path) -> tuple[TreeNode, list[str]]:
    rootp = Path(root).resolve()
    if not rootp.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    tree, diagnostics = discover(rootp)
    for node in tree.iter_modules():
        node.module, node.parse_error = load_module(node.path)
    return tree, diagnostics


def build_dir_tree(root: str | Path) -> TreeNode:
    """Mirror ``root`` as a tree (see :func:`discover`), loading every module.

    Files that cannot be loaded keep their node with ``parse_error`` set;
    non-source files are skipped.  Raises ``OSError`` when ``root`` itself is
    unreadable or not a directory.
    """
    return _parsed_tree(root)[0]


def resolve_relative(importer: str, is_package: bool, level: int, module: str | None) -> str | None:
    """Anchor a relative import at the importer's package; None if it escapes."""
    if level == 0:
        return module
    parts = importer.split(".")
    if not is_package:
        parts = parts[:-1]
    strip = level - 1
    if strip > len(parts):
        return None
    if strip:
        parts = parts[:-strip]
    if not parts and not module:
        return None
    if module:
        parts = parts + module.split(".")
    return ".".join(parts) if parts else None


def import_bindings(
    stmt: ast.Import | ast.ImportFrom, importer: str, is_package: bool
) -> list[tuple[str, list[tuple[str, str]]]] | None:
    """What one import statement in module ``importer`` binds.

    One ``(module, [(local name, dotted target), ...])`` entry per module the
    statement loads: ``import a.b`` binds ``a`` to ``a``, ``import a.b as c``
    binds ``c`` to ``a.b``, and ``from m import x as y`` binds ``y`` to
    ``m.x``, with a relative ``m`` anchored by :func:`resolve_relative`.  A
    ``*`` binds nothing.  None when a relative import reaches above the
    project root.
    """
    if isinstance(stmt, ast.Import):
        out: list[tuple[str, list[tuple[str, str]]]] = []
        for alias in stmt.names:
            if alias.asname:
                out.append((alias.name, [(alias.asname, alias.name)]))
            else:
                top = alias.name.split(".")[0]
                out.append((alias.name, [(top, top)]))
        return out
    module = resolve_relative(importer, is_package, stmt.level, stmt.module)
    if module is None:
        return None
    return [(module, [(alias.asname or alias.name, f"{module}.{alias.name}")
                      for alias in stmt.names if alias.name != "*"])]


def _statements(module: ast.Module) -> Iterator[ast.stmt]:
    """Every statement of ``module``, in :func:`~lancet.frontend.walk`'s
    order.  Only the statement lists are searched: in the accepted subset no
    expression holds a statement, and ``body`` and ``orelse`` are the only
    statement lists (``parse_module`` rejects ``try``, ``with`` and ``match``).
    """
    stack = module.body[::-1]
    while stack:
        stmt = stack.pop()
        yield stmt
        stack += (getattr(stmt, "body", []) + getattr(stmt, "orelse", []))[::-1]


def _relations_for(node: TreeNode) -> tuple[list[ImportRelation], list[str]]:
    relations: list[ImportRelation] = []
    diagnostics: list[str] = []
    assert node.module is not None
    is_package = node.name == "__init__"
    for stmt in _statements(node.module):
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        bindings = import_bindings(stmt, node.full_name, is_package)
        resolved = bindings is not None
        if not resolved:
            diagnostics.append(
                f"{node.path}:{stmt.lineno}: relative import reaches above the project root"
            )
            bindings = [("." * stmt.level + (stmt.module or ""), [])]
        groups = [[alias] for alias in stmt.names] if isinstance(stmt, ast.Import) else [stmt.names]
        for (module, _), aliases in zip(bindings, groups):
            relations.append(
                ImportRelation(
                    importer=node.full_name,
                    imported_module=module,
                    symbols=tuple((a.name, a.asname) for a in aliases),
                    relative_level=getattr(stmt, "level", 0),
                    resolved=resolved,
                )
            )
    return relations, diagnostics


def parse_imports(tree: TreeNode) -> dict[str, list[ImportRelation]]:
    """Import relations per module, for every parsed module in the tree."""
    module_dict: dict[str, list[ImportRelation]] = {}
    for node in tree.iter_modules():
        if node.module is None:
            continue
        relations, _ = _relations_for(node)
        module_dict[node.full_name] = relations
    return module_dict


def build_import_graph(root: str | Path) -> ImportGraph:
    """Directory tree + import relations + project-internal edge set."""
    tree, diagnostics = _parsed_tree(root)
    graph = ImportGraph(tree=tree, diagnostics=DiagnosticLog(diagnostics))
    project = {node.full_name for node in tree.iter_modules() if node.module is not None}
    for node in tree.iter_modules():
        if node.module is None:
            if node.parse_error is not None:
                graph.diagnostics.append(node.parse_error)
            continue
        relations, diagnostics = _relations_for(node)
        graph.module_dict[node.full_name] = relations
        graph.diagnostics.extend(diagnostics)
        for rel in relations:
            if not rel.resolved:
                continue
            targets = [rel.imported_module]
            targets += [f"{rel.imported_module}.{symbol}" for symbol, _alias in rel.symbols]
            for target in targets:
                # ``from . import x`` in a package's ``__init__`` names the
                # package itself; a module is no dependency of its own.
                if target in project and target != rel.importer:
                    graph.internal_edges.add((rel.importer, target))
    return graph


def leaf_nodes(graph: ImportGraph) -> list[TreeNode]:
    """Modules with no outgoing project-internal imports, by full name."""
    importers_with_edges = {importer for importer, _ in graph.internal_edges}
    leaves = [
        node
        for node in graph.tree.iter_modules()
        if node.module is not None and node.full_name not in importers_with_edges
    ]
    return sorted(leaves, key=lambda n: n.full_name)


# ---------------------------------------------------------------------------
# Scopes


class Scope:
    """One ``kind`` of body, ``"module"``, ``"function"`` or ``"class"``, of a loaded module.

    ``statements`` are the scope's own statements in pre-order: the bodies
    and ``else`` clauses of ``if``/``while``/``for`` are included, the bodies
    of nested definitions are not.  ``bindings`` map a local name to
    ``("slot", fqn)`` for a definition, parameter or assignment target, or to
    what an import bound it to.  ``params`` are a function's positional
    parameters; ``methods`` map a class's method names to their FQNs.
    ``receiver`` is what a method's first parameter takes (:func:`binds_receiver`):
    ``"inst"``, ``"class"`` for a classmethod, or None for any other function.
    """

    def __init__(self, fqn: str, kind: str, node: ast.Module | ast.FunctionDef | ast.ClassDef,
                 module: str, parent: Scope | None = None, params: list[str] | None = None,
                 receiver: str | None = None, methods: dict[str, str] | None = None,
                 bindings: dict[str, tuple[str, str]] | None = None,
                 statements: list[ast.stmt] | None = None) -> None:
        self.fqn, self.kind, self.node, self.module, self.parent = fqn, kind, node, module, parent
        self.params = [] if params is None else params
        self.receiver = receiver
        self.methods = {} if methods is None else methods
        self.bindings = {} if bindings is None else bindings
        self.statements = [] if statements is None else statements

    def slot(self, name: str) -> str:
        return f"{self.fqn}.{name}"

    @property
    def arguments(self) -> list[str]:
        """The parameters that only a call's arguments bind: all but the receiver's."""
        return self.params[1:] if self.receiver else self.params

    def lookup(self, name: str) -> tuple[str, str] | None:
        """``name``'s binding by Python's nested rule: this scope, then the
        enclosing ones, whose class bodies are invisible from inside."""
        scope: Scope | None = self
        while scope is not None:
            if name in scope.bindings and (scope is self or scope.kind != "class"):
                return scope.bindings[name]
            scope = scope.parent
        return None


def bind_arguments(call: ast.Call, params: list[str],
                   bound: bool = False) -> list[tuple[str, ast.expr | None]]:
    """The (parameter, argument) pairs by which ``call`` may bind ``params``;
    with ``bound`` (:func:`binds_receiver`), the first parameter is the
    receiver and takes none.  A ``*[...]`` or ``*(...)`` with no star inside
    counts as its elements, a ``**{...}`` with constant keys as keywords.
    Positional arguments pair in order up to the first other starred one;
    from there, each may bind any parameter from the count of plain ones
    before it, and a starred one binds those to None, as another ``**`` one
    binds every parameter no plain one took.  Keywords pair by name; None
    means bound, value unknown, as in :func:`~lancet.ssa.unpack`."""
    params = params[1:] if bound else params
    args: list[ast.expr] = []
    for arg in call.args:
        literal = isinstance(arg, ast.Starred) and isinstance(arg.value, (ast.List, ast.Tuple))
        spread = literal and not any(isinstance(elt, ast.Starred) for elt in arg.value.elts)
        args += arg.value.elts if spread else [arg]
    pairs: list[tuple[str, ast.expr | None]] = []
    plain = 0  # plain positional arguments so far; fewer than ``i`` after a star
    for i, arg in enumerate(args):
        star = isinstance(arg, ast.Starred)
        reach = params[plain:] if star or plain < i else params[plain:plain + 1]
        pairs += [(name, None if star else arg) for name in reach]
        plain += not star
    for keyword in call.keywords:
        value = keyword.value
        if keyword.arg is None and isinstance(value, ast.Dict) and all(
                isinstance(key, ast.Constant) for key in value.keys):
            pairs += [(key.value, item) for key, item in zip(value.keys, value.values) if key.value in params]
        elif keyword.arg is None:
            pairs += [(name, None) for name in params[plain:]]
        elif keyword.arg in params:
            pairs.append((keyword.arg, value))
    return pairs


def binds_receiver(callee: Scope, via: str | None) -> bool:
    """Whether a call passes ``callee`` a receiver: through an instance
    (``via`` is ``"inst"``) to a method or classmethod (:attr:`Scope.receiver`),
    through the class (``"class"``) to a classmethod, plainly (None) never."""
    return via == "inst" and callee.receiver is not None or via == "class" == callee.receiver


def bind_defaults(node: ast.FunctionDef) -> list[tuple[str, ast.expr]]:
    """The (parameter, default) pairs of ``node``'s positional parameters."""
    if not node.args.defaults:
        return []
    params = positional_params(node.args)
    return [(p.arg, d) for p, d in zip(reversed(params), reversed(node.args.defaults))]


class ScopeTable:
    """The scopes of the modules added so far, in pre-order, indexed by FQN.

    A later definition of an FQN replaces an earlier one in the indexes.
    """

    def __init__(self) -> None:
        self.scopes: list[Scope] = []
        self.modules: dict[str, Scope] = {}
        self.functions: dict[str, Scope] = {}
        self.classes: dict[str, Scope] = {}

    def add_module(
        self,
        module: ast.Module,
        name: str,
        on_statement: Callable[[Scope, ast.stmt], None] | None = None,
        *,
        is_package: bool = False,
    ) -> None:
        """Walk ``module`` once, adding each scope as the walk enters it.

        ``on_statement(scope, stmt)`` is called for every statement as the
        walk reaches it, after an import has bound each name to
        ``("import", target)`` in that scope and before the body; scopes it
        adds (an import that loads another module) take that place in the
        pre-order.  ``is_package`` marks a package's ``__init__``.
        """
        root = Scope(name, "module", module, name)
        self.modules[name] = root
        self.scopes.append(root)
        stack = [(stmt, root) for stmt in reversed(module.body)]
        while stack:
            stmt, scope = stack.pop()
            scope.statements.append(stmt)
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for _, pairs in import_bindings(stmt, name, is_package) or ():
                    scope.bindings.update((local, ("import", target)) for local, target in pairs)
            if isinstance(stmt, ast.Global):
                for local in stmt.names:
                    scope.bindings[local] = root.bindings.setdefault(local, ("slot", root.slot(local)))
            if on_statement is not None:
                on_statement(scope, stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                child = self._add_definition(scope, stmt)
                stack += [(inner, child) for inner in reversed(stmt.body)]
                continue
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.For)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for local in target_names(target):
                        scope.bindings.setdefault(local, ("slot", scope.slot(local)))
            if isinstance(stmt, (ast.If, ast.While, ast.For)):
                stack += [(inner, scope) for inner in reversed(stmt.body + stmt.orelse)]

    def _add_definition(self, parent: Scope, stmt: ast.FunctionDef | ast.ClassDef) -> Scope:
        fqn = parent.slot(stmt.name)
        parent.bindings[stmt.name] = ("slot", fqn)
        if isinstance(stmt, ast.ClassDef):
            child = Scope(fqn, "class", stmt, parent.module, parent)
            self.classes[fqn] = child
        else:
            if parent.kind == "class":
                parent.methods[stmt.name] = fqn
            params = [a.arg for a in positional_params(stmt.args)]
            decorators = {d.id for d in stmt.decorator_list}  # bare names only (see frontend)
            receiver = "class" if "classmethod" in decorators else "inst"
            method = parent.kind == "class" and params and "staticmethod" not in decorators
            child = Scope(fqn, "function", stmt, parent.module, parent, params,
                          receiver if method else None,
                          bindings={p: ("slot", f"{fqn}.{p}") for p in params})
            self.functions[fqn] = child
        self.scopes.append(child)
        return child


class Worklist:
    """A fixpoint over growing sets, by difference propagation: :meth:`solve`
    runs each unit once, in order, then again whenever a slot it read
    (:meth:`get`) has grown (:meth:`add`).  Slots only grow, so over finitely
    many values the queue runs dry, at the least fixpoint."""

    def __init__(self) -> None:
        self.values: dict[str, set] = {}
        self.readers: dict[str, list[int]] = {}  # slot -> the units that read it, by index
        self.reading = 0
        self.queue: deque[int] = deque()
        self.queued = bytearray()

    def get(self, slot: str) -> set:
        readers = self.readers.get(slot)
        if readers is None:
            self.readers[slot] = [self.reading]
        elif readers[-1] != self.reading:
            readers.append(self.reading)
        return self.values.setdefault(slot, set())

    def add(self, slot: str, values: set) -> None:
        if not values:
            return
        current = self.values.setdefault(slot, set())
        before = len(current)
        current |= values
        if len(current) != before:
            for reader in self.readers.get(slot, ()):
                if not self.queued[reader]:
                    self.queued[reader] = 1
                    self.queue.append(reader)

    def solve(self, units: list, run: Callable) -> None:
        self.queue = deque(range(len(units)))
        self.queued = bytearray([1]) * len(units)
        while self.queue:
            self.reading = self.queue.popleft()
            self.queued[self.reading] = 0
            run(units[self.reading])


# ---------------------------------------------------------------------------
# Fully qualified name resolution


class Unresolved(str):
    """A dotted name whose root could not be bound; compares equal to its text."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"Unresolved({str.__repr__(self)})"


class NameContext(NamedTuple):
    """``lancet fqn``'s view of one module's scope table: the module
    ``scope``, the scope of each callee in a function or class body, and
    the module-level bare-name copies that chase a root."""

    table: ScopeTable
    scope: Scope
    scope_of: dict[ast.expr, Scope]
    alias_map: dict[str, str]


def build_name_context(module: ast.Module, module_name: str) -> NameContext:
    """The module's :class:`ScopeTable` and the scope of each callee in a
    function or class body, from the statements' heads (:func:`head_exprs`)
    with lambda bodies included.  A name that module-level assignments,
    including those in module-level ``if``/``while``/``for`` bodies, copy
    from exactly one other name (``g = getcwd``, paired by
    :func:`~lancet.ssa.unpack`) maps to that name in ``alias_map``."""
    table = ScopeTable()
    table.add_module(module, module_name)
    top, *bodies = table.scopes
    scope_of = {node.func: scope for scope in bodies for stmt in scope.statements
                for expr in head_exprs(stmt) for node in walk(expr) if isinstance(node, ast.Call)}
    copies: dict[str, set[str]] = {}
    for stmt in top.statements:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for name, expr in unpack(target, stmt.value):
                    if isinstance(expr, ast.Name):
                        copies.setdefault(name, set()).add(expr.id)
    alias_map = {name: next(iter(t)) for name, t in copies.items() if len(t) == 1}
    return NameContext(table, top, scope_of, alias_map)


def dotted_parts(expr: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None unless ``expr`` is a name or an
    attribute chain on one."""
    parts = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return None
    parts.append(expr.id)
    return parts[::-1]


def resolve_fqn(call_name: ast.expr, ctx: NameContext) -> str:
    """Fully qualified dotted name for a call target, or :class:`Unresolved`:
    the import, or module-level def or class, that the root names in the
    callee's scope, chased through ``alias_map`` from another module-level
    name.  A parameter, a local, a class attribute or a nested def is not."""
    parts = dotted_parts(call_name)
    if not parts:
        return Unresolved(source_text(call_name))
    root = parts[0]
    binding = ctx.scope_of.get(call_name, ctx.scope).lookup(root)
    seen: set[str] = set()
    while binding == ("slot", ctx.scope.slot(root)) and root not in seen:
        if binding[1] in ctx.table.functions or binding[1] in ctx.table.classes:
            return ".".join([binding[1]] + parts[1:])
        seen.add(root)
        root = ctx.alias_map.get(root)
        binding = ctx.scope.bindings.get(root)
    if binding is not None and binding[0] == "import":
        return ".".join([binding[1]] + parts[1:])
    return Unresolved(".".join(parts))


def call_sites(module: ast.Module) -> list[ast.Call]:
    """All call expressions in the module, in source (pre-)order."""
    return [node for node in walk(module) if isinstance(node, ast.Call)]

"""Source-to-source simplification of the analyzed programs.

Five rewrite rules remove syntax that complicates flow analysis:

1. ComprehensionUnfolding - ``lst = [e for i in it]`` becomes an empty
   container plus an explicit accumulation loop (list/set/dict only;
   generator expressions stay lazy and are left alone).
2. NestedCallHandling - a call argument that is itself a call is hoisted
   into a fresh temporary, preserving call evaluation order.
3. SubscriptionAssignment - ``x = f()[1:10]`` hoists the call before the
   subscript.
4. LambdaConversion - ``x = lambda a: a + 10`` becomes
   ``def x(a): return a + 10`` at the same position.
5. CallChainSplitting - ``f1().f2().f3()`` is split into one statement per
   chain link, each receiver bound to a fresh temporary.

:func:`simplify_module` applies the rules in one pass, which is their
fixpoint; a statement fires at most once per node it has, so it ends.
Temporaries come from :class:`TempNamer`, which avoids every identifier
already present in the module, collected when it names the first
temporary.  The work follows what is rewritten: a statement tries only
the rules that can match its value's type, so one that no rule can match
costs one type lookup, and a compound statement costs that plus the
statements of its blocks.

Located input gives located output: a node a rule builds takes the
location of its nearest located ancestor, the replaced statement above
them all, and a rule that copies a node locates the name it puts in the
copy at that node, so no located node holds an unlocated one.

Rewriting is copy-on-write: no rule and no pass modifies a node it was
given.  A rewritten statement is rebuilt along the path from the statement
to the node that changes, a compound statement whose ``body`` or ``orelse``
changes is replaced by a shallow copy carrying the new list, and every
other node of the result is shared with the input.  Neither the input nor
the result may therefore be mutated by any caller.
"""

from __future__ import annotations

import ast
from typing import Callable, NamedTuple, Sequence

from .frontend import NODE_FIELDS, child_nodes, walk

__all__ = [
    "RewriteRule",
    "TempNamer",
    "FixpointError",
    "RULES",
    "simplify_module",
]


class FixpointError(Exception):
    """A rule kept matching its own output (a rule bug, not user error)."""


class TempNamer:
    """Generates `_ret`, `_ret_1`, ... temporaries that collide with nothing.

    ``forbidden`` holds the names to avoid; every emitted name is added to
    it and to ``issued``.  :meth:`for_module` adds the identifiers bound or
    referenced in the module under rewrite, collected on the first
    :meth:`fresh` call, so a module that needs no temporary is never walked
    for them.  That module must not change before then.
    """

    def __init__(self, forbidden: set[str] | None = None, counter: int = 0,
                 pending: ast.AST | None = None, issued: set[str] | None = None) -> None:
        self.forbidden = set() if forbidden is None else forbidden
        self.counter = counter
        self.pending = pending
        self.issued = set() if issued is None else issued

    @classmethod
    def for_module(cls, module: ast.Module) -> "TempNamer":
        return cls(pending=module)

    def fresh(self) -> str:
        if self.pending is not None:
            self.forbidden |= collect_identifiers(self.pending)
            self.pending = None
        while True:
            name = "_ret" if self.counter == 0 else f"_ret_{self.counter}"
            self.counter += 1
            if name not in self.forbidden:
                self.forbidden.add(name)
                self.issued.add(name)
                return name


def collect_identifiers(module: ast.AST) -> set[str]:
    """Every identifier bound or used anywhere in the tree (explicit stack)."""
    names: set[str] = set()
    stack = [module]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.Name:  # a leaf, and the most common node
            names.add(node.id)
            continue
        if kind is ast.FunctionDef or kind is ast.ClassDef:
            names.add(node.name)
        elif kind is ast.arg:
            names.add(node.arg)
        elif kind is ast.alias:
            names.add(node.asname or node.name.split(".")[0])
        elif kind is ast.Global or kind is ast.Nonlocal:
            names.update(node.names)
        for field in NODE_FIELDS.get(kind, ()):  # a None popped from Dict.keys or kw_defaults has none
            value = getattr(node, field)
            if type(value) is list:
                stack += value
            elif value is not None:
                stack.append(value)
    return names


class RewriteRule(NamedTuple):
    """``apply(stmt, namer)`` returns the statements that replace ``stmt``, or
    None when the rule does not match it; the rewrite locates what it builds."""
    id: int
    name: str
    apply: Callable[[ast.stmt, TempNamer], list[ast.stmt] | None]


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp)


# ---------------------------------------------------------------------------
# Rule 1: comprehension unfolding


def _unfold_comprehension(stmt: ast.stmt, namer: TempNamer) -> list[ast.stmt] | None:
    comp = getattr(stmt, "value", None)
    kind = type(comp)
    if (kind not in _COMPREHENSIONS or type(stmt) is not ast.Assign or len(stmt.targets) != 1
            or type(stmt.targets[0]) is not ast.Name):
        return None
    name = stmt.targets[0].id
    if kind is ast.DictComp:
        init_value: ast.expr = ast.Dict(keys=[], values=[])
        store = ast.Subscript(value=_load(name), slice=comp.key, ctx=ast.Store())
        accumulate: ast.stmt = ast.Assign(targets=[store], value=comp.value)
    else:
        is_list = kind is ast.ListComp
        init_value = (ast.List(elts=[], ctx=ast.Load()) if is_list
                      else ast.Call(func=_load("set"), args=[], keywords=[]))
        method = ast.Attribute(value=_load(name), attr="append" if is_list else "add", ctx=ast.Load())
        accumulate = ast.Expr(value=ast.Call(func=method, args=[comp.elt], keywords=[]))

    body: ast.stmt = accumulate
    for gen in reversed(comp.generators):
        for test in reversed(gen.ifs):
            body = ast.If(test=test, body=[body], orelse=[])
        body = ast.For(target=gen.target, iter=gen.iter, body=[body], orelse=[])

    init = ast.Assign(targets=[ast.Name(id=name, ctx=ast.Store())], value=init_value)
    return [init, body]


# ---------------------------------------------------------------------------
# Rule 2: nested call handling


def _hoistable_call_arg(call: ast.Call) -> int | None:
    """Index (args, then keywords) of the first argument safe to hoist.

    An argument call is hoisted only when neither the callee expression nor
    any earlier argument contains a call, so call evaluation order is
    preserved exactly.  Callee-side calls are chain links; rule 5 removes
    them first.
    """
    func = call.func
    while type(func) is ast.Attribute:  # a dotted callee is walked down its spine, not by walk
        func = func.value
    if type(func) is not ast.Name and any(type(n) is ast.Call for n in walk(func)):
        return None
    for i, arg in enumerate(call.args + [kw.value for kw in call.keywords] if call.keywords else call.args):
        kind = type(arg)
        if kind is ast.Call:
            return i
        if kind is not ast.Name and kind is not ast.Constant and any(type(n) is ast.Call for n in walk(arg)):
            return None
    return None


def _hoist_call_argument(stmt: ast.stmt, namer: TempNamer) -> list[ast.stmt] | None:
    call = getattr(stmt, "value", None)
    if type(call) is not ast.Call or not _is_simple_carrier(stmt):
        return None
    index = _hoistable_call_arg(call)
    if index is None:
        return None
    temp = namer.fresh()
    new_call = _copy(call)
    if index < len(call.args):
        inner = call.args[index]
        new_call.args = list(call.args)
        new_call.args[index] = _load(temp, call)
    else:
        pos = index - len(call.args)
        inner = call.keywords[pos].value
        new_call.keywords = list(call.keywords)
        new_call.keywords[pos] = _copy(call.keywords[pos], value=_load(temp, call.keywords[pos]))
    hoisted = ast.Assign(targets=[ast.Name(id=temp, ctx=ast.Store())], value=inner)
    return [hoisted, _copy(stmt, value=new_call)]


# ---------------------------------------------------------------------------
# Rule 3: subscripted call results


def _hoist_subscripted_call(stmt: ast.stmt, namer: TempNamer) -> list[ast.stmt] | None:
    sub = getattr(stmt, "value", None)
    if (type(sub) is not ast.Subscript or type(sub.value) is not ast.Call
            or type(stmt) not in (ast.Assign, ast.Return)):
        return None
    temp = namer.fresh()
    hoisted = ast.Assign(targets=[ast.Name(id=temp, ctx=ast.Store())], value=sub.value)
    return [hoisted, _copy(stmt, value=_copy(sub, value=_load(temp, sub)))]


# ---------------------------------------------------------------------------
# Rule 4: lambda-to-def conversion


def _lambda_to_def(stmt: ast.stmt, namer: TempNamer) -> list[ast.stmt] | None:
    lam = getattr(stmt, "value", None)
    if (type(lam) is not ast.Lambda or type(stmt) is not ast.Assign or len(stmt.targets) != 1
            or type(stmt.targets[0]) is not ast.Name):
        return None
    fn = ast.FunctionDef(
        name=stmt.targets[0].id,
        args=lam.args,
        body=[ast.Return(value=lam.body)],
        decorator_list=[],
        returns=None,
        type_comment=None,
    )
    return [fn]


# ---------------------------------------------------------------------------
# Rule 5: call chain splitting


def _split_call_chain(stmt: ast.stmt, namer: TempNamer) -> list[ast.stmt] | None:
    # Walk down the chain spine; `segments` ends up outermost-last.
    top = cur = getattr(stmt, "value", None)
    segments: list[ast.Call] = []
    while type(cur) is ast.Call and type(cur.func) is ast.Attribute and type(cur.func.value) is ast.Call:
        segments.append(cur)
        cur = cur.func.value
    if not segments or not _is_simple_carrier(stmt):
        return None
    segments.reverse()

    out: list[ast.stmt] = []
    receiver = namer.fresh()
    out.append(ast.Assign(targets=[ast.Name(id=receiver, ctx=ast.Store())], value=cur))
    for seg in segments[:-1]:
        call = ast.Call(
            func=ast.Attribute(value=_load(receiver), attr=seg.func.attr, ctx=ast.Load()),
            args=seg.args,
            keywords=seg.keywords,
        )
        receiver = namer.fresh()
        out.append(ast.Assign(targets=[ast.Name(id=receiver, ctx=ast.Store())], value=call))

    # The outermost link stays in the statement, now called on the last temp.
    last = _copy(top, func=_copy(top.func, value=_load(receiver, top.func)))
    out.append(_copy(stmt, value=last))
    return out


# ---------------------------------------------------------------------------
# Shared helpers and the rule table


def _load(name: str, at: ast.AST | None = None) -> ast.Name:
    """A load of ``name``; a copy site locates it at ``at``, the node it copied."""
    node = ast.Name(id=name, ctx=ast.Load())
    return node if at is None else ast.copy_location(node, at)


def _is_simple_carrier(stmt: ast.stmt) -> bool:
    """Statements whose single value expression we may rewrite in place."""
    return type(stmt) in (ast.Expr, ast.Return) or type(stmt) is ast.Assign and len(stmt.targets) == 1


def _copy(node: ast.AST, **fields: object) -> ast.AST:
    """A shallow copy of ``node`` with ``fields`` replaced: ``copy.copy``
    without its dispatch."""
    new = node.__class__.__new__(node.__class__)
    new.__dict__.update(node.__dict__, **fields)
    return new


def _locate(stmts: list[ast.stmt], origin: ast.stmt) -> list[ast.stmt]:
    """Copy onto every unlocated node of ``stmts`` the location of its nearest
    located ancestor, ``origin`` above them all (explicit stack: no depth limit).
    A located node is not entered: its subtree is located, since every copy
    site locates the name it inserts."""
    stack: list[tuple[ast.AST, ast.AST]] = [(s, origin) for s in stmts]
    while stack:
        node, located = stack.pop()
        if "lineno" in node._attributes:
            if hasattr(node, "lineno"):
                continue
            located = ast.copy_location(node, located)
        stack += [(child, located) for child in child_nodes(node)]
    return stmts


RULES: tuple[RewriteRule, ...] = (
    RewriteRule(1, "ComprehensionUnfolding", _unfold_comprehension),
    RewriteRule(2, "NestedCallHandling", _hoist_call_argument),
    RewriteRule(3, "SubscriptionAssignment", _hoist_subscripted_call),
    RewriteRule(4, "LambdaConversion", _lambda_to_def),
    RewriteRule(5, "CallChainSplitting", _split_call_chain),
)


# The value types each built-in rule can match, keyed by its function (each
# also tests the type first): a statement tries only the rules for its
# value's type, and a rule missing here, such as a caller's own, is tried on
# every statement.
_MATCHES = {
    _unfold_comprehension: _COMPREHENSIONS,
    _hoist_call_argument: (ast.Call,),
    _hoist_subscripted_call: (ast.Subscript,),
    _lambda_to_def: (ast.Lambda,),
    _split_call_chain: (ast.Call,),
}


class _Rewrite:
    """One pass of ``rules`` over statement lists, copy-on-write."""

    def __init__(self, namer: TempNamer, rules: Sequence[RewriteRule]) -> None:
        self.namer = namer
        self.anywhere = [rule for rule in rules if rule.apply not in _MATCHES]
        self.by_type = {kind: [rule for rule in rules if kind in _MATCHES.get(rule.apply, (kind,))]
                        for match in rules for kind in _MATCHES.get(match.apply, ())}

    def block(self, stmts: list[ast.stmt]) -> tuple[list[ast.stmt], bool]:
        """Rewrite a statement list into a new list; say if it changed."""
        out: list[ast.stmt] = []
        changed = False
        for origin in stmts:
            stmt = self.blocks(origin) if type(getattr(origin, "body", None)) is list else origin
            if stmt is origin and not self.by_type.get(type(getattr(origin, "value", None)), self.anywhere):
                out.append(origin)  # no rule can match it
            else:
                changed |= self.settle(origin, stmt, out)
        return out, changed

    def blocks(self, stmt: ast.stmt) -> ast.stmt:
        """``stmt`` with its ``body`` and ``orelse`` rewritten: a shallow copy if
        either changed, else ``stmt``.  An ``elif`` chain (an ``orelse`` that is
        one ``If``) is rewritten top-down in a loop, then settled bottom-up."""
        chain: list[tuple[ast.stmt, ast.stmt]] = []  # (an elif's parent, it with its body rewritten)
        while True:
            orelse = getattr(stmt, "orelse", [])
            is_elif = len(orelse) == 1 and type(orelse[0]) is ast.If
            new = stmt
            for fname in ("body",) if is_elif else ("body", "orelse"):
                inner, changed = self.block(getattr(stmt, fname, []))
                if changed:
                    new = _copy(new, **{fname: inner})
            if not is_elif:
                break
            chain.append((stmt, new))
            stmt = orelse[0]
        for parent, new_parent in reversed(chain):
            orelse = []
            if self.settle(stmt, new, orelse):
                new_parent = _copy(new_parent, orelse=orelse)
            stmt, new = parent, new_parent
        return new

    def settle(self, origin: ast.stmt, stmt: ast.stmt, out: list[ast.stmt]) -> bool:
        """Append to ``out`` what ``origin`` becomes, given ``stmt``, ``origin``
        with its blocks rewritten; say if that is not ``origin`` itself.

        A rule's products, located at the statement it matched, wait on a
        stack and go to ``out`` once no rule matches them."""
        changed = stmt is not origin
        pending: list[ast.stmt] = []
        firings, limit = 0, 1  # limit: origin's node count, taken once it fires twice
        while True:
            for rule in self.by_type.get(type(getattr(stmt, "value", None)), self.anywhere):
                built = rule.apply(stmt, self.namer)
                if built is not None:
                    firings += 1
                    if firings == 2:
                        limit = sum(1 for _ in walk(origin))
                    if firings > limit:
                        raise FixpointError("rewrite did not settle; a rule keeps matching its own output")
                    pending += reversed(_locate(built, stmt))
                    changed = True
                    break
            else:
                out.append(stmt)
            if not pending:
                return changed
            stmt = self.blocks(pending.pop())


def simplify_module(module: ast.Module, rules: Sequence[RewriteRule] | None = None) -> ast.Module:
    """Rewrite a module until no rule matches anywhere, in one pass.

    ``rules`` defaults to :data:`RULES`; a subset such as ``(RULES[4],)``
    splits call chains alone.  One pass is the fixpoint: the built-in rules
    match only simple statements, never a compound one, and a rewrite
    replaces only the statement it matched, so a statement that is final
    stays final.  Each firing of a built-in rule uses up a distinct node of
    the input statement it started from (a comprehension, a lambda, a
    subscripted call, a chain's top call or the call argument it hoists), so
    :class:`FixpointError` is raised only when rules fire on a statement
    more times than it has nodes, which only a rule that keeps matching its
    own output can do.  A statement that no rule can match by its value's
    type costs one lookup; the identifiers are collected for the first
    temporary only.

    The input tree is not modified.  The result is a shallow copy of the
    module with a new ``body`` list that shares every node no rule touched
    (with no firing, the input's statements themselves), so no caller may
    mutate either tree.  When every locatable node of the input is located,
    as :func:`~lancet.frontend.parse_module` leaves it, so is every one of
    the result: a built statement takes the location of the one it
    replaces.  ``temporaries`` is the set of names the rewrite made.
    """
    namer = TempNamer.for_module(module)
    body, _ = _Rewrite(namer, RULES if rules is None else rules).block(module.body)
    return _copy(module, body=body, temporaries=namer.issued)

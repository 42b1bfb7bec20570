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
already present in the module.

Rewriting is copy-on-write: no rule and no pass modifies a node it was
given.  A rewritten statement is rebuilt along the path from the statement
to the node that changes, a compound statement whose ``body`` or ``orelse``
changes is replaced by a shallow copy carrying the new list, and every
other node of the result is shared with the input.  Neither the input nor
the result may therefore be mutated by any caller.
"""

from __future__ import annotations

import ast
import copy
from typing import Callable, NamedTuple, Sequence

from .frontend import child_nodes, walk

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
    """Every identifier bound or used anywhere in the tree."""
    names: set[str] = set()
    for node in walk(module):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
    return names


class RewriteRule(NamedTuple):
    """``apply(stmt, namer)`` returns the statements that replace ``stmt``, or
    None when the rule does not match it."""
    id: int
    name: str
    apply: Callable[[ast.stmt, TempNamer], list[ast.stmt] | None]


# Each rule tests the type of the statement's value first: most statements
# match no rule, and that test turns them away before any other work.
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
    return _locate([init, body], stmt)


# ---------------------------------------------------------------------------
# Rule 2: nested call handling


def _hoistable_call_arg(call: ast.Call) -> int | None:
    """Index (args, then keywords) of the first argument safe to hoist.

    An argument call is hoisted only when neither the callee expression nor
    any earlier argument contains a call, so call evaluation order is
    preserved exactly.  Callee-side calls are chain links; rule 5 removes
    them first.
    """
    if any(isinstance(n, ast.Call) for n in walk(call.func)):
        return None
    flat: list[ast.expr] = list(call.args) + [kw.value for kw in call.keywords]
    for i, arg in enumerate(flat):
        if isinstance(arg, ast.Call):
            return i
        if any(isinstance(n, ast.Call) for n in walk(arg)):
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
    new_call = copy.copy(call)
    if index < len(call.args):
        inner = call.args[index]
        new_call.args = list(call.args)
        new_call.args[index] = _load(temp)
    else:
        pos = index - len(call.args)
        keyword = copy.copy(call.keywords[pos])
        inner = keyword.value
        keyword.value = _load(temp)
        new_call.keywords = list(call.keywords)
        new_call.keywords[pos] = keyword
    hoisted = ast.Assign(targets=[ast.Name(id=temp, ctx=ast.Store())], value=inner)
    return _locate([hoisted, _with_value(stmt, new_call)], stmt)


# ---------------------------------------------------------------------------
# Rule 3: subscripted call results


def _hoist_subscripted_call(stmt: ast.stmt, namer: TempNamer) -> list[ast.stmt] | None:
    sub = getattr(stmt, "value", None)
    if (type(sub) is not ast.Subscript or type(sub.value) is not ast.Call
            or type(stmt) not in (ast.Assign, ast.Return)):
        return None
    temp = namer.fresh()
    hoisted = ast.Assign(targets=[ast.Name(id=temp, ctx=ast.Store())], value=sub.value)
    return _locate([hoisted, _with_value(stmt, _with_value(sub, _load(temp)))], stmt)


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
    return _locate([fn], stmt)


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
    last = copy.copy(top)
    last.func = _with_value(top.func, _load(receiver))
    out.append(_with_value(stmt, last))
    return _locate(out, stmt)


# ---------------------------------------------------------------------------
# Shared helpers and the rule table


def _load(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Load())


def _is_simple_carrier(stmt: ast.stmt) -> bool:
    """Statements whose single value expression we may rewrite in place."""
    if isinstance(stmt, ast.Assign):
        return len(stmt.targets) == 1
    return isinstance(stmt, (ast.Expr, ast.Return))


def _with_value(node: ast.AST, value: ast.expr) -> ast.AST:
    """A shallow copy of ``node`` whose ``value`` field is ``value``."""
    new = copy.copy(node)
    new.value = value
    return new


def _locate(stmts: list[ast.stmt], origin: ast.stmt) -> list[ast.stmt]:
    """Copy onto every unlocated node of ``stmts`` the location of its nearest
    located ancestor, ``origin`` above them all (explicit stack: no depth limit)."""
    stack: list[tuple[ast.AST, ast.AST]] = [(s, origin) for s in stmts]
    while stack:
        node, located = stack.pop()
        if "lineno" in node._attributes:
            if not hasattr(node, "lineno"):
                ast.copy_location(node, located)
            located = node
        stack += [(child, located) for child in child_nodes(node)]
    return stmts


RULES: tuple[RewriteRule, ...] = (
    RewriteRule(1, "ComprehensionUnfolding", _unfold_comprehension),
    RewriteRule(2, "NestedCallHandling", _hoist_call_argument),
    RewriteRule(3, "SubscriptionAssignment", _hoist_subscripted_call),
    RewriteRule(4, "LambdaConversion", _lambda_to_def),
    RewriteRule(5, "CallChainSplitting", _split_call_chain),
)


_BODY_FIELDS = ("body", "orelse")


def _rewrite_block(stmts: list[ast.stmt], namer: TempNamer,
                   rules: Sequence[RewriteRule]) -> tuple[list[ast.stmt], bool]:
    """Rewrite a statement list in one pass into a new list; say if it changed.

    A rule's products wait on a stack and go to the output once no rule
    matches them.  ``stmts`` and the statements in it are not modified.
    """
    out: list[ast.stmt] = []
    changed = False
    for origin in stmts:
        pending = [origin]
        budget = None  # firings left for origin: its node count, once one fires
        while pending:
            stmt = pending.pop()
            for fname in _BODY_FIELDS:
                inner = getattr(stmt, fname, None)
                if isinstance(inner, list) and inner and isinstance(inner[0], ast.stmt):
                    new_inner, inner_changed = _rewrite_block(inner, namer, rules)
                    if inner_changed:
                        stmt = copy.copy(stmt)
                        setattr(stmt, fname, new_inner)
                        changed = True
            for rule in rules:
                built = rule.apply(stmt, namer)
                if built is not None:
                    if budget is None:
                        budget = sum(1 for _ in walk(origin))
                    if budget == 0:
                        raise FixpointError(
                            "rewrite did not settle; a rule keeps matching its own output"
                        )
                    budget -= 1
                    pending += reversed(built)
                    changed = True
                    break
            else:
                out.append(stmt)
    return out, changed


def simplify_module(module: ast.Module, rules: Sequence[RewriteRule] | None = None) -> ast.Module:
    """Rewrite a module until no rule matches anywhere, in one pass.

    ``rules`` defaults to :data:`RULES`; a subset such as ``(RULES[4],)``
    splits call chains alone.  One pass is the fixpoint: the built-in rules
    match only simple statements, never a compound one, and a rewrite
    replaces only the statement it matched, so a statement that is final
    stays final.  Each firing of a built-in rule uses up a distinct node of
    the input statement it started from (a comprehension, a lambda, a
    subscripted call, a chain's top call or the call argument it hoists), so
    a statement fires at most once per node; :class:`FixpointError` is
    raised when a rule exceeds that bound, which only a rule that keeps
    matching its own output can do.

    The input tree is not modified.  The result is a shallow copy of the
    module with a new ``body`` list; it shares every statement and
    expression no rule touched with the input (a module where no rule fires
    yields the input's statements themselves), so no caller may mutate
    either tree.  Every statement a rule builds carries the location of the
    statement it replaces; the input is expected to be fully located, as
    :func:`~lancet.frontend.parse_module` leaves it.  The result's
    ``temporaries`` is the set of names the rewrite made (:class:`TempNamer`).
    """
    namer = TempNamer.for_module(module)
    result = copy.copy(module)
    result.body, _ = _rewrite_block(module.body, namer, RULES if rules is None else rules)
    result.temporaries = namer.issued
    return result

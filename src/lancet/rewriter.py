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

TEMP_PREFIX = "_ret"


class FixpointError(Exception):
    """A rule kept matching its own output (a rule bug, not user error)."""


class TempNamer:
    """Generates `_ret`, `_ret_1`, ... temporaries that collide with nothing.

    ``forbidden`` holds the names to avoid; every emitted name is added to
    it.  :meth:`for_module` adds the identifiers bound or referenced in the
    module under rewrite, collected on the first :meth:`fresh` call, so a
    module that needs no temporary is never walked for them.  That module
    must not change before then.
    """

    def __init__(self, forbidden: set[str] | None = None, counter: int = 0,
                 pending: ast.AST | None = None) -> None:
        self.forbidden = set() if forbidden is None else forbidden
        self.counter = counter
        self.pending = pending

    @classmethod
    def for_module(cls, module: ast.Module) -> "TempNamer":
        return cls(pending=module)

    def fresh(self) -> str:
        if self.pending is not None:
            self.forbidden |= collect_identifiers(self.pending)
            self.pending = None
        while True:
            name = TEMP_PREFIX if self.counter == 0 else f"{TEMP_PREFIX}_{self.counter}"
            self.counter += 1
            if name not in self.forbidden:
                self.forbidden.add(name)
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
    id: int
    name: str
    matcher: Callable[[ast.stmt], bool]
    builder: Callable[[ast.stmt, TempNamer], list[ast.stmt]]


# ---------------------------------------------------------------------------
# Rule 1: comprehension unfolding


def _match_comprehension(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, (ast.ListComp, ast.SetComp, ast.DictComp))
    )


def _build_comprehension(stmt: ast.stmt, namer: TempNamer) -> list[ast.stmt]:
    assert isinstance(stmt, ast.Assign)
    target = stmt.targets[0]
    assert isinstance(target, ast.Name)
    comp = stmt.value

    if isinstance(comp, ast.ListComp):
        init_value: ast.expr = ast.List(elts=[], ctx=ast.Load())
        accumulate: ast.stmt = ast.Expr(
            value=ast.Call(
                func=ast.Attribute(value=_load(target.id), attr="append", ctx=ast.Load()),
                args=[comp.elt],
                keywords=[],
            )
        )
    elif isinstance(comp, ast.SetComp):
        init_value = ast.Call(func=_load("set"), args=[], keywords=[])
        accumulate = ast.Expr(
            value=ast.Call(
                func=ast.Attribute(value=_load(target.id), attr="add", ctx=ast.Load()),
                args=[comp.elt],
                keywords=[],
            )
        )
    else:
        assert isinstance(comp, ast.DictComp)
        init_value = ast.Dict(keys=[], values=[])
        accumulate = ast.Assign(
            targets=[
                ast.Subscript(value=_load(target.id), slice=comp.key, ctx=ast.Store())
            ],
            value=comp.value,
        )

    body: ast.stmt = accumulate
    for gen in reversed(comp.generators):
        for test in reversed(gen.ifs):
            body = ast.If(test=test, body=[body], orelse=[])
        body = ast.For(target=gen.target, iter=gen.iter, body=[body], orelse=[])

    init = ast.Assign(targets=[ast.Name(id=target.id, ctx=ast.Store())], value=init_value)
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


def _match_nested_call(stmt: ast.stmt) -> bool:
    value = _stmt_value(stmt)
    return (_is_simple_carrier(stmt) and isinstance(value, ast.Call)
            and _hoistable_call_arg(value) is not None)


def _build_nested_call(stmt: ast.stmt, namer: TempNamer) -> list[ast.stmt]:
    call = _stmt_value(stmt)
    assert isinstance(call, ast.Call)
    index = _hoistable_call_arg(call)
    assert index is not None
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


def _match_subscript_call(stmt: ast.stmt) -> bool:
    if not isinstance(stmt, (ast.Assign, ast.Return)):
        return False
    value = _stmt_value(stmt)
    return (
        isinstance(value, ast.Subscript)
        and isinstance(value.value, ast.Call)
    )


def _build_subscript_call(stmt: ast.stmt, namer: TempNamer) -> list[ast.stmt]:
    sub = _stmt_value(stmt)
    assert isinstance(sub, ast.Subscript)
    temp = namer.fresh()
    hoisted = ast.Assign(targets=[ast.Name(id=temp, ctx=ast.Store())], value=sub.value)
    return _locate([hoisted, _with_value(stmt, _with_value(sub, _load(temp)))], stmt)


# ---------------------------------------------------------------------------
# Rule 4: lambda-to-def conversion


def _match_lambda(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.Lambda)
    )


def _build_lambda(stmt: ast.stmt, namer: TempNamer) -> list[ast.stmt]:
    assert isinstance(stmt, ast.Assign)
    target = stmt.targets[0]
    assert isinstance(target, ast.Name)
    lam = stmt.value
    assert isinstance(lam, ast.Lambda)
    fn = ast.FunctionDef(
        name=target.id,
        args=lam.args,
        body=[ast.Return(value=lam.body)],
        decorator_list=[],
        returns=None,
        type_comment=None,
    )
    return _locate([fn], stmt)


# ---------------------------------------------------------------------------
# Rule 5: call chain splitting


def _chain_value(stmt: ast.stmt) -> ast.Call | None:
    value = _stmt_value(stmt)
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and isinstance(value.func.value, ast.Call)
    ):
        return value
    return None


def _match_call_chain(stmt: ast.stmt) -> bool:
    return _is_simple_carrier(stmt) and _chain_value(stmt) is not None


def _build_call_chain(stmt: ast.stmt, namer: TempNamer) -> list[ast.stmt]:
    top = _chain_value(stmt)
    assert top is not None

    # Walk down the chain spine; `segments` ends up outermost-last.
    segments: list[ast.Call] = []
    cur: ast.expr = top
    while (
        isinstance(cur, ast.Call)
        and isinstance(cur.func, ast.Attribute)
        and isinstance(cur.func.value, ast.Call)
    ):
        segments.append(cur)
        cur = cur.func.value
    segments.reverse()

    out: list[ast.stmt] = []
    receiver = namer.fresh()
    out.append(ast.Assign(targets=[ast.Name(id=receiver, ctx=ast.Store())], value=cur))
    for seg in segments[:-1]:
        assert isinstance(seg.func, ast.Attribute)
        call = ast.Call(
            func=ast.Attribute(value=_load(receiver), attr=seg.func.attr, ctx=ast.Load()),
            args=seg.args,
            keywords=seg.keywords,
        )
        receiver = namer.fresh()
        out.append(ast.Assign(targets=[ast.Name(id=receiver, ctx=ast.Store())], value=call))

    # The outermost link stays in the statement, now called on the last temp.
    assert isinstance(top.func, ast.Attribute)
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


def _stmt_value(stmt: ast.stmt) -> ast.expr | None:
    if isinstance(stmt, (ast.Assign, ast.Expr, ast.Return)):
        return stmt.value
    return None


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
    RewriteRule(1, "ComprehensionUnfolding", _match_comprehension, _build_comprehension),
    RewriteRule(2, "NestedCallHandling", _match_nested_call, _build_nested_call),
    RewriteRule(3, "SubscriptionAssignment", _match_subscript_call, _build_subscript_call),
    RewriteRule(4, "LambdaConversion", _match_lambda, _build_lambda),
    RewriteRule(5, "CallChainSplitting", _match_call_chain, _build_call_chain),
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
                if rule.matcher(stmt):
                    if budget is None:
                        budget = sum(1 for _ in walk(origin))
                    if budget == 0:
                        raise FixpointError(
                            "rewrite did not settle; a rule keeps matching its own output"
                        )
                    budget -= 1
                    pending += reversed(rule.builder(stmt, namer))
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
    :func:`~lancet.frontend.parse_module` leaves it.
    """
    namer = TempNamer.for_module(module)
    result = copy.copy(module)
    result.body, _ = _rewrite_block(module.body, namer, RULES if rules is None else rules)
    return result

"""SSA numbering, constant folding, and alias pairs over a CFG.

Merges are kept implicit: instead of materialized phi statements, every use
records the *set* of versions that reach it, so a variable read after an
if/else merge shows up as e.g. ``{'a': {1, 2}}``.  Versions are numbered
0, 1, 2, ... per variable, in the order definitions are encountered on a
reverse-post-order walk of the blocks (statement order within a block, the
unreachable blocks last), by :func:`definition_table`: one :class:`DefValue`
per version, which is all :func:`alias_pairs` reads.

Scope rules: names are local to the CFG being analyzed (module level or a
single function); attribute and subscript stores are not versioned, and
bindings other than plain assignments (``def``, ``class``, imports) are not
tracked here.  ``x += e`` is both a use of the old versions and a new
definition.

Reaching definitions use the classic gen/kill bit-vector formulation
(Cooper & Torczon, *Engineering a Compiler*, ch. 9) on Python ints.  Each
variable's versions own one contiguous bit range, allocated over the names
in sorted order: bit ``offset[name] + v`` stands for ``(name, v)`` and
``mask[name]`` covers every version of ``name``.  Per block, ``gen`` holds
the last definition of each name the block assigns and ``kill`` the masks of
those names (a name with one version has no other bit to kill);
``OUT = gen | (IN & ~kill)`` is iterated in reverse post-order until no
``OUT`` changes.  Inside a block the live state is one int, a definition
clears its name's other bits and sets its own, and a use's version set is
decoded from ``(live & mask[name]) >> offset[name]``.

Folding runs on a :class:`Worklist`, the call graph's fixpoint solver, with
the candidate definitions as units and a slot per (name, version): each
definition is evaluated once, in entry order, and again when a slot it read
grows.  Evaluation stops at the first operand not folded yet, and a slot
grows once, when its definition folds, so the result is the same in any
order.  Folding is bounded (see ``MAX_FOLD_INT_BITS`` and
``MAX_FOLD_STR_LEN``): a step certain to exceed a bound is refused before
it is computed, and a definition whose value exceeds one, or is not an
int, finite float, bool, str or None (a complex, an infinity or a NaN,
which JSON cannot spell), is marked ``fold_failed``.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from collections import deque
from typing import Callable, Hashable, Iterator, NamedTuple

from .cfg import Cfg, head_exprs, reverse_postorder
from .frontend import NODE_FIELDS, _defaults, source_text

__all__ = [
    "DefValue",
    "ConstDict",
    "SsaUseMap",
    "AliasPair",
    "compute_ssa",
    "definition_table",
    "definitions",
    "fold_constants",
    "alias_pairs",
    "Worklist",
    "to_json_dict",
    "target_names",
    "unpack",
]

_UNFOLDED = object()

KIND_LITERAL = "literal"
KIND_NAME = "name-reference"
KIND_ARITHMETIC = "arithmetic"
KIND_CALL = "call"
KIND_OTHER = "other"
KIND_UNKNOWN = "unknown"


class DefValue:
    """The right-hand side of one (name, version) definition.

    ``site`` is the (block id, statement index) of the defining statement,
    which is where the expression's free variables are resolved when folding.
    """

    def __init__(self, expr: ast.expr | None, kind: str, site: tuple[int, int],
                 folded: object = _UNFOLDED, fold_failed: bool = False) -> None:
        self.expr, self.kind, self.site = expr, kind, site
        self.folded = folded
        self.fold_failed = fold_failed

    @property
    def is_folded(self) -> bool:
        return self.folded is not _UNFOLDED

    def folded_value(self) -> object:
        if not self.is_folded:
            raise ValueError("definition is not folded to a constant")
        return self.folded


class ConstDict:
    """(variable name, version) -> defining value, one entry per version."""

    def __init__(self, entries: dict[tuple[str, int], DefValue] | None = None) -> None:
        self.entries = {} if entries is None else entries

    def __getitem__(self, key: tuple[str, int]) -> DefValue:
        return self.entries[key]

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def items(self) -> Iterator[tuple[tuple[str, int], DefValue]]:
        return iter(sorted(self.entries.items()))


class SsaUseMap:
    """Per block, one dict per statement: variable -> reaching version set."""

    def __init__(self, per_block: dict[int, list[dict[str, set[int]]]] | None = None) -> None:
        self.per_block = {} if per_block is None else per_block

    def __getitem__(self, block_id: int) -> list[dict[str, set[int]]]:
        return self.per_block[block_id]


class AliasPair(NamedTuple):
    """``alias`` was defined as a bare copy of ``target``."""

    alias: tuple[str, int]
    target: str


# ---------------------------------------------------------------------------
# Definition / use extraction


# A value's kind by its node type; any type not listed is KIND_OTHER.
_KINDS: dict[type, str] = {
    type(None): KIND_UNKNOWN, ast.Constant: KIND_LITERAL, ast.Name: KIND_NAME, ast.Call: KIND_CALL,
    **dict.fromkeys((ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare), KIND_ARITHMETIC),
}


def unpack(target: ast.expr, value: ast.expr | None) -> list[tuple[str, ast.expr | None]]:
    """(name, value expr or None) for each name ``target = value`` binds, in
    target order.

    A tuple or list target takes its elements' values from a tuple or list
    literal: from the left up to the first starred element on either side,
    and from the right after the last one.  With no star on either side the
    lengths must be equal.  Every other name gets None; attribute and
    subscript stores bind no name.
    """
    if isinstance(target, ast.Name):
        return [(target.id, value)]
    if not isinstance(target, (ast.Tuple, ast.List)):
        return []
    elts = target.elts
    paired: list[ast.expr | None] = [None] * len(elts)
    if isinstance(value, (ast.Tuple, ast.List)):
        n, m = len(elts), len(value.elts)
        stars = [i for i, e in enumerate(elts) if isinstance(e, ast.Starred)]
        value_stars = [i for i, e in enumerate(value.elts) if isinstance(e, ast.Starred)]
        if stars or value_stars or n == m:
            left = min(stars[:1] + value_stars[:1] + [n, m])
            right = min([n - 1 - i for i in stars[-1:]] + [m - 1 - i for i in value_stars[-1:]]
                        + [min(n, m) - left])
            paired[:left] = value.elts[:left]
            paired[n - right:] = value.elts[m - right:]
    out: list[tuple[str, ast.expr | None]] = []
    for elt, inner in zip(elts, paired):
        out.extend(unpack(elt.value, None) if isinstance(elt, ast.Starred) else unpack(elt, inner))
    return out


def target_names(target: ast.expr) -> list[str]:
    """Names an assignment target binds, in order (starred ones included)."""
    return [name for name, _ in unpack(target, None)]


def definitions(stmt: ast.stmt) -> list[tuple[str, ast.expr | None, str]]:
    """(name, value expr or None, kind) for each name ``stmt`` binds, in target
    order: an ``Assign``'s as :func:`unpack` pairs them, a name ``AugAssign``'s
    to a new located ``name op value``, a ``for``'s to None; nothing else."""
    if isinstance(stmt, ast.Assign):
        return [(name, expr, _KINDS.get(type(expr), KIND_OTHER))
                for target in stmt.targets for name, expr in unpack(target, stmt.value)]
    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        left = ast.copy_location(ast.Name(id=stmt.target.id, ctx=ast.Load()), stmt)
        combined = ast.copy_location(ast.BinOp(left=left, op=stmt.op, right=stmt.value), stmt)
        return [(stmt.target.id, combined, KIND_ARITHMETIC)]
    if isinstance(stmt, ast.For):
        return [(name, None, KIND_UNKNOWN) for name in target_names(stmt.target)]
    return []


def _uses(stmt: ast.stmt) -> set[str]:
    """Names read when the statement's head executes."""
    names = _collect_loads(head_exprs(stmt))
    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        names.add(stmt.target.id)
    return names


_NO_SHADOW: frozenset[str] = frozenset()


def _collect_loads(roots: list[ast.expr]) -> set[str]:
    """Names loaded by ``roots`` in the enclosing scope (explicit-stack walk)."""
    out: set[str] = set()
    stack: list[tuple[ast.AST, frozenset[str]]] = [(root, _NO_SHADOW) for root in roots]
    while stack:
        node, shadowed = stack.pop()
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in shadowed:
                out.add(node.id)
        elif isinstance(node, ast.Lambda):
            # Only the defaults run now; the body runs later, in its own scope.
            stack.extend((d, shadowed) for d in _defaults(node.args))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            bound = set(shadowed)
            for gen in node.generators:
                bound.update(target_names(gen.target))
            inner = frozenset(bound)
            # The first iterable is evaluated in the enclosing scope.
            for i, gen in enumerate(node.generators):
                stack.append((gen.iter, shadowed if i == 0 else inner))
                stack.extend((test, inner) for test in gen.ifs)
            if isinstance(node, ast.DictComp):
                stack.append((node.key, inner))
                stack.append((node.value, inner))
            else:
                stack.append((node.elt, inner))
        else:
            # child_nodes inlined: calling it here made compute_ssa on the
            # chain workload about 30% slower.
            for field_name in NODE_FIELDS[type(node)]:
                child = getattr(node, field_name, None)
                if isinstance(child, list):
                    stack.extend((c, shadowed) for c in child if c is not None)
                elif child is not None:
                    stack.append((child, shadowed))
    return out


# ---------------------------------------------------------------------------
# Reaching definitions


def definition_table(cfg: Cfg) -> ConstDict:
    """One :class:`DefValue` per (name, version), inserted in statement order
    over the blocks in reverse post-order, the unreachable ones last."""
    return _ordered_definitions(cfg)[1]


def _ordered_definitions(cfg: Cfg) -> tuple[list[int], ConstDict]:
    """:func:`definition_table` and the block order it numbers versions in."""
    rpo = reverse_postorder(cfg)
    rpo += sorted(set(cfg.blocks) - set(rpo))  # the unreachable blocks last
    next_version: dict[str, int] = {}
    const = ConstDict()
    for bid in rpo:
        for idx, stmt in enumerate(cfg.blocks[bid].statements):
            for name, expr, kind in definitions(stmt):
                version = next_version.get(name, 0)
                next_version[name] = version + 1
                const.entries[(name, version)] = DefValue(expr=expr, kind=kind, site=(bid, idx))
    return rpo, const


def compute_ssa(cfg: Cfg) -> tuple[SsaUseMap, ConstDict]:
    """Exact reaching-version sets at every use, plus the definition table."""
    rpo, const = _ordered_definitions(cfg)
    next_version: dict[str, int] = {}
    stmt_defs: dict[tuple[int, int], list[tuple[str, int]]] = {}
    for (name, version), value in const.entries.items():
        next_version[name] = version + 1
        stmt_defs.setdefault(value.site, []).append((name, version))

    # Bit layout: each name's versions own one contiguous range, allocated
    # over the names in sorted order; bit offset[name] + v is (name, v).
    offset: dict[str, int] = {}
    mask: dict[str, int] = {}
    bit = 0
    for name in sorted(next_version):
        offset[name] = bit
        mask[name] = ((1 << next_version[name]) - 1) << bit
        bit += next_version[name]

    # A definition clears the other bits of its name (only names with more
    # than one version have any) and sets its own bit.
    clear = {name: ~mask[name] for name, count in next_version.items() if count > 1}

    # Block-level gen and complemented kill (sites are in statement order).
    gen: dict[int, int] = dict.fromkeys(cfg.blocks, 0)
    keep: dict[int, int] = dict.fromkeys(cfg.blocks, -1)
    for (bid, _), defs in stmt_defs.items():
        for name, version in defs:
            if name in clear:
                gen[bid] &= clear[name]
                keep[bid] &= clear[name]
            gen[bid] |= 1 << (offset[name] + version)

    preds = {
        bid: [edge.source.id for edge in cfg.blocks[bid].predecessors] for bid in rpo
    }
    in_bits: dict[int, int] = dict.fromkeys(cfg.blocks, 0)
    out_bits: dict[int, int] = dict.fromkeys(cfg.blocks, 0)
    changed = True
    while changed:
        changed = False
        for bid in rpo:
            new_in = 0
            for pred in preds[bid]:
                new_in |= out_bits[pred]
            in_bits[bid] = new_in
            new_out = gen[bid] | (new_in & keep[bid])
            if new_out != out_bits[bid]:
                out_bits[bid] = new_out
                changed = True

    use_map = SsaUseMap()
    for bid, block in cfg.blocks.items():
        rows: list[dict[str, set[int]]] = []
        live = in_bits[bid]
        for idx, stmt in enumerate(block.statements):
            rows.append({
                name: _versions((live & mask[name]) >> offset[name])
                for name in sorted(_uses(stmt))
                if name in mask
            })
            for name, version in stmt_defs.get((bid, idx), ()):
                if name in clear:
                    live &= clear[name]
                live |= 1 << (offset[name] + version)
        use_map.per_block[bid] = rows
    return use_map, const


def _versions(bits: int) -> set[int]:
    """The version numbers whose bits are set."""
    if not bits & (bits - 1):  # zero or one version: the common case
        return {bits.bit_length() - 1} if bits else set()
    out: set[int] = set()
    while bits:
        low = bits & -bits
        out.add(low.bit_length() - 1)
        bits ^= low
    return out


# ---------------------------------------------------------------------------
# Constant folding


class Worklist:
    """A fixpoint over growing sets, by difference propagation: :meth:`solve`
    runs each unit once, in order, then again whenever a slot it read
    (:meth:`get`) has grown (:meth:`add`).  Slots only grow, so over finitely
    many values the queue runs dry, at the least fixpoint."""

    def __init__(self) -> None:
        self.values: dict[Hashable, set] = {}
        self.readers: dict[Hashable, list[int]] = {}  # slot -> the units that read it, by index
        self.reading = 0
        self.queue: deque[int] = deque()
        self.queued = bytearray()

    def get(self, slot: Hashable) -> set:
        readers = self.readers.get(slot)
        if readers is None:
            self.readers[slot] = [self.reading]
        elif readers[-1] != self.reading:
            readers.append(self.reading)
        values = self.values.get(slot)
        return self.values.setdefault(slot, set()) if values is None else values

    def add(self, slot: Hashable, values: set) -> None:
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


# Unary and binary operators: an operator node's type is never the other kind's.
_OPS = {
    ast.USub: operator.neg,
    ast.UAdd: operator.pos,
    ast.Invert: operator.invert,
    ast.Not: operator.not_,
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
    ast.LShift: operator.lshift,
    ast.RShift: operator.rshift,
    ast.BitOr: operator.or_,
    ast.BitAnd: operator.and_,
    ast.BitXor: operator.xor,
}

_CMP_OPS = {
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
}


# Fold bounds.  A definition whose value would exceed one is marked
# ``fold_failed``.  The steps that can grow a value fast (``**``, ``<<``,
# ``*`` and string ``+``) are refused before computing when their result is
# certain to exceed a bound, and printf-style ``str % value`` when a width or
# precision in the format does, so a huge power, repeat or field width in the
# source costs nothing.  4,096 bits is about 1,233 decimal digits, well under
# the interpreter's 4,300-digit int-to-str limit.
MAX_FOLD_INT_BITS = 4096
MAX_FOLD_STR_LEN = 4096


class _NotConstant(Exception):
    """No constant value (yet)."""


class _FoldFault(Exception):
    pass


_GROWING_OPS = (ast.Pow, ast.LShift, ast.Mult, ast.Add, ast.Mod)

# One printf-style conversion: ``%%``, or an optional mapping key and flags,
# then the width and the precision (the two groups; ``*`` takes them from the
# arguments).  Left to ``re``'s cache, so that importing lancet compiles
# nothing.
_PRINTF_SPEC = r"%(?:%|(?:\([^)]*\))?[-#0 +]*(\*|\d*)(?:\.(\*|\d*))?)"


def _printf_exceeds_bound(fmt: str) -> bool:
    """Whether a conversion in ``fmt`` has a width or precision above
    ``MAX_FOLD_STR_LEN`` or one taken from the arguments."""
    for match in re.finditer(_PRINTF_SPEC, fmt):
        for number in match.groups():
            if number == "*":
                return True
            # Lengths first, so a long digit string is never converted.
            digits = (number or "").lstrip("0") or "0"
            if len(digits) > len(str(MAX_FOLD_STR_LEN)) or int(digits) > MAX_FOLD_STR_LEN:
                return True
    return False


def _exceeds_bound(op: ast.operator, left: object, right: object) -> bool:
    """Whether ``left op right`` is certain to exceed a fold bound."""
    if isinstance(left, int) and isinstance(right, int):
        if isinstance(op, ast.Pow):
            # |left| ** right has at least (bits - 1) * right + 1 bits.
            return right > 0 and (abs(left).bit_length() - 1) * right >= MAX_FOLD_INT_BITS
        if isinstance(op, ast.LShift):
            return left != 0 and left.bit_length() + right > MAX_FOLD_INT_BITS
        if isinstance(op, ast.Mult):
            # A nonzero product has at least bits(left) + bits(right) - 1 bits.
            bits = left.bit_length() + right.bit_length() - 1
            return left != 0 and right != 0 and bits > MAX_FOLD_INT_BITS
        return False
    if isinstance(op, ast.Mod):
        return isinstance(left, str) and _printf_exceeds_bound(left)
    if isinstance(op, ast.Mult):
        if isinstance(left, int) and isinstance(right, str):
            left, right = right, left
        return (
            isinstance(left, str) and isinstance(right, int)
            and len(left) * right > MAX_FOLD_STR_LEN
        )
    return (
        isinstance(left, str) and isinstance(right, str)
        and len(left) + len(right) > MAX_FOLD_STR_LEN
    )


def _unfoldable(value: object) -> bool:
    """Whether a result is past a fold bound or not an RFC 8259 JSON scalar
    (say, the complex ``(-8) ** 0.5``, or ``1e308 * 10``, which is infinite)."""
    if isinstance(value, int):
        return value.bit_length() > MAX_FOLD_INT_BITS
    if isinstance(value, str):
        return len(value) > MAX_FOLD_STR_LEN
    if isinstance(value, float):
        return not math.isfinite(value)
    return value is not None


def _eval_expr(expr: ast.expr, env: dict[str, set[int]], solver: Worklist) -> object:
    """The constant ``expr`` evaluates to, operands in source order.  Chains
    that need no brackets run in a loop: a unary operand, a binary left operand,
    and the right operand of ``**``, whose left one is evaluated on the way down."""
    spine: list[tuple[ast.UnaryOp | ast.BinOp, object]] = []  # (operator node, a ``**``'s left value)
    while type(expr) in (ast.UnaryOp, ast.BinOp) and type(expr.op) in _OPS:
        if type(expr) is ast.UnaryOp:
            spine.append((expr, None))
            expr = expr.operand
        elif type(expr.op) is ast.Pow:
            spine.append((expr, _eval_expr(expr.left, env, solver)))
            expr = expr.right
        else:
            spine.append((expr, None))
            expr = expr.left
    value = _eval_leaf(expr, env, solver)
    for node, left in reversed(spine):
        op = type(node.op)
        if type(node) is ast.UnaryOp:
            operands: tuple = (value,)
        elif op is ast.Pow:
            operands = (left, value)
        else:
            operands = (value, _eval_expr(node.right, env, solver))
        if op in _GROWING_OPS and _exceeds_bound(node.op, *operands):
            raise _FoldFault
        try:
            value = _OPS[op](*operands)
        except (ZeroDivisionError, TypeError, ValueError, OverflowError):
            raise _FoldFault from None
    return value


def _eval_leaf(expr: ast.expr, env: dict[str, set[int]], solver: Worklist) -> object:
    if type(expr) is ast.Constant:
        if isinstance(expr.value, (int, float, bool, str)) or expr.value is None:
            return expr.value
        raise _NotConstant
    if isinstance(expr, ast.Name):
        versions = env.get(expr.id)
        if versions is None or len(versions) != 1:
            raise _NotConstant
        values = solver.get((expr.id, next(iter(versions))))
        if not values:
            raise _NotConstant
        return next(iter(values))
    if isinstance(expr, ast.BoolOp):
        is_and = isinstance(expr.op, ast.And)
        for value in expr.values:
            result = _eval_expr(value, env, solver)
            if bool(result) != is_and:  # ``and`` stops at a false value, ``or`` at a true one
                return result
        return result
    if isinstance(expr, ast.Compare):
        left = _eval_expr(expr.left, env, solver)
        for op, comparator in zip(expr.ops, expr.comparators):
            fn = _CMP_OPS.get(type(op))
            if fn is None:
                raise _NotConstant
            right = _eval_expr(comparator, env, solver)
            try:
                if not fn(left, right):
                    return False
            except TypeError:
                raise _FoldFault from None
            left = right
        return True
    raise _NotConstant


def fold_constants(const_dict: ConstDict, use_map: SsaUseMap) -> ConstDict:
    """Populate ``folded`` wherever a definition evaluates to a constant.

    A definition folds when each free variable has a single reaching version
    at the defining statement and that version is itself folded.  Arithmetic
    faults (division by zero and friends), results past the fold bounds and
    results other than an int, finite float, bool, str or None leave the
    entry unfolded with ``fold_failed`` set.  The input is not modified.
    """
    result = ConstDict({
        key: DefValue(value.expr, value.kind, value.site, value.folded, value.fold_failed)
        for key, value in const_dict.entries.items()
    })
    solver = Worklist()

    def run(key: tuple[str, int]) -> None:
        value = result.entries[key]
        bid, idx = value.site
        try:
            constant = _eval_expr(value.expr, use_map.per_block[bid][idx], solver)
            if _unfoldable(constant):
                raise _FoldFault
        except _NotConstant:
            return
        except _FoldFault:
            value.fold_failed = True
            return
        value.folded = constant
        solver.add(key, {constant})

    # Entry order puts a definition after those it reads, outside loops.
    solver.solve([key for key, value in result.entries.items()
                  if not value.fold_failed and value.expr is not None
                  and value.kind not in (KIND_CALL, KIND_OTHER, KIND_UNKNOWN)], run)
    return result


def alias_pairs(const_dict: ConstDict) -> list[AliasPair]:
    """Every definition that is a bare copy of another name, in key order."""
    pairs: list[AliasPair] = []
    for key, value in sorted(const_dict.entries.items()):
        if value.kind == KIND_NAME and isinstance(value.expr, ast.Name):
            pairs.append(AliasPair(alias=key, target=value.expr.id))
    return pairs


# ---------------------------------------------------------------------------
# Serialization


def to_json_dict(use_map: SsaUseMap, const_dict: ConstDict) -> dict:
    blocks = {
        str(bid): [
            {name: sorted(versions) for name, versions in row.items()} for row in rows
        ]
        for bid, rows in use_map.per_block.items()
    }
    constants = {}
    for (name, version), value in const_dict.entries.items():
        constants[f"{name}#{version}"] = {
            "kind": value.kind,
            "folded": value.folded if value.is_folded else None,
            "source": source_text(value.expr) if value.expr is not None else None,
        }
    return {"blocks": blocks, "constants": constants}

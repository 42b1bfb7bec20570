"""Intra-procedural control-flow graphs.

A :class:`Cfg` holds numbered :class:`Block`s of straight-line statements
joined by :class:`Link`s; a link carries the branch condition (or loop
binding) that guards it.  Function and class bodies get their own nested
CFGs: ``function_cfgs`` and ``class_cfgs`` are keyed by ``(block_id, name)``
because the same name can be defined in different branches, and each nested
CFG may hold further nested CFGs of its own.

Construction rules:

* an ``if`` head ends the current block; the join block is created right
  after the true branch finishes and before the else branch is built (for a
  one-armed ``if`` over blocks 1-2, the join is block 3 and an else branch
  becomes block 4);
* ``while``/``for`` heads get their own header block, with a back edge from
  the body and an exit edge to the after-loop block;
* ``yield`` ends its block with a fallthrough edge (resumption point);
* ``return`` ends its block with no exits; ``break``/``continue`` jump to
  the loop exit/header; statements following any of these land in a block
  that is recorded as unreachable.

Exception flow is not modeled; statement types outside the parsed subset
are folded into the current block linearly.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from .frontend import SourceFile, _defaults, _walk, dump_json, node_span, parse_module, source_text

__all__ = [
    "Block",
    "Link",
    "Cfg",
    "build_from_source",
    "build_from_file",
    "visit_function_cfgs",
    "reverse_postorder",
    "to_dot",
    "to_json_dict",
    "to_json",
    "stmt_head_text",
    "head_exprs",
    "iter_eager",
    "contains_yield",
]


class Link:
    def __init__(self, source: Block, target: Block, condition: ast.expr | None = None) -> None:
        self.source, self.target, self.condition = source, target, condition

    def __repr__(self) -> str:
        cond = f" [{source_text(self.condition)}]" if self.condition is not None else ""
        return f"Link({self.source.id} -> {self.target.id}{cond})"


class Block:
    def __init__(self, id: int, statements: list[ast.stmt] | None = None,
                 exits: list[Link] | None = None, predecessors: list[Link] | None = None) -> None:
        self.id = id
        self.statements = [] if statements is None else statements
        self.exits = [] if exits is None else exits
        self.predecessors = [] if predecessors is None else predecessors

    def get_calls(self) -> list[ast.Call]:
        """Call expressions that run when this block executes, in source order.

        Nested calls are included; bodies of function/class definitions and
        of lambdas are not (they execute elsewhere): :func:`iter_eager` over
        :func:`head_exprs`.
        """
        return [node for stmt in self.statements for expr in head_exprs(stmt)
                for node in iter_eager(expr) if type(node) is ast.Call]

    def __repr__(self) -> str:
        return f"Block(#{self.id}, {len(self.statements)} stmts)"


class Cfg:
    def __init__(self, name: str, entry: Block, blocks: dict[int, Block] | None = None,
                 final_blocks: set[int] | None = None, unreachable_blocks: set[int] | None = None,
                 function_cfgs: dict[tuple[int, str], Cfg] | None = None,
                 class_cfgs: dict[tuple[int, str], Cfg] | None = None) -> None:
        self.name, self.entry = name, entry
        self.blocks = {} if blocks is None else blocks
        self.final_blocks = set() if final_blocks is None else final_blocks
        self.unreachable_blocks = set() if unreachable_blocks is None else unreachable_blocks
        self.function_cfgs = {} if function_cfgs is None else function_cfgs
        self.class_cfgs = {} if class_cfgs is None else class_cfgs

    def __iter__(self) -> Iterator[Block]:
        return iter(sorted(self.blocks.values(), key=lambda b: b.id))

    def block(self, block_id: int) -> Block:
        return self.blocks[block_id]


def visit_function_cfgs(cfg: Cfg) -> Iterator[tuple[tuple[int, str], Cfg]]:
    """Directly nested function CFGs, ordered by (block id, name)."""
    yield from sorted(cfg.function_cfgs.items(), key=lambda item: item[0])


def reverse_postorder(cfg: Cfg) -> list[int]:
    """The ids of the blocks reachable from the entry, in reverse post-order (Cooper & Torczon,
    ch. 9) of a depth-first search on an explicit stack, which follows each block's exits last
    to first and marks a block visited when it first reaches it."""
    order: list[int] = []
    visited = {cfg.entry.id}
    stack = [(cfg.entry, reversed(cfg.entry.exits))]
    while stack:
        block, exits = stack[-1]
        for edge in exits:
            if edge.target.id not in visited:
                visited.add(edge.target.id)
                stack.append((edge.target, reversed(edge.target.exits)))
                break
        else:
            stack.pop()
            order.append(block.id)
    order.reverse()
    return order


# ---------------------------------------------------------------------------
# Statement heads: the expressions evaluated when a block executes.  Bodies
# of compound statements live in other blocks (or other CFGs) and must not
# be traversed when inspecting a block's own statements.


def head_exprs(stmt: ast.stmt) -> list[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return [stmt.value] + list(stmt.targets)
    if isinstance(stmt, ast.AugAssign):
        return [stmt.value, stmt.target]
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.For):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, ast.FunctionDef):
        return stmt.decorator_list + _defaults(stmt.args)
    if isinstance(stmt, ast.ClassDef):
        return list(stmt.decorator_list) + list(stmt.bases) + [kw.value for kw in stmt.keywords]
    return []


def iter_eager(expr: ast.AST) -> Iterator[ast.AST]:
    """Pre-order walk of an expression, skipping deferred lambda bodies and,
    as :func:`~lancet.frontend.walk`, context and operator objects."""
    return _walk(expr, True)


def stmt_head_text(stmt: ast.stmt) -> str:
    """Single-line source text for a statement's head."""
    if isinstance(stmt, ast.If):
        return f"if {source_text(stmt.test)}:"
    if isinstance(stmt, ast.While):
        return f"while {source_text(stmt.test)}:"
    if isinstance(stmt, ast.For):
        return f"for {source_text(stmt.target)} in {source_text(stmt.iter)}:"
    if isinstance(stmt, ast.FunctionDef):
        return f"def {stmt.name}({source_text(stmt.args)}):"
    if isinstance(stmt, ast.ClassDef):
        bases = ", ".join(source_text(b) for b in stmt.bases)
        return f"class {stmt.name}({bases}):" if bases else f"class {stmt.name}:"
    return source_text(stmt)


# ---------------------------------------------------------------------------
# Construction


class _LoopFrame:
    def __init__(self, assembler: "_Assembler", header: Block) -> None:
        self._assembler = assembler
        self.header = header
        self._after: Block | None = None

    def after(self) -> Block:
        if self._after is None:
            self._after = self._assembler.new_block()
        return self._after


class _Assembler:
    def __init__(self, name: str, in_function: bool) -> None:
        entry = Block(id=1)
        self._counter = 1
        self.in_function = in_function
        self.cfg = Cfg(name=name, entry=entry, blocks={1: entry})
        self.current: Block | None = entry
        self.loops: list[_LoopFrame] = []

    def new_block(self) -> Block:
        self._counter += 1
        block = Block(id=self._counter)
        self.cfg.blocks[block.id] = block
        return block

    def link(self, source: Block, target: Block, condition: ast.expr | None = None) -> None:
        edge = Link(source=source, target=target, condition=condition)
        source.exits.append(edge)
        target.predecessors.append(edge)

    def _here(self) -> Block:
        # After a terminator, trailing statements open a fresh (dead) block.
        if self.current is None:
            self.current = self.new_block()
        return self.current

    def add_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.add_statement(stmt)

    def _branch(self, source: Block, condition: ast.expr | None,
                body: list[ast.stmt]) -> Block | None:
        """Build ``body`` from a new block that ``source`` links to under
        ``condition``; return the block it ends in (None after a jump)."""
        self.current = self.new_block()
        self.link(source, self.current, condition)
        self.add_body(body)
        return self.current

    def add_statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._add_if(stmt)
            return
        if isinstance(stmt, (ast.While, ast.For)):
            self._add_loop(stmt)
            return
        block = self._here()
        block.statements.append(stmt)
        if isinstance(stmt, ast.FunctionDef):
            self.cfg.function_cfgs[(block.id, stmt.name)] = _build_cfg(stmt.name, stmt.body, True)
        elif isinstance(stmt, ast.ClassDef):
            self.cfg.class_cfgs[(block.id, stmt.name)] = _build_cfg(stmt.name, stmt.body, False)
        elif isinstance(stmt, (ast.Return, ast.Break, ast.Continue)):
            if self.loops and isinstance(stmt, ast.Break):
                self.link(block, self.loops[-1].after())
            elif self.loops and isinstance(stmt, ast.Continue):
                self.link(block, self.loops[-1].header)
            self.current = None
        elif self.in_function and contains_yield(stmt):
            self.current = self.new_block()
            self.link(block, self.current)

    def _add_if(self, stmt: ast.If) -> None:
        """An ``elif`` chain (an ``orelse`` that is one ``If``) is built in a loop."""
        head = self._here()
        joins: list[tuple[Block | None, Block]] = []  # (then-branch end, join) per If
        while True:
            head.statements.append(stmt)
            joins.append((self._branch(head, stmt.test, stmt.body), self.new_block()))
            negated = _negate(stmt.test)
            if len(stmt.orelse) != 1 or type(stmt.orelse[0]) is not ast.If:
                break
            head, stmt = self._branch(head, negated, []), stmt.orelse[0]
        # The last else branch ends in ``end`` (or is its head's edge); each other, in the next join.
        end, condition = (self._branch(head, negated, stmt.orelse), None) if stmt.orelse else (head, negated)
        for then_end, join in reversed(joins):
            if end is not None:
                self.link(end, join, condition)
            if then_end is not None:
                self.link(then_end, join)
            end, condition = join, None
        self.current = end

    def _add_loop(self, stmt: ast.While | ast.For) -> None:
        prev = self._here()
        if prev.statements:
            header = self.new_block()
            self.link(prev, header)
        else:
            header = prev
        header.statements.append(stmt)

        frame = _LoopFrame(self, header)
        self.loops.append(frame)
        entry = stmt.test if isinstance(stmt, ast.While) else stmt.target
        body_end = self._branch(header, entry, stmt.body)
        if body_end is not None:
            self.link(body_end, header)
        self.loops.pop()

        exit_cond = _negate(stmt.test) if isinstance(stmt, ast.While) else None
        if stmt.orelse:
            else_end = self._branch(header, exit_cond, stmt.orelse)
            after = frame.after()
            if else_end is not None:
                self.link(else_end, after)
        else:
            after = frame.after()
            self.link(header, after, condition=exit_cond)
        self.current = after

    def finish(self) -> Cfg:
        reachable = set(reverse_postorder(self.cfg))
        self.cfg.unreachable_blocks = set(self.cfg.blocks) - reachable
        self.cfg.final_blocks = {bid for bid in reachable if not self.cfg.blocks[bid].exits}
        return self.cfg


def _negate(test: ast.expr) -> ast.expr:
    return ast.copy_location(ast.UnaryOp(op=ast.Not(), operand=test), test)


def contains_yield(stmt: ast.stmt) -> bool:
    """Whether the statement's own expressions yield; a ``yield`` inside a
    lambda body belongs to the lambda.  Only function bodies are searched:
    ``parse_module`` rejects a ``yield`` at module level, in a class body, in a
    comprehension, and in a default or base evaluated outside a function."""
    return any(isinstance(n, ast.Yield) for e in head_exprs(stmt) for n in iter_eager(e))


def _build_cfg(name: str, body: list[ast.stmt], in_function: bool) -> Cfg:
    assembler = _Assembler(name, in_function)
    assembler.add_body(body)
    return assembler.finish()


def build_from_source(name: str, text: str, path: str = "<string>") -> Cfg:
    """Build the module-level CFG (plus nested function/class CFGs) for ``text``."""
    module = parse_module(text, path)
    return build_from_ast(name, module)


def build_from_ast(name: str, module: ast.Module) -> Cfg:
    return _build_cfg(name, module.body, False)


def build_from_file(name: str, path: str | Path) -> Cfg:
    p = Path(path)
    if p.is_dir():
        raise IsADirectoryError(f"not a file: {p}")
    source = SourceFile.load(p)
    return build_from_source(name, source.text, path=str(p))


# ---------------------------------------------------------------------------
# Export


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _block_label(block: Block) -> str:
    lines = [f"#{block.id}"] + [stmt_head_text(s) for s in block.statements]
    # \l left-justifies and terminates each line in DOT labels.
    return "\\l".join(_dot_escape(line) for line in lines) + "\\l"


def _dot_body(cfg: Cfg, prefix: str, lines: list[str], indent: str,
              include_functions: bool) -> None:
    for block in cfg:
        lines.append(f'{indent}{prefix}b{block.id} [label="{_block_label(block)}"];')
    for block in cfg:
        for edge in block.exits:
            label = source_text(edge.condition) if edge.condition is not None else ""
            attr = f' [label="{_dot_escape(label)}"]' if label else ""
            lines.append(f"{indent}{prefix}b{block.id} -> {prefix}b{edge.target.id}{attr};")
    if not include_functions:
        return
    nested = [(f"{name} (block {bid})", "f", sub) for (bid, name), sub in visit_function_cfgs(cfg)]
    classes = sorted(cfg.class_cfgs.items(), key=lambda item: item[0][::-1])  # by (name, block id)
    nested += [(f"class {name}", "c", sub) for (_, name), sub in classes]
    for cluster, (label, kind, sub) in enumerate(nested):
        lines.append(f'{indent}subgraph cluster_{prefix}{cluster} {{')
        lines.append(f'{indent}  label="{_dot_escape(label)}";')
        _dot_body(sub, f"{prefix}{kind}{cluster}_", lines, indent + "  ", include_functions)
        lines.append(f"{indent}}}")


def to_dot(cfg: Cfg, include_functions: bool = False) -> str:
    """Deterministic DOT text: blocks by ascending id, exits in stored order."""
    lines = [f'digraph "{_dot_escape(cfg.name)}" {{', "  node [shape=box];"]
    _dot_body(cfg, "", lines, "  ", include_functions)
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(cfg: Cfg) -> dict:
    blocks = []
    links = []
    for block in cfg:
        blocks.append(
            {"id": block.id, "statements": [list(node_span(s) or ()) for s in block.statements]}
        )
        for edge in block.exits:
            links.append(
                {
                    "source": block.id,
                    "target": edge.target.id,
                    "condition": source_text(edge.condition) if edge.condition is not None else None,
                }
            )
    return {
        "name": cfg.name,
        "blocks": blocks,
        "links": links,
        "functions": [
            {"block_id": bid, "name": name, "cfg": to_json_dict(sub)}
            for (bid, name), sub in visit_function_cfgs(cfg)
        ],
        "classes": [
            {"name": name, "cfg": to_json_dict(sub)}
            for (_, name), sub in sorted(cfg.class_cfgs.items(), key=lambda item: item[0][::-1])
        ],
    }


def to_json(cfg: Cfg) -> str:
    return dump_json(to_json_dict(cfg))

"""Output checks for every (workload, subcommand) pair.

Each check takes the stdout of one lancet op and returns ``None`` when it is
right or a one-line reason when it is wrong.  References come from the
generator's construction, from running the generated programs under CPython,
or from the reaching-definitions oracle below; never from lancet's own
output.  The SSA oracle reads lancet's control-flow graph of the simplified
module as data (block ids and statements) and recomputes reaching
definitions on it independently.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from gen import Workload

_VOCAB = {bool: "bool", int: "int", float: "float", str: "str", list: "List",
          dict: "Dict", tuple: "Tuple", set: "Set", type(None): "None"}


def run_python(path: Path, timeout: float = 60.0) -> str:
    """Stdout of a program under CPython; raises on a nonzero exit."""
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          timeout=timeout, check=True, cwd=path.parent)
    return proc.stdout


def exec_globals(source: str) -> dict:
    """Module globals after running ``source`` with its stdout discarded."""
    env: dict = {"__name__": "__benchmark__"}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, "<generated>", "exec"), env)
    return env


def _same(a: object, b: object) -> bool:
    return type(a) is type(b) and a == b


# ---------------------------------------------------------------------------
# Independent reaching definitions (bitsets over definition sites).


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_target_names(elt.value if isinstance(elt, ast.Starred) else elt))
        return out
    return []


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a statement rebinds by assignment or loop target."""
    if isinstance(stmt, ast.Assign):
        return [n for t in stmt.targets for n in _target_names(t)]
    if isinstance(stmt, ast.AugAssign):
        return _target_names(stmt.target)
    if isinstance(stmt, ast.For):
        return _target_names(stmt.target)
    return []


def _head(stmt: ast.stmt) -> list[ast.AST]:
    """Expressions evaluated when control reaches the statement itself."""
    if isinstance(stmt, ast.Assign):
        return [stmt.value, *stmt.targets]
    if isinstance(stmt, ast.AugAssign):
        return [stmt.value, stmt.target]
    if isinstance(stmt, (ast.Expr, ast.Return)):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.For):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, ast.FunctionDef):
        return [*stmt.decorator_list, *stmt.args.defaults,
                *(d for d in stmt.args.kw_defaults if d is not None)]
    if isinstance(stmt, ast.ClassDef):
        return [*stmt.decorator_list, *stmt.bases, *(k.value for k in stmt.keywords)]
    return []


def _loads(node: ast.AST, out: set[str], hidden: frozenset[str]) -> None:
    """Free names read by ``node`` under Python's scoping of lambdas and
    comprehensions."""
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in hidden:
            out.add(node.id)
        return
    if isinstance(node, ast.Lambda):
        for d in [*node.args.defaults, *node.args.kw_defaults]:
            if d is not None:
                _loads(d, out, hidden)
        return
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        inner = hidden | {n for g in node.generators for n in _target_names(g.target)}
        for i, gen in enumerate(node.generators):
            _loads(gen.iter, out, hidden if i == 0 else inner)
            for cond in gen.ifs:
                _loads(cond, out, inner)
        for part in ([node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]):
            _loads(part, out, inner)
        return
    for child in ast.iter_child_nodes(node):
        _loads(child, out, hidden)


def _used(stmt: ast.stmt) -> set[str]:
    out: set[str] = set()
    for expr in _head(stmt):
        _loads(expr, out, frozenset())
    if isinstance(stmt, ast.AugAssign):
        out.update(_target_names(stmt.target))
    return out


def _bits(value: int) -> set[int]:
    out = set()
    while value:
        low = value & -value
        out.add(low.bit_length() - 1)
        value ^= low
    return out


def reaching_uses(cfg) -> tuple[dict[tuple[int, int], dict[str, set[int]]], dict[str, list[int]]]:
    """Per statement, the definition sites reaching each used name, plus the
    definition sites of every name.  Sites are bit indices."""
    sites: list[str] = []  # site index -> defined name
    stmt_sites: dict[tuple[int, int], list[int]] = {}
    mask: dict[str, int] = {}
    for bid in sorted(cfg.blocks):
        for idx, stmt in enumerate(cfg.blocks[bid].statements):
            for name in _defined(stmt):
                stmt_sites.setdefault((bid, idx), []).append(len(sites))
                mask[name] = mask.get(name, 0) | (1 << len(sites))
                sites.append(name)

    def transfer(bid: int, bits: int) -> int:
        for idx in range(len(cfg.blocks[bid].statements)):
            for site in stmt_sites.get((bid, idx), ()):
                bits = (bits & ~mask[sites[site]]) | (1 << site)
        return bits

    preds = {bid: [e.source.id for e in cfg.blocks[bid].predecessors] for bid in cfg.blocks}
    into = {bid: 0 for bid in cfg.blocks}
    out = {bid: 0 for bid in cfg.blocks}
    changed = True
    while changed:
        changed = False
        for bid in sorted(cfg.blocks):
            new_in = 0
            for p in preds[bid]:
                new_in |= out[p]
            new_out = transfer(bid, new_in)
            if new_in != into[bid] or new_out != out[bid]:
                into[bid], out[bid] = new_in, new_out
                changed = True

    uses: dict[tuple[int, int], dict[str, set[int]]] = {}
    for bid in sorted(cfg.blocks):
        bits = into[bid]
        for idx, stmt in enumerate(cfg.blocks[bid].statements):
            row = {}
            for name in _used(stmt):
                if name in mask:
                    row[name] = _bits(bits & mask[name])
            uses[(bid, idx)] = row
            for site in stmt_sites.get((bid, idx), ()):
                bits = (bits & ~mask[sites[site]]) | (1 << site)
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(sites):
        by_name.setdefault(name, []).append(i)
    return uses, by_name


def check_use_sets(payload: dict, cfg) -> str | None:
    """SSA use sets must equal the oracle's, up to how versions are numbered.

    A version and a definition site correspond when they reach exactly the
    same uses; the multisets of these use signatures must agree per name.
    """
    uses, sites = reaching_uses(cfg)
    blocks = payload["blocks"]
    if sorted(blocks, key=int) != [str(b) for b in sorted(cfg.blocks)]:
        return "ssa: block ids differ from the CFG"
    version_sig: dict[str, dict[int, set]] = {}
    site_sig: dict[str, dict[int, set]] = {}
    for (bid, idx), row in uses.items():
        rows = blocks[str(bid)]
        if len(rows) != len(cfg.blocks[bid].statements):
            return f"ssa: block {bid} has {len(rows)} rows for {len(cfg.blocks[bid].statements)} statements"
        got = rows[idx]
        if set(got) != set(row):
            return f"ssa: block {bid} statement {idx} uses {sorted(got)}, oracle {sorted(row)}"
        for name, versions in got.items():
            for v in versions:
                version_sig.setdefault(name, {}).setdefault(v, set()).add((bid, idx))
            for s in row[name]:
                site_sig.setdefault(name, {}).setdefault(s, set()).add((bid, idx))
    versions_per_name = Counter(key.rsplit("#", 1)[0] for key in payload["constants"])
    for name, name_sites in sites.items():
        if versions_per_name[name] != len(name_sites):
            return f"ssa: {name} has {versions_per_name[name]} versions for {len(name_sites)} definitions"
        want = Counter(frozenset(site_sig.get(name, {}).get(s, ())) for s in name_sites)
        got_sigs = Counter(frozenset(version_sig.get(name, {}).get(v, ()))
                           for v in range(len(name_sites)))
        if want != got_sigs:
            return f"ssa: use sets of {name} disagree with reaching definitions"
    return None


# ---------------------------------------------------------------------------
# Shared checks


def _same_tree(out: str, source: str) -> str | None:
    if ast.dump(ast.parse(out)) != ast.dump(ast.parse(source)):
        return "rewrite changed a module on which no rule applies"
    return None


def _fqn_expected(source: str, bindings: dict[str, str]) -> Counter:
    """'callee -> FQN' for every call, binding only the roots the module binds."""
    out: Counter = Counter()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        parts: list[str] = []
        cur = node.func
        while isinstance(cur, ast.Attribute):
            parts.insert(0, cur.attr)
            cur = cur.value
        shown = "UNRESOLVED"
        if isinstance(cur, ast.Name) and cur.id in bindings:
            shown = ".".join([bindings[cur.id], *parts])
        out[f"{ast.unparse(node.func)} -> {shown}"] += 1
    return out


def _fqn_got(out: str) -> Counter:
    return Counter(line.split(" ", 1)[1] for line in out.splitlines())


def _type_cover(records: list[dict], env: dict, file: str) -> str | None:
    """Module-level variable records must cover the type each name has after
    CPython runs the program (``Any`` covers everything)."""
    module_vars = {r["variable"]: set(r["type"]) for r in records
                   if r["file"] == file and "variable" in r and "function" not in r}
    for name, value in env.items():
        vocab = _VOCAB.get(type(value))
        if name.startswith("__") or vocab is None:
            continue
        inferred = module_vars.get(name)
        if inferred is None:
            return f"typeinfer: no record for module variable {name}"
        if vocab not in inferred and "Any" not in inferred:
            return f"typeinfer: {name} is {vocab} at run time, inferred {sorted(inferred)}"
    return None


def _cfg_json_straight(payload: dict, source: str) -> str | None:
    tree = ast.parse(source)
    counted = sum(len(b["statements"]) for b in payload["blocks"])
    if counted != len(tree.body) or len([b for b in payload["blocks"] if b["statements"]]) != 1:
        return f"cfg: straight-line module should be one block of {len(tree.body)} statements"
    n_defs = sum(isinstance(s, ast.FunctionDef) for s in tree.body)
    n_classes = sum(isinstance(s, ast.ClassDef) for s in tree.body)
    if len(payload["functions"]) != n_defs or len(payload["classes"]) != n_classes:
        return "cfg: nested function or class CFGs missing"
    return None


def _imports_single(payload: dict, wl: Workload) -> str | None:
    rel = next(iter(wl.files))
    name = rel[:-3].replace("/", ".")
    if payload != {"modules": [name], "edges": [], "leaves": [name]}:
        return f"imports: expected the single module {name}"
    return None


# ---------------------------------------------------------------------------
# chain


def check_chain(op: str, out: str, wl: Workload, workdir: Path) -> str | None:
    rel = next(iter(wl.files))
    source = wl.files[rel]
    if op == "rewrite":
        return _same_tree(out, source)
    if op == "cfg":
        return _cfg_json_straight(json.loads(out), source)
    if op == "ssa":
        constants = json.loads(out)["constants"]
        env = exec_globals(source)
        last: dict[str, int] = {}
        for key in constants:
            name, version = key.rsplit("#", 1)
            last[name] = max(last.get(name, -1), int(version))
        if sorted(last) != sorted(wl.facts["names"]):
            return "ssa: defined names differ from the program's"
        for name, version in last.items():
            folded = constants[f"{name}#{version}"]["folded"]
            if not _same(folded, env[name]):
                return f"ssa: {name} folded to {folded!r}, CPython computes {env[name]!r}"
        return None
    if op == "alias":
        return None if json.loads(out) == [] else "alias: chain has no copies"
    if op == "fqn":
        return None if _fqn_got(out) == _fqn_expected(source, {}) else "fqn: call sites differ"
    if op == "imports":
        return _imports_single(json.loads(out), wl)
    if op == "callgraph":
        stem = Path(rel).stem
        return None if json.loads(out) == {stem: []} else "callgraph: chain calls no callable"
    if op == "typeinfer":
        return _type_cover(json.loads(out), exec_globals(source), rel)
    raise KeyError(op)


# ---------------------------------------------------------------------------
# branchy


def _rule_sites(tree: ast.Module) -> Counter:
    """Statements each rewrite rule applies to, by rule name."""
    found: Counter = Counter()
    for stmt in ast.walk(tree):
        value = getattr(stmt, "value", None) if isinstance(stmt, (ast.Assign, ast.Expr, ast.Return)) else None
        if value is None:
            continue
        if isinstance(stmt, ast.Assign) and isinstance(value, (ast.ListComp, ast.SetComp, ast.DictComp)):
            found["comprehension"] += 1
        if isinstance(stmt, ast.Assign) and isinstance(value, ast.Lambda):
            found["lambda"] += 1
        if isinstance(value, ast.Subscript) and isinstance(value.value, ast.Call):
            found["subscripted call"] += 1
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Attribute) and isinstance(value.func.value, ast.Call):
                found["call chain"] += 1
            elif any(isinstance(a, ast.Call) for a in [*value.args, *(k.value for k in value.keywords)]):
                found["nested call"] += 1
    return found


def _branchy_callgraph(wl: Workload) -> dict[str, list[str]]:
    mod = "branchy"
    b = wl.facts["bindings"]
    edges: dict[str, set[str]] = {
        mod: set(),
        f"{mod}.Acc": set(),
        f"{mod}.Acc.__init__": set(),
        f"{mod}.Acc.plus": {f"{mod}.Acc", f"{mod}.Acc.__init__"},
        f"{mod}.Acc.total": set(),
        f"{mod}.scaled": {f"{mod}.scaled.inner"},
        f"{mod}.scaled.inner": set(),
        f"{mod}.offset": {f"{mod}.offset.inner"},
        f"{mod}.offset.inner": set(),
    }
    for name in ("inc", "twice", "mix", "pick"):
        edges[b[name]] = set()
    for callee in wl.facts["callees"]:
        root = callee.split(".")[0]
        if callee.startswith(("math.", "os.")):
            fqn = callee
        elif root in b:
            fqn = b[root] + callee[len(root):]
        else:  # a lambda, now a module-level def
            fqn = f"{mod}.{callee}"
            edges.setdefault(fqn, set())
        edges[mod].add(fqn)
        edges.setdefault(fqn, set())
    return {k: sorted(v) for k, v in edges.items()}


def check_branchy(op: str, out: str, wl: Workload, workdir: Path) -> str | None:
    rel = next(iter(wl.files))
    source = wl.files[rel]
    if op == "rewrite":
        before = _rule_sites(ast.parse(source))
        if len(before) != 5:
            return f"rewrite: the input exercises only {sorted(before)}"
        left = _rule_sites(ast.parse(out))
        if left:
            return f"rewrite: rules left unapplied: {dict(left)}"
        rewritten = workdir / "rewritten.py"
        rewritten.write_text(out, encoding="utf-8")
        if run_python(rewritten) != run_python(workdir / rel):
            return "rewrite: the rewritten program prints different output"
        return None
    if op == "cfg":
        tree = ast.parse(source)
        scopes = sum(isinstance(n, (ast.FunctionDef, ast.ClassDef)) for n in ast.walk(tree))
        if not out.startswith('digraph "branchy" {') or out.count("subgraph cluster_") != scopes:
            return f"cfg: expected {scopes} nested clusters"
        return None
    if op == "ssa":
        return check_use_sets(json.loads(out), branchy_cfg(source))
    if op == "alias":
        got = Counter((p["alias"].rsplit("#", 1)[0], p["target"]) for p in json.loads(out))
        want = Counter(tuple(c) for c in wl.facts["copies"])
        return None if got == want else "alias: pairs differ from the program's copies"
    if op == "fqn":
        want = _fqn_expected(source, wl.facts["bindings"])
        return None if _fqn_got(out) == want else "fqn: resolutions differ"
    if op == "imports":
        return _imports_single(json.loads(out), wl)
    if op == "callgraph":
        return None if json.loads(out) == _branchy_callgraph(wl) else "callgraph: edges differ"
    if op == "typeinfer":
        return _type_cover(json.loads(out), exec_globals(source), rel)
    raise KeyError(op)


def branchy_cfg(source: str):
    """lancet's CFG of the simplified module: the data the oracle runs on."""
    from lancet.cfg import build_from_ast
    from lancet.frontend import parse_module
    from lancet.rewriter import simplify_module

    return build_from_ast("branchy", simplify_module(parse_module(source)))


# ---------------------------------------------------------------------------
# package


def check_package(op: str, out: str, wl: Workload, workdir: Path) -> str | None:
    facts = wl.facts
    rel = facts["main_file"]
    source = wl.files[rel]
    if op == "imports":
        payload = json.loads(out)
        if payload["modules"] != facts["modules"]:
            return "imports: module list differs"
        if payload["edges"] != [list(e) for e in facts["edges"]]:
            return "imports: internal edges differ"
        importers = {e[0] for e in facts["edges"]}
        if payload["leaves"] != [m for m in facts["modules"] if m not in importers]:
            return "imports: leaves differ"
        return None
    if op == "callgraph":
        want = {n: facts["calls"].get(n, []) for n in facts["nodes"]}
        return None if json.loads(out) == want else "callgraph: edges differ"
    if op == "typeinfer":
        got: dict[tuple[str, str, str], list[str]] = {}
        for r in json.loads(out):
            if "function" in r and "variable" not in r:
                got[(r["file"], r["function"], r.get("parameter", ""))] = r["type"]
        for fqn, want in facts["ret_type"].items():
            key = _fn_key(fqn, facts["root"])
            if got.get((*key, "")) != [want]:
                return f"typeinfer: return of {fqn} is {got.get((*key, ''))}, seeded {want}"
        for fqn, want in facts["param_type"].items():
            key = _fn_key(fqn, facts["root"])
            if got.get((*key, "a")) != [want]:
                return f"typeinfer: parameter a of {fqn} is {got.get((*key, 'a'))}, seeded {want}"
        return None
    if op == "rewrite":
        return _same_tree(out, source)
    if op == "cfg":
        return _cfg_json_straight(json.loads(out), source)
    if op == "ssa":
        constants = json.loads(out)["constants"]
        assigns = [s for s in ast.parse(source).body if isinstance(s, ast.Assign)]
        env = exec_globals(ast.unparse(ast.Module(body=assigns, type_ignores=[])))
        want = {f"{n}#0": env[n] for n in env if not n.startswith("__")}
        got = {k: v["folded"] for k, v in constants.items()}
        return None if got == want else "ssa: module constants differ from CPython's"
    if op == "alias":
        return None if json.loads(out) == [] else "alias: the module has no copies"
    if op == "fqn":
        return None if _fqn_got(out) == Counter(facts["fqn_calls"]) else "fqn: resolutions differ"
    raise KeyError(op)


def _fn_key(fqn: str, root: str) -> tuple[str, str]:
    """(file as lancet prints it, short function name) of a package function."""
    module, name = fqn.rsplit(".", 1)
    return f"{root}/" + "/".join(module.split(".")[1:]) + ".py", name


CHECKS = {"chain": check_chain, "branchy": check_branchy, "package": check_package}

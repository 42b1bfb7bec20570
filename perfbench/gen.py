"""Seeded workload generators.

Every generator is a pure function of its seed and size arguments: the same
arguments give the same bytes.  Each returns the generated files (relative
path -> text) plus the facts the output checks compare against, which come
from the generator's own construction, never from lancet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

MOD = 1000003  # keeps every chain value a small int


@dataclass
class Workload:
    """Generated inputs for one workload, written under one directory."""

    name: str
    files: dict[str, str]
    facts: dict = field(default_factory=dict)

    def lines(self, rel_paths: list[str]) -> int:
        return sum(self.files[p].count("\n") for p in rel_paths)


# ---------------------------------------------------------------------------
# chain: one straight-line block with a fresh name on every line.


def gen_chain(seed: int, n_lines: int = 1200) -> Workload:
    rng = random.Random(f"chain:{seed}")
    out = []
    for i in range(n_lines - 1):
        if i < 8 or rng.random() < 0.05:
            out.append(f"v{i} = {rng.randrange(1, 1000)}")
            continue
        a = rng.randrange(i)
        b = rng.randrange(i)
        k = rng.randrange(2, 97)
        form = rng.randrange(6)
        if form == 0:
            expr = f"(v{a} + v{b}) % {MOD}"
        elif form == 1:
            expr = f"(v{a} * {k} - v{b}) % {MOD}"
        elif form == 2:
            expr = f"v{a} // {k} + v{b} % {k}"
        elif form == 3:
            expr = f"(v{a} ^ v{b}) + {k}"
        elif form == 4:
            expr = f"(v{a} << 3) % {MOD} - v{b} // {k}"
        else:
            expr = f"-v{a} % {k} * v{b} % {MOD}"
        out.append(f"v{i} = {expr}")
    out.append(f"print(v{n_lines - 2})")
    text = "\n".join(out) + "\n"
    return Workload("chain", {"chain/prog.py": text}, {"names": [f"v{i}" for i in range(n_lines - 1)]})


# ---------------------------------------------------------------------------
# branchy: an executable module with many if/else statements whose branches
# make all five rewrite rules fire.

_BRANCHY_PRELUDE = '''\
import math
from os.path import join


class Acc:
    def __init__(self, v):
        self.v = v

    def plus(self, k):
        return Acc((self.v + k) % 1009)

    def total(self):
        return self.v


def inc(a):
    return a + 1


def twice(a):
    return a * 2 % 1009


def mix(a, b):
    return (a * 3 + b) % 1009


def pick(xs):
    return xs


def scaled(n):
    def inner(k):
        return k * n % 1009
    return inner(3)


def offset(n):
    def inner(k):
        return (k + n) % 1009
    return inner(n)


ref = inc
'''

# Module-level names a call may resolve through, by the rules of Python
# imports and definitions (``ref`` is a copy of ``inc``).
_BRANCHY_BINDINGS = {
    "math": "math",
    "join": "os.path.join",
    "Acc": "branchy.Acc",
    "inc": "branchy.inc",
    "twice": "branchy.twice",
    "mix": "branchy.mix",
    "pick": "branchy.pick",
    "scaled": "branchy.scaled",
    "offset": "branchy.offset",
    "ref": "branchy.inc",
}


def gen_branchy(seed: int, n_vars: int = 140, n_ifs: int = 140) -> Workload:
    rng = random.Random(f"branchy:{seed}")
    lines = [_BRANCHY_PRELUDE]
    for i in range(n_vars):
        lines.append(f"v{i} = {rng.randrange(1, 1009)}")
    lines.append("")
    copies = [("ref", "inc")]  # (alias, target) of every bare-name copy
    callees: set[str] = set()  # what module-level code calls, by local name

    def var() -> str:
        return f"v{rng.randrange(n_vars)}"

    def stmt(j: int, form: int, indent: str) -> list[str]:
        k, a, b = var(), var(), var()
        if form == 0:  # comprehension unfolding
            return [f"{indent}t{j} = [{a} * i for i in range(3)]", f"{indent}{k} = sum(t{j}) % 1009"]
        if form == 1:  # nested call handling
            callees.update({"inc", "twice", "mix"})
            return [f"{indent}{k} = mix(inc({a}), twice({b}))"]
        if form == 2:  # subscripted call result
            callees.add("pick")
            return [f"{indent}{k} = pick([{a}, {b}, 7])[1]"]
        if form == 3:  # lambda conversion
            callees.add(f"h{j}")
            return [f"{indent}h{j} = lambda a: (a + {b}) % 1009", f"{indent}{k} = h{j}({a})"]
        if form == 4:  # call chain splitting
            callees.update({"Acc", "Acc.__init__", "Acc.plus", "Acc.total"})
            return [f"{indent}{k} = Acc({a}).plus({b}).total()"]
        if form == 5:  # bare copy
            copies.append((k, a))
            return [f"{indent}{k} = {a}"]
        if form == 6:
            callees.update({"inc", "math.gcd"})
            return [f"{indent}{k} = math.gcd({a}, {b}) + ref({a}) % 7"]
        if form == 7:
            callees.add("os.path.join")
            return [f"{indent}s{j} = str({a}).zfill(5)", f"{indent}{k} = len(join('d', s{j})) + {b} % 11"]
        callees.update({"scaled", "offset"})
        return [f"{indent}{k} = scaled({a}) + offset({b}) % 13"]

    # Forms cycle so that every seed yields the same statement mix and block
    # count; only the variables differ.
    for j in range(n_ifs):
        a, b = var(), var()
        lines.append(f"if {a} % 3 == {b} % 2:")
        lines.extend(stmt(j, j % 9, "    "))
        lines.append("else:")
        lines.extend(stmt(j, (j + 4) % 9, "    "))
    for start in range(0, n_vars, 10):
        names = ", ".join(f"v{i}" for i in range(start, min(start + 10, n_vars)))
        lines.append(f"print({names})")
    text = "\n".join(lines) + "\n"
    return Workload(
        "branchy",
        {"branchy/branchy.py": text},
        {"copies": copies, "bindings": dict(_BRANCHY_BINDINGS), "callees": sorted(callees)},
    )


# ---------------------------------------------------------------------------
# package: subpackages of modules with relative imports, one class per
# module, and cross-module calls whose targets and types are seeded.

_LITERALS = {"int": "3", "str": "'x'", "float": "1.5", "bool": "True"}
_RET_LITERALS = dict(_LITERALS, List="[1, 2]")


def gen_package(seed: int, n_subpackages: int = 4, per_subpackage: int = 10,
                n_funcs: int = 30) -> Workload:
    rng = random.Random(f"package:{seed}")
    root = "pkg"
    files: dict[str, str] = {f"{root}/__init__.py": '"""Generated package."""\n'}
    modules: list[tuple[str, str, str]] = []  # (fqn, relative path, subpackage)
    for s in range(n_subpackages):
        files[f"{root}/s{s}/__init__.py"] = '"""Generated subpackage."""\n'
        for m in range(per_subpackage):
            idx = s * per_subpackage + m
            modules.append((f"{root}.s{s}.m{idx:02d}", f"{root}/s{s}/m{idx:02d}.py", f"s{s}"))

    param_type: dict[str, str] = {}
    ret_type: dict[str, str] = {}
    edges: set[tuple[str, str]] = set()  # internal import edges
    calls: dict[str, set[str]] = {}  # caller FQN -> callee FQNs
    # Single-file subcommands (fqn, ssa, ...) run on the first module: it
    # imports nothing, and a file given alone is named by its stem.
    main_module = modules[0][0]
    stem = main_module.rsplit(".", 1)[1]
    fqn_calls: list[str] = []  # "callee -> shown" for every call in that module

    for idx, (mod_fqn, rel, sub) in enumerate(modules):
        tag = f"{idx:02d}"
        cls = f"C{tag}"
        cls_fqn = f"{mod_fqn}.{cls}"
        imports: list[str] = []
        bound: dict[str, str] = {cls: cls_fqn}  # local name -> FQN
        if idx:
            for tgt in sorted(rng.sample(range(idx), min(3, idx))):
                t_fqn, _, t_sub = modules[tgt]
                t_name = t_fqn.rsplit(".", 1)[1]
                j = rng.randrange(n_funcs)
                if t_sub == sub and rng.random() < 0.5:
                    imports.append(f"from .{t_name} import f{tgt:02d}_{j}")
                    bound[f"f{tgt:02d}_{j}"] = f"{t_fqn}.f{tgt:02d}_{j}"
                    edges.add((mod_fqn, t_fqn))
                elif t_sub == sub:
                    imports.append(f"from . import {t_name}")
                    bound[t_name] = t_fqn
                    edges.add((mod_fqn, f"{root}.{sub}"))
                    edges.add((mod_fqn, t_fqn))
                else:
                    imports.append(f"from ..{t_sub} import {t_name}")
                    bound[t_name] = t_fqn
                    edges.add((mod_fqn, f"{root}.{t_sub}"))
                    edges.add((mod_fqn, t_fqn))
        imports = sorted(set(imports))
        callables = sorted(bound)  # deterministic choice order

        body = ['"""Generated module."""', *imports, "", f"LIMIT = {rng.randrange(10, 99)}",
                "SCALE = LIMIT * 2 + 1", ""]
        body += [f"class {cls}:", "    def __init__(self, x):", "        self.x = x", "",
                 "    def size(self):", f"        return {rng.randrange(100)}", ""]
        funcs: list[str] = []
        forms = [j % 4 for j in range(n_funcs)]
        rng.shuffle(forms)
        for j, form in enumerate(forms):
            name = f"f{tag}_{j}"
            fn_fqn = f"{mod_fqn}.{name}"
            funcs.append(name)
            ptype = rng.choice(sorted(_LITERALS))
            param_type[fn_fqn] = ptype
            callee_names = [c for c in callables if c != cls]
            if form == 1 and callee_names:
                # Cross-module call through an imported function or module.
                local = rng.choice(callee_names)
                target_fqn = bound[local]
                if target_fqn in ret_type:  # an imported function
                    callee = target_fqn
                    syntactic = local
                else:  # an imported module: call one of its functions
                    t_idx = int(target_fqn[-2:])
                    k = rng.randrange(n_funcs)
                    callee = f"{target_fqn}.f{t_idx:02d}_{k}"
                    syntactic = f"{local}.f{t_idx:02d}_{k}"
                arg = _LITERALS[param_type[callee]]
                lines = [f"    b = {syntactic}({arg})", "    return b"]
                ret_type[fn_fqn] = ret_type[callee]
                calls.setdefault(fn_fqn, set()).add(callee)
            elif form == 2:
                lines = [f"    o = {cls}(a)", "    n = o.size()", "    return n"]
                ret_type[fn_fqn] = "int"
                calls.setdefault(fn_fqn, set()).update(
                    {cls_fqn, f"{cls_fqn}.__init__", f"{cls_fqn}.size"})
                if mod_fqn == main_module:
                    fqn_calls += [f"{cls} -> {stem}.{cls}", "o.size -> UNRESOLVED"]
            elif form == 3:
                rtype = rng.choice(sorted(_RET_LITERALS))
                lines = [f"    return {_RET_LITERALS[rtype]}"]
                ret_type[fn_fqn] = rtype
            else:
                lines = ["    return a"]
                ret_type[fn_fqn] = ptype
            body += [f"def {name}(a):", *lines, ""]
        # Every function gets a call site with an argument of its seeded type.
        run_fqn = f"{mod_fqn}.run"
        body.append("def run():")
        for name in funcs:
            body.append(f"    {name}({_LITERALS[param_type[f'{mod_fqn}.{name}']]})")
            calls.setdefault(run_fqn, set()).add(f"{mod_fqn}.{name}")
            if mod_fqn == main_module:
                fqn_calls.append(f"{name} -> {stem}.{name}")
        body.append("    return 0")
        ret_type[run_fqn] = "int"
        files[rel] = "\n".join(body) + "\n"

    all_modules = sorted([root] + [f"{root}.s{s}" for s in range(n_subpackages)]
                         + [m[0] for m in modules])
    nodes = set(all_modules)
    for mod_fqn, _, _ in modules:
        tag = mod_fqn[-2:]
        nodes |= {f"{mod_fqn}.C{tag}", f"{mod_fqn}.C{tag}.__init__", f"{mod_fqn}.C{tag}.size",
                  f"{mod_fqn}.run"}
        nodes |= {f"{mod_fqn}.f{tag}_{j}" for j in range(n_funcs)}
    facts = {
        "root": root,
        "modules": all_modules,
        "edges": sorted(edges),
        "nodes": sorted(nodes),
        "calls": {k: sorted(v) for k, v in sorted(calls.items())},
        "param_type": param_type,
        "ret_type": ret_type,
        "main_file": modules[0][1],
        "fqn_calls": sorted(fqn_calls),
    }
    return Workload("package", files, facts)


GENERATORS = {"chain": gen_chain, "branchy": gen_branchy, "package": gen_package}

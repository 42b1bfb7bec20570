#!/usr/bin/env python3
"""Compare the ``lancet`` CLI's output at a git revision with this checkout's.

Usage::

    python3 tools/cli_identity.py --parent REV

Extracts ``REV``'s ``src/`` with ``git archive`` into a temporary directory,
then runs one fixed matrix of invocations twice: once against that source and
once against this checkout's ``src/``.  Each side is one child process that
calls ``lancet.cli.main`` in process for every invocation, capturing stdout,
stderr and the exit code.  Every invocation whose three results differ is
printed with a short diff of what changed; the exit code is 1 if any differ,
else 0.  An exception that escapes ``main`` is recorded as that invocation's
result (its type and message, with whatever was written before it), so a
side that crashes is compared like any other.

The matrix:

* every single-file subcommand and format (``rewrite``; ``cfg`` as DOT, DOT
  with functions, and JSON; ``ssa`` and ``alias`` with and without
  ``--no-simplify``; ``fqn``; ``callgraph --entry`` in both formats;
  ``typeinfer`` with and without ``--no-simplify``) on every ``.py`` file
  under ``tests/corpus`` and of the edge-case set below, on the chain and
  branchy workloads of perfbench seeds 1, 2, 3 and 7, and on each package
  workload's main file;
* the directory subcommands (``imports``; ``callgraph --package`` in both
  formats; ``typeinfer`` with and without ``--no-simplify``) on every
  directory under ``tests/corpus`` and of the edge-case set, and on each
  seed's package root, plus ``callgraph --entry MAIN --package ROOT`` on the
  package workloads and, in both formats, on the corpus projects of
  ``PROJECT_ENTRIES``.

The edge-case set (``EDGE_CASES``) holds inputs the corpus does not:
starred and nested assignment targets, calls inside lambda bodies, int
literals past the int-to-str digit limit (which ``ast.dump`` cannot print,
so they stay out of ``tests/corpus``), two relative imports on one line
that reach above the project root, a call hoisted out of a statement
whose next argument is a 1,000-deep subscript chain, a 2,900-term sum, a
2,900-term ``**`` chain, a 2,900-deep attribute chain, a 2,900-deep
lambda chain, 2,900 unary minuses, 1,000 chained calls, ``[-[-...]]``
nested 199 deep, chains of 200 and 745 lambda defaults, and two inputs
too deep to parse (746 lambda defaults and 6,000 unary minuses), a
project whose ``app/main.py`` does ``import app`` beside an ``app/app.py``,
and, for ``fqn``,
names that a function binds over the module's (a function-local import
read from another function, a parameter and a local that shadow
module-level imports, a nested def that shadows a module-level one), calls
that bind parameters in every way (a constructor, a method and a
classmethod called through their class, starred, ``**`` and keyword
arguments, a default), a module name that a function assigns under
``global``, folds to a complex number, infinity, NaN and ``-0.0`` (which
pin how the JSON writer spells floats), calls in a default and in a
class base, and calls that do or do not pass a receiver (a method called
through its class with an instance, a staticmethod, a classmethod, an
instance's ``__call__`` with a first parameter not named ``self``, a
method called on ``self``) and literal ``*[...]``, ``*(...)`` and
``**{...}`` arguments, a file that starts with a UTF-8 byte order
mark, a latin-1 file with a PEP 263 coding cookie, the same cookie after a
byte order mark (an error), generators in a class, in a function and in a module-level
lambda, two classes named ``C`` in the two branches of an ``if``, a user's own
``_ret`` and ``_retries`` beside a temporary the rewriter makes, and calls
under each kind of expression that a call-graph run does not walk because it
keeps no type tags (a sum, a subscript, a comparison, a unary minus, an
augmented assignment, a comprehension), beside a call through ``f or g`` and
a parameter that receives both a literal and a function.  Two
directories run the directory subcommands only: one of 250 modules, each
importing the next (``from . import m{i+1}``), and a project that holds a
link to a sibling subpackage (walked before its target), a link from that
subpackage back to the project root, and a chain of 300 nested packages,
each importing the next (``from . import d``).  One more directory holds
one file, ``x = 0`` and an ``if`` with 2,899 ``elif`` branches, and runs
both the file and the directory subcommands.  The edge cases and the
workloads (made by importing ``perfbench/gen.py``) are written to a
temporary directory that both sides read; nothing under ``perfbench/`` is
written.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 7)
DIFF_LINES = 12
DIFF_WIDTH = 160
_HUGE = "0x" + "f" * 4000  # 16,000 bits: far past the 4,300-digit limit
CHAIN_MODULES = 250  # the chain directory: m0.py imports m1, ..., m248.py imports m249
LINKED_LEVELS = 300  # the linked project's package chain: d, d/d, ..., each importing the next
ELIF_BRANCHES = 2900  # the elif directory's one file: an if with 2,899 elif branches
# Corpus projects run from one entry file: (root, entry file under it).
PROJECT_ENTRIES = (
    ("tests/corpus/project/nested", "m.py"),  # ``import nested.a.b`` loads the package ``nested.a``
    ("tests/corpus/project/escape", "p/m2.py"),  # a relative import above the root
)

# Relative path under the edge-case directory -> source text, or the file's
# bytes where it is not UTF-8.
EDGE_CASES: dict[str, str | bytes] = {
    "starred.py": (
        "def f():\n    return 1\n\n\ndef g():\n    return 'g'\n\n\n"
        "def h(p):\n    return p\n\n\n"
        "a, *b = 1, 2, 3\nfirst, *rest = f, g, h\nfirst()\n*init, last = g, g, h\nlast(a)\n"
        "u, v = *[1], g\nv()\nn = a\np, *q = n, 5\n"
    ),
    "nested.py": (
        "(a, (b, c)) = (1, (2, 3))\n[x, [y, z]] = ['s', [2.0, a]]\n\n\n"
        "def pair():\n    (u, (v, w)) = (1, ('s', 2.0))\n    return v\n"
    ),
    "lambda_body.py": (
        "def f(a):\n    return a\n\n\ndef apply(fn):\n    return fn()\n\n\n"
        "handlers = [lambda: f(1)]\nr = apply(lambda: f('s'))\n"
    ),
    "huge_int.py": f"x = {_HUGE}\ny = x + 1\n",
    "huge_fstring.py": f'x = f"{{{_HUGE}}}"\n',
    "huge_call.py": f"y = ({_HUGE})()\n",
    "huge_method.py": f"y = ({_HUGE}).bit_length()\n",
    "dups/mod.py": "from ...x import a; from ...y import b\n",
    "deep_hoist.py": "a = [0]\nx = f(g(), a" + "[0]" * 1000 + ")\n",
    "deep_sum.py": "x = " + "+".join(["1"] * 2900) + "\n",
    "deep_pow.py": "x = " + "**".join(["1"] * 2900) + "\n",
    "deep_attribute.py": "import os\nx = os" + ".path" * 2900 + "\n",
    "deep_lambda.py": "x = " + "lambda: " * 2900 + "1\n",
    "deep_minus.py": "x = " + "-" * 2900 + "1\n",
    "deep_call.py": "x = f" + "()" * 1000 + "\n",  # fqn prints each callee: quadratic text
    "deep_neg_list.py": "x = " + "[-" * 199 + "1" + "]" * 199 + "\n",
    "lambda_defaults.py": "x = " + "lambda a=" * 200 + "0" + ": 0" * 200 + "\n",
    "lambda_defaults_745.py": "x = " + "lambda a=" * 745 + "0" + ": 0" * 745 + "\n",
    "lambda_defaults_746.py": "x = " + "lambda a=" * 746 + "0" + ": 0" * 746 + "\n",  # too deep to parse
    "deep_minus_6000.py": "x = " + "-" * 6000 + "1\n",  # too deep to parse
    "two_classes.py": (
        "a = 1\nif a:\n    class C:\n        x = 1\nelse:\n    class C:\n        y = 2\n\n\n"
        "class B:\n    z = 3\n"
    ),
    "user_ret_names.py": "def f(a):\n    return a\n\n\n_retries = 3\n_ret = 's'\ny = f(f(_retries))\n",
    "samename/app/main.py": "import app\n",
    "samename/app/app.py": "x = 1\n",
    "scoped_names.py": (
        "from os import getcwd, sep\n\n\n"
        "def f():\n    from os import getcwd as cwd\n    return cwd()\n\n\n"
        "def g():\n    return cwd()\n\n\n"
        "def h(getcwd):\n    return getcwd()\n\n\n"
        "def k():\n    sep = str\n    return sep(1)\n\n\n"
        "def inner():\n    return 0\n\n\n"
        "def outer():\n    def inner():\n        return 1\n    return inner()\n\n\n"
        "handlers = [lambda: getcwd()]\nhere = getcwd\nhere()\n"
    ),
    "call_binding.py": (
        "class Point:\n    def __init__(self, x, y):\n        self.x = x\n        self.y = y\n\n\n"
        "class C:\n    def m(self, b):\n        return b\n\n"
        "    @classmethod\n    def cm(cls, a, b):\n        return a\n\n\n"
        "def f(p, q=1):\n    return q\n\n\n"
        "def g(a, b, c):\n    return c\n\n\n"
        "pt = Point(1, y=2.0)\nr = C.m(C(), 's')\nk = C.cm(1, 's')\nxs = [1]\ns = f(*xs, 's')\n"
        "d = {'b': 's', 'c': 2.0}\nt = g(1, **d)\nu = f(2)\nv = g(c=f, b=1, a=2)\nv(3)\n"
    ),
    "global_binding.py": (
        "def g():\n    return 1\n\n\ndef f():\n    global h\n    h = g\n\n\nf()\nh()\n"
    ),
    "fold_edges.py": "x = (-8) ** 0.5\ny = x\nw = 1e308 * 10\nn = w - w\nz = -0.0\n",
    "receivers.py": (
        "def g():\n    return 1\n\n\n"
        "class C:\n    def m(self, b):\n        return b()\n\n"
        "    @staticmethod\n    def s(f):\n        return f()\n\n"
        "    @classmethod\n    def make(cls, f):\n        f()\n        return cls()\n\n"
        "    def __call__(this, f, n):\n        return n\n\n"
        "    def run(self, f):\n        return self.m(f)\n\n\n"
        "def star(a, b):\n    return a()\n\n\n"
        "C.m(C(), g)\nC.s(g)\nC.make(g)\nc = C()\nk = c(g, 1)\nr = c.run(g)\ny = c.s(g)\n"
        "star(*[g, 2])\nstar(**{'a': g, 'b': 's'})\nstar(*(g,), *[1])\n"
    ),
    "bom.py": "\ufeffimport os\n\n\ndef f(a):\n    return a + 1\n\n\nx = f(2)\ny = os.getcwd()\n",
    "latin1_cookie.py": (
        "# -*- coding: latin-1 -*-\nimport os\n\n\ndef f(a):\n    return a + 'é'\n\n\n"
        "x = f('café')\ny = os.getcwd()\n"
    ).encode("latin-1"),
    "bom_latin1_cookie.py": b"\xef\xbb\xbf# -*- coding: latin-1 -*-\nx = '\xe9'\n",
    "yields.py": (
        "class Counter:\n    def count(self, n):\n        i = 0\n        while i < n:\n"
        "            sent = yield i\n            i = i + 1\n        yield\n\n\n"
        "def outer(xs):\n    def gen():\n        for x in xs:\n            y = yield x\n"
        "    return gen()\n\n\ng = lambda: (yield)\nit = outer([g()])\n"
    ),
    "def_head_call.py": (
        "def g(k):\n    return k\n\n\ndef f(a=g(1)):\n    return a\n\n\n"
        "def base(b):\n    return object\n\n\nclass C(base('s')):\n    pass\n\n\nx = f()\n"
    ),
    "tag_boundary.py": (
        "".join(f"def {name}({param}):\n    return {param}\n\n\n"
                for name, param in zip("fghkmnpq", "abcdeijr"))
        + "a, b = 1, 's'\nx = f(a) + g(b)\ny = [h(1)][0]\nz = k(2) < m(3)\nw = -n(4)\nx += p(5)\n"
        "s = [u * 2 for u in k([6])]\nh2 = f or g\nh2(7)\nq(1)\nt = q(f)\nt(8)\n\n\n"
        "def run(v):\n    o = q(g)\n    return o(v) + q(v)\n\n\nrun(9)\n"
    ),
}


def _file_argvs(path: str) -> list[list[str]]:
    return [
        ["rewrite", path],
        ["cfg", path],
        ["cfg", path, "--include-functions"],
        ["cfg", path, "--format", "json"],
        ["ssa", path],
        ["ssa", path, "--no-simplify"],
        ["alias", path],
        ["alias", path, "--no-simplify"],
        ["fqn", path],
        ["callgraph", "--entry", path],
        ["callgraph", "--entry", path, "--format", "edges"],
        ["typeinfer", path],
        ["typeinfer", path, "--no-simplify"],
    ]


def _dir_argvs(path: str) -> list[list[str]]:
    return [
        ["imports", path],
        ["callgraph", "--package", path],
        ["callgraph", "--package", path, "--format", "edges"],
        ["typeinfer", path],
        ["typeinfer", path, "--no-simplify"],
    ]


def _write_files(base: Path, files: dict[str, str | bytes]) -> None:
    for rel, text in files.items():
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))


def _write_workloads(workdir: Path) -> tuple[list[str], list[tuple[str, str]]]:
    """Generate the seeded workloads under ``workdir``; return the single
    files and the (package root, main file) pairs."""
    sys.path.insert(0, str(REPO / "perfbench"))
    from gen import GENERATORS

    files: list[str] = []
    packages: list[tuple[str, str]] = []
    for seed in SEEDS:
        for name, generate in sorted(GENERATORS.items()):
            workload = generate(seed)
            base = workdir / f"{name}-{seed}"
            _write_files(base, workload.files)
            if name == "package":
                main = str(base / workload.facts["main_file"])
                packages.append((str(base / workload.facts["root"]), main))
                files.append(main)
            else:
                files.append(str(base / next(iter(workload.files))))
    return files, packages


def build_matrix(workdir: Path) -> list[list[str]]:
    corpus = REPO / "tests" / "corpus"
    files = [str(p.relative_to(REPO)) for p in sorted(corpus.rglob("*.py"))]
    dirs = [str(p.relative_to(REPO)) for p in sorted(corpus.rglob("*")) if p.is_dir()]
    edge = workdir / "edge"
    _write_files(edge, EDGE_CASES)
    files += [str(p) for p in sorted(edge.rglob("*.py"))]
    dirs += [str(p) for p in [edge, *sorted(edge.rglob("*"))] if p.is_dir()]
    chain = workdir / "chain"
    links = {f"m{i}.py": f"from . import m{i + 1}\n\n\ndef f():\n    return m{i + 1}.f()\n"
             for i in range(CHAIN_MODULES - 1)}
    _write_files(chain, {**links, f"m{CHAIN_MODULES - 1}.py": "def f():\n    return 1\n"})
    dirs.append(str(chain))
    linked = workdir / "linked"
    levels = {"/".join(["d"] * i) + "/__init__.py": "from . import d\n" for i in range(1, LINKED_LEVELS)}
    _write_files(linked, {
        "main.py": "from .alias import f\nfrom .pkg import f as g\n\n\nx = f() + g()\n",
        "pkg/__init__.py": "def f():\n    return 1\n",
        **levels, "/".join(["d"] * LINKED_LEVELS) + "/__init__.py": "x = 1\n",
    })
    (linked / "alias").symlink_to("pkg", target_is_directory=True)
    (linked / "pkg" / "back").symlink_to("..", target_is_directory=True)
    dirs.append(str(linked))
    elif_dir = workdir / "elif"
    _write_files(elif_dir, {"elif.py": "x = 0\nif x == 0:\n    y = 1\n" + "".join(
        f"elif x == {i}:\n    y = {i} + 1\n" for i in range(1, ELIF_BRANCHES)) + "print(y)\n"})
    files.append(str(elif_dir / "elif.py"))
    dirs.append(str(elif_dir))
    seed_files, packages = _write_workloads(workdir)
    matrix = [argv for path in files + seed_files for argv in _file_argvs(path)]
    matrix += [argv for path in dirs for argv in _dir_argvs(path)]
    for root, main in packages:
        matrix += _dir_argvs(root)
        matrix.append(["callgraph", "--entry", main, "--package", root, "--format", "edges"])
    for root, main in PROJECT_ENTRIES:
        matrix += [["callgraph", "--entry", f"{root}/{main}", "--package", root, *fmt]
                   for fmt in ([], ["--format", "edges"])]
    return matrix


def run_child(src: str, matrix_path: str, out_path: str) -> int:
    """Run every invocation of the matrix against ``src``, in this process."""
    sys.path.insert(0, src)
    import lancet.cli

    origin = Path(lancet.cli.__file__).resolve()
    if not origin.is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"lancet imported from {origin}, not from {src}")
    results = []
    for argv in json.loads(Path(matrix_path).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lancet.cli.main(argv)
            except Exception as exc:  # a crash is a result to compare, not an abort
                code = f"uncaught {type(exc).__name__}: {exc}"
        results.append({"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code})
    Path(out_path).write_text(json.dumps(results), encoding="utf-8")
    return 0


def _side(src: Path, matrix_path: Path, out_path: Path) -> list[dict]:
    subprocess.run(
        [sys.executable, __file__, "--child", str(src), str(matrix_path), str(out_path)],
        cwd=REPO, check=True,
    )
    return json.loads(out_path.read_text(encoding="utf-8"))


def _extract(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=REPO,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest / "src"


def _diff(name: str, old: str, new: str) -> list[str]:
    lines = [line[:DIFF_WIDTH] for line in difflib.unified_diff(
        old.splitlines(), new.splitlines(), f"parent {name}", f"change {name}", n=0, lineterm="")]
    return lines[:DIFF_LINES] + ([f"... {len(lines) - DIFF_LINES} more diff lines"]
                                 if len(lines) > DIFF_LINES else [])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision to compare this checkout's src/ with")
    parser.add_argument("--child", nargs=3, metavar=("SRC", "MATRIX", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return run_child(*args.child)
    if not args.parent:
        parser.error("--parent REV is required")
    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        tmp_path = Path(tmp)
        parent_src = _extract(args.parent, tmp_path / "parent")
        matrix = build_matrix(tmp_path / "workloads")
        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text(json.dumps(matrix), encoding="utf-8")
        old = _side(parent_src, matrix_path, tmp_path / "parent.json")
        new = _side(REPO / "src", matrix_path, tmp_path / "change.json")
        differing = 0
        for argv, before, after in zip(matrix, old, new):
            if before == after:
                continue
            differing += 1
            print("DIFF lancet " + " ".join(argv).replace(str(tmp_path) + "/", ""))
            if before["code"] != after["code"]:
                print(f"  exit code {before['code']} -> {after['code']}")
            for stream in ("stdout", "stderr"):
                for line in _diff(stream, before[stream], after[stream]):
                    print("  " + line)
    print(f"{len(matrix)} invocations, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

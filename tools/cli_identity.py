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
else 0.

The matrix:

* every single-file subcommand and format (``rewrite``; ``cfg`` as DOT, DOT
  with functions, and JSON; ``ssa`` and ``alias`` with and without
  ``--no-simplify``; ``fqn``; ``callgraph --entry`` in both formats;
  ``typeinfer`` with and without ``--no-simplify``) on every ``.py`` file
  under ``tests/corpus``, on the chain and branchy workloads of perfbench
  seeds 1, 2, 3 and 7, and on each package workload's main file;
* the directory subcommands (``imports``; ``callgraph --package`` in both
  formats; ``typeinfer`` with and without ``--no-simplify``) on every
  directory under ``tests/corpus`` and on each seed's package root, plus
  ``callgraph --entry MAIN --package ROOT`` on the package workloads.

The workloads are generated by importing ``perfbench/gen.py`` and written to
a temporary directory that both sides read; nothing under ``perfbench/`` is
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
            for rel, text in workload.files.items():
                path = base / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
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
    seed_files, packages = _write_workloads(workdir)
    matrix = [argv for path in files + seed_files for argv in _file_argvs(path)]
    matrix += [argv for path in dirs for argv in _dir_argvs(path)]
    for root, main in packages:
        matrix += _dir_argvs(root)
        matrix.append(["callgraph", "--entry", main, "--package", root, "--format", "edges"])
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
            code = lancet.cli.main(argv)
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
    lines = list(difflib.unified_diff(old.splitlines(), new.splitlines(), f"parent {name}",
                                      f"change {name}", n=0, lineterm=""))
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

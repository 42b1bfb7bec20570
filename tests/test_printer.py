"""``frontend.source_text`` against ``ast.unparse``.

The printer must give ``ast.unparse``'s text for every module, statement
and expression node.  The trees come from plain ``ast.parse``, not from
``parse_module``, because the f-string folder hands the printer expressions
outside the supported subset.  The inputs are the corpus, generated
programs, the benchmark workloads and a fixed sample of the interpreter's
own standard library.  The stdlib differs between interpreters, so the
tests assert identity only, never counts.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings

from lancet.frontend import source_text

from helpers import corpus_files, perfbench_gen
from strategies import programs


def _assert_prints_as_ast_unparse(source: str) -> None:
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.mod, ast.stmt, ast.expr)):
            expected = ast.unparse(node)
            assert source_text(node) == expected, expected[:300]


def _stdlib_sample() -> list[Path]:
    """Every 20th ``.py`` file of the standard library, in sorted order, without site-packages."""
    root = Path(sysconfig.get_paths()["stdlib"])
    paths = sorted(p for p in root.rglob("*.py") if "site-packages" not in p.relative_to(root).parts)
    return paths[::20]


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: f"{p.parent.name}/{p.name}")
def test_corpus_prints_as_ast_unparse(path: Path):
    _assert_prints_as_ast_unparse(path.read_text(encoding="utf-8"))


@settings(max_examples=60, deadline=None)
@given(programs())
def test_generated_programs_print_as_ast_unparse(source: str):
    _assert_prints_as_ast_unparse(source)


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_benchmark_workloads_print_as_ast_unparse(monkeypatch, seed: int):
    generators = perfbench_gen(monkeypatch).GENERATORS
    for name in sorted(generators):
        for text in generators[name](seed).files.values():
            _assert_prints_as_ast_unparse(text)


@pytest.mark.parametrize("path", _stdlib_sample(), ids=lambda p: p.name)
def test_stdlib_sample_prints_as_ast_unparse(path: Path):
    try:
        source = path.read_text(encoding="utf-8")
        ast.parse(source)
    except (UnicodeDecodeError, SyntaxError, ValueError):
        pytest.skip("not Python this interpreter parses")
    _assert_prints_as_ast_unparse(source)


@pytest.mark.parametrize("source", [
    "x[()]",
    "x[a,]",
    "x[a, b:c]",
    "1 .real",
    "True .real",
    "(1).real()",
    "-1 .real",
    "2 ** -x",
    "(-1) ** 2",
    "(not a).b",
    "(a, b).count(a)",
    "f(a, *b, c=d, **e)",
    "(lambda: 1)()",
    "lambda: lambda x=1, *a, **k: x",
    "f'{a!r:>{w}}' + f'{1 .real}'",
    "x = (yield)",
])
def test_tricky_expressions_print_as_ast_unparse(source: str):
    _assert_prints_as_ast_unparse(source)


_HUGE = "0x" + "f" * 4000  # past the 4,300-digit int-to-str limit, where ast.unparse raises


@pytest.mark.parametrize("source,expected", [
    (f"({_HUGE}).bit_length()", f"{_HUGE}.bit_length()"),
    (f"f'{{{_HUGE}}}'", f"f'{{{_HUGE}}}'"),
    (f"[{_HUGE}] + -{_HUGE}", f"[{_HUGE}] + -{_HUGE}"),
], ids=["method", "fstring", "operands"])
def test_an_int_past_the_digit_limit_prints_in_hex(source: str, expected: str):
    tree = ast.parse(source)
    with pytest.raises(ValueError):
        ast.unparse(tree)
    assert source_text(tree) == expected


@pytest.mark.parametrize("version,refused", [
    ((3, 10, 14), True),
    ((3, 11, 0), False),
    ((3, 13, 9), False),
    ((3, 14, 0), True),
], ids=["3.10", "3.11", "3.13", "3.14"])
def test_lancet_imports_only_where_the_printer_mirrors_ast_unparse(version, refused: bool):
    """3.10's ``ast.unparse`` keeps ``x[(*a, b)]``'s parentheses and 3.14 moves ``ast._Unparser``:
    elsewhere than 3.11 to 3.13, importing lancet is one clear ``ImportError``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys; sys.version_info = {version!r}; import lancet"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    expected = "ImportError: lancet runs on Python 3.11 to 3.13: its printer subclasses their ast._Unparser\n"
    if refused:
        assert proc.returncode == 1 and proc.stderr.endswith(expected), proc.stderr
    else:
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr

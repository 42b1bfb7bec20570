"""One project model: ``imports``, ``callgraph`` and ``typeinfer`` see the
same modules under the same names, and bind imports the same way."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from lancet.callgraph import analyze, output_edges
from lancet.cli import main
from lancet.modgraph import build_import_graph
from lancet.typeinfer import infer_types_report

from helpers import CORPUS

REPO = Path(__file__).resolve().parent.parent
EXAMPLE = CORPUS / "imports" / "example"
GOLDEN = [
    case
    for name in ("project_golden.json", "corpus_golden.json")
    for case in json.loads((REPO / "tests" / "data" / name).read_text(encoding="utf-8"))
]


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_project_outputs_are_pinned(capsys, monkeypatch, case):
    """Outputs pinned byte for byte.  ``project_golden.json``: the
    subcommands on ``tests/corpus/project/app`` (a namespace root with plain,
    aliased, relative, star, escaping and external imports), captured before
    discovery and import binding moved into ``modgraph``.
    ``corpus_golden.json``: ``callgraph --entry`` (both formats) and
    ``typeinfer`` (with and without ``--no-simplify``) on every file of
    ``tests/corpus/{callgraph,typeinfer,programs}``, and ``imports``,
    ``callgraph --package`` and ``typeinfer`` on ``tests/corpus/imports/example``,
    captured before callgraph and typeinfer shared one scope table."""
    monkeypatch.chdir(REPO)
    code, out, err = _run(capsys, *case["argv"])
    root = str(REPO)
    assert (code, out.replace(root, "<ROOT>"), err.replace(root, "<ROOT>")) == (
        case["code"], case["stdout"], case["stderr"]
    )


def _write(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _messy_tree(tmp_path: Path) -> Path:
    """Hidden and cache directories, ``sub.py`` next to ``sub/``, and a
    ``pkg/loop -> ..`` symlink."""
    root = tmp_path / "proj"
    _write(root, {
        "main.py": "from .sub import g\n\ndef run():\n    return g()\n\ny = run()\n",
        "sub.py": "def g():\n    return 1\n\ndef only_in_module():\n    return 1\n",
        "sub/__init__.py": "def g():\n    return 'pkg'\n\ndef only_in_package():\n    return 2\n",
        "pkg/__init__.py": "x = 1\n",
        "pkg/mod.py": "def h():\n    return 2\n",
        ".venv/hidden.py": "def hidden():\n    return 3\n",
        "__pycache__/cached.py": "def cached():\n    return 4\n",
    })
    (root / "pkg" / "loop").symlink_to("..", target_is_directory=True)
    return root


def _module_of(root: Path, file: str) -> str:
    rel = Path(file).relative_to(root).with_suffix("")
    parts = [root.resolve().name, *rel.parts]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _module_sets(root: Path) -> tuple[list[str], list[str], list[str]]:
    imported = sorted(n.full_name for n in build_import_graph(root).tree.iter_modules())
    called = sorted(analyze([], package_root=root).internal_mods)
    records, _ = infer_types_report(root)
    typed = sorted({_module_of(root, r.file) for r in records})
    return imported, called, typed


@pytest.mark.parametrize("tree", ["example", "messy"])
def test_subcommands_see_one_module_set(tmp_path, tree):
    root = EXAMPLE if tree == "example" else _messy_tree(tmp_path)
    imported, called, typed = _module_sets(root)
    assert imported == called == typed
    if tree == "messy":
        assert imported == ["proj.main", "proj.pkg", "proj.pkg.mod", "proj.sub"]


def test_from_import_binds_the_package_over_a_same_named_module(tmp_path):
    root = _messy_tree(tmp_path)
    graph = analyze([], package_root=root)
    assert ("proj.main.run", "proj.sub.g") in set(output_edges(graph))
    assert "proj.sub.only_in_package" in graph.nodes
    assert "proj.sub.only_in_module" not in graph.nodes
    records, _ = infer_types_report(root)
    (y,) = [r for r in records if r.variable == "y"]
    assert y.type == {"str"}


@pytest.mark.parametrize("argv", [
    ["imports"], ["callgraph", "--package"], ["typeinfer"],
], ids=lambda argv: argv[0])
def test_symlink_loop_is_skipped_with_one_diagnostic(capsys, tmp_path, argv):
    root = _messy_tree(tmp_path)
    code, out, err = _run(capsys, *argv, str(root))
    assert code == 0
    assert "pkg.loop" not in out and f"pkg{os.sep}loop{os.sep}" not in out
    (line,) = err.splitlines()
    assert f"{os.sep}pkg{os.sep}loop: skipped: " in line
    code, _, _ = _run(capsys, *argv, str(root), "--strict")
    assert code == 1


def test_typeinfer_deep_chain_converges_without_a_diagnostic(capsys, tmp_path):
    """Each function returns the next one's call: the last one's type
    reaches all 14, however long the chain."""
    path = tmp_path / "deep_chain.py"
    path.write_text("".join(f"def f{i:02d}():\n    return f{i + 1:02d}()\n\n" for i in range(13))
                    + "def f13():\n    return 'x'\n", encoding="utf-8")
    records, diagnostics = infer_types_report(path)
    returns = {r.function: r.type for r in records if r.variable is None and r.parameter is None}
    assert returns == {f"f{i:02d}": {"str"} for i in range(14)}
    assert diagnostics == []
    code, _, err = _run(capsys, "typeinfer", str(path), "--strict")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv", [
    ["imports"], ["callgraph", "--package"], ["typeinfer"],
], ids=lambda argv: argv[0])
def test_unloadable_modules_are_skipped_with_one_line_each(capsys, tmp_path, argv):
    """A syntax error, non-UTF-8 bytes and a dangling symlink: every command
    skips each module with the same line and analyzes the rest."""
    root = tmp_path.resolve() / "proj"
    _write(root, {"good.py": "def f():\n    return 1\n", "bad.py": "def broken(:\n"})
    (root / "latin.py").write_bytes("x = '\xe9'\n".encode("latin-1"))
    (root / "dangling.py").symlink_to(root / "missing.py")
    code, out, err = _run(capsys, *argv, str(root))
    assert code == 0
    assert "good" in out and not any(name in out for name in ("bad", "latin", "dangling"))
    assert err.splitlines() == [
        f"{root / 'bad.py'}:1:11: invalid syntax",
        f"{root / 'dangling.py'}: skipped: No such file or directory",
        f"{root / 'latin.py'}:1:5: not valid UTF-8: invalid continuation byte",
    ]

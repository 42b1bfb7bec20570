"""One project model: ``imports``, ``callgraph`` and ``typeinfer`` see the
same modules under the same names, and bind imports the same way."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from lancet.callgraph import analyze, output_edges
from lancet.cli import main
from lancet.modgraph import build_import_graph, discover
from lancet.typeinfer import infer_types_report

from helpers import CORPUS, fresh_python, perfbench_gen, write_files

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
    discovery and import binding moved into ``modgraph``, and on
    ``tests/corpus/project/nested`` (``import nested.a.b`` loads the package
    ``nested.a``) and ``tests/corpus/project/escape`` (a relative import
    above the root, diagnosed by one text), captured when one rule in
    ``modgraph.resolve_import`` took over both.
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


def _assert_callgraph_loads_what_the_import_graph_reaches(root: Path) -> None:
    """From each module M, ``analyze([M])`` loads M, the modules that the
    import graph's edges reach from M and the packages that hold each module
    loaded, and no other: so every edge M -> T has T among M's internal
    modules."""
    graph = build_import_graph(root)
    modules = {node.full_name for node in graph.tree.iter_modules() if node.module is not None}
    targets: dict[str, set[str]] = {}
    for importer, target in graph.internal_edges:
        targets.setdefault(importer, set()).add(target)
    for node in graph.tree.iter_modules():
        if node.module is None:
            continue
        reached, stack = {node.full_name}, [node.full_name]
        while stack:
            name = stack.pop()
            holders = {name.rsplit(".", i)[0] for i in range(1, name.count(".") + 1)} & modules
            new = (targets.get(name, set()) | holders) - reached
            reached |= new
            stack += new
        internal = analyze([node.path], package_root=root).internal_mods
        assert targets.get(node.full_name, set()) <= internal, node.full_name
        assert internal == reached, node.full_name


@pytest.mark.parametrize("root", [CORPUS, *sorted(p for p in CORPUS.rglob("*") if p.is_dir())],
                         ids=lambda root: str(root.relative_to(CORPUS.parent)))
def test_callgraph_loads_what_the_import_graph_reaches_on_corpus(root):
    _assert_callgraph_loads_what_the_import_graph_reaches(root)


def test_callgraph_loads_what_the_import_graph_reaches_on_a_package_seed(tmp_path, monkeypatch):
    workload = perfbench_gen(monkeypatch).gen_package(1)
    write_files(tmp_path, workload.files)
    _assert_callgraph_loads_what_the_import_graph_reaches(tmp_path / workload.facts["root"])


def test_an_entry_module_s_packages_run_before_it(tmp_path):
    """The packages that hold an entry module ran before it, so what they
    define resolves, though the import graph draws no edge to them
    (``pkg.m`` to ``pkg``, ``pkg.core.engine`` to ``pkg.core``):
    ``pkg.helper`` reached through ``import pkg.sub``, and ``pkg.core.start``
    through ``from pkg import core`` in ``pkg/core/engine.py``."""
    root = tmp_path / "pkg"
    _write(root, {
        "__init__.py": "def helper():\n    return 1\n",
        "sub.py": "",
        "m.py": "import pkg.sub\n\n\ndef run():\n    return pkg.helper()\n",
        "core/__init__.py": "def start():\n    return 2\n",
        "core/engine.py": "from pkg import core\n\n\ndef go():\n    return core.start()\n",
    })
    assert build_import_graph(root).internal_edges == {("pkg.m", "pkg.sub"), ("pkg.core.engine", "pkg")}
    for entry, edge in [("m.py", ("pkg.m.run", "pkg.helper")),
                        ("core/engine.py", ("pkg.core.engine.go", "pkg.core.start"))]:
        assert edge in output_edges(analyze([root / entry], package_root=root)), entry


@pytest.mark.parametrize("argv", [
    ["imports"], ["callgraph", "--package"], ["typeinfer"],
], ids=lambda argv: argv[0])
def test_an_escaping_import_prints_one_located_line(capsys, monkeypatch, argv):
    """``from ... import x`` in ``escape/p/m2.py``: the same line, at the
    path each subcommand loaded the module from, and ``--strict`` exits 1."""
    monkeypatch.chdir(REPO)
    root = "tests/corpus/project/escape"
    code, _, err = _run(capsys, *argv, root)
    path = root if argv[0] == "typeinfer" else str(REPO / root)
    assert (code, err) == (0, f"{path}/p/m2.py:1: relative import reaches above the project root\n")
    code, _, _ = _run(capsys, *argv, root, "--strict")
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


def test_a_reached_module_is_loaded_after_the_module_that_reached_it(tmp_path):
    """Loading runs on a queue: ``a`` is walked to its end before ``b`` and
    ``c``, which it imports, so their diagnostics follow all of ``a``'s."""
    root = tmp_path.resolve() / "proj"
    _write(root, {
        "a.py": "from . import b, c\n\n\n@dec\ndef f():\n    pass\n",
        "b.py": "@dec\ndef g():\n    pass\n",
        "c.py": "def broken(:\n",
    })
    expected = [
        "proj.a:5: decorated definition; wrapper effects ignored",
        "proj.b:2: decorated definition; wrapper effects ignored",
        f"{root / 'c.py'}:1:11: invalid syntax",
    ]
    assert analyze([], package_root=root).diagnostics == expected
    assert analyze([root / "a.py"], package_root=root).diagnostics == expected


# Runs ``lancet`` under a recursion limit far below the depth of the projects
# below, so a frame per module or per directory level fails.
LOW_LIMIT = "import sys; sys.setrecursionlimit(150); from lancet.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.fixture(scope="module")
def deep_projects(tmp_path_factory) -> dict[str, Path]:
    """A chain of 197 modules, ``m{i}`` importing ``m{i+1}``, and a module
    250 directories deep."""
    base = tmp_path_factory.mktemp("deep").resolve()
    chain = {f"m{i}.py": f"from . import m{i + 1}\n" for i in range(196)}
    _write(base / "chain", {**chain, "m196.py": "x = 1\n"})
    _write(base / "tree", {"/".join(["d"] * 250) + "/m.py": "x = 1\n"})
    return {"chain": base / "chain", "tree": base / "tree"}


@pytest.mark.parametrize("project, argv, deepest", [
    ("chain", ["typeinfer", "ROOT"], "m196.py"),
    ("chain", ["callgraph", "--package", "ROOT"], "chain.m196"),
    ("chain", ["callgraph", "--entry", "ROOT/m0.py", "--package", "ROOT"], "chain.m196"),
    ("tree", ["imports", "ROOT"], "tree" + ".d" * 250 + ".m"),
    ("tree", ["callgraph", "--package", "ROOT"], "tree" + ".d" * 250 + ".m"),
    ("tree", ["typeinfer", "ROOT"], "/d/m.py"),
], ids=["chain-typeinfer", "chain-callgraph-package", "chain-callgraph-entry", "tree-imports",
        "tree-callgraph-package", "tree-typeinfer"])
def test_loading_a_project_does_not_recurse_per_module_or_directory(deep_projects, project, argv, deepest):
    root = str(deep_projects[project])
    proc = fresh_python("-c", LOW_LIMIT, *[arg.replace("ROOT", root) for arg in argv])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert deepest in proc.stdout


def test_discover_resolves_only_the_root_of_a_tree_without_links(tmp_path, monkeypatch):
    """Each directory's resolved path extends its parent's, so a 500-level
    tree costs one ``Path.resolve`` and not one per level."""
    root = tmp_path / "tree"
    _write(root, {"/".join(["d"] * 500) + "/m.py": "x = 1\n"})
    calls = []
    resolve = Path.resolve

    def _counted(self, *args, **kwargs):
        calls.append(self)
        return resolve(self, *args, **kwargs)

    monkeypatch.setattr(Path, "resolve", _counted)
    tree, diagnostics = discover(root)
    assert calls == [root]
    assert diagnostics == []
    assert [node.full_name for node in tree.iter_modules()] == ["tree" + ".d" * 500 + ".m"]


def test_discover_resolves_below_a_link_through_its_target(tmp_path):
    """``a -> z`` is walked first, so ``a/inner`` is ``z/inner``, and ``y``, a
    link to ``z/inner``, and ``z`` itself are each skipped as a repeat."""
    root = (tmp_path / "proj").resolve()
    _write(root, {"z/inner/m.py": "x = 1\n"})
    (root / "a").symlink_to(root / "z", target_is_directory=True)
    (root / "y").symlink_to(root / "z" / "inner", target_is_directory=True)
    tree, diagnostics = discover(root)
    assert [node.full_name for node in tree.iter_modules()] == ["proj.a.inner.m"]
    assert diagnostics == [
        f"{root / 'y'}: skipped: {root / 'z' / 'inner'} is already part of the project",
        f"{root / 'z'}: skipped: {root / 'z'} is already part of the project",
    ]


@pytest.mark.parametrize("form", [".", "proj", "absolute"])
def test_discover_keeps_the_form_of_the_root_as_given(tmp_path, monkeypatch, form):
    """Entry types come from ``os.scandir`` and each path is built as
    ``directory / name``, so paths and diagnostics read as ``Path.iterdir``
    spells them: ``pkg/m.py`` under ``.``, ``proj/pkg/m.py`` under ``proj``.
    ``pkg/up`` links back to the root, and ``loop``, a link to itself, is no
    directory, as ``Path.is_dir`` has it."""
    base = tmp_path.resolve()
    root = base / "proj"
    _write(root, {"a.py": "", "pkg/__init__.py": "", "pkg/m.py": "", "d.py/x.py": "", ".hidden/h.py": "",
                  "__pycache__/c.py": ""})
    (root / "pkg" / "up").symlink_to(root, target_is_directory=True)
    (root / "loop").symlink_to(root / "loop")
    monkeypatch.chdir(root if form == "." else base)
    given, prefix = {".": (".", ""), "proj": ("proj", "proj/"), "absolute": (str(root), f"{root}/")}[form]
    tree, diagnostics = discover(given)
    assert [(node.full_name, node.path) for node in tree.iter_modules()] == [
        ("proj.a", f"{prefix}a.py"), ("proj.pkg", f"{prefix}pkg/__init__.py"), ("proj.pkg.m", f"{prefix}pkg/m.py"),
    ]
    assert diagnostics == [
        f"{prefix}d.py: skipped: a directory, not a module",
        f"{prefix}pkg/up: skipped: {root} is already part of the project",
    ]

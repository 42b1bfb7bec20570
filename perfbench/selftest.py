"""Self-test of the benchmark harness at tiny sizes; sets no timing thresholds.

    python3 perfbench/selftest.py        # from the root of a lancet checkout

Checks that the generators are deterministic, that the untraced and traced
runs report exactly the metrics BENCHMARK.json names, and that every output
check accepts lancet's real output and rejects a corrupted copy of it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import CHECKS  # noqa: E402
from gen import GENERATORS, gen_branchy, gen_chain, gen_package  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = {
    "chain": lambda seed: gen_chain(seed, n_lines=60),
    "branchy": lambda seed: gen_branchy(seed, n_vars=20, n_ifs=40),
    "package": lambda seed: gen_package(seed, n_subpackages=2, per_subpackage=3, n_funcs=5),
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _json_edit(out: str, edit) -> str:
    payload = json.loads(out)
    edit(payload)
    return json.dumps(payload)


def _first_folded(payload: dict) -> None:
    entry = next(v for v in payload["constants"].values() if v["folded"] is not None)
    entry["folded"] += 1


def _drop_a_version(payload: dict) -> None:
    for rows in payload["blocks"].values():
        for row in rows:
            for versions in row.values():
                if len(versions) > 1:
                    versions.pop()
                    return
    raise AssertionError("no merged use set to corrupt")


def _retype(records: list[dict]) -> None:
    record = next(r for r in records if r.get("parameter") == "a")
    record["type"] = ["Dict"]


def _first_callee(graph: dict) -> None:
    caller = next(k for k, v in graph.items() if v)
    graph[caller] = graph[caller][1:]


# (workload, subcommand) -> a function producing a wrong output from the right one.
CORRUPT = {
    ("chain", "rewrite"): lambda o: o.replace("%", "//", 1),
    ("chain", "cfg"): lambda o: _json_edit(o, lambda p: p["blocks"].append(
        {"id": 99, "statements": [p["blocks"][0]["statements"].pop()]})),
    ("chain", "ssa"): lambda o: _json_edit(o, _first_folded),
    ("chain", "alias"): lambda o: '[{"alias": "v9#0", "target": "v1"}]',
    ("chain", "fqn"): lambda o: o.replace("UNRESOLVED", "builtins.print"),
    ("chain", "imports"): lambda o: _json_edit(o, lambda p: p["edges"].append(["a", "b"])),
    ("chain", "callgraph"): lambda o: _json_edit(o, lambda p: p.update(prog=["prog"])),
    ("chain", "typeinfer"): lambda o: _json_edit(o, lambda p: p[0].update(type=["str"])),
    ("branchy", "rewrite"): lambda o: o.replace("1009", "1013"),
    ("branchy", "cfg"): lambda o: o.replace("subgraph cluster_", "subgraph other_", 1),
    ("branchy", "ssa"): lambda o: _json_edit(o, _drop_a_version),
    ("branchy", "alias"): lambda o: _json_edit(o, lambda p: p.pop()),
    ("branchy", "fqn"): lambda o: o.replace("-> branchy.inc", "-> branchy.twice", 1),
    ("branchy", "imports"): lambda o: _json_edit(o, lambda p: p["leaves"].clear()),
    ("branchy", "callgraph"): lambda o: _json_edit(o, _first_callee),
    ("branchy", "typeinfer"): lambda o: _json_edit(o, lambda p: [
        r.update(type=["str"]) for r in p if r.get("variable") == "v0"]),
    ("package", "rewrite"): lambda o: o.replace("return a", "return -a", 1),
    ("package", "cfg"): lambda o: _json_edit(o, lambda p: p["functions"].pop()),
    ("package", "ssa"): lambda o: _json_edit(o, _first_folded),
    ("package", "alias"): lambda o: '[{"alias": "SCALE#0", "target": "LIMIT"}]',
    ("package", "fqn"): lambda o: o.replace("-> m00.", "-> pkg.s0.m00.", 1),
    ("package", "imports"): lambda o: _json_edit(o, lambda p: p["edges"].pop()),
    ("package", "callgraph"): lambda o: _json_edit(o, _first_callee),
    ("package", "typeinfer"): lambda o: _json_edit(o, _retype),
}


def _quiet_report(runner, wl, workdir) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.report(*runner(wl, workdir, seconds=0))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name, gen in GENERATORS.items():
            self.assertEqual(gen(7).files, gen(7).files, name)
            self.assertEqual(gen(7).facts, gen(7).facts, name)
            self.assertNotEqual(gen(7).files, gen(8).files, name)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(GENERATORS))


class HarnessTest(unittest.TestCase):
    def setUp(self):
        scratch = run.ROOT / ".perfbench-work"
        scratch.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=scratch)
        self.workdir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def _assert_result(self, result: dict, names: list[str]) -> None:
        line = json.dumps(result)
        self.assertEqual(sorted(json.loads(line)), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), name)

    def test_untraced_reports_every_end_to_end_metric(self):
        wl = TINY["package"](1)
        run.write_workload(wl, self.workdir)
        result = _quiet_report(run.run_untraced, wl, self.workdir)
        self._assert_result(result, [m["name"] for m in SPEC["end_to_end"]])
        for m in SPEC["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_reports_every_layer_metric(self):
        for name in GENERATORS:
            wl = TINY[name](1)
            workdir = self.workdir / name
            run.write_workload(wl, workdir)
            result = _quiet_report(run.run_traced, wl, workdir)
            self._assert_result(result, [m["name"] for m in SPEC["per_layer"]])
            spans = json.loads((workdir / "trace.json").read_text(encoding="utf-8"))["spans"]
            self.assertTrue(spans and all({"id", "parent", "name", "start", "end"} <= set(s)
                                          for s in spans))

    def test_checks_accept_real_output_and_reject_corrupted(self):
        previous = os.getcwd()
        for name in GENERATORS:
            wl = TINY[name](3)
            workdir = self.workdir / name
            run.write_workload(wl, workdir)
            os.chdir(workdir)
            try:
                for sub, (argv, _) in run.workload_ops(wl).items():
                    with self.subTest(workload=name, op=sub):
                        out, error, _ = run.run_in_process(argv, None)
                        self.assertIsNone(error)
                        self.assertIsNone(CHECKS[name](sub, out, wl, workdir))
                        bad = CORRUPT[(name, sub)](out)
                        self.assertNotEqual(bad, out)
                        self.assertIsNotNone(run.check(wl, sub, bad, workdir))
            finally:
                os.chdir(previous)


if __name__ == "__main__":
    unittest.main()

"""lancet benchmark: generate a workload from a seed, run every subcommand on
it, check the outputs, and print the metrics.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 40 --trace 0

Run from the root of a lancet checkout; lancet is imported from its ``src``.
With ``--trace 0`` every subcommand runs as a fresh ``python -m lancet.cli``
process, one at a time, in rounds until ``--seconds`` are spent, and the
end-to-end metrics are medians over the rounds of calibrated times (see
``calibrate``).  With ``--trace 1`` the
same subcommands run in this process through ``lancet.cli.main``, once
untraced and once with spans around each layer's public functions, and the
per-layer metrics are medians over the passes.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import copy
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CHECKS  # noqa: E402
from gen import GENERATORS, Workload  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OP_TIMEOUT = 120.0
MIN_ROUNDS = 3  # rounds of every op, whatever --seconds says
# Calibrated times read as seconds on a machine on which the calibration
# job takes CAL_REF_S; on a shared 2-vCPU Xeon VM under Python 3.11 it takes
# 0.07-0.10 s.
CAL_REF_S = 0.1
_CAL_SRC = "\n".join(
    f"x{i} = [a * {i} for a in range({i % 7})]\nif x{i}:\n    y{i} = {{k: x{i} for k in 'ab'}}"
    for i in range(300))

E2E_UNITS = {
    "setup_s": "s", "rewrite_s": "s", "cfg_s": "s", "ssa_s": "s", "alias_s": "s", "fqn_s": "s",
    "imports_s": "s", "callgraph_s": "s", "typeinfer_s": "s", "lines_per_s": "lines/s",
    "peak_rss_mb": "MiB",
}
SUBCOMMANDS = ["rewrite", "cfg", "ssa", "alias", "fqn", "imports", "callgraph", "typeinfer"]


def workload_ops(wl: Workload) -> dict[str, tuple[list[str], list[str]]]:
    """Subcommand -> (argv, files it reads).  Every workload runs all eight
    subcommands; single-file ones take the workload's main file."""
    if wl.name == "package":
        root, main = wl.facts["root"], wl.facts["main_file"]
        project = sorted(wl.files)
        cfg_args = ["--format", "json"]
        tree_ops = {"imports": ["imports", root], "callgraph": ["callgraph", "--package", root],
                    "typeinfer": ["typeinfer", root]}
    else:
        main = next(iter(wl.files))
        project = [main]
        cfg_args = ["--format", "dot", "--include-functions"] if wl.name == "branchy" else ["--format", "json"]
        tree_ops = {"imports": ["imports", str(Path(main).parent)],
                    "callgraph": ["callgraph", "--entry", main], "typeinfer": ["typeinfer", main]}
    ops = {
        "rewrite": (["rewrite", main], [main]),
        "cfg": (["cfg", main, *cfg_args], [main]),
        "ssa": (["ssa", main], [main]),
        "alias": (["alias", main], [main]),
        "fqn": (["fqn", main], [main]),
    }
    for sub, argv in tree_ops.items():
        ops[sub] = (argv, project)
    return {sub: ops[sub] for sub in SUBCOMMANDS}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Users run from cached bytecode; recompiling lancet in every op would
    # add compile time to every measurement.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def write_workload(wl: Workload, workdir: Path) -> None:
    if workdir.exists():
        shutil.rmtree(workdir)
    for rel, text in wl.files.items():
        path = workdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Untraced run: one fresh process per op.


SETUP_CODE = ("import time; t = time.perf_counter(); import lancet.cli; "
              "print(time.perf_counter() - t); print(lancet.cli.__file__)")


def setup_sample(env: dict[str, str]) -> float:
    """Time of ``import lancet.cli`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=OP_TIMEOUT, check=True)
    seconds, origin = proc.stdout.split("\n")[:2]
    if not Path(origin).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"lancet imported from {origin}, not from {SRC}")
    return float(seconds)


def calibrate() -> float:
    """Time of a fixed pure-stdlib job: parse, copy and walk a syntax tree.

    On a shared host the same process runs 10-60% slower or faster from one
    minute to the next, and in bursts of under a second.  This job, run in
    this process on the same CPU right before and right after each op,
    measures how fast the machine is at that moment; the op's wall time is
    scaled by ``CAL_REF_S`` over the mean of the two.  The job depends on no
    seed, workload or lancet code.
    """
    start = time.perf_counter()
    tree = copy.deepcopy(ast.parse(_CAL_SRC))
    names: dict[str, set[int]] = {}
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Name):
            names.setdefault(node.id, set()).add(i)
    sum(len(sites) for sites in names.values())  # part of the job: touch every set
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Run this process, and every op it starts, on one CPU, so that each op
    and the calibration around it share a core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_op(argv: list[str], workdir: Path, env: dict[str, str]) -> dict:
    """Run one subcommand in a fresh process; wall time and peak RSS."""
    out_path, err_path = workdir / "op.stdout", workdir / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "lancet.cli", *argv], cwd=workdir,
                                env=env, stdout=out, stderr=err)
        killer = threading.Timer(OP_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    stderr = err_path.read_bytes()
    error = None
    if proc.returncode != 0:
        error = f"exit code {proc.returncode}" + (" (timeout)" if wall >= OP_TIMEOUT else "")
    elif b"Traceback (most recent call last)" in stderr:
        error = "traceback on stderr"
    return {"wall": wall, "rss_kib": usage.ru_maxrss, "stdout": stdout, "error": error}


def run_untraced(wl: Workload, workdir: Path, seconds: float) -> tuple[dict, int, int, list[str]]:
    env = child_env()
    setup_sample(env)  # warms the bytecode cache; not counted
    ops = workload_ops(wl)
    results: dict[str, list[dict]] = {sub: [] for sub in ops}
    walls: dict[str, list[float]] = {name: [] for name in ["setup", *ops]}
    scaled: dict[str, list[float]] = {name: [] for name in walls}
    cals = [calibrate()]
    start = time.perf_counter()
    rounds = 0
    while True:
        # Whole rounds, so every op's samples spread over the entire run.
        for name in walls:
            if name == "setup":
                wall = setup_sample(env)
            else:
                result = run_op(ops[name][0], workdir, env)
                results[name].append(result)
                wall = result["wall"]
            cals.append(calibrate())
            walls[name].append(wall)
            scaled[name].append(wall * CAL_REF_S * 2 / (cals[-2] + cals[-1]))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break

    outputs = {sub: [r["stdout"].decode("utf-8", "replace") for r in runs] for sub, runs in results.items()}
    errors = {sub: next((r["error"] for r in runs if r["error"]), None) for sub, runs in results.items()}
    failed, failures = judge(wl, outputs, errors, workdir)

    # Uncalibrated medians, for reading against a stopwatch.
    print(f"{'calibration':34s} {statistics.median(cals):14.6f} {'s':8s} n={len(cals)} (reference {CAL_REF_S} s)")
    for name, times in walls.items():
        print(f"{'wall.' + name + '_s':34s} {statistics.median(times):14.6f} {'s':8s} n={len(times)} (uncalibrated)")

    medians = {name: statistics.median(times) for name, times in scaled.items()}
    lines = sum(wl.lines(files) for _, files in ops.values())
    metrics = {"setup_s": (medians.pop("setup"), rounds)}
    for sub in ops:
        metrics[f"{sub}_s"] = (medians[sub], rounds)
    metrics["lines_per_s"] = (lines / sum(medians.values()), rounds)
    peak = max(r["rss_kib"] for runs in results.values() for r in runs)
    metrics["peak_rss_mb"] = (peak / 1024, rounds * len(ops))
    return metrics, rounds * len(ops), failed, failures


def judge(wl: Workload, outputs: dict[str, list[str]], errors: dict[str, str | None],
          workdir: Path) -> tuple[int, list[str]]:
    """Failed op runs and their reasons.  An op fails as a whole on an error
    in any run, on stdout that differs between runs, or on a failed check."""
    failed = 0
    failures = []
    for sub, outs in outputs.items():
        reason = errors.get(sub)
        if reason is None and any(o != outs[0] for o in outs):
            reason = "stdout differs between repetitions"
        if reason is None:
            reason = check(wl, sub, outs[0], workdir)
        if reason is not None:
            failures.append(f"{sub}: {reason}")
            failed += len(outs)
    return failed, failures


def check(wl: Workload, sub: str, out: str, workdir: Path) -> str | None:
    try:
        return CHECKS[wl.name](sub, out, wl, workdir)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return f"check raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Traced run: in process, spans around each layer's public functions.


def run_in_process(argv: list[str], tracer) -> tuple[str, str | None, float]:
    """stdout, error and wall time of ``lancet.cli.main(argv)``; traced when
    a tracer is given."""
    import lancet.cli

    buf = io.StringIO()
    error = None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            root = tracer.open(argv[0]) if tracer is not None else None
            try:
                code = lancet.cli.main(argv)
            finally:
                if root is not None:
                    tracer.close(root)
        if code != 0:
            error = f"exit code {code}"
    except Exception as exc:  # recorded as a failed op
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return buf.getvalue(), error, elapsed


def run_traced(wl: Workload, workdir: Path, seconds: float) -> tuple[dict, int, int, list[str]]:
    from lancet.frontend import parse_module
    from lancet.rewriter import simplify_module
    from spans import Tracer, layer_metrics

    ops = workload_ops(wl)
    project = ops["imports"][1]  # every input file
    passes: list[dict[str, float]] = []
    outputs: dict[str, list[str]] = {sub: [] for sub in ops}
    errors: dict[str, str | None] = {}
    start = time.perf_counter()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        while True:
            tracer = Tracer()
            elapsed = {False: 0.0, True: 0.0}
            metrics: dict[str, float] = {}
            for i, (sub, (argv, _)) in enumerate(ops.items()):
                # Alternate which run goes first so neither always finds warm caches.
                for traced in ((False, True) if (len(passes) + i) % 2 == 0 else (True, False)):
                    out, error, seconds_taken = run_in_process(argv, tracer if traced else None)
                    elapsed[traced] += seconds_taken
                    errors[sub] = errors.get(sub) or error
                    outputs[sub].append(out)
                metrics[f"cli.output_bytes.{sub}"] = len(out.encode("utf-8"))
            t0 = time.perf_counter()
            for rel in project:
                simplify_module(parse_module((workdir / rel).read_text(encoding="utf-8"), rel))
            metrics["project.reparse_s"] = time.perf_counter() - t0
            metrics["trace.overhead_ratio"] = elapsed[True] / elapsed[False]
            metrics.update(layer_metrics(tracer))
            passes.append(metrics)
            # Each pass already runs every op twice, so one pass can suffice.
            if (time.perf_counter() - start) * (1 + 1 / len(passes)) > seconds:
                break
    finally:
        os.chdir(previous)
    tracer.dump(workdir / "trace.json")
    # Where each op's time went in the last pass, largest self time first.
    for (op, name), seconds_taken in sorted(tracer.self_times().items(),
                                            key=lambda item: (item[0][0], -item[1])):
        print(f"self {op:10s} {name:32s} {seconds_taken:12.6f} s")

    failed, failures = judge(wl, outputs, errors, workdir)
    metrics = {k: (statistics.median(p[k] for p in passes), len(passes)) for k in passes[0]}
    return metrics, sum(len(o) for o in outputs.values()), failed, failures


# ---------------------------------------------------------------------------


def report(metrics: dict[str, tuple[float, int]], attempted: int, failed: int,
           failures: list[str]) -> dict:
    """Print one line per metric with its unit and sample count; return the
    result object."""
    for line in failures:
        print(f"FAILED {line}")
    for name, (value, samples) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit_of(name):8s} n={samples}")
    print(f"{'fail_ratio':34s} {failed / attempted:14.6f} {'ratio':8s} n={attempted}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, (value, _) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "lancet" / "cli.py").is_file():
        print(f"error: no lancet sources under {SRC}; run from a lancet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the SSA check and the traced run import lancet
    pin_to_one_cpu()

    wl = GENERATORS[args.workload](args.seed)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-trace{args.trace}"
    write_workload(wl, workdir)
    runner = run_traced if args.trace else run_untraced
    print(json.dumps(report(*runner(wl, workdir, args.seconds))))
    return 0


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("cli.output_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

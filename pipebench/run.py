"""Pipeline benchmark: simulate -> estimate -> fit through homspec's CLI.

Run from the root of a source checkout:

    python3 pipebench/run.py --workload retrieve_hot --seed 1 --seconds 20 --trace 0

Each run starts fresh interpreters (pipebench/child.py) with BLAS and
OpenMP pinned to one thread, which call ``homspec.cli.main`` in-process,
one subcommand after another, in whole rounds until ``--seconds`` have
passed.  The outputs of the last round are then checked against an
independent recount (checks.py).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  See pipebench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
# Fresh interpreter starts per run for setup_s: its median is steadier than one start.
SETUP_STARTS = 5
# The whole run, children and checks included, must end within 180 s.
RUN_BUDGET_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# This process imports neither numpy nor homspec and never grows: on Linux a
# child's ru_maxrss starts from its parent's peak RSS, so a large parent
# would hide the children's own peaks.


class BenchError(Exception):
    """The run could not be carried out; no result is printed."""


def declared_units(root: Path, trace: bool) -> dict[str, str]:
    """{metric: unit} of the end-to-end or per-layer list in BENCHMARK.json."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    return env


def start_child(args, work: Path, report: Path, deadline: float, *, trace: bool,
                setup_only: bool) -> dict:
    """Run child.py to completion; return its report plus its setup time."""
    argv = [sys.executable, str(CHILD), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(trace)),
            "--work", str(work), "--report", str(report)]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=child_env())
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{args.workload}: child did not finish within the run budget")
    if code != 0:
        raise BenchError(f"{args.workload}: child exited with code {code}")
    result = json.loads(report.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - spawned
    return result


def count_ops(result: dict) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every round of one child.

    An operation fails when it exits non-zero or raises, when its output
    fails its check, or when its output differs from the last round's (the
    checked one).  correct is False when an operation that exited 0 failed.
    """
    rounds = result["rounds"]
    last = {f"{op['case']}/{op['stage']}": op["digests"] for op in rounds[-1]["ops"]}
    attempted = failed = 0
    correct = True
    for rnd in rounds:
        for op in rnd["ops"]:
            key = f"{op['case']}/{op['stage']}"
            attempted += 1
            if op["rc"] != 0:
                failed += 1
            elif key in result["failures"] or op["digests"] != last[key]:
                failed += 1
                correct = False
    return attempted, failed, correct


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "homspec" / "__init__.py").is_file():
        raise BenchError(f"{root} holds no homspec source tree (src/homspec)")
    deadline = time.monotonic() + RUN_BUDGET_S
    runs_dir = HERE / "work"
    work = runs_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = work / "report.json"
    try:
        results = []
        for trace in ([False, True] if args.trace else [False]):
            result = start_child(args, work, report, deadline, trace=trace, setup_only=False)
            for r in result["rounds"]:
                print(f"{args.workload} trace={int(trace)}: round wall_s {r['wall_s']:.3f} "
                      f"peak_rss_mb {r['maxrss_kb'] / 1024:.1f}", file=sys.stderr)
            for op, reason in sorted(result["failures"].items()):
                print(f"check failed: {args.workload} {op}: {reason}", file=sys.stderr)
            results.append(result)
        if args.trace:
            plain, traced = results
            metrics = spans.layer_metrics(traced["spans"], len(traced["rounds"]))
            metrics["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced["rounds"])
                - statistics.median(r["wall_s"] for r in plain["rounds"])
            )
            trace_file = runs_dir / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps(traced["spans"]), encoding="utf-8")
        else:
            setups = [result["setup_s"]]
            for _ in range(SETUP_STARTS - 1):
                setups.append(start_child(args, work, report, deadline, trace=False,
                                          setup_only=True)["setup_s"])
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in result["rounds"]),
                "setup_s": statistics.median(setups),
                # After the first round, as one pipeline in a fresh process; later
                # rounds can raise the peak through the allocator's reuse of freed
                # memory, by an amount that varies from run to run.
                "peak_rss_mb": result["rounds"][0]["maxrss_kb"] / 1024.0,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_units(root, args.trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                         "measured and declared in BENCHMARK.json")
    counts = [count_ops(result) for result in results]
    attempted = sum(c[0] for c in counts)
    failed = sum(c[1] for c in counts)
    correct = all(c[2] for c in counts)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One measured process: import homspec, then run whole rounds of CLI calls.

run.py starts this script in a fresh interpreter with BLAS and OpenMP
pinned to one thread; it is not meant to be started by hand.  Usage:

    python3 pipebench/child.py --workload NAME --seed N --seconds S
        --trace 0|1 --work DIR --report FILE [--setup-only]

The report (JSON) holds the moment set-up ended on the system-wide
monotonic clock; for every round its wall time, the process's peak RSS
after it and the outcome of each call; the checks failed by the last
round's outputs; and, when traced, the spans.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

from workloads import STAGE_OUTPUTS, WORKLOADS, stage_argv


def _digest(path: str) -> str | None:
    if not os.path.isfile(path):
        return None
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def _call(main, argv: list[str]):
    """Exit code of one CLI call; None when it raised instead of returning."""
    try:
        return main(argv)
    except Exception:  # a traceback is a failed operation, not a dead run
        traceback.print_exc()
        return None


def run_round(main, cases, args, tracer, round_index: int) -> dict:
    calls = []
    for case in cases:
        out = os.path.join(args.work, case.tag)
        for stage in case.stages:
            calls.append((case, stage, out, stage_argv(case, stage, out, args.seed)))
    ops = []
    start = time.perf_counter()
    for case, stage, out, argv in calls:
        if tracer is not None:
            tracer.context = {"round": round_index, "case": case.tag}
        ops.append({"case": case.tag, "stage": stage, "rc": _call(main, argv)})
    wall = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for op, (_, stage, out, _) in zip(ops, calls):
        op["digests"] = {name: _digest(os.path.join(out, name)) for name in STAGE_OUTPUTS[stage]}
    return {"wall_s": wall, "maxrss_kb": maxrss_kb, "ops": ops}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import homspec.cli
    from homspec import config

    if os.path.dirname(os.path.dirname(os.path.abspath(homspec.__file__))) != src:
        raise SystemExit(f"homspec was imported from {homspec.__file__}, not from {src}")
    cases = WORKLOADS[args.workload]
    configs = [config.apply_overrides(config.load_config(case.config), list(case.overrides))
               for case in cases]
    ready = time.monotonic()

    report = {"ready": ready}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install("homspec")
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(homspec.cli.main, cases, args, tracer, len(rounds)))
        report["rounds"] = rounds
        if tracer is not None:
            report["spans"] = tracer.spans
        # Checks come after every measurement, so that their import and their
        # memory count in neither setup_s nor peak_rss_mb.
        import checks

        report["failures"] = {}
        for case, cfg in zip(cases, configs):
            failures = checks.check_case(case, cfg, os.path.join(args.work, case.tag))
            for stage, reason in failures.items():
                report["failures"][f"{case.tag}/{stage}"] = reason
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One child process of the benchmark: set up a workload, run timed rounds,
check every operation, and print one JSON record as the last line.

Started by run.py with gch's source on PYTHONPATH, a fixed PYTHONHASHSEED
and no GCH_THREADS, so that gch runs in its default configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

from spans import NullTracer, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")

def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(workload, tracer) -> dict:
    workload.prepare_round()
    ops = workload.ops()
    outputs, errors = {}, {}
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for name, fn in ops:
        with tracer.span("op", name):
            try:
                outputs[name] = fn()
            except Exception as exc:  # an operation that raises counts as failed
                errors[name] = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    results = []
    for name, _ in ops:
        problems = [errors[name]] if name in errors else []
        summary = None
        if not problems:
            try:
                problems = workload.check(name, outputs)
                summary = workload.summary(name, outputs[name])
            except Exception as exc:  # a check that cannot run fails its operation
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        results.append({"name": name, "problems": problems, "summary": summary})
    return {"wall": wall, "cpu": cpu, "ops": results}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Seconds per layer, and per job for builds and ranks, plus the counters."""
    out = dict(tracer.counters)
    for span in tracer.spans:
        if span["name"] == "op":
            continue
        names = [f"{span['name']}.s"]
        if span["name"] in ("complexes", "linalg"):
            names.append(f"{span['name']}.{span['job']}.s")
        for name in names:
            out[name] = out.get(name, 0.0) + span["end"] - span["start"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--max-rounds", type=int, default=0, help="0: no limit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else NullTracer()
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, tracer, workdir)
    try:
        with tracer.span("setup", args.workload):
            workload.setup()
        setup_end = time.monotonic()
        record = {"setup_end": setup_end, "rounds": [], "measured": 0.0}
        if args.setup_only:
            print(json.dumps(record))
            return 0
        while True:
            record["rounds"].append(run_round(workload, tracer))
            record["measured"] = time.monotonic() - setup_end
            if len(record["rounds"]) == args.max_rounds or record["measured"] >= args.seconds:
                break
        record["peak_rss_mb"] = peak_rss_mb()
        for name, problems in workload.final_check().items():
            for rnd in record["rounds"]:
                for op in rnd["ops"]:
                    if op["name"] == name:
                        op["problems"] += problems
    finally:
        workload.cleanup()
    if args.trace:
        tracer.write(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        record["layers"] = layer_metrics(tracer)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)

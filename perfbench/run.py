"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload rank-g4 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout of gch.  Every round runs in a
child interpreter started from ``src/`` with a fixed hash seed and without
GCH_THREADS.  A cold workload's rounds each get a fresh child, started
until the measured time reaches ``--seconds``; a warm workload sets up
once in one child, which repeats rounds for ``--seconds``.  With
``--trace 0`` the last line holds the end-to-end metrics, with ``--trace
1`` the per-layer metrics of one further, traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

# rounds_per_child: 1 keeps every round cold; None lets one child repeat
# rounds after one set-up.  setup_samples: children whose set-up time is
# taken, the median of which is setup_s.
WORKLOADS = {
    "enumerate-cold": {"rounds_per_child": 1, "setup_samples": 5},
    "cubes-ribbons-g4": {"rounds_per_child": 1, "setup_samples": 5},
    "rank-g4": {"rounds_per_child": None, "setup_samples": 3},
}

KIND_PARITIES = (
    "cellular_MG-even", "cellular_MG-odd",
    "cellular_MG_relative-even", "cellular_MG_relative-odd",
    "com-even", "com-odd",
    "com_geq2-even", "com_geq2-odd", "com_tad_geq2-even",
    "gf-even", "gf-odd", "gp-even", "gp-odd", "ass-even", "ass-odd",
)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "generate.s": "s",
    "generate.classes": "count",
    "complexes.s": "s",
    "complexes.generators": "count",
    "complexes.nnz": "count",
    **{f"complexes.{job}.s": "s" for job in KIND_PARITIES},
    "linalg.s": "s",
    "linalg.nnz": "count",
    "linalg.nnz_per_s": "1/s",
    **{f"linalg.{job}.s": "s" for job in KIND_PARITIES},
    "moduli.s": "s",
    "moduli.cells": "count",
    "moduli.cubes": "count",
    "io.s": "s",
    "io.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

RUN_LIMIT_S = 175.0


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GCH_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SOURCE + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SOURCE
    return env


def spawn(args, deadline: float, **options) -> tuple[dict, float]:
    """Run one child; return its record and its set-up time in seconds."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        cmd += [flag] if value is True else [flag, str(value)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child ran past the {RUN_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record, record["setup_end"] - started


def measure(args, deadline: float) -> dict:
    spec = WORKLOADS[args.workload]
    records, setups, measured = [], [], 0.0
    while measured < args.seconds:
        record, setup = spawn(args, deadline, seconds=args.seconds - measured,
                              max_rounds=spec["rounds_per_child"] or 0, trace=0)
        records.append(record)
        setups.append(setup)
        measured += record["measured"]
    if args.trace:
        traced, _ = spawn(args, deadline, seconds=0, max_rounds=1, trace=1)
        records.append(traced)
    else:
        traced = None
        while len(setups) < spec["setup_samples"]:
            setups.append(spawn(args, deadline, seconds=0, setup_only=True, trace=0)[1])
    return {"records": records, "setups": setups, "traced": traced}


def summarize(args, run: dict) -> dict:
    rounds = [rnd for rec in run["records"] for rnd in rec["rounds"]]
    untraced = [rnd for rec in run["records"] if rec is not run["traced"] for rnd in rec["rounds"]]
    ops = [op for rnd in rounds for op in rnd["ops"]]
    failed = [op for op in ops if op["problems"]]
    for op in failed[:5]:
        print(f"FAILED {op['name']}: {'; '.join(op['problems'])}", file=sys.stderr)
    # every round runs the same operations, which must return the same
    # answers in every round and child
    answers: dict[str, str] = {}
    correct = all(len(rnd["ops"]) == len(rounds[0]["ops"]) for rnd in rounds)
    for op in ops:
        if not op["problems"]:
            answer = json.dumps(op["summary"], sort_keys=True)
            correct &= answers.setdefault(op["name"], answer) == answer
    wall = statistics.median(rnd["wall"] for rnd in untraced)
    if args.trace:
        layers = run["traced"]["layers"]
        metrics = {name: layers.get(name, 0) for name in PER_LAYER}
        traced_wall = run["traced"]["rounds"][0]["wall"]
        metrics["linalg.nnz_per_s"] = (metrics["linalg.nnz"] / metrics["linalg.s"]
                                       if metrics["linalg.s"] else 0.0)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(rnd["cpu"] for rnd in untraced),
            "setup_s": statistics.median(run["setups"]),
            "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in run["records"]),
        }
        units = END_TO_END
    return {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "gch", "__init__.py")):
        print(f"no gch source under {SOURCE}: run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        run = measure(args, deadline)
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(args, run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

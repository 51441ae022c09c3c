"""Steadiness of the end-to-end metrics: two sets of runs of the same code.

    python3 perfbench/steady.py --runs 10 [--workload rank-g4 ...]

Runs each workload ``--runs`` times per set, alternating between set A and
set B, each run with its own seed.  For every end-to-end metric it prints
each set's median and quartiles, the spread (quartile distance over the
median) and the drift of B's median from A's, against the metric's bound
in BENCHMARK.json.  The figures also go to perfbench/results/.
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
RESULTS = os.path.join(HERE, "results")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    verdict = True
    for workload in args.workload or names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for offset, label in enumerate("AB"):
                result = run_once(workload, 2 * i + offset + 1, args.seconds)
                sets[label].append(result)
                print(f"{workload} {label} seed {2 * i + offset + 1}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
        rows = {}
        for metric, bound in bounds.items():
            stats = {}
            for label, results in sets.items():
                q1, q2, q3 = quartiles([r["metrics"][metric]["value"] for r in results])
                stats[label] = {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2}
            drift = stats["B"]["median"] / stats["A"]["median"] - 1
            spread = max(stats["A"]["spread"], stats["B"]["spread"])
            ok = abs(drift) <= bound and (metric == "setup_s" or spread <= bound)
            verdict &= ok
            rows[metric] = {**stats, "drift": drift, "bound": bound, "ok": ok}
            print(f"  {metric:12s} A {stats['A']['median']:.4g} [{stats['A']['q1']:.4g}, "
                  f"{stats['A']['q3']:.4g}] spread {stats['A']['spread']:.3f} | "
                  f"B {stats['B']['median']:.4g} [{stats['B']['q1']:.4g}, {stats['B']['q3']:.4g}] "
                  f"spread {stats['B']['spread']:.3f} | drift {drift:+.3f} bound {bound} "
                  f"{'ok' if ok else 'UNSTEADY'}", flush=True)
        shares = {label: sorted({(r["failed"], r["attempted"]) for r in results})
                  for label, results in sets.items()}
        same_share = len({f / a for pairs in shares.values() for f, a in pairs}) == 1
        verdict &= same_share
        print(f"  failed/attempted A {shares['A']} B {shares['B']} "
              f"{'same share' if same_share else 'SHARES DIFFER'}", flush=True)
        report["workloads"][workload] = {"metrics": rows, "failed_share_same": same_share}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"{'steady' if verdict else 'NOT steady'}; figures in {os.path.relpath(path, ROOT)}")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())

"""The genus-5 to 7 frontier ladder: build and rank each complex in a fresh
interpreter, and check its homology against the recorded baseline.

Usage::

    python tools/frontier.py [KIND-PARITY-GENUS ...]

With no argument it runs the ladder, ``LADDER``: the genus-5 rungs and
``com-odd-6``.  The larger rungs of ``BASELINE`` (``com-even-7``,
``com-odd-7``, ``gf-odd-6``) run when named.  Each spec runs in its own
interpreter, with ``PYTHONHASHSEED=0`` and gch taken from the ``src/``
directory next to this one; it enumerates the kind's graph family, then
builds the complex as ``gch homology`` does, which reuses that
enumeration, and prints one JSON line: the seconds spent enumerating,
building (the assembly alone: subset orbits, faces and matrices) and
ranking, the child's peak resident set (``ru_maxrss``), the generator
count, the nonzero homology dimensions by grade and the Euler
characteristic.  The exit status is 1 when a child fails, or when a spec
of ``BASELINE`` gives another (total dimension, Euler characteristic),
and 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (sum of the homology dimensions, Euler characteristic) of each rung, as
# the ROADMAP baseline records them
BASELINE = {
    "gf-even-5": (1, 1),
    "gp-even-5": (1, -1),
    "gp-odd-5": (2, -2),
    "ass-odd-5": (16, 12),
    "com-odd-6": (3, -1),
    "com-even-7": (1, 1),
    "com-odd-7": (4, 2),
    "gf-odd-6": (1, -1),
}
# the default run, about 20 s; the genus-7 and gf-odd-6 rungs take 30-60 s
# each, and gf-odd-6 peaks near 1.3 GB, so they run only when named
LADDER = ("gf-even-5", "gp-even-5", "gp-odd-5", "ass-odd-5", "com-odd-6")

CHILD = r"""
import json, resource, sys, time
from gch.complexes import ComplexSpec, _family_spec, build_complex, homology
from gch.generate import enumerate_graphs

spec = sys.argv[1]
kind, parity, genus = spec.rsplit("-", 2)
complex_spec = ComplexSpec(kind, parity, int(genus))
start = time.perf_counter()
enumerate_graphs(_family_spec(complex_spec))
enumerated = time.perf_counter()
complex_ = build_complex(complex_spec)
built = time.perf_counter()
report = homology(complex_)
ranked = time.perf_counter()
dims = {k: d for k, d in sorted(report.dims.items()) if d}
print(json.dumps({
    "spec": spec,
    "enumerate_s": round(enumerated - start, 3),
    "build_s": round(built - enumerated, 3),
    "rank_s": round(ranked - built, 3),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "generators": sum(report.counts.values()),
    "dims": dims,
    "chi": sum((-1) ** k * d for k, d in dims.items()),
}))
"""


def run(spec: str) -> dict:
    """One spec's record, from a fresh interpreter; ``error`` names a failure."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    child = subprocess.run([sys.executable, "-c", CHILD, spec], capture_output=True,
                           text=True, env=env)
    if child.returncode != 0:
        lines = child.stderr.strip().splitlines() or [f"exit {child.returncode}"]
        return {"spec": spec, "error": lines[-1]}
    return json.loads(child.stdout)


def main(argv: list[str] | None = None, baseline: dict = BASELINE) -> int:
    specs = (sys.argv[1:] if argv is None else argv) or list(LADDER)
    status = 0
    for spec in specs:
        record = run(spec)
        print(json.dumps(record), flush=True)
        if "error" in record:
            status = 1
        elif spec in baseline:
            got = (sum(record["dims"].values()), record["chi"])
            if got != tuple(baseline[spec]):
                print(f"{spec}: (sum of dims, chi) = {got}, baseline {baseline[spec]}",
                      file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

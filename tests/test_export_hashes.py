"""Golden hashes of ``gch complex --export``, ``gch moduli --export`` and
``gch enumerate``, and of ``gch homology --N 1`` stdout.

The fixture holds the sha256 of every exported file: ``generators.jsonl``
and each ``boundary_k.sms`` for every complex kind, parity and genus 1-4
(the cellular kinds from genus 2; the bivalent and tadpole variants with
``--max-edges`` 9 at genus 1 and 7 above), and the poset and spine exports
for genus 2-4.  It was written before the vanishing, sign and subset
rules were folded into one code path each, so a passing test means those
refactors left every exported byte unchanged.

It also holds the sha256 of ``gch enumerate`` stdout, whose lines carry
the certificates: for genus 1-3 plain, with tadpoles, weighted with
tadpoles, ribbon, ribbon with tadpoles, and bivalent up to six edges with
and without ribbon structures; for genus 4 plain, with tadpoles,
weighted with tadpoles, ribbon and ribbon with tadpoles.  These were
written before the edge-colored variants of the canonical forms were
deleted, except the two genus-4 ribbon entries, which were written before
ribbon graphs were generated by moves.

It also holds the sha256 of ``gch homology --N 1`` stdout (ranks,
homology dimensions and degree rows) for every kind, parity and genus of
the complex entries, written before the automorphism groups of plain
graphs were read off the canonical-labelling search.

It also holds the sha256 of the stdout of every ``complex`` and ``moduli``
export run, with the export target replaced by ``EXPORT``: the grade rows
and summary of each complex, and the summary row of each poset and spine.
These were written before the spine's cube catalog lost its proper-subset
mode and ``gch moduli`` came to build its summary row in one place.

Regenerate only for an intended change of output::

    PYTHONPATH=src python tests/test_export_hashes.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from gch.cli import main
from gch.complexes import KINDS

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "export_hashes.json"
CAPPED = ("com_geq2", "com_tad", "com_tad_geq2")
ENUMERATE_FLAGS = {
    "plain": [],
    "tadpoles": ["--tadpoles"],
    "weighted-tadpoles": ["--weighted", "--tadpoles"],
    "ribbon": ["--ribbon"],
    "ribbon-tadpoles": ["--ribbon", "--tadpoles"],
    "bivalent": ["--min-valence", "2", "--max-edges", "6"],
    "bivalent-ribbon": ["--min-valence", "2", "--max-edges", "6", "--ribbon"],
}
GENUS4_ENUMERATE = ("plain", "tadpoles", "weighted-tadpoles", "ribbon", "ribbon-tadpoles")


def _runs():
    for kind in KINDS:
        for parity in ("even", "odd"):
            for genus in range(2 if kind.startswith("cellular") else 1, 5):
                argv = ["complex", "--kind", kind, "--parity", parity, "--genus", str(genus)]
                if kind in CAPPED:
                    argv += ["--max-edges", "9" if genus == 1 else "7"]
                yield f"{kind}/{parity}/g{genus}", argv
                yield (f"homology/{kind}/{parity}/g{genus}",
                       ["homology"] + argv[1:] + ["--N", "1"])
    for genus in (2, 3, 4):
        yield f"moduli/g{genus}", ["moduli", "--genus", str(genus)]
        yield f"spine/g{genus}", ["moduli", "--genus", str(genus), "--spine"]
    for genus in (1, 2, 3, 4):
        for flags_name, flags in ENUMERATE_FLAGS.items():
            if genus < 4 or flags_name in GENUS4_ENUMERATE:
                yield (f"enumerate/{flags_name}/g{genus}",
                       ["enumerate", "--genus", str(genus)] + flags)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _hashes(name: str, argv: list[str], workdir: Path) -> dict[str, str]:
    exports = argv[0] in ("complex", "moduli")
    target = workdir / name.replace("/", "-")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + (["--export", str(target)] if exports else [])) == 0
    # an export run's last line names its target, which differs from run to run
    stdout = out.getvalue().replace(str(target), "EXPORT")
    hashes = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    if target.is_file():  # moduli writes one JSON file, complex a directory
        hashes["export.json"] = _sha(target)
    elif exports:
        hashes.update((p.name, _sha(p)) for p in sorted(target.iterdir()))
    return hashes


def test_exports_match_golden_hashes(tmp_path, capsys):
    expected = json.loads(FIXTURE_PATH.read_text())
    runs = list(_runs())
    assert sorted(name for name, _ in runs) == sorted(expected)
    for name, argv in runs:
        got = _hashes(name, argv, tmp_path)
        capsys.readouterr()
        assert got == expected[name], name


HISTORY = """
import contextlib, hashlib, io, json, sys, tempfile
from pathlib import Path
from gch.canonical import build_group, canonical_labelling
from gch.cli import main
from gch.generate import EnumSpec, enumerate_graphs

warm = [EnumSpec(genus=4, weighted=True, allow_tadpoles=True, min_edges=1),
        EnumSpec(genus=4, ribbon=True, allow_tadpoles=True)]
classes = {c.certificate: c for spec in warm for c in enumerate_graphs(spec)}
hashes = {}
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    for kind in ("gf", "ass"):
        target = Path(tmp) / kind
        main(["complex", "--kind", kind, "--parity", "odd", "--genus", "4", "--export", str(target)])
        hashes[kind + "/odd/g4"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                    for p in sorted(target.iterdir())}
differ = sum(1 for c in classes.values()
             if c.generators
             != build_group(c.graph, c.ribbon, canonical_labelling(
                 c.graph.vertex_count, c.graph.weights, c.graph.edges,
                 None if c.ribbon is None else c.ribbon.cycles)[-1])[0])
print(json.dumps({"classes": len(classes), "differ": differ, "hashes": hashes}))
"""


def test_exports_do_not_depend_on_history():
    """In a fresh interpreter, enumerating the weighted genus-4 family and
    the ribbon genus-4 family with tadpoles first leaves the ``gf`` odd and
    ``ass`` odd genus-4 exports as golden.  A class takes its generators
    from the search on the labelled graph that first reached it, so the
    warm-up changes them for some classes; the check is vacuous unless at
    least one class's generators differ from a search on its canonical
    graph."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    result = subprocess.run([sys.executable, "-c", HISTORY], capture_output=True, text=True,
                            env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    expected = json.loads(FIXTURE_PATH.read_text())
    assert got["hashes"] == {name: {file: h for file, h in expected[name].items() if file != "stdout"}
                             for name in got["hashes"]}
    assert sorted(got["hashes"]) == ["ass/odd/g4", "gf/odd/g4"]
    assert got["differ"] >= 1, got


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        hashes = {name: _hashes(name, argv, Path(tmp)) for name, argv in _runs()}
    FIXTURE_PATH.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"{len(hashes)} runs written to {FIXTURE_PATH}", file=sys.stderr)

"""Golden hashes of ``gch complex --export``, ``gch moduli --export`` and
``gch enumerate``.

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
and without ribbon structures; for genus 4 plain, with tadpoles and
weighted with tadpoles.  These were written before the edge-colored
variants of the canonical forms were deleted.

Regenerate only for an intended change of output::

    PYTHONPATH=src python tests/test_export_hashes.py
"""

import contextlib
import hashlib
import io
import json
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
GENUS4_ENUMERATE = ("plain", "tadpoles", "weighted-tadpoles")  # ribbon g4 is slow


def _runs():
    for kind in KINDS:
        for parity in ("even", "odd"):
            for genus in range(2 if kind.startswith("cellular") else 1, 5):
                argv = ["complex", "--kind", kind, "--parity", parity, "--genus", str(genus)]
                if kind in CAPPED:
                    argv += ["--max-edges", "9" if genus == 1 else "7"]
                yield f"{kind}/{parity}/g{genus}", argv
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
    if argv[0] == "enumerate":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    target = workdir / name.replace("/", "-")
    assert main(argv + ["--export", str(target)]) == 0
    if target.is_file():  # moduli writes one JSON file, complex a directory
        return {"export.json": _sha(target)}
    return {p.name: _sha(p) for p in sorted(target.iterdir())}


def test_exports_match_golden_hashes(tmp_path, capsys):
    expected = json.loads(FIXTURE_PATH.read_text())
    runs = list(_runs())
    assert sorted(name for name, _ in runs) == sorted(expected)
    for name, argv in runs:
        got = _hashes(name, argv, tmp_path)
        capsys.readouterr()
        assert got == expected[name], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        hashes = {name: _hashes(name, argv, Path(tmp)) for name, argv in _runs()}
    FIXTURE_PATH.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"{len(hashes)} runs written to {FIXTURE_PATH}", file=sys.stderr)

import json
import os
import subprocess
import sys
import time

import pytest

from gch.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.strip().splitlines() if line]


def test_enumerate_genus2(capsys):
    code, rows = run_cli(capsys, "enumerate", "--genus", "2")
    assert code == 0
    assert rows[-1]["count"] == 1
    assert rows[0]["vertices"] == 2
    assert rows[0]["edges"] == [[0, 1], [0, 1], [0, 1]]


def test_enumerate_weighted_genus2(capsys):
    code, rows = run_cli(capsys, "enumerate", "--genus", "2", "--weighted", "--tadpoles")
    assert code == 0
    assert rows[-1]["count"] == 6


def test_enumerate_infeasible_exit_code(capsys):
    code = main(["enumerate", "--genus", "1", "--min-valence", "2"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["enumerate", "--genus", "2", "--max-edges", "-1"],
    ["complex", "--kind", "com", "--parity", "even", "--genus", "2", "--max-edges", "-3"],
])
def test_negative_max_edges_exit_code(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err


def test_weighted_min_valence_2_exit_code(capsys):
    argv = ["enumerate", "--genus", "2", "--weighted", "--tadpoles", "--min-valence", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "min_valence" in captured.err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["homology", "--kind", "nonsense", "--parity", "even", "--genus", "2"])
    assert err.value.code == 2


def test_homology_command_genus3(capsys):
    code, rows = run_cli(capsys, "homology", "--kind", "com", "--parity", "even",
                         "--genus", "3")
    assert code == 0
    by_grade = {r["grade"]: r for r in rows if "grade" in r}
    assert by_grade[6]["dim_homology"] == 1
    assert by_grade[6]["degree"] == 6
    assert rows[-1]["total_dim_homology"] == 1


def test_homology_with_degree_parameter(capsys):
    code, rows = run_cli(capsys, "homology", "--kind", "com", "--parity", "even",
                         "--genus", "3", "--N", "2")
    assert code == 0
    by_grade = {r["grade"]: r for r in rows if "grade" in r}
    assert by_grade[6]["degree"] == 0


def test_moduli_command(capsys):
    code, rows = run_cli(capsys, "moduli", "--genus", "3")
    assert code == 0
    assert rows[0]["max_dimension"] == 5
    code, rows = run_cli(capsys, "moduli", "--genus", "3", "--spine")
    assert code == 0
    assert rows[0]["max_dimension"] == 3
    assert rows[0]["facets_closed"] is True


def test_moduli_export(tmp_path, capsys):
    path = tmp_path / "poset.json"
    code, rows = run_cli(capsys, "moduli", "--genus", "2", "--export", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert len(payload["nodes"]) == 6
    assert all(len(c) == 2 for c in payload["covers"])
    spath = tmp_path / "spine.json"
    code, rows = run_cli(capsys, "moduli", "--genus", "2", "--spine",
                         "--export", str(spath))
    assert code == 0
    payload = json.loads(spath.read_text())
    assert len(payload["cubes"]) == 5


def test_surface_command(tmp_path, capsys):
    doc = {
        "vertices": 2,
        "weights": [0, 0],
        "edges": [[0, 1], [0, 1], [0, 1]],
        "ribbon": [[0, 2, 4], [1, 5, 3]],
    }
    path = tmp_path / "planar_theta.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rows = run_cli(capsys, "surface", "--input", str(path))
    assert code == 0
    assert rows[0] == {"genus": 0, "boundaries": 3, "certificate": rows[0]["certificate"]}


def test_surface_of_a_point_is_a_disk(tmp_path, capsys):
    """A one-vertex graph without edges thickens to a disk: one boundary,
    surface genus 0."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"vertices": 1, "edges": [], "ribbon": [[]]}), encoding="utf-8")
    code, rows = run_cli(capsys, "surface", "--input", str(path))
    assert code == 0
    assert rows == [{"boundaries": 1, "certificate": "v1;w0;e;r()", "genus": 0}]


def test_surface_of_the_empty_graph_is_refused(tmp_path, capsys):
    """A graph without vertices is not connected: exit 2, nothing on stdout."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": 0, "edges": [], "ribbon": []}), encoding="utf-8")
    assert main(["surface", "--input", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_surface_of_a_huge_vertex_count_is_refused(tmp_path, capsys):
    """A billion vertices and no edges is refused as a document error
    (exit 2), before a list of that size is allocated."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": 10**9, "edges": []}), encoding="utf-8")
    assert main(["surface", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "vertices" in captured.err


def test_surface_requires_ribbon(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"vertices": 1, "weights": [0], "edges": [[0, 0]]}),
                    encoding="utf-8")
    code = main(["surface", "--input", str(path)])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["surface", "--input", "{dir}"],
    ["complex", "--kind", "com", "--parity", "even", "--genus", "2", "--export", "{file}"],
    ["moduli", "--genus", "2", "--export", "{dir}"],
])
def test_unusable_path_exit_code(tmp_path, capsys, argv):
    """A directory where a file is read or written, or a file where a
    directory is written, is an input error (exit 2), not a crash.  The
    export target is tried before any work, so nothing reaches stdout."""
    existing = tmp_path / "existing.txt"
    existing.write_text("", encoding="utf-8")
    argv = [a.format(dir=tmp_path, file=existing) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert str(tmp_path) in captured.err
    assert captured.out == ""


def test_infeasible_export_writes_nothing(tmp_path, capsys):
    """An unbounded request is refused (exit 3) before its export target is
    opened: no directory and no file is made, and nothing reaches stdout."""
    target = tmp_path / "out"
    argv = ["complex", "--kind", "com_geq2", "--parity", "even", "--genus", "1",
            "--export", str(target)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "infeasible request" in captured.err
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spine", [False, True], ids=["poset", "spine"])
def test_low_genus_moduli_export_writes_nothing(tmp_path, capsys, spine):
    """Genus 1 has no moduli space to build, with or without ``--spine``;
    it is refused (exit 2) before the export target is opened, so no file
    is made and nothing reaches stdout."""
    target = tmp_path / "moduli.json"
    argv = ["moduli", "--genus", "1", "--export", str(target)] + (["--spine"] if spine else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs genus >= 2" in captured.err
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_complex_export(tmp_path, capsys):
    code, rows = run_cli(capsys, "complex", "--kind", "gf", "--parity", "even",
                         "--genus", "2", "--export", str(tmp_path / "out"))
    assert code == 0
    assert rows[-2]["d_squared_zero"] is True
    gen_path = tmp_path / "out" / "generators.jsonl"
    assert gen_path.exists()
    lines = [json.loads(l) for l in gen_path.read_text().strip().splitlines()]
    assert len(lines) == 5
    sms = (tmp_path / "out" / "boundary_1.sms").read_text()
    assert sms.splitlines()[0] == "3 2 M"
    assert sms.strip().endswith("0 0 0")


def test_verify_core_suite(capsys):
    code, rows = run_cli(capsys, "verify", "--suite", "core")
    assert code == 0
    summary = rows[-1]
    assert summary["failed"] == 0
    assert all(r["passed"] for r in rows[:-1])


def test_verify_output_is_byte_identical_across_runs():
    """No wall-clock field: two fresh runs of the core suite print the same bytes."""
    outs = {
        subprocess.run([sys.executable, "-m", "gch.cli", "verify", "--suite", "core"],
                       capture_output=True, check=True).stdout
        for _ in range(2)
    }
    assert len(outs) == 1


@pytest.mark.parametrize("argv", [
    ["complex", "--kind", "gp", "--parity", "even", "--genus", "11"],
    ["moduli", "--genus", "11", "--spine"],
])
def test_cube_request_past_the_slot_table_exits_3_at_once(tmp_path, capsys, argv):
    """``gp`` and the spine at genus 11 have 30-edge classes, past the
    subset-orbit slot table, so they are refused before any enumeration:
    exit 3 within a second, nothing on stdout and no export."""
    target = tmp_path / "out"
    start = time.perf_counter()
    code = main(argv + ["--export", str(target)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and elapsed < 1, elapsed
    assert captured.out == "" and "at most 28" in captured.err
    assert not target.exists()


def test_a_failing_check_fails_under_python_O():
    """``python -O`` strips assert statements, and ``gch verify`` must still
    report a failed check there: the vanishing table with its C1 rows
    flipped fails with and without -O."""
    script = ("from gch import verify\n"
              "rows = verify._vanishing_table_rows\n"
              "verify._vanishing_table_rows = lambda: [\n"
              "    (n, g, p, e != (n == 'C1')) for n, g, p, e in rows()]\n"
              "result = verify._run('vanishing_table', verify.check_vanishing_table)\n"
              "print(result.passed, result.detail)\n")
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", script],
                             capture_output=True, text=True, check=True).stdout
        assert out == ("False C1/even: expected vanish=True, got False; "
                       "C1/odd: expected vanish=False, got True\n"), flags


def test_output_determinism(capsys):
    code1, rows1 = run_cli(capsys, "enumerate", "--genus", "3", "--tadpoles")
    code2, rows2 = run_cli(capsys, "enumerate", "--genus", "3", "--tadpoles")
    assert code1 == code2 == 0
    assert rows1 == rows2


def test_determinism_across_hash_seeds():
    """Byte-identical output under different interpreter hash seeds."""
    cmds = [
        ["enumerate", "--genus", "2", "--weighted", "--tadpoles"],
        ["homology", "--kind", "gf", "--parity", "even", "--genus", "2"],
        ["moduli", "--genus", "2", "--spine"],
    ]
    for cmd in cmds:
        outs = set()
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            result = subprocess.run(
                [sys.executable, "-m", "gch.cli", *cmd],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0, result.stderr
            outs.add(result.stdout)
        assert len(outs) == 1, cmd


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "gch.cli", "moduli", "--genus", "2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout.strip())["max_dimension"] == 2

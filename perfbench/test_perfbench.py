"""Tests of the benchmark itself: its checks, its accounting and its contract.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from worker import layer_metrics, run_round  # noqa: E402
from gch import SparseMatrix, matrix_to_text  # noqa: E402


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_sparse_product_of_consecutive_boundaries_vanishes():
    # the filled triangle: d1 maps edges to vertices, d2 the face to edges
    d1 = {(0, 0): -1, (1, 0): 1, (1, 1): -1, (2, 1): 1, (0, 2): -1, (2, 2): 1}
    d2 = {(0, 0): 1, (1, 0): 1, (2, 0): -1}
    assert checks.sparse_product(d1, d2) == {}
    assert checks.sparse_product(d1, {(0, 0): 1}) == {(0, 0): -1, (1, 0): 1}


def test_rank_mod_p_is_a_lower_bound():
    assert checks.rank_mod_p({(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4}) == 1
    assert checks.rank_mod_p({(0, 0): Fraction(1, 3), (1, 1): 5}) == 2
    # over F_2 the matrix [[1, 1], [1, -1]] drops rank, over Q it does not
    assert checks.rank_mod_p({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}, p=2) == 1


def test_surface_type_of_the_two_theta_ribbons():
    edges = [(0, 1)] * 3
    assert checks.surface_type(edges, [(0, 2, 4), (1, 5, 3)]) == (0, 3)
    assert checks.surface_type(edges, [(0, 2, 4), (1, 3, 5)]) == (1, 1)


def test_cycle_graph_recognition():
    assert checks.is_cycle_graph(1, [(0, 0)], 1)
    assert checks.is_cycle_graph(3, [(0, 1), (1, 2), (0, 2)], 3)
    assert not checks.is_cycle_graph(4, [(0, 1), (0, 1), (2, 3), (2, 3)], 4)
    assert not checks.is_cycle_graph(2, [(0, 1), (0, 1), (0, 1)], 2)


def test_ranks_from_dims():
    assert checks.ranks_from_dims({0: 1, 1: 2, 2: 1}, {}) == {0: 0, 1: 1, 2: 1}
    assert checks.ranks_from_dims({0: 1, 1: 2, 2: 1}, {1: 1}) is None
    assert checks.ranks_from_dims({}, {}) == {}


def test_triples_parser_reads_gch_export():
    m = SparseMatrix(2, 3, {(0, 2): Fraction(-1), (1, 0): Fraction(1, 2)})
    assert checks.parse_triples(matrix_to_text(m)) == (2, 3, m.entries)


def test_tracer_sums_layers_and_jobs():
    tracer = Tracer()
    with tracer.span("op", "gp-even"):
        with tracer.span("linalg", "gp-even"):
            pass
    tracer.count("linalg.nnz", 7)
    layers = layer_metrics(tracer)
    assert layers["linalg.nnz"] == 7
    assert layers["linalg.s"] == layers["linalg.gp-even.s"] > 0
    assert tracer.spans[1]["parent"] == 0


def _record(problems, summary):
    op = {"name": "gp-even", "problems": problems, "summary": summary}
    return {"rounds": [{"wall": 1.0, "cpu": 1.0, "ops": [op]}], "peak_rss_mb": 50.0}


def test_summary_counts_failed_operations_and_disagreement():
    args = type("Args", (), {"trace": 0})()
    ok, bad = _record([], {"3": 1}), _record(["wrong"], None)
    result = run.summarize(args, {"records": [ok, bad], "setups": [1.0], "traced": None})
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, True)
    other = _record([], {"3": 2})
    result = run.summarize(args, {"records": [ok, other], "setups": [1.0], "traced": None})
    assert (result["failed"], result["correct"]) == (0, False)


@pytest.fixture(scope="module")
def rank_workload(tmp_path_factory):
    workload = workloads.RankG4(7, NullTracer(), str(tmp_path_factory.mktemp("work")))
    workload.setup()
    return workload


def test_rank_round_passes_with_the_theorem_values(rank_workload):
    result = run_round(rank_workload, NullTracer())
    assert [op["problems"] for op in result["ops"]] == [[], [], []]
    assert rank_workload.final_check() == {}


def test_wrong_expected_homology_fails_its_operation(rank_workload, monkeypatch):
    monkeypatch.setitem(workloads.RankG4.EXPECTED, ("gf", "even"), {0: 1})
    result = run_round(rank_workload, NullTracer())
    failed = [op["name"] for op in result["ops"] if op["problems"]]
    assert failed == ["gf-even"]


def test_wrong_literature_value_fails_the_commutative_check(tmp_path, monkeypatch):
    workload = workloads.EnumerateCold(1, NullTracer(), str(tmp_path))
    name, fn = workload.complex_op("com", "odd")
    outputs = {name: fn()}
    assert workload.check(name, outputs) == []
    monkeypatch.setitem(checks.COM_G4_DIMS, "odd", {})
    assert workload.check(name, outputs)


def test_run_refuses_a_directory_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank-g4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The benchmark's workloads: the calls each round makes into gch, and the
checks on what they return.

A workload has a set-up, an untimed ``prepare_round`` and a list of
operations that make up one timed round.  Each operation returns its
output; ``check`` then lists what is wrong with it, using only the values
and algorithms of ``checks``.  Layers are timed from outside, by spans
around calls into gch's public functions.
"""

from __future__ import annotations

import json
import os
import random
import shutil

from gch import (
    ChainComplex,
    ComplexSpec,
    EnumSpec,
    SparseMatrix,
    build_cell_poset,
    build_complex,
    build_spine,
    enumerate_graphs,
    graph_to_document,
    homology,
    matrix_to_text,
)

import checks
from checks import GENUS

# The graph family each complex kind is spanned by, as the gch README
# defines the kinds.  A traced round enumerates the family before building
# the complex, so that the build is timed apart from enumeration.  That
# split holds while gch shares enumeration results across calls; when it
# stops holding, the traced round enumerates twice and trace.overhead_s
# grows.
FAMILIES = {
    "com": dict(min_valence=3, allow_tadpoles=False),
    "com_geq2": dict(min_valence=2, allow_tadpoles=False),
    "com_tad_geq2": dict(min_valence=2, allow_tadpoles=True),
    "cellular_MG": dict(weighted=True, allow_tadpoles=True, min_edges=1),
    "cellular_MG_relative": dict(min_valence=3, allow_tadpoles=True),
    "gf": dict(min_valence=3, allow_tadpoles=True),
    "gp": dict(min_valence=3, allow_tadpoles=True),
    "ass": dict(min_valence=3, allow_tadpoles=False),
}


def family(kind: str, genus: int, max_edges: int | None = None) -> EnumSpec:
    return EnumSpec(genus=genus, max_edges=max_edges, **FAMILIES[kind])


def boundary_nnz(complex_: ChainComplex) -> int:
    return sum(m.nnz for m in complex_.boundaries.values())


def dims_of(report) -> dict[int, int]:
    return checks.nonzero(report.dims)


class Workload:
    """One workload; a fresh instance serves one child process."""

    def __init__(self, seed: int, tracer, workdir: str):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.enumerated: set[EnumSpec] = set()

    def setup(self) -> None:
        pass

    def prepare_round(self) -> None:
        pass

    def ops(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def check(self, name: str, outputs: dict) -> list[str]:
        raise NotImplementedError

    def summary(self, name: str, output) -> object:
        """What must come out the same in every round."""
        return dims_of(output[1])

    def final_check(self) -> dict[str, list[str]]:
        """Problems found once per child, charged to every round's operation."""
        return {}

    def cleanup(self) -> None:
        pass

    # -- calls into gch, each under its layer's span ----------------------

    def generate(self, spec: EnumSpec, job: str) -> None:
        if not self.tracer.enabled or spec in self.enumerated:
            return
        self.enumerated.add(spec)
        with self.tracer.span("generate", job):
            forms = enumerate_graphs(spec)
        self.tracer.count("generate.classes", len(forms))

    def build(self, kind: str, parity: str, genus: int = GENUS,
              max_edges: int | None = None) -> ChainComplex:
        job = f"{kind}-{parity}"
        self.generate(family(kind, genus, max_edges), job)
        with self.tracer.span("complexes", job):
            complex_ = build_complex(ComplexSpec(kind, parity, genus, max_edges=max_edges))
        self.tracer.count("complexes.generators", complex_.total_generators())
        self.tracer.count("complexes.nnz", boundary_nnz(complex_))
        return complex_

    def homology(self, complex_: ChainComplex):
        with self.tracer.span("linalg", f"{complex_.spec.kind}-{complex_.spec.parity}"):
            report = homology(complex_)
        self.tracer.count("linalg.nnz", boundary_nnz(complex_))
        return report

    def complex_op(self, kind: str, parity: str, **kw):
        def run():
            complex_ = self.build(kind, parity, **kw)
            return complex_, self.homology(complex_)
        return f"{kind}-{parity}", run


class EnumerateCold(Workload):
    """Cold genus-4 enumeration: cellular, relative and commutative homology,
    the cell poset and spine, then the one-loop bivalent window."""

    def ops(self):
        out = [self.complex_op(kind, parity)
               for kind in ("cellular_MG", "cellular_MG_relative", "com")
               for parity in ("even", "odd")]
        out.append(("cell-poset", self.cell_poset))
        out.append(("spine", self.spine))
        out += [self.complex_op(kind, parity, genus=1, max_edges=9)
                for kind, parity in checks.ONE_LOOP_DIMS]
        return out

    def cell_poset(self):
        self.generate(family("cellular_MG", GENUS), "cell-poset")
        with self.tracer.span("moduli", "cell-poset"):
            poset = build_cell_poset(GENUS)
        self.tracer.count("moduli.cells", len(poset.nodes))
        return poset

    def spine(self):
        self.generate(family("cellular_MG_relative", GENUS), "spine")
        with self.tracer.span("moduli", "spine"):
            spine = build_spine(GENUS)
        self.tracer.count("moduli.cubes", len(spine.entries))
        return spine

    def summary(self, name, output):
        if name == "cell-poset":
            return len(output.nodes)
        if name == "spine":
            return len(output.entries)
        return dims_of(output[1])

    def check(self, name, outputs):
        if name == "cell-poset":
            return self._check_poset(outputs[name])
        if name == "spine":
            return self._check_spine(outputs[name])
        kind, parity = name.rsplit("-", 1)
        complex_, report = outputs[name]
        dims = dims_of(report)
        if kind == "cellular_MG" and parity == "even":
            # the positive-weight locus is contractible, so the reduced
            # homology of the whole space is the relative homology
            reduced = dict(dims)
            reduced[1] = reduced.get(1, 0) - 1
            return checks.compare("reduced even cellular_MG vs relative",
                                  checks.nonzero(reduced),
                                  dims_of(outputs["cellular_MG_relative-even"][1]))
        if kind == "cellular_MG":
            # in odd parity the complex splits by total weight, and the
            # weight-zero summand is the relative complex
            relative = dims_of(outputs["cellular_MG_relative-odd"][1])
            missing = {k: v for k, v in relative.items() if dims.get(k, 0) < v}
            return [f"odd cellular_MG {dims} lacks relative classes {missing}"] if missing else []
        if kind == "cellular_MG_relative":
            return checks.compare(f"relative {parity} vs com", dims,
                                  dims_of(outputs[f"com-{parity}"][1]))
        if kind == "com":
            return checks.compare(f"com {parity} genus 4", dims, checks.COM_G4_DIMS[parity])
        problems = checks.compare(f"{kind} {parity} one-loop", dims,
                                  checks.ONE_LOOP_DIMS[(kind, parity)])
        for k in dims:
            for gen in complex_.grades.get(k, []):
                if not checks.is_cycle_graph(gen.graph.vertex_count, gen.graph.edges, k):
                    problems.append(f"{kind} {parity}: class at {k} edges is not the {k}-cycle")
        return problems

    def _check_poset(self, poset):
        edge_counts = [len(node.graph.edges) for node in poset.nodes]
        trivalent = [node.graph.edges for node in poset.nodes if len(node.graph.edges) == 3 * GENUS - 3]
        loopless = [edges for edges in trivalent if all(u != v for u, v in edges)]
        return (checks.compare("stable genus-4 classes", len(poset.nodes), checks.STABLE_G4_WITH_EDGES)
                + checks.compare("trivalent classes", len(trivalent), checks.TRIVALENT_G4)
                + checks.compare("loopless trivalent classes", len(loopless),
                                 checks.TRIVALENT_G4_NO_TADPOLES)
                + checks.compare("cell poset dimension", max(edge_counts) - 1,
                                 checks.CELL_POSET_DIMENSION))

    def _check_spine(self, spine):
        keys = {entry.key for entry in spine.entries}
        open_facets = [f for entry in spine.entries
                       for f in entry.collapse_facets + entry.deletion_facets if f not in keys]
        problems = checks.compare("spine dimension", max(len(e.subset) for e in spine.entries),
                                  checks.SPINE_DIMENSION)
        if open_facets:
            problems.append(f"{len(open_facets)} spine facets are not cubes of the spine")
        return problems


class CubesRibbons(Workload):
    """Cold genus-4 cube-pair and ribbon complexes, exported and reduced."""

    def ops(self):
        return [(f"{kind}-{parity}", self._job(kind, parity))
                for kind in ("gf", "gp", "ass") for parity in ("even", "odd")]

    def _job(self, kind, parity):
        def run():
            complex_ = self.build(kind, parity)
            directory = self.export(complex_)
            return complex_, self.homology(complex_), directory
        return run

    def export(self, complex_: ChainComplex) -> str:
        """Write generators and boundaries as ``gch complex --export`` does."""
        job = f"{complex_.spec.kind}-{complex_.spec.parity}"
        directory = os.path.join(self.workdir, job)
        os.makedirs(directory, exist_ok=True)
        written = 0
        with self.tracer.span("io", job):
            with open(os.path.join(directory, "generators.jsonl"), "w", encoding="utf-8") as fh:
                for k in sorted(complex_.grades):
                    for idx, gen in enumerate(complex_.grades[k]):
                        doc = graph_to_document(gen.graph, gen.ribbon)
                        doc.update({"grade": k, "index": idx, "key": gen.key})
                        if gen.subset is not None:
                            doc["subset"] = list(gen.subset)
                        if gen.surface is not None:
                            doc["surface"] = list(gen.surface)
                        written += fh.write(json.dumps(doc, sort_keys=True) + "\n")
            for k in range(1, complex_.max_grade + 1):
                path = os.path.join(directory, f"boundary_{k}.sms")
                with open(path, "w", encoding="utf-8") as fh:
                    written += fh.write(matrix_to_text(complex_.boundary(k)))
        self.tracer.count("io.bytes", written)
        return directory

    def check(self, name, outputs):
        kind, parity = name.rsplit("-", 1)
        complex_, report, directory = outputs[name]
        problems = self._check_chain(complex_) + self._check_export(complex_, directory)
        dims = dims_of(report)
        if kind == "gf" and parity == "even":
            problems += checks.compare("gf even genus 4", dims, checks.GF_EVEN_G4_DIMS)
        elif kind == "gp":
            problems += checks.compare(f"gp {parity} vs com one grade down", dims,
                                       checks.shift_down(checks.COM_G4_DIMS[parity]))
        elif kind == "ass":
            problems += self._check_surface_blocks(complex_)
        return problems

    def _check_chain(self, complex_):
        for k in range(1, complex_.max_grade):
            product = checks.sparse_product(complex_.boundary(k).entries,
                                            complex_.boundary(k + 1).entries)
            if product:
                return [f"d_{k} d_{k + 1} has {len(product)} nonzero entries"]
        return []

    def _check_export(self, complex_, directory):
        with open(os.path.join(directory, "generators.jsonl"), encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        problems = checks.compare("exported generators", lines, complex_.total_generators())
        for k in range(1, complex_.max_grade + 1):
            m = complex_.boundary(k)
            with open(os.path.join(directory, f"boundary_{k}.sms"), encoding="utf-8") as fh:
                rows, cols, entries = checks.parse_triples(fh.read())
            if (rows, cols, entries) != (m.rows, m.cols, m.entries):
                problems.append(f"exported boundary {k} differs from the matrix")
        return problems

    def _check_surface_blocks(self, complex_):
        surface = {k: [checks.surface_type(gen.graph.edges, gen.ribbon.cycles) for gen in gens]
                   for k, gens in complex_.grades.items()}
        crossing = sum(
            1
            for k in range(1, complex_.max_grade + 1)
            for (i, j) in complex_.boundary(k).entries
            if surface[k - 1][i] != surface[k][j]
        )
        return [f"{crossing} ribbon boundary entries join different surfaces"] if crossing else []

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class RankG4(Workload):
    """Warm ranks: set-up builds three genus-4 cube complexes, each round
    reduces freshly permuted copies of their boundaries."""

    # complex -> homology the theorems give it
    EXPECTED = {
        ("gp", "even"): checks.shift_down(checks.COM_G4_DIMS["even"]),
        ("gp", "odd"): checks.shift_down(checks.COM_G4_DIMS["odd"]),
        ("gf", "even"): checks.GF_EVEN_G4_DIMS,
    }

    def setup(self):
        self.rng = random.Random(self.seed)
        self.complexes = {f"{kind}-{parity}": self.build(kind, parity)
                          for kind, parity in self.EXPECTED}
        self.copies = {}

    def prepare_round(self):
        self.copies = {name: self._permuted(c) for name, c in self.complexes.items()}

    def _permuted(self, complex_: ChainComplex) -> ChainComplex:
        """A copy with the generators of every grade in a seeded random order."""
        perm = {}
        for k, gens in complex_.grades.items():
            order = list(range(len(gens)))
            self.rng.shuffle(order)
            perm[k] = order
        grades = {k: [None] * len(gens) for k, gens in complex_.grades.items()}
        for k, gens in complex_.grades.items():
            for old, new in enumerate(perm[k]):
                grades[k][new] = gens[old]
        boundaries = {
            k: SparseMatrix(m.rows, m.cols,
                            {(perm[k - 1][i], perm[k][j]): v for (i, j), v in m.entries.items()})
            for k, m in complex_.boundaries.items()
        }
        return ChainComplex(spec=complex_.spec, grades=grades, boundaries=boundaries)

    def ops(self):
        return [(name, self._job(name)) for name in self.complexes]

    def _job(self, name):
        return lambda: self.homology(self.copies[name])

    def summary(self, name, output):
        return checks.nonzero(output.ranks)

    def check(self, name, outputs):
        kind, parity = name.rsplit("-", 1)
        report = outputs[name]
        expected = self.EXPECTED[(kind, parity)]
        ranks = checks.ranks_from_dims(report.counts, expected)
        if ranks is None:
            return [f"{name}: no ranks fit counts {report.counts} and homology {expected}"]
        return (checks.compare(f"{name} homology", dims_of(report), expected)
                + checks.compare(f"{name} ranks", checks.nonzero(report.ranks),
                                 checks.nonzero(ranks)))

    def final_check(self):
        problems = {}
        for name, complex_ in self.complexes.items():
            kind, parity = name.rsplit("-", 1)
            counts = {k: len(gens) for k, gens in complex_.grades.items()}
            ranks = checks.ranks_from_dims(counts, self.EXPECTED[(kind, parity)]) or {}
            low = [k for k, m in complex_.boundaries.items()
                   if checks.rank_mod_p(m.entries) > ranks.get(k, 0)]
            if low:
                problems[name] = [f"{name}: rank mod p exceeds the rank over Q at grades {low}"]
        return problems


WORKLOADS = {
    "enumerate-cold": EnumerateCold,
    "cubes-ribbons-g4": CubesRibbons,
    "rank-g4": RankG4,
}

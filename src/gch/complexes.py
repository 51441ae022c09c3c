"""Chain complexes of graphs: generators, boundary matrices, homology.

Supported kinds:

* ``com`` and its variants ``com_geq2`` / ``com_tad`` / ``com_tad_geq2``:
  weight-zero graphs graded by edge count, boundary by edge collapse with a
  tadpole collapse contributing zero;
* ``cellular_MG`` / ``cellular_MG_relative``: stable weighted graphs of a
  fixed genus (cells of the moduli space of metric graphs), same collapse
  boundary, with a tadpole collapse landing in the weight-incremented
  graph; the relative variant excises positive-weight generators;
* ``gf`` / ``gp``: cube pairs (graph, forest) resp. (graph, proper edge
  subset) graded by subset size, with boundary D = d - delta (collapse a
  subset edge minus delete it);
* ``ass``: ribbon graphs with the contraction splicing cyclic orders,
  graded by edge count.

Parity selects the orientation rule: ``even`` orients a generator by its
edge order (subset order for pairs) only; ``odd`` additionally tensors the
orientation of the rational cycle space of the graph.

Every kind is built from the same three rules, vanishing, faces and
subset orbits, all on the one object per isomorphism class of
:mod:`gch.context`.  A generator is a class with an edge-subset mask: the
full mask for the simplicial and ribbon kinds, a forest or proper subset
for the cube kinds (:class:`Generator`, which reads its graph, ribbon and
surface off the class).  This module keeps the specs, the walk over the
generators, the assembly of the boundary matrices and the reports.

For odd parity the cellular kinds drop tadpole-collapse terms: a sign rule
for transporting a cycle-space orientation across a genus-dropping face
cannot satisfy d^2 = 0 (the two collapse orders of two tadpoles pick up
reinforcing instead of cancelling signs), so the transport is zero and the
complex splits by total weight.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import GraphContext, canonical_entry
from .generate import EnumSpec, enumerate_graphs, refuse_wide_subsets
from .graph import HalfEdgeGraph
from .linalg import SparseMatrix, boundary_ranks, multiply

KINDS = (
    "com",
    "com_geq2",
    "com_tad",
    "com_tad_geq2",
    "cellular_MG",
    "cellular_MG_relative",
    "gf",
    "gp",
    "ass",
)

# the graph family of each kind; cellular_MG_relative and the cube kinds
# share com_tad's
_COM_TAD = dict(min_valence=3, allow_tadpoles=True, weighted=False)
_FAMILIES = {
    "com": dict(min_valence=3, allow_tadpoles=False, weighted=False),
    "com_geq2": dict(min_valence=2, allow_tadpoles=False, weighted=False),
    "com_tad": _COM_TAD,
    "com_tad_geq2": dict(min_valence=2, allow_tadpoles=True, weighted=False),
    "cellular_MG": dict(weighted=True, allow_tadpoles=True, min_edges=1),
    "cellular_MG_relative": _COM_TAD,
    "gf": _COM_TAD,
    "gp": _COM_TAD,
    "ass": dict(min_valence=3, allow_tadpoles=False, weighted=False, ribbon=True),
}

@dataclass(frozen=True)
class ComplexSpec:
    kind: str
    parity: str
    genus: int
    max_edges: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown complex kind {self.kind!r}")
        if self.parity not in ("even", "odd"):
            raise ValueError(f"unknown parity {self.parity!r}")
        if self.genus < 1:
            raise ValueError("complexes are graded by genus >= 1")
        if self.kind.startswith("cellular") and self.genus < 2:
            raise ValueError("moduli cells need genus >= 2")
        if self.max_edges is not None and self.max_edges < 0:
            raise ValueError("max_edges must be non-negative")
        _family_spec(self)  # an unbounded family raises InfeasibleEnumeration here
        if self.kind in ("gf", "gp"):
            refuse_wide_subsets(self.genus, self.max_edges)


@dataclass(frozen=True, slots=True)
class Generator:
    """The class ``ctx`` with the edge subset ``mask`` (its tuple ``subset``
    for a cube kind, else None), graded by bit count and sorted by ``key``."""
    key: str
    ctx: GraphContext
    mask: int
    subset: tuple[int, ...] | None

    graph = property(lambda gen: gen.ctx.graph)
    ribbon = property(lambda gen: gen.ctx.ribbon)
    surface = property(lambda gen: gen.ctx.surface)


@dataclass
class ChainComplex:
    spec: ComplexSpec
    grades: dict[int, list[Generator]]
    boundaries: dict[int, SparseMatrix]  # k -> matrix from grade k to grade k-1

    @property
    def max_grade(self) -> int:
        return max(self.grades, default=-1)

    def generator_counts(self) -> list[int]:
        top = self.max_grade
        return [len(self.grades.get(k, [])) for k in range(top + 1)]

    def total_generators(self) -> int:
        return sum(len(v) for v in self.grades.values())

    def boundary(self, k: int) -> SparseMatrix:
        m = self.boundaries.get(k)
        if m is None:
            rows = len(self.grades.get(k - 1, []))
            cols = len(self.grades.get(k, []))
            m = SparseMatrix.zero(rows, cols)
        return m

    def d_squared_is_zero(self) -> bool:
        for k in range(1, self.max_grade + 1):
            a, b = self.boundary(k), self.boundary(k + 1)
            if a.cols and b.rows and not multiply(a, b).is_zero():
                return False
        return True


@dataclass
class HomologyReport:
    spec: ComplexSpec
    counts: dict[int, int]
    ranks: dict[int, int]  # rank of the boundary leaving grade k
    dims: dict[int, int]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in self.counts.items())


# ---------------------------------------------------------------------------
# generator discovery


def _family_spec(spec: ComplexSpec) -> EnumSpec:
    return EnumSpec(genus=spec.genus, max_edges=spec.max_edges, **_FAMILIES[spec.kind])


def pair_key(cert: str, subset) -> str:
    return f"{cert}|{','.join(map(str, subset))}"


def _generators(spec: ComplexSpec):
    """Every surviving :class:`Generator`, class by class: the full mask of
    each class, or for ``gf``/``gp`` its forest or proper-subset orbit
    representatives that survive (``GraphContext.surviving``).  For odd
    parity a class where ``kernel_odd`` holds is skipped before its
    subsets are walked: every odd generator of it vanishes.  A cube's
    subset tuple is built only when it survives."""
    odd, cubes = spec.parity == "odd", spec.kind in ("gf", "gp")
    for ctx in enumerate_graphs(_family_spec(spec)):
        if odd and ctx.kernel_odd:
            continue
        if cubes:
            for mask in ctx.surviving(spec.kind == "gf", odd):
                subset = ctx.subset_of(mask)
                yield Generator(pair_key(ctx.certificate, subset), ctx, mask, subset)
        elif not ctx.witness(spec.parity):
            yield Generator(ctx.certificate, ctx, ctx.full_mask, None)


def build_complex(spec: ComplexSpec) -> ChainComplex:
    """Assemble generators and exact boundary matrices for a complex spec.

    Generators are graded by the bit count of their masks, each grade is
    sorted by key, and one (certificate, mask) index gives a generator's
    position in its grade.  A grade's matrix is written one column at a
    time, in index order: a small accumulator per column sums the faces
    landing on one row, and :meth:`~gch.linalg.SparseMatrix.from_columns`
    drops the cancelled entries and packs the columns into the matrix's
    coordinate arrays."""
    family = _family_spec(spec)
    odd = spec.parity == "odd"
    grades: dict[int, list[Generator]] = {}
    for gen in _generators(spec):
        grades.setdefault(gen.mask.bit_count(), []).append(gen)
    index: dict[tuple[str, int], int] = {}
    for gens in grades.values():
        gens.sort(key=lambda gen: gen.key)
        for pos, gen in enumerate(gens):
            index[gen.ctx.certificate, gen.mask] = pos

    def columns(gens):
        for gen in gens:
            # a simplicial generator's subset is all of its edges
            subset = range(gen.graph.edge_count) if gen.subset is None else gen.subset
            column: dict[int, int] = {}
            for _, _, row, sign in gen.ctx.faces(gen.mask, subset, family, odd, index):
                column[row] = column.get(row, 0) + sign
            yield column

    boundaries = {k: SparseMatrix.from_columns(len(grades.get(k - 1, ())), len(grades.get(k, ())),
                                               columns(grades.get(k, ())))
                  for k in range(1, max(grades, default=-1) + 1)}
    return ChainComplex(spec=spec, grades=grades, boundaries=boundaries)


# ---------------------------------------------------------------------------
# homology and reports


def homology(complex_: ChainComplex) -> HomologyReport:
    """Rational homology dimensions per grade.

    The boundaries must square to zero (``ChainComplex.d_squared_is_zero``),
    which is not checked here: the ranks come from
    :func:`~gch.linalg.boundary_ranks`, which clears rows across grades
    and is exact only on a chain complex.
    """
    top = complex_.max_grade
    counts = complex_.generator_counts()
    ranks, dims = boundary_ranks(
        [None] + [complex_.boundary(k) for k in range(1, top + 1)], counts)
    return HomologyReport(spec=complex_.spec,
                          counts=dict(enumerate(counts)),
                          ranks=dict(enumerate(ranks[:top + 1])),
                          dims=dict(enumerate(dims)))


def degree_report(report: HomologyReport, n: int) -> dict[int, dict[str, int]]:
    """Relabel internal grades into degrees for a chosen grading parameter."""
    g = report.spec.genus
    out: dict[int, dict[str, int]] = {}
    for k in sorted(report.counts):
        entry = {"degree": k - n * g}
        if report.spec.kind.startswith("cellular"):
            entry["cell_dimension"] = k - 1
        if report.spec.kind in ("gf", "gp"):
            entry["classifying_space_degree"] = k + n * g
        if report.spec.kind == "gf":
            entry["dual_tree_degree"] = (3 - 2 * n) * g - 3 - k
        out[k] = entry
    return out


def generator_vanishes(g: HalfEdgeGraph, parity: str) -> tuple[bool, str]:
    """Whether the bare graph is zero for the parity, with the witness kind."""
    reason = canonical_entry(g)[0].witness(parity)
    return bool(reason), reason


def split_by_surface(complex_: ChainComplex) -> dict[tuple[int, int], ChainComplex]:
    """Split a ribbon complex into blocks by thickened-surface type.

    Raises if any boundary entry were to connect different surface keys;
    contraction preserves the thickening, so the matrices must be
    block-diagonal.
    """
    if complex_.spec.kind != "ass":
        raise ValueError("surface splitting applies to ribbon complexes only")
    blocks: dict[tuple[int, int], dict[int, list[Generator]]] = {}
    # grade -> (surface, position in the block) of each position in the grade
    place: dict[int, list[tuple[tuple[int, int], int]]] = {}
    for k, gens in complex_.grades.items():
        spots = place[k] = []
        for gen in gens:
            block = blocks.setdefault(gen.surface, {}).setdefault(k, [])
            spots.append((gen.surface, len(block)))
            block.append(gen)
    # surface -> grade -> one {row: value} per column of the block
    columns = {key: {k: [{} for _ in gens] for k, gens in grades.items()}
               for key, grades in blocks.items()}
    for k in range(1, complex_.max_grade + 1):
        for i, j, v in complex_.boundary(k).items():
            (key, bi), (col_key, bj) = place[k - 1][i], place[k][j]
            if key != col_key:
                raise AssertionError("boundary entry crosses surface blocks")
            columns[key][k][bj][bi] = v
    out: dict[tuple[int, int], ChainComplex] = {}
    for key in sorted(blocks):
        grades = blocks[key]
        out[key] = ChainComplex(spec=complex_.spec, grades=grades, boundaries={
            k: SparseMatrix.from_columns(len(grades.get(k - 1, [])), len(grades.get(k, [])),
                                         columns[key].get(k, []))
            for k in range(1, max(grades) + 1)})
    return out

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

Every kind is built from the same three rules, all on
:class:`GraphContext`, one context per canonical form (plain or ribbon).
A generator is a context with an edge-subset mask: the full mask for the
simplicial and ribbon kinds, a forest or proper subset for the cube kinds.

* **vanishing** (``GraphContext.witness``): a generator is zero when a
  symmetry stabilizing its subset reverses its orientation.  A cube's
  verdict, for both parities, comes from the walk of the edge-action
  closure that fills its orbit, each element with its parity on the subset
  and its sign on H_1; the bare graph's comes from the generators of Aut;
* **faces** (``GraphContext.faces``): one walk yields, in subset order,
  each subset edge's collapse and then its deletion.  A deletion is a face
  only when the mask is proper; a tadpole collapse only in a weighted
  family and even parity (the weight-increment face); in a family without
  tadpoles an edge with a parallel partner is not collapsed.  The face
  dropping the oriented edge at 0-based position p has sign (-1)^(p+1),
  times the parity of the surviving edges in the target order, times for
  odd parity the cycle transport, the reference cycle basis pushed through
  the collapse and the H_1 sign that the closure carries for the p_k
  aligning the target subset, and a deletion one more -1.  A full mask is
  its own representative, aligned by the identity, so the simplicial
  kinds never build a closure;
* **subset orbits** (``GraphContext.subset_orbits``): the cube kinds and
  the cubical catalogs of :mod:`gch.moduli` take the same orbit
  representatives of forests or proper subsets, walked once per context.
  A subset is a mask with edge e at bit E-1-e, so the representative, the
  lexicographically least subset of its orbit, is its largest mask.  The
  first lookup of a subset enters its whole orbit, each member with the
  least closure index k that carries it onto the representative; a face
  is found by clearing a bit (deletion) or mapping the mask through the
  collapse, and aligned by that p_k.

A context reads its form's automorphism group from the class record, where
the enumeration closure left it, and the same group gives the symmetries of
the vanishing rule and the subset orbits; the cube stabilizer orders of the
catalogs (``GraphContext.stabilizer_order``) are the group order over the
orbit sizes.  A collapse (``GraphContext.collapse``) is read from the
record the closure made of it, the target class and the half-edge map onto
its canonical graph; only an edge the closure never contracted is
contracted here.  A recorded map may differ from a direct contraction by
an automorphism of the target, which changes no coefficient of a
surviving face: such an automorphism keeps the orientation of every
generator that survives, and for a cube the p_k aligning its image
absorbs it as an element of the stabilizer.

For odd parity the cellular kinds drop tadpole-collapse terms: a sign rule
for transporting a cycle-space orientation across a genus-dropping face
cannot satisfy d^2 = 0 (the two collapse orders of two tadpoles pick up
reinforcing instead of cancelling signs), so the transport is zero and the
complex splits by total weight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .canonical import CanonicalForm, ClassRecord, canonical_form, class_record, edge_action_closure
from .generate import EnumSpec, enumerate_graphs, record_collapse
from .graph import HalfEdgeGraph
from .linalg import SparseMatrix, boundary_ranks, multiply
from .orientation import cycle_basis, cycle_transport_sign, reference_orientation, sequence_parity
from .ribbon import RibbonStructure, surface_invariants

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

# why a generator vanishes, by the kind of symmetry that reverses it
_WITNESS = {
    ("swap", "even"): "parallel-edge swap acts by an odd edge permutation",
    ("flip", "odd"): "tadpole reversal reverses the cycle orientation",
    ("lift", "even"): "vertex symmetry with odd edge permutation",
    ("lift", "odd"): "symmetry with odd combined edge and cycle sign",
    ("ribbon", "even"): "ribbon symmetry with odd edge permutation",
    ("ribbon", "odd"): "ribbon symmetry with odd combined edge and cycle sign",
}
# a cube's (even, odd) reasons, one shared tuple for each of the four verdicts
_CUBE_REASONS = tuple((even, odd) for even in ("", "stabilizer with odd subset permutation")
                      for odd in ("", "stabilizer with odd combined subset and cycle sign"))


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


@dataclass(frozen=True)
class Generator:
    key: str
    grade: int
    graph: HalfEdgeGraph
    subset: tuple[int, ...] | None = None
    ribbon: RibbonStructure | None = None
    surface: tuple[int, int] | None = None


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

    def dim_vector(self) -> list[int]:
        top = max(self.counts, default=-1)
        return [self.dims.get(k, 0) for k in range(top + 1)]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in self.counts.items())


# ---------------------------------------------------------------------------
# cached per-graph machinery


class GraphContext:
    """Symmetry and collapse data for one canonical form, computed once.

    The form decides everything that differs between graphs and ribbon
    graphs: a ribbon form takes its symmetries from the ribbon
    automorphisms and contracts by splicing cyclic orders; a plain form
    takes parallel-edge swaps, tadpole flips and lifts of vertex
    automorphisms, and contracts plainly.  Both come from one
    automorphism group per context.

    Edge subsets are also held as masks, edge e at bit E-1-e of an
    E-edge graph, so that among subsets of one size the lexicographically
    least sorted subset has the largest mask.
    """

    def __init__(self, form: CanonicalForm | ClassRecord):
        # the form's iso is not kept: it would pin the caller's labelled graph
        self.record = class_record(form.certificate)
        self.graph = form.graph
        self.cert = form.certificate
        self.ribbon = form.ribbon
        self._collapse: dict[int, tuple] = {}
        self._collapse_h1: dict[int, int] = {}
        self._aut_h1: dict[tuple, int] = {}
        # mask -> one int packing ``canonical_mask``'s triple for an E-edge
        # graph, (k << E | representative) << 1 | parity, filled an orbit at
        # a time by ``_fill_orbit``, which keeps each orbit's size and
        # reasons by its representative
        self._orbit: dict[int, int] = {}
        self.full_mask = (1 << form.graph.edge_count) - 1
        self._k_shift = form.graph.edge_count + 1
        self._orbit_size: dict[int, int] = {}
        self._reasons: dict[int, tuple[str, str]] = {}

    @cached_property
    def ref_orientation(self):
        return reference_orientation(self.graph)

    @cached_property
    def ref_rows(self):
        """The cycle basis of the reference orientation, which every H_1
        sign of the context pushes forward."""
        return cycle_basis(self.graph, self.ref_orientation)

    @property
    def group(self):
        """The form's automorphism group, kept on its class record:
        ribbon automorphisms for a ribbon form, otherwise Aut of the graph."""
        return self.record.group

    @cached_property
    def lifts(self):
        """The nontrivial symmetries: the ribbon automorphisms of a ribbon
        form, otherwise the canonical lifts of the vertex automorphisms,
        which are the generators of Aut that move a vertex."""
        g = self.graph
        if self.ribbon is not None:
            identity = tuple(range(g.half_edge_count))
            return [m for m in self.group.generators if m.half_edge_map != identity]
        identity = tuple(range(g.vertex_count))
        return [m for m in self.group.generators if m.vertex_map != identity]

    def aut_h1(self, m) -> int:
        """Sign of a generator of Aut on det H_1, cached by its half-edge map.
        A plain form's swaps and flips, its generators fixing every vertex,
        act by -1: the one edge chain each negates is a cycle."""
        h = self._aut_h1.get(m.half_edge_map)
        if h is None:
            h = -1
            if self.ribbon is not None or m.vertex_map != tuple(range(self.graph.vertex_count)):
                h = cycle_transport_sign(self.ref_rows, m.half_edge_map, self.ref_orientation)
            self._aut_h1[m.half_edge_map] = h
        return h

    # -- vanishing --------------------------------------------------------

    def witness(self, parity: str, subset: tuple[int, ...] | None = None) -> str:
        """Why the generator is zero for the parity, or "" when it survives.

        The generator is the graph with a sorted edge subset (all edges when
        ``subset`` is None), oriented by the subset order and, for odd
        parity, by the cycle space.  It is zero when a symmetry stabilizing
        the subset reverses that orientation: the parity of the symmetry on
        the subset, times for odd parity its sign on H_1, is -1.  A subset
        takes the verdict that ``_fill_orbit`` read off its orbit's
        representative; the bare graph takes ``_bare_reasons``.
        """
        reasons = (self._bare_reasons if subset is None
                   else self._reasons[self.canonical_mask(self.mask_of(subset))[0]])
        return reasons[parity == "odd"]

    @cached_property
    def _bare_reasons(self) -> tuple[str, str]:
        """(even, odd) reasons of the bare graph.  Its orientation sign is a
        character of Aut, so generators decide it: parallel-edge swaps (odd
        on the edges, -1 on H_1), the tadpole flip (-1 on H_1), then the
        lifts or ribbon automorphisms, each parity keeping the first."""
        plain = self.ribbon is None
        swaps = plain and any(n > 1 for n in self.graph.multiplicities.values())
        even = _WITNESS["swap", "even"] if swaps else ""
        odd = _WITNESS["flip", "odd"] if plain and self.graph.has_tadpole else ""
        kind = "lift" if plain else "ribbon"
        for m in self.lifts:
            sign = -1 if sequence_parity(m.edge_action) else 1
            if not even and sign == -1:
                even = _WITNESS[kind, "even"]
            if not odd and sign * self.aut_h1(m) == -1:
                odd = _WITNESS[kind, "odd"]
        return even, odd

    def stabilizer_order(self, subset) -> int:
        """Order of the automorphisms that map the edge subset onto itself:
        the group order over the size of the subset's orbit."""
        rep = self.canonical_mask(self.mask_of(subset))[0]
        return self.group.order // self._orbit_size[rep]

    # -- collapses --------------------------------------------------------

    def collapse(self, e: int):
        """(target context, edge action, half-edge map) of the collapse of
        edge e onto the target's canonical graph, the collapsed edge and its
        half-edges mapping to None.  The maps come from the collapse the
        enumeration closure recorded in the class; an edge it never
        contracted is contracted and recorded here."""
        hit = self._collapse.get(e)
        if hit is None:
            target, hmap = self.record.collapses.get(e) or record_collapse(self.record, e)
            action = tuple([None if h is None else h >> 1 for h in hmap[::2]])
            hit = self._collapse[e] = (get_context(target), action, hmap)
        return hit

    def collapse_h1(self, e: int) -> int:
        """Cycle-orientation transport sign across the collapse of edge e."""
        h = self._collapse_h1.get(e)
        if h is None:
            target, _, hmap = self.collapse(e)
            h = cycle_transport_sign(self.ref_rows, hmap, target.ref_orientation)
            self._collapse_h1[e] = h
        return h

    # -- subset masks, orbits and faces ------------------------------------

    @cached_property
    def bits(self):
        """The mask bit of each edge."""
        return tuple(1 << (self.graph.edge_count - 1 - e) for e in range(self.graph.edge_count))

    def mask_of(self, subset) -> int:
        return sum(map(self.bits.__getitem__, subset))

    def subset_of(self, mask: int) -> tuple[int, ...]:
        return tuple([e for e, bit in enumerate(self.bits) if mask & bit])

    @cached_property
    def closure(self):
        """All edge permutations p_k of Aut, sorted, each with its sign on
        det H_1.  The sign is that of every automorphism with edge action
        p_k unless ``_kernel_odd`` holds; then every odd cube of the graph
        vanishes, so no matrix row reads it."""
        return edge_action_closure(self.graph.edge_count,
                                   [(m.edge_action, self.aut_h1(m)) for m in self.group.generators])

    @cached_property
    def _kernel_odd(self) -> bool:
        """Whether a generator fixing every edge reverses H_1: a tadpole flip,
        or the vertex swap of an even banana.  On a plain form every
        automorphism fixing every edge is a product of flips or is that swap;
        a ribbon form's generators are all its automorphisms."""
        identity = tuple(range(self.graph.edge_count))
        return any(m.edge_action == identity and self.aut_h1(m) == -1
                   for m in self.group.generators)

    @cached_property
    def _inverse_bits(self):
        """For closure element k, the mask bit of p_k^-1(e) at index e."""
        out = []
        for p, _ in self.closure:
            bits = [0] * len(p)
            for f, image in enumerate(p):
                bits[image] = self.bits[f]
            out.append(bits)
        return out

    def canonical_mask(self, mask: int) -> tuple[int, int, int]:
        """(representative, k, parity) for an edge-subset mask T.

        The representative R is the largest mask in the orbit of T, its
        lexicographically least subset; k is the least closure index with
        p_k(T) = R; parity is that of p_k from T onto R, both in edge
        order (0 even, 1 odd).  A miss fills the whole orbit.
        """
        hit = self._orbit.get(mask)
        if hit is None:
            edges = self.subset_of(mask)
            rep = max(sum(bits[e] for e in edges) for bits in self._inverse_bits)
            self._fill_orbit(rep, self.subset_of(rep))
            hit = self._orbit[mask]
        return (hit >> 1) & self.full_mask, hit >> self._k_shift, hit & 1

    def _fill_orbit(self, rep: int, edges: tuple[int, ...]) -> None:
        """Enter every member of the orbit of a representative, given by
        its mask and its edges, and decide the orbit's vanishing.

        The k with p_k(T) = R are those with T = p_k^-1(R), so walking k
        upwards and keeping the first k that reaches each member gives the
        least one.  Its parity is that of p_k^-1 on R in edge order.  The
        k with p_k^-1(R) = R form the stabilizer of R: the cube vanishes
        for even parity when one of them has odd parity, and for odd
        parity when one has parity times H_1 sign -1 or ``_kernel_odd``
        holds.  Conjugate stabilizers have the same signs, so the verdict
        holds for the whole orbit.  The orbit's size is kept for
        ``stabilizer_order``."""
        table, closure, k_shift = self._orbit, self.closure, self._k_shift
        low = rep << 1
        before = len(table)
        even, odd = 0, int(self._kernel_odd)
        for k, bits in enumerate(self._inverse_bits):
            image = sum(map(bits.__getitem__, edges))
            known = image in table
            if known and (image != rep or even & odd):
                continue
            seen = inversions = 0
            for e in edges:
                bit = bits[e]
                inversions += (seen & (bit - 1)).bit_count()
                seen |= bit
            parity = inversions & 1
            if not known:
                table[image] = k << k_shift | low | parity
            else:  # p_k stabilizes R
                even |= parity
                odd |= parity ^ (closure[k][1] < 0)
        self._orbit_size[rep] = len(table) - before
        self._reasons[rep] = _CUBE_REASONS[2 * even + odd]

    def subset_orbits(self, forests_only: bool) -> list[tuple[int, ...]]:
        """Orbit representatives of the forests, or of the proper edge
        subsets, by size and then lexicographically."""
        return self._forest_orbits if forests_only else self._proper_orbits

    @cached_property
    def _forest_orbits(self):
        return self._walk_orbits(self._forests())

    @cached_property
    def _proper_orbits(self):
        e = self.graph.edge_count
        return self._walk_orbits((edges, self.mask_of(edges))
                                 for size in range(e)
                                 for edges in itertools.combinations(range(e), size))

    def _walk_orbits(self, walk):
        """The representatives among (edges, mask) walked by size and then
        lexicographically: the first of an orbit to be met is its
        representative."""
        reps = []
        for edges, mask in walk:
            hit = self._orbit.get(mask)
            if hit is None:
                self._fill_orbit(mask, edges)
            elif (hit >> 1) & self.full_mask != mask:
                continue
            reps.append(edges)
        return reps

    def _forests(self):
        """(edges, mask) of every forest, by size and then lexicographically:
        each forest is extended by later edges that join two of its
        components."""
        g = self.graph
        level = [((), 0, tuple(range(g.vertex_count)))]
        while level:
            grown = []
            for edges, mask, comp in level:
                yield edges, mask
                for e in range(edges[-1] + 1 if edges else 0, g.edge_count):
                    u, v = g.edges[e]
                    a, b = comp[u], comp[v]
                    if a != b:
                        grown.append((edges + (e,), mask | self.bits[e],
                                      tuple([b if c == a else c for c in comp])))
            level = grown

    def faces(self, mask: int, family: EnumSpec, odd: bool, keep=None):
        """The faces of the generator (graph, subset ``mask``) of the family,
        in subset order, each edge's collapse before its deletion: (collapse?,
        target context, representative mask, coefficient by the face-sign
        rule of the module docstring).  Given ``keep``, a container of
        (certificate, representative mask) pairs, a face outside it is
        skipped before its cycle transport is computed.

        A deletion is a face only when the mask is proper.  A tadpole
        collapse is a face only in a weighted family and even parity, where
        it increments a weight.  In a family without tadpoles an edge with
        a parallel partner is not collapsed: the face would have one.
        """
        graph, edges, multiplicities = self.graph, self.graph.edges, self.graph.multiplicities
        weight_face, tadpoles = family.weighted and not odd, family.allow_tadpoles
        subset = self.subset_of(mask)
        for pos, e in enumerate(subset):
            sign = 1 if pos & 1 else -1
            if ((weight_face or not graph.is_tadpole(e))
                    and (tadpoles or multiplicities[edges[e]] == 1)):
                target, action, _ = self.collapse(e)
                bits = target.bits
                image = inversions = 0
                for f in subset:
                    if f != e:
                        bit = bits[action[f]]
                        inversions += (image & (bit - 1)).bit_count()
                        image |= bit
                rep, align = target._align(image, odd)
                if keep is None or (target.cert, rep) in keep:
                    if odd:
                        align *= self.collapse_h1(e)
                    yield True, target, rep, (-sign if inversions & 1 else sign) * align
            if mask != self.full_mask:
                rep, align = self._align(mask ^ self.bits[e], odd)
                if keep is None or (self.cert, rep) in keep:
                    yield False, self, rep, -sign * align

    def _align(self, mask: int, odd: bool) -> tuple[int, int]:
        """(representative, sign of the p_k carrying the mask onto it): its
        parity in subset order, times for odd parity its H_1 sign.  A full
        mask is its own representative and k = 0, the identity, so a full
        mask needs no closure."""
        if mask == self.full_mask:
            return mask, 1
        rep, k, parity = self.canonical_mask(mask)
        sign = -1 if parity else 1
        return rep, sign * self.closure[k][1] if odd else sign


_CTX_REGISTRY: dict[str, GraphContext] = {}


def get_context(form: CanonicalForm | ClassRecord) -> GraphContext:
    """The one context of a canonical form's class."""
    ctx = _CTX_REGISTRY.get(form.certificate)
    if ctx is None:
        ctx = GraphContext(form)
        _CTX_REGISTRY[form.certificate] = ctx
    return ctx


def context_for_graph(g: HalfEdgeGraph) -> GraphContext:
    return get_context(canonical_form(g))


# ---------------------------------------------------------------------------
# generator discovery


def _family_spec(spec: ComplexSpec) -> EnumSpec:
    return EnumSpec(genus=spec.genus, max_edges=spec.max_edges, **_FAMILIES[spec.kind])


def pair_key(cert: str, subset) -> str:
    return f"{cert}|{','.join(map(str, subset))}"


def _generators(spec: ComplexSpec):
    """(context, mask, generator) of every surviving generator, graph by
    graph: the full mask of each graph, or for ``gf``/``gp`` its forest or
    proper-subset orbit representatives."""
    cubes = spec.kind in ("gf", "gp")
    for form in enumerate_graphs(_family_spec(spec)):
        ctx = get_context(form)
        g, ribbon = ctx.graph, ctx.ribbon
        for subset in ctx.subset_orbits(spec.kind == "gf") if cubes else (None,):
            if ctx.witness(spec.parity, subset):
                continue
            mask = ctx.full_mask if subset is None else ctx.mask_of(subset)
            yield ctx, mask, Generator(
                key=ctx.cert if subset is None else pair_key(ctx.cert, subset),
                grade=mask.bit_count(),
                graph=g,
                subset=subset,
                ribbon=ribbon,
                surface=None if ribbon is None else surface_invariants(g, ribbon),
            )


def build_complex(spec: ComplexSpec) -> ChainComplex:
    """Assemble generators and exact boundary matrices for a complex spec.

    Each grade is sorted by key, and one (certificate, mask) index gives a
    generator's position in its grade.  A grade's columns are walked in the
    order the generators were found, and each is dropped once its grade's
    matrix is made."""
    family = _family_spec(spec)
    odd = spec.parity == "odd"
    found: dict[int, list] = {}
    for ctx, mask, gen in _generators(spec):
        found.setdefault(gen.grade, []).append((gen, ctx, mask))
    grades: dict[int, list[Generator]] = {}
    index: dict[tuple[str, int], int] = {}
    for k, cells in found.items():
        ordered = sorted(cells, key=lambda cell: cell[0].key)
        grades[k] = [gen for gen, _, _ in ordered]
        for pos, (_, ctx, mask) in enumerate(ordered):
            index[ctx.cert, mask] = pos
    boundaries = {}
    for k in range(1, max(grades, default=-1) + 1):
        entries: dict[tuple[int, int], int] = {}
        for _, ctx, mask in found.pop(k, ()):
            col = index[ctx.cert, mask]
            for _, target, rep, sign in ctx.faces(mask, family, odd, index):
                row = index[target.cert, rep]
                entries[row, col] = entries.get((row, col), 0) + sign
        # the matrix drops the cancelled entries
        boundaries[k] = SparseMatrix(len(grades.get(k - 1, [])), len(grades.get(k, [])), entries)
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
    reason = context_for_graph(g).witness(parity)
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
    entries: dict[tuple[int, int], dict[int, dict]] = {key: {} for key in blocks}
    for k in range(1, complex_.max_grade + 1):
        for (i, j), v in complex_.boundary(k).entries.items():
            (key, bi), (col_key, bj) = place[k - 1][i], place[k][j]
            if key != col_key:
                raise AssertionError("boundary entry crosses surface blocks")
            entries[key].setdefault(k, {})[bi, bj] = v
    out: dict[tuple[int, int], ChainComplex] = {}
    for key in sorted(blocks):
        grades = blocks[key]
        out[key] = ChainComplex(spec=complex_.spec, grades=grades, boundaries={
            k: SparseMatrix(len(grades.get(k - 1, [])), len(grades.get(k, [])),
                            entries[key].get(k, {}))
            for k in range(1, max(grades) + 1)})
    return out

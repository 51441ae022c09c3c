"""One object per isomorphism class: the data every complex kind reads.

The complexes here are cellular chains of one space of graphs, so every
kind is built from the same per-class data: the canonical graph (and
ribbon), the automorphism group, the recorded collapses and the
orientation signs.  A :class:`GraphContext` holds all of it for one class.
The certificate cache (:func:`canonical_entry`, unchecked for the
engine's own moves) makes it when a certificate is first met and keeps
it in ``_CLASSES``, the one registry, so the enumeration closure, the faces
of the complexes, the cell poset and the vanishing rule all hand out the
same object.  The class is made with its automorphism group, built from
the symmetries that the labelling search which found it met, carried onto
its canonical labels, so no class is searched twice.  Its tables
(collapse H_1 signs, the subset-orbit table, a ribbon class's surface)
are made on first use, so enumeration alone keeps only the certificate,
the graph, the generators of Aut as half-edge maps with its order, and
the collapses, with the first collapse that reached the class.

Every kind is built from the same three rules, all on the class object.
A generator is a class with an edge-subset mask: the full mask for the
simplicial and ribbon kinds, a forest or proper subset for the cube kinds.

* **vanishing** (``GraphContext.witness``): a generator is zero when a
  symmetry stabilizing its subset reverses its orientation.  A cube's
  verdict, for both parities, comes from the walk that fills its orbit
  through the generators of Aut: each step that closes a cycle of the
  walk gives a Schreier generator of the stabilizer, with its parity on
  the subset and its sign on H_1; the full mask's, the bare graph's,
  comes from the generators of Aut.
  An automorphism's sign on H_1 needs no cycle basis: by the exact
  sequence 0 -> H_1 -> C_1 -> C_0 -> H_0 -> 0 it is its sign on the
  oriented edges times its sign on the vertices (``GraphContext.aut_h1``,
  by :func:`~gch.orientation.h1_map_sign`);
* **faces** (``GraphContext.faces``): one walk yields, in subset order,
  each subset edge's collapse and then its deletion.  A deletion is a face
  only when the mask is proper; a tadpole collapse only in a weighted
  family and even parity (the weight-increment face); in a family without
  tadpoles an edge with a parallel partner is not collapsed.  The face
  dropping the oriented edge at 0-based position p has sign (-1)^(p+1),
  times the parity of the surviving edges in the target order, times for
  odd parity the collapse's sign on det H_1, times the sign of the
  symmetry aligning the target subset with its representative (its
  parity, and for odd parity its H_1 sign), and a deletion one more -1.
  The collapse's sign (``GraphContext.collapse_h1``) comes from the same
  exact-sequence rule as an automorphism's, on the surviving edges and the
  merged vertices, times the sign of each side's reference orientation,
  its Kruskal cycle basis, against the sequence's
  (``GraphContext.kruskal_sign``).  A full mask is its own representative,
  aligned by the identity, so the simplicial kinds never walk an orbit;
* **subset orbits** (``GraphContext.subset_orbits``): the cube kinds and
  the spine of :mod:`gch.moduli` take the same orbit representatives of
  forests or proper subsets, kept as one ``array("i")`` of masks.  A
  subset is a mask with edge e at bit E-1-e, so the representative, the
  lexicographically least subset of its orbit, is its largest mask, and
  a caller builds a subset tuple only for a generator or cube it keeps
  (``GraphContext.subset_of``).  Each orbit is entered once, from its
  representative, into the class's table of one 4-byte slot per mask
  (``GraphContext._orbit``), by a breadth-first walk through the
  generators of Aut, each step read off half-width tables
  (``GraphContext._steps``); a member's slot keeps the parity and H_1
  sign of its walk path, which on a surviving orbit every symmetry
  carrying it onto the representative shares.  The builders walk every
  class before they read a face, found by clearing a bit (deletion) or
  mapping the mask through the collapse, so each face is aligned by a
  slot already written.  No other module reads the tables or the slots.

The same automorphism group gives the symmetries of the vanishing rule
and the subset orbits; the cube stabilizer orders of the catalogs
(``GraphContext.stabilizer_order``) are the group order over the orbit
sizes.  A collapse (``GraphContext.collapse``) is one entry per edge, the
target class and the half-edge map onto its canonical graph, which also
gives the edge action.  It is made for one edge per orbit of Aut, on
first use by the enumeration closure or a face, and the map of every
other edge of the orbit is derived through an automorphism of the
source.  The one edge is contracted and canonicalized only when no
square gives it.  Each class keeps the first collapse that reached it,
G/d with map a (``GraphContext.origin``); its edge e = a(f) collapses
onto the target T of G/f's recorded collapse of b(d), b the map of G/f,
with the map c b a^-1, c that of (G/f)/b(d), since both sides are the
contraction G/{d,f} of the same two edges.  Plain contractions merge
vertices and add weights in either order; ribbon splices agree only on
a forest, so a ribbon class takes the square only when d and f have at
least three distinct endpoints, not across a loop or a digon.  A derived
or composed map may differ from a direct contraction by an automorphism
of the target, which changes no coefficient of a surviving face: that
automorphism keeps the orientation of every generator that survives, and
for a cube the symmetry aligning its image absorbs it as an element of
the stabilizer.
"""

from __future__ import annotations

from array import array
from functools import cached_property

from .canonical import build_group, canonical_labelling, edge_action, ribbon_labelling
from .graph import _PAIRS, HalfEdgeGraph
from .orientation import h1_map_sign, kruskal_sign, sequence_parity
from .ribbon import RibbonStructure, splice, surface_invariants

# why a generator vanishes, by the kind of symmetry that reverses it
_WITNESS = {
    ("swap", "even"): "parallel-edge swap acts by an odd edge permutation",
    ("flip", "odd"): "tadpole reversal reverses the cycle orientation",
    ("lift", "even"): "vertex symmetry with odd edge permutation",
    ("lift", "odd"): "symmetry with odd combined edge and cycle sign",
    ("ribbon", "even"): "ribbon symmetry with odd edge permutation",
    ("ribbon", "odd"): "ribbon symmetry with odd combined edge and cycle sign",
}
# why a cube vanishes, for even and for odd parity
_CUBE_WITNESS = ("stabilizer with odd subset permutation",
                 "stabilizer with odd combined subset and cycle sign")
# the most edges whose masks fit a signed 4-byte slot beside its three flags
SLOT_EDGES = 28


class GraphContext:
    """One isomorphism class, shared by every labelled graph that reaches it.

    It holds the certificate, the canonical graph and ribbon, the
    generators of the automorphism group and its order (built by
    :func:`~gch.canonical.build_group` from the symmetries met by the
    labelling search which found the class), each generator its half-edge
    map and nothing else, and the collapses recorded so far: edge -> (the
    target class, the half-edge map onto the target's canonical graph,
    None on the collapsed edge), with ``origin``, the (source class, edge)
    of the first collapse that reached it.  A generator's edge action
    (:func:`~gch.canonical.edge_action`) and its sign on det H_1
    (``aut_h1``) are computed where they are read; none is kept.

    The class decides everything that differs between graphs and ribbon
    graphs: a ribbon class takes its symmetries from the ribbon
    automorphisms and contracts by splicing cyclic orders; a plain class
    takes parallel-edge swaps, tadpole flips and lifts of vertex
    automorphisms, and contracts plainly.  Both come from its one set of
    generators.

    Edge subsets are held as masks, edge e at bit E-1-e of an E-edge
    graph, so that among subsets of one size the lexicographically least
    sorted subset has the largest mask.
    """

    def __init__(self, certificate: str, graph: HalfEdgeGraph, ribbon: RibbonStructure | None,
                 generators: tuple[tuple[int, ...], ...], aut_order: int):
        self.certificate = certificate
        self.graph = graph
        self.ribbon = ribbon
        self.generators = generators
        self.aut_order = aut_order
        self.collapses: dict[int, tuple[GraphContext, tuple[int | None, ...]]] = {}
        # (source class, edge) of the first collapse that reached this class
        self.origin: tuple[GraphContext, int] | None = None

    # made on first use, so that a class only enumeration met keeps none

    @cached_property
    def _collapse_h1(self) -> dict[int, int]:
        return {}

    @cached_property
    def _orbit(self) -> array:
        """One 4-byte slot per edge-subset mask, 0 until the mask's orbit is
        walked (``_fill_orbit``).

        A member T of an orbit with representative R holds
        R << 3 | sign << 2 | parity << 1: the parity (0 even, 1 odd) and the
        H_1 sign (1 for -1) of the walk's symmetry carrying T onto R.  R is
        a larger mask than T, so the slot is not 0.  The slot of R itself,
        carried by the identity, holds instead the orbit's size and its
        vanishing verdicts, size << 3 | odd << 2 | even << 1 | 1, bit 0
        marking a representative.  The two signs are all that a face or an
        alignment reads of the symmetry, so the slot keeps no other trace of
        it.  A class with more than ``SLOT_EDGES`` edges raises ValueError
        before any slot is allocated.
        """
        edges = self.graph.edge_count
        if edges > SLOT_EDGES:
            raise ValueError(f"a subset-orbit slot encodes at most {SLOT_EDGES} edges; "
                             f"this class has {edges}")
        return array("i", bytes(4 << edges))

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.graph.edge_count) - 1

    @cached_property
    def surface(self) -> tuple[int, int] | None:
        """A ribbon class's :func:`~gch.ribbon.surface_invariants`, else None."""
        return None if self.ribbon is None else surface_invariants(self.graph, self.ribbon)

    @cached_property
    def kruskal_sign(self) -> int:
        """Sign of the reference orientation of det H_1, the Kruskal cycle
        basis, against the exact-sequence one
        (:func:`~gch.orientation.kruskal_sign`)."""
        return kruskal_sign(self.graph)

    def aut_h1(self, half_edge_map) -> int:
        """Sign on det H_1 of the automorphism with the half-edge map.  By
        the exact sequence 0 -> H_1 -> C_1 -> C_0 -> H_0 -> 0 of a connected
        graph (Conant-Vogtmann, arXiv:math/0208169) it is the sign on the
        oriented edges C_1, the edge permutation's parity times -1 per
        reversed edge, times the vertex permutation's parity on C_0
        (:func:`~gch.orientation.h1_map_sign`).  The reference orientation
        is the same on both sides, so its sign cancels."""
        return h1_map_sign(self.graph, half_edge_map, self.graph)

    # -- vanishing --------------------------------------------------------

    def witness(self, parity: str, mask: int | None = None) -> str:
        """Why the generator is zero for the parity, or "" when it survives.

        The generator is the graph with the edge subset ``mask`` (all edges
        when it is None), oriented by the subset order and, for odd
        parity, by the cycle space.  It is zero when a symmetry stabilizing
        the subset reverses that orientation: the parity of the symmetry on
        the subset, times for odd parity its sign on H_1, is -1.  A proper
        subset takes the verdict that ``_fill_orbit`` wrote into its orbit
        representative's slot; the full mask, stabilized by all of Aut,
        the bare graph's ``_bare_reasons``, with no subset table.
        """
        odd = parity == "odd"
        if mask is None or mask == self.full_mask:
            return self._bare_reasons[odd]
        return _CUBE_WITNESS[odd] if self._rep_slot(mask) >> 1 + odd & 1 else ""

    @cached_property
    def _bare_reasons(self) -> tuple[str, str]:
        """(even, odd) reasons of the bare graph.  Its orientation sign is a
        character of Aut, so the generators decide it: parallel-edge swaps
        (odd on the edges, -1 on H_1) and tadpole flips (-1 on H_1) give
        their reasons first, then the lifts or ribbon automorphisms, each
        parity keeping the first.  A swap or flip reverses no parity that
        its own reason has not already taken."""
        plain = self.ribbon is None
        swaps = plain and any(n > 1 for n in self.graph.multiplicities.values())
        even = _WITNESS["swap", "even"] if swaps else ""
        odd = _WITNESS["flip", "odd"] if plain and self.graph.has_tadpole else ""
        kind = "lift" if plain else "ribbon"
        for s in self.generators:
            sign = -1 if sequence_parity(edge_action(s)) else 1
            if not even and sign == -1:
                even = _WITNESS[kind, "even"]
            if not odd and sign * self.aut_h1(s) == -1:
                odd = _WITNESS[kind, "odd"]
        return even, odd

    def stabilizer_order(self, mask: int) -> int:
        """Order of the automorphisms that map the edge subset ``mask`` onto
        itself: the group order over the size of its orbit, all of Aut for
        the full mask."""
        return self.aut_order // (1 if mask == self.full_mask else self._rep_slot(mask) >> 3)

    # -- collapses --------------------------------------------------------

    def collapse(self, e: int):
        """(target class, half-edge map onto its canonical graph) of the
        collapse of edge e, the collapsed edge's half-edges mapping to None.

        This is the one place that contracts a class's edges.  An edge not
        yet recorded is first read off a square (``_square``): if this
        class was first reached as G/d with map a, the edge e = a(f), and
        G/f (map b) has recorded its collapse of b(d) (target T, map c),
        the collapse of e is (T, c b a^-1), since both sides are G/{d,f};
        on a ribbon class only when d and f have three distinct endpoints,
        since splicing commutes on a two-edge forest but not across a loop
        or a digon.  The composed map differs from a direct contraction's
        by an automorphism of T, as an orbit-derived map does (below).
        Otherwise the edge is contracted on the canonical graph
        (``_contract``).
        A plain class hands the contraction's tuples to the certificate
        cache (``_canonical_entry``).  A ribbon class splices sigma on
        edge e = {h, h'} (:func:`~gch.ribbon.splice`): for a non-tadpole,
        sigma'(sigma^-1 h) = sigma(h') and sigma'(sigma^-1 h') = sigma(h);
        a tadpole, in a weighted family, becomes a weight and its two
        half-edges leave their vertex's order.  The half-edges are numbered
        as ``HalfEdgeGraph.contraction`` numbers them, so ties between least
        traversals break, and every map comes out, as for the contracted
        labelled graph.  The spliced sigma is canonicalized from the vertex
        of each half-edge and the weights by the least traversal that
        ``canonical_entry`` uses.  Either way a graph is built only for a
        new certificate, and no connectivity walk runs: a contraction keeps
        a connected graph connected.

        The result is recorded, and so is the rest of the edge's orbit
        under Aut (McKay's orbit pruning), unrecorded too since only this
        walk records: a generator s carrying a recorded edge x to f gives
        f the map of x composed with s^-1, which collapses f onto the same
        target and differs from a direct contraction by an automorphism of
        it.  The first collapse to reach a class becomes its ``origin``."""
        hit = self.collapses.get(e)
        if hit is None:
            hit = self.collapses[e] = self._square(e) or self._contract(e)
            reached = hit[0]
            if reached.origin is None:
                reached.origin = (self, e)
            queue = [e]
            for x in queue:
                for s in self.generators:
                    f = s[2 * x] >> 1
                    if f not in self.collapses:
                        derived = [None] * len(hit[1])
                        for h, image in zip(s, self.collapses[x][1]):
                            derived[h] = image
                        self.collapses[f] = (reached, tuple(derived))
                        queue.append(f)
        return hit

    def _square(self, e: int):
        """The collapse of edge e read off the square of ``collapse``, or
        None when the class has no ``origin``, when a side of the square
        is not yet recorded (no collapse is made to record it), or on a
        ribbon class when the square's two edges have fewer than three
        distinct endpoints."""
        if self.origin is None:
            return None
        source, d = self.origin
        a = source.collapses[d][1]
        inverse = [0] * (len(a) - 2)
        for h, image in enumerate(a):
            if image is not None:
                inverse[image] = h
        f = inverse[2 * e] >> 1
        if self.ribbon is not None and len({*source.graph.edges[d], *source.graph.edges[f]}) < 3:
            return None
        if f not in source.collapses:
            return None
        middle, b = source.collapses[f]
        far = middle.collapses.get(b[2 * d] >> 1)
        if far is None:
            return None
        target, c = far
        return target, tuple([None if (x := b[h]) is None else c[x] for h in inverse])

    def _contract(self, e: int):
        """(target class, half-edge map onto its canonical graph) of the
        contraction of edge e on the canonical graph, with no orbit
        pruning: the rule of ``collapse`` for one edge."""
        weights, edges, half_edge_map = self.graph.contraction(e)
        if self.ribbon is None:
            reached, iso = _canonical_entry(len(weights), weights, edges)
        else:
            labelling = ribbon_labelling(splice(self.ribbon, e, half_edge_map), edges, weights)
            reached, iso = _class_of(labelling), labelling[5]
        return reached, tuple([None if h is None else iso[h] for h in half_edge_map])

    def collapse_h1(self, e: int) -> int:
        """Sign on det H_1 of the collapse of edge e, the reference
        orientations on both sides: the exact-sequence sign of the collapse
        (:func:`~gch.orientation.h1_map_sign`) times each side's
        ``kruskal_sign``.  A tadpole has none and raises ValueError."""
        h = self._collapse_h1.get(e)
        if h is None:
            target, hmap = self.collapse(e)
            h = h1_map_sign(self.graph, hmap, target.graph, e)
            h *= self.kruskal_sign * target.kruskal_sign
            self._collapse_h1[e] = h
        return h

    # -- subset masks, orbits and faces ------------------------------------

    @cached_property
    def bits(self):
        """The mask bit of each edge."""
        return tuple(1 << (self.graph.edge_count - 1 - e) for e in range(self.graph.edge_count))

    def subset_of(self, mask: int) -> tuple[int, ...]:
        """The edges of the mask in increasing order, read off its set bits
        from the highest down."""
        last, edges = self.graph.edge_count - 1, []
        while mask:
            top = mask.bit_length() - 1
            edges.append(last - top)
            mask ^= 1 << top
        return tuple(edges)

    @cached_property
    def kernel_odd(self) -> bool:
        """Whether a generator fixing every edge reverses H_1: a tadpole flip,
        or the vertex swap of an even banana.  On a plain class every
        automorphism fixing every edge is a product of flips or is that swap,
        the only vertex-moving one, which the search meets on any labelling
        of the banana at its one pair of root branches; a ribbon class's
        generators are all its automorphisms."""
        identity = tuple(range(self.graph.edge_count))
        return any(edge_action(s) == identity and self.aut_h1(s) == -1
                   for s in self.generators)

    def _slot(self, mask: int) -> int:
        """The slot of a proper mask in ``_orbit``.  A miss, which only a
        direct lookup makes, walks every orbit of proper subsets."""
        slot = self._orbit[mask]
        if not slot:
            self.subset_orbits(forests_only=False)
            slot = self._orbit[mask]
        return slot

    def _rep_slot(self, mask: int) -> int:
        """The slot of the mask's orbit representative."""
        slot = self._slot(mask)
        return slot if slot & 1 else self._orbit[slot >> 3]

    @cached_property
    def _steps(self) -> list[tuple[array, array, array, int]]:
        """The steps of the orbit walk (``_fill_orbit``): (low, high, cross,
        h1) for each distinct edge permutation p of the generators of Aut
        other than the identity, h1 being 4 when its sign on det H_1 is -1,
        else 0.  Two generators with the same edge permutation but opposite
        H_1 signs differ by one fixing every edge with sign -1, which
        ``kernel_odd`` already holds, so the first of them is kept; a
        generator fixing every edge moves no subset.

        The tables give p(T) and the parity of p on T in subset order from
        the two halves of the mask T, its low L = ceil(E/2) bits x and the
        rest y = T >> L, with 2^L entries or fewer each, so a class keeps
        no per-generator table of all 2^E masks.  ``low[x]`` and ``high[y]``
        hold the image of each half shifted left once, with the parity of p
        on that half in bit 0 (``_image_table``).  Every edge of y comes
        before every edge of x in subset order, so the pairs that p inverts
        across the halves are, for each edge b of x, the edges a of y whose
        images come after p(b); ``cross[x]`` holds the exclusive or of those
        high-half masks over the edges b of x, so their count is odd when
        y & cross[x] has an odd bit count."""
        edges, bits = self.graph.edge_count, self.bits
        half = (edges + 1) // 2
        seen, steps = {tuple(range(edges))}, []
        for s in self.generators:
            p = edge_action(s)
            if p in seen:
                continue
            seen.add(p)
            # the image bit of the edge at each mask bit, from bit 0
            images = [bits[image] for image in reversed(p)]
            low, high = images[:half], images[half:]
            cross = [0]
            for b in low:
                mark = sum(1 << j for j, a in enumerate(high) if a < b)
                cross += [c ^ mark for c in cross]
            steps.append((_image_table(low), _image_table(high), array("i", cross),
                          4 if self.aut_h1(s) == -1 else 0))
        return steps

    def _fill_orbit(self, rep: int) -> None:
        """Enter every member of the orbit of its representative ``rep``,
        the first member met in walk order (``_representatives``), and
        decide the orbit's vanishing, by a breadth-first walk from ``rep``
        through ``_steps``.

        Each member T is labelled, in bits 1 and 2 of its slot, with the
        parity on ``rep`` in subset order and the sign on det H_1 of its
        walk path q_T, which q_T^-1, carrying T onto ``rep``, shares.  A
        step s from T onto a member T' already labelled gives q_T'^-1 s q_T,
        which stabilizes ``rep``; by Schreier's lemma these elements and
        the automorphisms fixing every edge generate the stabilizer (Seress,
        *Permutation Group Algorithms*, 2003).  So the orbit vanishes for
        even parity when the two labels of such a step differ in the
        parity, and for odd parity when they differ in one bit alone, or
        when ``kernel_odd`` holds.  Conjugate stabilizers have the same
        signs, so the verdict holds for the whole orbit, and on a surviving
        one every element carrying T onto ``rep`` has T's label.  ``rep``'s
        slot keeps the verdicts, with the orbit's size."""
        table, steps = self._orbit, self._steps
        half = (self.graph.edge_count + 1) // 2
        low_bits = (1 << half) - 1
        table[rep] = 1  # label 0, in a slot that is not 0 even for the empty mask
        queue = [rep]
        member = rep << 3
        even, odd = 0, int(self.kernel_odd)
        for t in queue:
            x, y, here = t & low_bits, t >> half, table[t] & 6
            for low, high, cross, h1 in steps:
                image = low[x] ^ high[y] ^ ((y & cross[x]).bit_count() & 1)
                step = here ^ h1 ^ (image & 1) << 1
                image >>= 1
                known = table[image]
                if not known:
                    table[image] = member | step
                    queue.append(image)
                elif known & 6 != step:  # a stabilizer element with sign -1
                    diff = known & 6 ^ step
                    even |= diff >> 1 & 1
                    odd |= (diff >> 1 ^ diff >> 2) & 1
        table[rep] = len(queue) << 3 | odd << 2 | even << 1 | 1

    def subset_orbits(self, forests_only: bool) -> array:
        """The orbit representatives of the forests, or of the proper edge
        subsets, as masks, by size and then lexicographically."""
        return self._forest_orbits if forests_only else self._proper_orbits

    def surviving(self, forests_only: bool, odd: bool) -> list[int]:
        """The masks of ``subset_orbits`` whose cubes survive for the
        parity: the representatives whose slot has no verdict bit."""
        table, verdict = self._orbit, 4 if odd else 2
        return [mask for mask in self.subset_orbits(forests_only) if not table[mask] & verdict]

    @cached_property
    def _forest_orbits(self) -> array:
        return self._representatives(self._forests())

    @cached_property
    def _proper_orbits(self) -> array:
        """Walked from the largest proper mask down, so that the first mask
        met of each orbit is its largest, the representative, then sorted
        stably by size: within a size a larger mask is a lexicographically
        smaller subset."""
        reps = self._representatives(range(self.full_mask - 1, -1, -1))
        return array("i", sorted(reps, key=int.bit_count))

    def _representatives(self, masks) -> array:
        """The representatives among ``masks``, a union of orbits walked so
        that the first mask met of each orbit is its representative."""
        table = self._orbit
        reps = array("i")
        for mask in masks:
            slot = table[mask]
            if not slot:
                self._fill_orbit(mask)
            elif not slot & 1:
                continue
            reps.append(mask)
        return reps

    def _forests(self):
        """The mask of every forest, by size and then lexicographically:
        each forest is extended by later edges that join two of its
        components."""
        g = self.graph
        level = [(0, 0, tuple(range(g.vertex_count)))]  # (mask, first later edge, components)
        while level:
            grown = []
            for mask, start, comp in level:
                yield mask
                for e in range(start, g.edge_count):
                    u, v = g.edges[e]
                    a, b = comp[u], comp[v]
                    if a != b:
                        grown.append((mask | self.bits[e], e + 1,
                                      tuple([b if c == a else c for c in comp])))
            level = grown

    def faces(self, mask: int, subset, family, odd: bool, index):
        """The faces of the generator (graph, subset ``mask``) of the family,
        an :class:`~gch.generate.EnumSpec`, in subset order, each edge's
        collapse before its deletion: (collapse?, row, coefficient by the
        face-sign rule of the module docstring).  ``subset`` is the mask's
        edges in increasing order, and ``index`` maps (certificate,
        representative mask) to a row; a face outside it is skipped before
        its collapse's H_1 sign is computed.  The caller has walked the
        orbits of every class in ``index`` (``subset_orbits``).

        A deletion is a face only when the mask is proper.  A tadpole
        collapse is a face only in a weighted family and even parity, where
        it increments a weight.  In a family without tadpoles an edge with
        a parallel partner is not collapsed: the face would have one.  For
        odd parity a collapse onto a class where ``kernel_odd`` holds is
        skipped before it is aligned, since every odd generator of that
        class vanishes, so such a class gets no subset table.
        """
        graph, edges, multiplicities = self.graph, self.graph.edges, self.graph.multiplicities
        weight_face, tadpoles = family.weighted and not odd, family.allow_tadpoles
        for pos, e in enumerate(subset):
            sign = 1 if pos & 1 else -1
            if ((weight_face or not graph.is_tadpole(e))
                    and (tadpoles or multiplicities[edges[e]] == 1)):
                target, hmap = self.collapse(e)
                if not (odd and target.kernel_odd):
                    bits = target.bits
                    image = inversions = 0
                    for f in subset:
                        if f != e:
                            bit = bits[hmap[2 * f] >> 1]
                            inversions += (image & (bit - 1)).bit_count()
                            image |= bit
                    rep, align = target._align(image, odd)
                    row = index.get((target.certificate, rep))
                    if row is not None:
                        if odd:
                            align *= self.collapse_h1(e)
                        yield True, row, (-sign if inversions & 1 else sign) * align
            if mask != self.full_mask:
                rep, align = self._align(mask ^ self.bits[e], odd)
                row = index.get((self.certificate, rep))
                if row is not None:
                    yield False, row, -sign * align

    def _align(self, mask: int, odd: bool) -> tuple[int, int]:
        """(representative, sign) of an edge-subset mask T: the largest mask
        R in the orbit of T, its lexicographically least subset, and the
        sign of the walk's element carrying T onto R (``_fill_orbit``), its
        parity in subset order, times for odd parity its sign on det H_1.
        A full mask is its own representative, carried by the identity, so
        it needs no table."""
        if mask == self.full_mask:
            return mask, 1
        slot = self._slot(mask)
        if slot & 1:
            return mask, 1
        # bit 1 of a member's slot is the parity, bit 2 the H_1 sign
        return slot >> 3, -1 if (slot & (6 if odd else 2)).bit_count() & 1 else 1


# labelled input -> (class, half-edge map onto the class's canonical
# graph); the labelled graph itself is not kept
_CERT_CACHE: dict = {}
# certificate -> the class's one object
_CLASSES: dict[str, GraphContext] = {}


def canonical_entry(g: HalfEdgeGraph, ribbon: RibbonStructure | None = None):
    """(class, half-edge map onto the class's canonical graph) of a
    labelled graph, with its ribbon structure if given: the checked
    entry, for graphs from outside the engine (the CLI, ``gch verify``,
    ``generator_vanishes``), which refuses a disconnected graph."""
    if not g.is_connected:
        raise ValueError("canonical form is defined for connected graphs")
    return _canonical_entry(g.vertex_count, g.weights, g.edges, ribbon and ribbon.cycles)


def _canonical_entry(vertex_count: int, weights, edges, cycles=None):
    """``canonical_entry`` of a vertex count, weights, normalized edge pairs
    and a ribbon graph's cyclic orders, unchecked: the engine's moves keep
    a connected graph connected.  Each input is canonicalized once; the
    cache keeps the half-edge map and the shared class (``_class_of``), no
    graph, and a stored key, the weights (one per vertex) and edge pairs
    with the cyclic orders, holds the shared pairs of ``graph._PAIRS``.
    Ribbon collapses (``GraphContext._contract``) bypass the cache."""
    key = (weights, edges) if cycles is None else (weights, edges, cycles)
    entry = _CERT_CACHE.get(key)
    if entry is None:
        labelling = canonical_labelling(vertex_count, weights, edges, cycles)
        key = (weights, tuple(map(_PAIRS.setdefault, edges, edges)), *key[2:])
        entry = _CERT_CACHE[key] = (_class_of(labelling), labelling[5])
    return entry


def _class_of(labelling) -> GraphContext:
    """The registry's class of a canonical labelling
    (:func:`~gch.canonical.canonical_labelling`).  Its object, with the
    canonical graph and ribbon, is made only when the certificate is new;
    then the symmetries the search met are carried onto the canonical
    labels by the input's map m, each a to m a m^-1, and the generators of
    the class's automorphism group and its order are built from them."""
    certificate, weights, edges, cycles, vertex_map, half_edge_map, (auts, order) = labelling
    ctx = _CLASSES.get(certificate)
    if ctx is None:
        graph = HalfEdgeGraph(len(weights), weights, edges)
        ribbon = None if cycles is None else RibbonStructure(graph, cycles)
        m = vertex_map if cycles is None else half_edge_map
        inverse = sorted(range(len(m)), key=m.__getitem__)
        carried = [tuple([m[a[i]] for i in inverse]) for a in auts]
        ctx = _CLASSES[certificate] = GraphContext(
            certificate, graph, ribbon, *build_group(graph, ribbon, (carried, order)))
    return ctx


def _image_table(images: list[int]) -> array:
    """For each mask x over ``len(images)`` bits, the image of x, bit i
    going to ``images[i]``, shifted left once, with in bit 0 the parity of
    that map in subset order, the highest bit first.  The table doubles
    once per bit, from the lowest: the new bit comes first in subset order,
    so its image inverts the pairs with the later images above it."""
    table = [0]
    for bit in images:
        above = -(bit << 1)
        table += [(t | bit << 1) ^ ((t >> 1 & above).bit_count() & 1) for t in table]
    return array("i", table)

"""The ribbon closure's two shortcuts against the labelled paths they replace.

A ribbon class contracts an edge by splicing sigma
(``GraphContext._contract`` with :func:`gch.ribbon.splice`) and
canonicalizing the spliced sigma without a labelled graph.  For every
non-tadpole edge of every class, and every tadpole of a weighted family,
that must give the target object and the half-edge map of the labelled
path: the contracted graph, its cyclic orders joined by the oracle's
:func:`gch.oracle.contract_ribbon`, which rotates the two orders of the
edge's ends and concatenates them, or for a tadpole by dropping its two
half-edges from its vertex's order here, canonicalized by
``canonical_entry``.  The families are ``ass`` of genus 2 to 4 and the
ribbon families with tadpoles, weights or bivalent vertices up to genus 3.

The ribbon seeds are one cyclic-order choice per orbit of Aut(t) on the
2^V choices of each trivalent class t.  Against canonicalizing every
choice, the seeds must reach the same classes, canonicalize one labelled
input per class, and that input must be the first choice of its class in
``itertools.product`` order.

``gch verify`` contracts the classes of the same closure; its count of
contractions must be the one over the oracle's ribbon structures on the
oracle's plain graphs.
"""

import itertools

import pytest

from gch import generate
from gch.context import canonical_entry
from gch.generate import EnumSpec, enumerate_graphs
from gch.graph import HalfEdgeGraph
from gch.oracle import contract, contract_ribbon, pairing_classes, ribbon_structures
from gch.ribbon import RibbonStructure
from gch.verify import check_ribbon_surfaces

SPLICE_FAMILIES = {"ass": dict(), "tadpoles": dict(allow_tadpoles=True),
                   "bivalent": dict(min_valence=2, max_edges=6),
                   "bivalent-tadpoles": dict(min_valence=2, allow_tadpoles=True, max_edges=6),
                   "weighted": dict(weighted=True, allow_tadpoles=True)}
SPLICE_CASES = [(family, genus) for family in SPLICE_FAMILIES
                for genus in ((2, 3, 4) if family == "ass" else (1, 2, 3))]


def _labelled_contraction(g, ribbon, e):
    """(contracted graph, morphism, ribbon) of the oracle's contraction."""
    target, cycles, m = contract_ribbon(g, ribbon.cycles, e)
    return target, m, RibbonStructure(target, cycles)


def _labelled_tadpole_contraction(g, ribbon, e):
    """(contracted graph, morphism, ribbon) of a tadpole turned into a
    weight, its two half-edges dropped from its vertex's order."""
    target, m = contract(g, e)
    cycles = tuple(tuple(m.half_edge_map[h] for h in cyc if h >> 1 != e) for cyc in ribbon.cycles)
    return target, m, RibbonStructure(target, cycles)


@pytest.mark.parametrize("family,genus", SPLICE_CASES)
def test_spliced_collapse_matches_labelled_path(family, genus):
    spec = EnumSpec(genus=genus, ribbon=True, **SPLICE_FAMILIES[family])
    checked = tadpoles = 0
    for ctx in enumerate_graphs(spec):
        g = ctx.graph
        for e in range(g.edge_count):
            tadpole = g.is_tadpole(e)
            if tadpole and not spec.weighted:
                continue
            contraction = _labelled_tadpole_contraction if tadpole else _labelled_contraction
            target, m, ribbon = contraction(g, ctx.ribbon, e)
            reached, _, iso = canonical_entry(target, ribbon)
            spliced, hmap = ctx._contract(e)
            assert spliced is reached, (ctx.certificate, e)
            assert hmap == tuple(None if h is None else iso[h] for h in m.half_edge_map)
            assert ctx.collapse(e)[0] is reached
            if tadpole:
                tadpoles += 1
            else:
                checked += 1
    assert checked or genus == 1
    assert tadpoles or not spec.weighted or genus == 1


@pytest.mark.parametrize("tadpoles", [False, True])
@pytest.mark.parametrize("genus", [2, 3, 4])
def test_ribbon_seeds_are_one_per_orbit(genus, tadpoles, monkeypatch):
    inputs = []
    entry = generate._canonical_entry

    def recording(vertex_count, weights, edges, cycles=None):
        if cycles is not None:
            inputs.append((edges, cycles))
        return entry(vertex_count, weights, edges, cycles)

    monkeypatch.setattr(generate, "_canonical_entry", recording)
    seeds = list(generate._seeds(genus, True, tadpoles))
    monkeypatch.undo()

    # the first choice of each class over all 2^V, in product order
    first = {}
    for t in (ctx.graph for ctx in generate._trivalent(genus)):
        if t.has_tadpole and not tadpoles:
            continue
        for cycles in itertools.product(*(((a, b, c), (a, c, b)) for a, b, c in t.half_edges_at)):
            ribbon = RibbonStructure(t, cycles)
            first.setdefault(canonical_entry(t, ribbon)[0].certificate, (t.edges, ribbon.cycles))
    assert {ctx.certificate for ctx in seeds} == set(first)
    assert len(inputs) == len(seeds) == len(first)
    assert inputs == [first[ctx.certificate] for ctx in seeds]


def test_verify_contracts_every_ribbon_class():
    """``check_ribbon_surfaces`` contracts each non-tadpole edge of each
    ribbon class of genus 2 and 3 with tadpoles, up to six edges.  Its
    count is the oracle's: every plain graph of the pairing enumerator,
    times its ribbon structures, orbits of its automorphisms, times its
    non-tadpole edges.  A closure that drops a class falls short."""
    expected = 0
    for genus in (2, 3):
        for e in range(genus, 7):
            for edges in pairing_classes(e - genus + 1, e, 3, True):
                g = HalfEdgeGraph.build(e - genus + 1, edges)
                expected += len(ribbon_structures(g)) * sum(u != v for u, v in g.edges)
    assert expected == 156
    assert f"; {expected} contractions preserved invariants;" in check_ribbon_surfaces()

"""The ribbon closure's two shortcuts against the labelled paths they replace.

A ribbon class contracts an edge by splicing sigma
(``GraphContext._contract`` with :func:`gch.ribbon.splice`) and
canonicalizing the spliced sigma without a labelled graph.  For every
non-tadpole edge of every class, and every tadpole of a weighted family,
that must give the target object and the half-edge map of the labelled
path: the contracted graph, its cyclic orders spliced here by rotating the
two orders of the edge's ends and concatenating them, or for a tadpole by
dropping its two half-edges from its vertex's order, canonicalized by
``canonical_entry``.  The families are ``ass`` of genus 2 to 4 and the
ribbon families with tadpoles, weights or bivalent vertices up to genus 3.

The ribbon seeds are one cyclic-order choice per orbit of Aut(t) on the
2^V choices of each trivalent class t.  Against canonicalizing every
choice, the seeds must reach the same classes, canonicalize one labelled
input per class, and that input must be the first choice of its class in
``itertools.product`` order.
"""

import itertools

import pytest

from gch import generate
from gch.context import canonical_entry
from gch.generate import EnumSpec, enumerate_graphs
from gch.ribbon import RibbonStructure, contract_ribbon

SPLICE_FAMILIES = {"ass": dict(), "tadpoles": dict(allow_tadpoles=True),
                   "bivalent": dict(min_valence=2, max_edges=6),
                   "bivalent-tadpoles": dict(min_valence=2, allow_tadpoles=True, max_edges=6),
                   "weighted": dict(weighted=True, allow_tadpoles=True)}
SPLICE_CASES = [(family, genus) for family in SPLICE_FAMILIES
                for genus in ((2, 3, 4) if family == "ass" else (1, 2, 3))]


def _labelled_contraction(g, ribbon, e):
    """(contracted graph, morphism, ribbon) with the orders at the ends of
    e rotated to end before and start after e's half-edges and joined."""
    target, m = g.contract(e)
    v, w = g.iota(2 * e), g.iota(2 * e + 1)
    cyc_v, cyc_w = list(ribbon.cycles[v]), list(ribbon.cycles[w])
    iv, iw = cyc_v.index(2 * e), cyc_w.index(2 * e + 1)
    merged = cyc_v[iv + 1:] + cyc_v[:iv] + cyc_w[iw + 1:] + cyc_w[:iw]
    cycles = [()] * target.vertex_count
    for x, cyc in enumerate(ribbon.cycles):
        if x not in (v, w):
            cycles[m.vertex_map[x]] = tuple(m.half_edge_map[h] for h in cyc)
    cycles[m.vertex_map[v]] = tuple(m.half_edge_map[h] for h in merged)
    return target, m, RibbonStructure(target, tuple(cycles))


def _labelled_tadpole_contraction(g, ribbon, e):
    """(contracted graph, morphism, ribbon) of a tadpole turned into a
    weight, its two half-edges dropped from its vertex's order."""
    target, m = g.contract(e)
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
                assert contract_ribbon(g, ctx.ribbon, e) == (target, ribbon, m)
                checked += 1
    assert checked or genus == 1
    assert tadpoles or not spec.weighted or genus == 1


@pytest.mark.parametrize("tadpoles", [False, True])
@pytest.mark.parametrize("genus", [2, 3, 4])
def test_ribbon_seeds_are_one_per_orbit(genus, tadpoles, monkeypatch):
    inputs = []

    def recording(g, ribbon=None):
        if ribbon is not None:
            inputs.append((g, ribbon.cycles))
        return canonical_entry(g, ribbon)

    monkeypatch.setattr(generate, "canonical_entry", recording)
    seeds = list(generate._seeds(genus, True, tadpoles))
    monkeypatch.undo()

    # the first choice of each class over all 2^V, in product order
    first = {}
    for t in (ctx.graph for ctx in generate._trivalent(genus)):
        if t.has_tadpole and not tadpoles:
            continue
        for cycles in itertools.product(*(((a, b, c), (a, c, b)) for a, b, c in t.half_edges_at)):
            ribbon = RibbonStructure(t, cycles)
            first.setdefault(canonical_entry(t, ribbon)[0].certificate, (t, ribbon.cycles))
    assert {ctx.certificate for ctx in seeds} == set(first)
    assert len(inputs) == len(seeds) == len(first)
    assert inputs == [first[ctx.certificate] for ctx in seeds]

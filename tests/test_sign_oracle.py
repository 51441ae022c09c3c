"""The vanishing rule and the cube stabilizer orders against the oracle.

:func:`gch.oracle.half_edge_automorphisms` finds every half-edge
automorphism of a small graph by search (for a ribbon graph, those that
commute with the cyclic orders), and :func:`gch.oracle.automorphism_sign`
gives its orientation sign on a generator (graph, edge subset S): the
parity of its action on S, and for odd parity also its sign on det H_1,
the determinant of the oracle's own reference cycle basis pushed through
it.  The engine reads that sign off the exact sequence instead, so the
two share no sign rule; the oracle never computes an automorphism group
with gch, and a generator vanishes exactly when some automorphism
stabilizing S has sign -1.  The graphs are every graph and
ribbon graph of genus 1 to 3 with at most six edges, bivalent vertices and
tadpoles allowed, and the stable weighted graphs of genus 2 and 3 with at
most six edges; the subsets are all of their edge subsets.  On the graphs
without ribbon structure the oracle also counts, for every subset S, the
automorphisms that map S onto itself: the order of the stabilizer that a
cube (G, S) of the moduli catalogs carries.
"""

import itertools

from gch.generate import EnumSpec, enumerate_graphs
from gch.oracle import automorphism_sign, half_edge_automorphisms

from masks import mask_of

MAX_EDGES = 6


def oracle_vanishes(autos, subset, odd: bool) -> bool:
    return any(automorphism_sign(aut, subset, odd) == -1 for aut in autos)


def _subsets(m):
    """Every proper edge subset, then the whole edge set (the bare graph)."""
    for size in range(m + 1):
        yield from itertools.combinations(range(m), size)


def _check(forms, sigma_of):
    verdicts = 0
    for ctx in forms:
        g = ctx.graph
        autos = half_edge_automorphisms(g, sigma_of(ctx))
        for subset in _subsets(g.edge_count):
            for p in ("even", "odd"):
                expected = oracle_vanishes(autos, subset, p == "odd")
                assert bool(ctx.witness(p, mask_of(ctx, subset))) == expected, (ctx.certificate, subset, p)
                verdicts += 1
    return verdicts


def _families(ribbon: bool):
    for genus in (1, 2, 3):
        yield EnumSpec(genus=genus, min_valence=2, allow_tadpoles=True,
                       max_edges=MAX_EDGES, ribbon=ribbon)
    if not ribbon:
        for genus in (2, 3):
            yield EnumSpec(genus=genus, weighted=True, allow_tadpoles=True,
                           min_edges=1, max_edges=MAX_EDGES)


def test_vanishing_rule_matches_oracle_on_graphs_and_subsets():
    forms = [f for spec in _families(ribbon=False) for f in enumerate_graphs(spec)]
    assert _check(forms, lambda ctx: None) > 1000


def test_stabilizer_orders_match_oracle():
    checked = 0
    for ctx in (f for spec in _families(ribbon=False) for f in enumerate_graphs(spec)):
        autos = half_edge_automorphisms(ctx.graph)
        for subset in _subsets(ctx.graph.edge_count):
            expected = sum(1 for aut in autos
                           if automorphism_sign(aut, subset, False) is not None)
            assert ctx.stabilizer_order(mask_of(ctx, subset)) == expected, (ctx.certificate, subset)
            checked += 1
    assert checked > 1000


def test_vanishing_rule_matches_oracle_on_ribbon_graphs():
    forms = [f for spec in _families(ribbon=True) for f in enumerate_graphs(spec)]
    assert _check(forms, lambda ctx: ctx.ribbon.next_map) > 1000

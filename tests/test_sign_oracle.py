"""Brute-force oracle for the vanishing rule.

Every half-edge automorphism of a small graph is found by search: a
bijection of half-edges that commutes with the edge involution and induces
a weight-preserving bijection of vertices (and, for a ribbon graph, also
commutes with the cyclic orders sigma).  Its orientation sign on a
generator (graph, edge subset S) is the parity of its action on S, and for
odd parity additionally its sign on det H_1.  That last sign comes from the
exact sequence 0 -> H_1 -> C_1 -> C_0 -> H_0 -> 0 of a connected graph
(Conant-Vogtmann): the sign on the oriented edges C_1 (edge permutation
parity times -1 per reversed edge) times the sign on the vertices C_0.  So
the oracle never computes a cycle basis, a spanning tree or an automorphism
group with gch, and a generator vanishes exactly when some automorphism
stabilizing S has sign -1.  The graphs are every graph and ribbon graph of
genus 1 to 3 with at most six edges, bivalent vertices and tadpoles
allowed, and the stable weighted graphs of genus 2 and 3 with at most six
edges; the subsets are all of their edge subsets.  On the graphs without
ribbon structure the oracle also counts, for every subset S, the
automorphisms that map S onto itself: the order of the stabilizer that a
cube (G, S) of the moduli catalogs carries.
"""

import itertools

from gch.complexes import get_context
from gch.generate import EnumSpec, enumerate_graphs

MAX_EDGES = 6


def parity(seq) -> int:
    """+1/-1 for an even/odd arrangement of distinct values, by inversions."""
    inversions = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def half_edge_automorphisms(g, sigma=None):
    """(edge permutation, reversed-edge count, vertex permutation) for every
    half-edge automorphism, found by extending edge images one at a time."""
    n, m = g.vertex_count, g.edge_count
    found = []
    hmap = [None] * (2 * m)
    vmap, vinv = [None] * n, [None] * n

    def bind(v, w, trail):
        if vmap[v] is None and vinv[w] is None and g.weights[v] == g.weights[w]:
            vmap[v], vinv[w] = w, v
            trail.append(v)
            return True
        return vmap[v] == w

    def extend(e, used):
        if e == m:
            if sigma is None or all(hmap[sigma[h]] == sigma[hmap[h]] for h in range(2 * m)):
                edges = [hmap[2 * f] >> 1 for f in range(m)]
                reversed_count = sum(hmap[2 * f] & 1 for f in range(m))
                found.append((edges, reversed_count, list(vmap)))
            return
        for f in range(m):
            if f in used:
                continue
            for flip in (0, 1):
                a, b = 2 * f + flip, 2 * f + 1 - flip
                trail = []
                if bind(g.iota(2 * e), g.iota(a), trail) and bind(g.iota(2 * e + 1), g.iota(b), trail):
                    hmap[2 * e], hmap[2 * e + 1] = a, b
                    extend(e + 1, used | {f})
                for v in trail:
                    vinv[vmap[v]] = None
                    vmap[v] = None

    extend(0, frozenset())
    return found


def oracle_vanishes(autos, subset, odd: bool) -> bool:
    for edges, reversed_count, vertices in autos:
        images = [edges[e] for e in subset]
        if sorted(images) != list(subset):
            continue
        sign = parity(images)
        if odd:
            sign *= parity(edges) * (-1) ** reversed_count * parity(vertices)
        if sign == -1:
            return True
    return False


def _subsets(m):
    """Every proper edge subset, then the whole edge set (the bare graph)."""
    for size in range(m + 1):
        yield from itertools.combinations(range(m), size)


def _check(forms, sigma_of):
    verdicts = 0
    for form in forms:
        ctx = get_context(form)
        g = ctx.graph
        autos = half_edge_automorphisms(g, sigma_of(ctx))
        for subset in _subsets(g.edge_count):
            for p in ("even", "odd"):
                expected = oracle_vanishes(autos, subset, p == "odd")
                assert bool(ctx.witness(p, subset)) == expected, (ctx.cert, subset, p)
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


def test_oracle_finds_known_automorphism_counts():
    from gch.families import banana, cycle, rose, theta

    assert len(half_edge_automorphisms(theta())) == 12
    assert len(half_edge_automorphisms(cycle(5))) == 10
    assert len(half_edge_automorphisms(rose(2))) == 8
    assert len(half_edge_automorphisms(banana(4))) == 48


def test_vanishing_rule_matches_oracle_on_graphs_and_subsets():
    forms = [f for spec in _families(ribbon=False) for f in enumerate_graphs(spec)]
    assert _check(forms, lambda ctx: None) > 1000


def test_stabilizer_orders_match_oracle():
    checked = 0
    for form in (f for spec in _families(ribbon=False) for f in enumerate_graphs(spec)):
        ctx = get_context(form)
        autos = half_edge_automorphisms(ctx.graph)
        for subset in _subsets(ctx.graph.edge_count):
            expected = sum(1 for edges, _, _ in autos
                           if sorted(edges[e] for e in subset) == list(subset))
            assert ctx.stabilizer_order(subset) == expected, (ctx.cert, subset)
            checked += 1
    assert checked > 1000


def test_vanishing_rule_matches_oracle_on_ribbon_graphs():
    forms = [f for spec in _families(ribbon=True) for f in enumerate_graphs(spec)]
    assert _check(forms, lambda ctx: ctx.form.ribbon.next_map) > 1000

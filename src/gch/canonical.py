"""Canonical forms, automorphism groups and symmetry signs.

Canonicalization of weighted multigraphs runs an individualization plus
partition-refinement search on vertices, with parallel-edge multiplicities
and tadpole counts folded into the vertex invariants.  The certificate is
the lexicographically smallest encoding over the search leaves, so it is
deterministic and relabeling-invariant.  A ribbon structure switches to a
traversal canonicalization on the half-edge level, where connectedness
makes an automorphism determined by the image of a single half-edge.

Certificate format (stable within a major release):
``v<n>;w<w0,...>;e<u-v,...>`` in canonical edge order, with
``;r(h,...)(...)`` appended for ribbon graphs.

An automorphism is held as its half-edge map and nothing else: a tuple
whose entry h is the image of half-edge h.  Its action on the edges
(``edge_action``), its vertex map and its sign on det H_1 are read off
that tuple where they are needed, so tadpole flips and parallel-edge
swaps are visible.  The search that canonicalizes a graph also returns
its symmetries in the input's labels, from which ``build_group`` makes the
generators of Aut and its order as :mod:`gch.context` makes the class:
the vertex automorphisms it meets, which generate the vertex group, with
its order, or a ribbon graph's tied least traversals, all its
automorphisms.  A plain graph's group splits over the vertex action: the
kernel is generated by flips and within-class edge swaps, and each vertex
automorphism has a canonical lift, ``_lift``, the rule that also maps a
graph's edges onto its canonical edges.

The module keeps no state.  The one object per class, the registry of
classes and the cache of labelled inputs live in :mod:`gch.context`.
"""

from __future__ import annotations

import math

from .graph import HalfEdgeGraph
from .ribbon import RibbonStructure, cycles_word, cyclic_orders, sigma


# ---------------------------------------------------------------------------
# vertex-level refinement


def _initial_colors(n: int, weights, edges):
    """The vertices' colours, their (weight, valence, tadpole count) ranked,
    and each vertex's neighbours along its non-tadpole edges."""
    inc: list[list[int]] = [[] for _ in range(n)]
    tad = [0] * n
    for u, v in edges:
        if u == v:
            tad[u] += 1
        else:
            inc[u].append(v)
            inc[v].append(u)
    sigs = [(weights[v], len(inc[v]) + 2 * tad[v], tad[v]) for v in range(n)]
    ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [ranks[s] for s in sigs], inc


def _refine(n: int, colors, inc):
    """Refine the colouring of the n vertices until it is stable, and rank
    its colours, as a list.

    A vertex's signature is its colour, then its neighbours' colours with
    their counts, and the new colours rank the signatures.  A vertex alone
    in its colour keeps the bare colour, which already decides its rank.
    A colour is a rank below n, or -1 for the vertex just individualized,
    whose size is counted in the last slot."""
    ncolors = len(set(colors))
    while True:
        sizes = [0] * (n + 1)
        for c in colors:
            sizes[c] += 1
        sigs = []
        for v in range(n):
            c = colors[v]
            if sizes[c] == 1:
                sigs.append((c,))
                continue
            prof: dict[int, int] = {}
            for u in inc[v]:
                cu = colors[u]
                prof[cu] = prof.get(cu, 0) + 1
            sigs.append((c, *sorted(prof.items())))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        k = len(ranks)
        if k == ncolors or k == n:
            return new
        ncolors = k
        colors = new


def _canonical_labeling(n: int, weights, edges):
    """Smallest (weights, edge pairs) encoding of the graph on n vertices,
    the permutation giving it, the vertex automorphisms the search meets
    and the vertex group's order.

    Individualization-refinement search; equal encodings at two leaves
    reveal an automorphism, whose orbits prune sibling branches at the root
    of the search tree.  ``_refine`` ranks its colours 0, 1, ..., so the
    colouring at a leaf is the permutation itself, and the vertices
    individualized on the way take the labels 0, 1, ..., latest first.
    Nothing below the root is pruned, so the leaves under the first root
    branch v with the first leaf's encoding and v's label there are one per
    element of Stab(v), and the search meets every element.  The
    automorphisms met thus generate the group and have its orbits (McKay,
    "Practical graph isomorphism", 1981): the order is |orbit(v)| |Stab(v)|,
    or 1 at a discrete root.  Two search nodes can reach the same labelled
    leaf, so an automorphism is kept only when it is new and not the
    identity.
    """
    base, inc = _initial_colors(n, weights, edges)
    best: list = [None, None]  # encoding, perm
    leaf_perms: dict = {}
    auts: dict[tuple[int, ...], None] = {}  # in the order met
    orbit = list(range(n))
    twins: list = []  # the leaves under v with the first leaf's encoding
    root, stabilizer = None, 1  # v, the first root branch, and |Stab(v)|

    def find(x):
        while orbit[x] != x:
            orbit[x] = orbit[orbit[x]]
            x = orbit[x]
        return x

    def encode(perm):
        relabelled = [0] * n
        for v, w in enumerate(weights):
            relabelled[perm[v]] = w
        pairs = []
        for u, v in edges:
            a, b = perm[u], perm[v]
            pairs.append((a, b) if a <= b else (b, a))
        pairs.sort()
        return (tuple(relabelled), tuple(pairs))

    def record_leaf(perm):
        enc = encode(perm)
        other = leaf_perms.setdefault(enc, perm)
        if other != perm:
            inverse = [0] * n
            for i, x in enumerate(other):
                inverse[x] = i
            aut = tuple([inverse[x] for x in perm])
            if aut not in auts:
                auts[aut] = None
                for i in range(n):
                    a, b = find(i), find(aut[i])
                    if a != b:
                        orbit[a] = b
        if best[0] is None or enc < best[0]:
            best[0], best[1] = enc, perm
        if root is None and (not twins or other is twins[0]):
            twins.append(perm)

    def search(colors, depth):
        nonlocal root, stabilizer
        colors = _refine(n, colors, inc)
        sizes = [0] * n
        for c in colors:
            sizes[c] += 1
        # the first colour shared by several vertices, or a leaf
        c = next((c for c in range(n) if sizes[c] > 1), None)
        if c is None:
            record_leaf(tuple(colors))
            return
        explored: list[int] = []
        for v in range(n):
            if colors[v] != c or depth == 0 and any(find(v) == find(u) for u in explored):
                continue
            explored.append(v)
            refined = colors.copy()
            refined[v] = -1
            search(refined, depth + 1)
            if depth == 0 and root is None:
                root = v
                stabilizer = sum(p[v] == twins[0][v] for p in twins)

    search(base, 0)
    orbit_size = 1 if root is None else sum(find(x) == find(root) for x in range(n))
    return best[0], best[1], list(auts), stabilizer * orbit_size


def _lift(edges, perm, targets) -> tuple[int, ...]:
    """Half-edge map of the graph with the ``edges`` over the vertex
    bijection ``perm`` onto ``targets``, normalized pairs of the image's
    vertex labels.

    Each parallel class maps onto the targets with its image's endpoints in
    index order, and a tadpole is not flipped.  Onto the sorted images this
    is the canonical relabelling; onto ``edges`` it is the canonical lift
    of a vertex automorphism."""
    slots: dict[tuple[int, int], list[int]] = {}
    for j, pair in enumerate(targets):
        slots.setdefault(pair, []).append(j)
    hmap: list[int] = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        free = slots.get((a, b) if a <= b else (b, a))
        if not free:
            raise ValueError("vertex permutation does not preserve the class structure")
        j = 2 * free.pop(0)
        hmap += (j, j + 1) if a <= b else (j + 1, j)
    return tuple(hmap)


def _certificate_string(vertex_count: int, weights, edges, cycles) -> str:
    parts = [f"v{vertex_count}"]
    parts.append("w" + ",".join(map(str, weights)))
    parts.append("e" + ",".join(f"{u}-{v}" for u, v in edges))
    if cycles is not None:
        parts.append("r" + cycles_word(cycles))
    return ";".join(parts)


def canonical_labelling(vertex_count: int, weights, edges, cycles=None):
    """(certificate, weights, edges, cyclic orders or None, vertex map,
    half-edge map, symmetries) of the canonical relabelling of the
    connected graph with the vertex count, weights and normalized edge
    pairs, or of the ribbon graph with the cyclic orders ``cycles``.  The
    symmetries are what the search met, in the input's labels, for
    ``build_group``.  Nothing is validated, and no graph is built."""
    if cycles is not None:
        return ribbon_labelling(sigma(cycles, 2 * len(edges)), edges, weights)
    (canonical_weights, pairs), perm, auts, order = _canonical_labeling(vertex_count, weights, edges)
    return (_certificate_string(vertex_count, canonical_weights, pairs, None), canonical_weights,
            pairs, None, perm, _lift(edges, perm, pairs), (auts, order))


# ---------------------------------------------------------------------------
# ribbon canonicalization: traversal from every start half-edge


def _ribbon_encoding(nxt, weight, start, bound=None):
    """Traversal from ``start`` along sigma, then the edge involution.

    Half-edges are labelled in visiting order; the encoding lists, per
    half-edge in that order, the labels of its sigma-successor and of its
    partner and the weight of its vertex.  Returns ``(encoding, order)``,
    or None as soon as a prefix of the encoding exceeds the same-length
    prefix of ``bound``.
    """
    label = [-1] * len(nxt)
    label[start] = 0
    order = [start]
    enc = []
    tied = bound is not None
    for i, h in enumerate(order):  # ``order`` grows while it is walked
        s, p = nxt[h], h ^ 1
        if label[s] < 0:
            label[s] = len(order)
            order.append(s)
        if label[p] < 0:
            label[p] = len(order)
            order.append(p)
        item = (label[s], label[p], weight[h])
        if tied:
            if item > bound[i]:
                return None
            tied = item == bound[i]
        enc.append(item)
    return enc, order


def _least_traversals(nxt, weight):
    """Every traversal with the least encoding, by start half-edge.  Each
    traversal stops as soon as its prefix exceeds the least so far.  A
    graph without half-edges (one vertex) has one empty traversal."""
    least: list = []
    for start in range(len(nxt)):
        run = _ribbon_encoding(nxt, weight, start, least[0][0] if least else None)
        if run is None:
            continue
        if least and run[0] == least[0][0]:
            least.append(run)
        else:
            least = [run]
    return least or [([], [])]


def ribbon_labelling(nxt, edges, vertex_weights):
    """``canonical_labelling`` of the connected ribbon graph given by sigma
    (``nxt``), the edge pairs and the vertex weights, from its least
    traversal; no graph or ribbon structure is needed.

    Connectedness makes a traversal determined by its start half-edge, so
    the least encoding over all starts is a complete invariant; on a tie
    the first start wins, and the maps carrying its traversal onto each
    tied one are all the ribbon automorphisms, the symmetries with their
    number.  Each traversal is abandoned as soon as its encoding prefix
    exceeds the least one so far, which cannot change the winner: the
    canonical graph, its ribbon and the maps are those of the full
    comparison.
    """
    ends = [v for pair in edges for v in pair]
    runs = _least_traversals(nxt, [vertex_weights[v] for v in ends])
    order = runs[0][1]
    auts = []
    for _, tied in runs:
        aut = [0] * len(nxt)
        for h, image in zip(order, tied):
            aut[h] = image
        auts.append(tuple(aut))

    # vertices and edges ranked by their first-visited half-edge; the one
    # vertex of a graph without edges keeps rank 0
    n = len(vertex_weights)
    vperm = [0] * n
    for rank, v in enumerate(dict.fromkeys(ends[h] for h in order)):
        vperm[v] = rank
    hmap = [-1] * len(nxt)
    new_edges = []
    for a in order:
        if hmap[a] >= 0:
            continue
        j = len(new_edges)
        pa, pb = vperm[ends[a]], vperm[ends[a ^ 1]]
        if pa <= pb:
            hmap[a], hmap[a ^ 1] = 2 * j, 2 * j + 1
        else:
            hmap[a], hmap[a ^ 1] = 2 * j + 1, 2 * j
        new_edges.append((min(pa, pb), max(pa, pb)))
    weights = [0] * n
    for v, w in enumerate(vertex_weights):
        weights[vperm[v]] = w
    # sigma on the canonical labels, each vertex's order from its least half-edge
    canonical_nxt = [0] * len(nxt)
    for h, image in enumerate(hmap):
        canonical_nxt[image] = hmap[nxt[h]]
    at: list[list[int]] = [[] for _ in range(n)]
    for j, (u, v) in enumerate(new_edges):
        at[u].append(2 * j)
        at[v].append(2 * j + 1)
    cycles = cyclic_orders(canonical_nxt, at)
    weights, new_edges = tuple(weights), tuple(new_edges)
    return (_certificate_string(n, weights, new_edges, cycles), weights, new_edges, cycles,
            tuple(vperm), tuple(hmap), (auts, len(auts)))


# ---------------------------------------------------------------------------
# automorphism groups


def build_group(g: HalfEdgeGraph, ribbon: RibbonStructure | None, symmetries):
    """(generators, order) of Aut(G), or of its ribbon automorphisms, from
    the symmetries that a labelling search met, in ``g``'s labels; each
    generator is a half-edge map.

    A ribbon graph's symmetries are all its automorphisms as half-edge
    maps.  A plain graph's are the vertex automorphisms that generate its
    vertex group, with that group's order; its generators are their
    canonical lifts, in search order, then the kernel: swaps of
    consecutive parallel edges and one flip per tadpole class.  The lifts
    generate Aut over the kernel, so together they generate Aut, though
    they are not all of its elements.
    """
    maps, order = symmetries
    if ribbon is not None:
        return tuple(maps), order
    gens = [_lift(g.edges, perm, g.edges) for perm in maps]
    classes: dict[tuple[int, int], list[int]] = {}
    for e, pair in enumerate(g.edges):
        classes.setdefault(pair, []).append(e)
    kernel = 1
    for (u, v), members in sorted(classes.items()):
        for a, b in zip(members, members[1:]):
            swap = list(range(g.half_edge_count))
            swap[2 * a], swap[2 * b] = 2 * b, 2 * a
            swap[2 * a + 1], swap[2 * b + 1] = 2 * b + 1, 2 * a + 1
            gens.append(tuple(swap))
        kernel *= math.factorial(len(members))
        if u == v:
            e = members[0]
            flip = list(range(g.half_edge_count))
            flip[2 * e], flip[2 * e + 1] = 2 * e + 1, 2 * e
            gens.append(tuple(flip))
            kernel *= 2 ** len(members)
    return tuple(gens), order * kernel


def edge_action(half_edge_map) -> tuple[int, ...]:
    """The permutation of the edges induced by an automorphism's half-edge
    map: edge e goes to the edge of the image of half-edge 2e."""
    return tuple([h >> 1 for h in half_edge_map[::2]])

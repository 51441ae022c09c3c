"""Combinatorial cells of the moduli space of stable weighted metric graphs.

The cell poset has one node per isomorphism class of the ``cellular_MG``
family of :mod:`gch.complexes` (stable weighted genus-g graphs with at
least one edge), covering relations given by single-edge collapses, and
dimension = edge count - 1.  The spine, onto which the weight-zero locus
deformation retracts, lists orbit representatives of the ``gf`` family's
forest cubes (weight-zero graph, forest); there is no catalog of proper
edge subsets.  Only combinatorial data is kept: no metrics, no coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ComplexSpec, _family_spec, pair_key
from .generate import enumerate_graphs, refuse_wide_subsets
from .graph import HalfEdgeGraph


@dataclass(frozen=True)
class PosetNode:
    certificate: str
    graph: HalfEdgeGraph
    dimension: int
    weight_total: int
    odd_symmetric: bool


@dataclass
class CellPoset:
    genus: int
    nodes: list[PosetNode]
    covers: frozenset[tuple[int, int]]  # (node index, collapsed-face index)

    @property
    def max_dimension(self) -> int:
        return max((n.dimension for n in self.nodes), default=-1)


@dataclass(frozen=True)
class CubeEntry:
    key: str
    graph_certificate: str
    subset: tuple[int, ...]
    dimension: int
    aut_order: int
    odd_symmetric: bool
    collapse_facets: tuple[str, ...]
    deletion_facets: tuple[str, ...]


@dataclass
class CubeCatalog:
    genus: int
    entries: list[CubeEntry]

    @property
    def max_dimension(self) -> int:
        return max((e.dimension for e in self.entries), default=-1)

    def facets_closed(self) -> bool:
        """Both facet families of every cube are catalogued."""
        keys = {e.key for e in self.entries}
        return all(
            facet in keys
            for entry in self.entries
            for facet in entry.collapse_facets + entry.deletion_facets
        )


def refuse_request(genus: int, spine: bool) -> None:
    """Refuse a request that cannot be built, before any work: ValueError
    below genus 2, where neither the moduli space of graphs nor its spine
    is built, and for the spine InfeasibleEnumeration when the genus's
    graphs can have more edges than a subset-orbit slot encodes
    (:func:`~gch.generate.refuse_wide_subsets`).  Both builders call it
    first, and ``gch moduli`` before its export target is opened."""
    if genus < 2:
        raise ValueError(f"the {'spine' if spine else 'moduli space'} needs genus >= 2")
    if spine:
        refuse_wide_subsets(genus)


def build_cell_poset(genus: int) -> CellPoset:
    refuse_request(genus, spine=False)
    contexts = enumerate_graphs(_family_spec(ComplexSpec("cellular_MG", "even", genus)))
    nodes = []
    for ctx in contexts:
        nodes.append(PosetNode(
            certificate=ctx.certificate,
            graph=ctx.graph,
            dimension=ctx.graph.edge_count - 1,
            weight_total=sum(ctx.graph.weights),
            odd_symmetric=bool(ctx.witness("even")),
        ))
    index = {n.certificate: i for i, n in enumerate(nodes)}
    covers = set()
    for i, ctx in enumerate(contexts):
        for e in range(ctx.graph.edge_count):
            j = index.get(ctx.collapse(e)[0].certificate)
            if j is not None:
                covers.add((i, j))
    return CellPoset(genus=genus, nodes=nodes, covers=frozenset(covers))


def build_spine(genus: int) -> CubeCatalog:
    """Orbit representatives of the forest cubes of the ``gf`` family: the
    spine of the moduli space.  A genus whose graphs can have more edges
    than a subset-orbit slot encodes is refused (``refuse_request``) before
    any enumeration.  As in ``build_complex``, every class's forest orbits
    are walked into one index of cube keys by (certificate, mask) before
    any face is read through it."""
    refuse_request(genus, spine=True)
    family = _family_spec(ComplexSpec("gf", "even", genus))
    contexts = enumerate_graphs(family)
    index = {(ctx.certificate, mask): pair_key(ctx.certificate, ctx.subset_of(mask))
             for ctx in contexts for mask in ctx.subset_orbits(forests_only=True)}
    entries = []
    for ctx in contexts:
        for mask in ctx.subset_orbits(forests_only=True):
            subset = ctx.subset_of(mask)
            facets = {True: [], False: []}
            for collapse, key, _ in ctx.faces(mask, subset, family, odd=False, index=index):
                facets[collapse].append(key)
            entries.append(CubeEntry(
                key=index[ctx.certificate, mask],
                graph_certificate=ctx.certificate,
                subset=subset,
                dimension=len(subset),
                aut_order=ctx.stabilizer_order(mask),
                odd_symmetric=bool(ctx.witness("even", mask)),
                collapse_facets=tuple(facets[True]),
                deletion_facets=tuple(facets[False]),
            ))
    entries.sort(key=lambda e: (e.dimension, e.key))
    return CubeCatalog(genus=genus, entries=entries)


def f_vector(obj, odd_symmetry_free: bool = False) -> tuple[int, ...]:
    """Class counts per dimension, optionally dropping odd-symmetric classes."""
    if isinstance(obj, CellPoset):
        records = obj.nodes
    elif isinstance(obj, CubeCatalog):
        records = obj.entries
    else:
        raise TypeError("f_vector expects a CellPoset or a CubeCatalog")
    counts = [0] * (obj.max_dimension + 1)
    for r in records:
        if not (odd_symmetry_free and r.odd_symmetric):
            counts[r.dimension] += 1
    return tuple(counts)

"""Combinatorial cells of the moduli space of stable weighted metric graphs.

The cell poset has one node per isomorphism class of stable weighted
genus-g graphs with at least one edge, covering relations given by
single-edge collapses, and dimension = edge count - 1.  The cubical
catalog lists orbit representatives of pairs (graph, proper edge subset);
restricted to weight-zero graphs and forest subsets it is the spine, onto
which the weight-zero locus deformation retracts.  Only combinatorial data
is kept: no metrics, no coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import pair_key
from .generate import EnumSpec, enumerate_graphs, refuse_wide_subsets
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

    def positive_weight_subcomplex(self) -> list[PosetNode]:
        return [n for n in self.nodes if n.weight_total >= 1]


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

    @cached_property
    def index(self):
        return {e.key: i for i, e in enumerate(self.entries)}

    @property
    def max_dimension(self) -> int:
        return max((e.dimension for e in self.entries), default=-1)

    def facets_closed(self) -> bool:
        """Both facet families of every cube are catalogued."""
        return all(
            facet in self.index
            for entry in self.entries
            for facet in entry.collapse_facets + entry.deletion_facets
        )


def refuse_low_genus(genus: int, spine: bool) -> None:
    """Raise ValueError below genus 2, where neither the moduli space of
    graphs nor its spine is built; ``gch moduli`` calls it before its
    export target is opened."""
    if genus < 2:
        raise ValueError(f"the {'spine' if spine else 'moduli space'} needs genus >= 2")


def build_cell_poset(genus: int) -> CellPoset:
    refuse_low_genus(genus, spine=False)
    contexts = enumerate_graphs(
        EnumSpec(genus=genus, weighted=True, allow_tadpoles=True, min_edges=1))
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


def build_cube_catalog(genus: int, forest_only: bool) -> CubeCatalog:
    """Orbit representatives of cubes (weight-zero graph, edge subset).
    A genus whose graphs can have more edges than a subset-orbit slot
    encodes is refused before any enumeration."""
    refuse_wide_subsets(genus)
    family = EnumSpec(genus=genus, min_valence=3, allow_tadpoles=True)
    entries = []
    for ctx in enumerate_graphs(family):
        for mask in ctx.subset_orbits(forests_only=forest_only):
            facets = {True: [], False: []}
            for collapse, target, rep, _ in ctx.faces(mask, family, odd=False):
                facets[collapse].append(pair_key(target.certificate, target.subset_of(rep)))
            subset = ctx.subset_of(mask)
            entries.append(CubeEntry(
                key=pair_key(ctx.certificate, subset),
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


def build_spine(genus: int) -> CubeCatalog:
    """Forest cubes of weight-zero graphs: the spine of the moduli space."""
    refuse_low_genus(genus, spine=True)
    return build_cube_catalog(genus, forest_only=True)


def f_vector(obj, odd_symmetry_free: bool = False) -> tuple[int, ...]:
    """Class counts per dimension, optionally dropping odd-symmetric classes."""
    if isinstance(obj, CellPoset):
        items = [(n.dimension, n.odd_symmetric) for n in obj.nodes]
    elif isinstance(obj, CubeCatalog):
        items = [(e.dimension, e.odd_symmetric) for e in obj.entries]
    else:
        raise TypeError("f_vector expects a CellPoset or a CubeCatalog")
    top = max((d for d, _ in items), default=-1)
    if odd_symmetry_free:
        items = [(d, o) for d, o in items if not o]
    counts = [0] * (top + 1)
    for d, _ in items:
        counts[d] += 1
    return tuple(counts)

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
orientation of the rational cycle space of the graph.  Generators whose
symmetries reverse the chosen orientation vanish and are filtered out.

For odd parity the cellular kinds drop tadpole-collapse terms: a sign rule
for transporting a cycle-space orientation across a genus-dropping face
cannot satisfy d^2 = 0 (the two collapse orders of two tadpoles pick up
reinforcing instead of cancelling signs), so the transport is zero and the
complex splits by total weight.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

from .canonical import (
    CanonicalForm,
    automorphism_group,
    canonical_form,
    edge_action_closure,
    ribbon_automorphisms,
)
from .generate import EnumSpec, enumerate_graphs, enumerate_ribbon_structures
from .graph import HalfEdgeGraph
from .linalg import SparseMatrix, multiply, rank
from .orientation import (
    h1_determinant_sign,
    perm_parity,
    rebase_sign,
    reference_orientation,
    spanning_tree,
)
from .ribbon import RibbonStructure, contract_ribbon, surface_invariants

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

_SIMPLICIAL_FAMILIES = {
    "com": dict(min_valence=3, allow_tadpoles=False, weighted=False),
    "com_geq2": dict(min_valence=2, allow_tadpoles=False, weighted=False),
    "com_tad": dict(min_valence=3, allow_tadpoles=True, weighted=False),
    "com_tad_geq2": dict(min_valence=2, allow_tadpoles=True, weighted=False),
    "cellular_MG": dict(weighted=True, allow_tadpoles=True, min_edges=1),
    "cellular_MG_relative": dict(min_valence=3, allow_tadpoles=True, weighted=False),
}

_PAIR_GRAPH_FAMILY = dict(min_valence=3, allow_tadpoles=True, weighted=False)


@dataclass(frozen=True)
class ComplexSpec:
    kind: str
    parity: str
    genus: int
    max_edges: int | None = None
    n: int = 0  # degree parameter: enters reports only, never a matrix entry

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown complex kind {self.kind!r}")
        if self.parity not in ("even", "odd"):
            raise ValueError(f"unknown parity {self.parity!r}")
        if self.genus < 1:
            raise ValueError("complexes are graded by genus >= 1")
        if self.kind.startswith("cellular") and self.genus < 2:
            raise ValueError("moduli cells need genus >= 2")


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
    """Symmetry and collapse data for one canonical graph, computed once."""

    def __init__(self, form: CanonicalForm):
        self.form = form
        self.graph = form.graph
        self.cert = form.certificate
        self._collapse: dict[int, tuple] = {}
        self._collapse_h1: dict[int, int] = {}
        self._lift_h1: dict[int, int] = {}
        self._closure_h1: dict[int, int] = {}
        self._pair_vanish: dict[tuple, bool] = {}
        self._subset_canon: dict[tuple[int, ...], tuple] = {}

    @cached_property
    def classes(self):
        out: dict[tuple[int, int], list[int]] = {}
        for i, (u, v) in enumerate(self.graph.edges):
            out.setdefault((u, v), []).append(i)
        return out

    @cached_property
    def has_parallel_class(self):
        return any(len(m) >= 2 for m in self.classes.values())

    @cached_property
    def ref_orientation(self):
        return reference_orientation(self.graph)

    @cached_property
    def vertex_lifts(self):
        """(perm, lift, full edge parity) for each nontrivial vertex symmetry."""
        from .canonical import lift_vertex_perm, vertex_automorphisms

        out = []
        identity = tuple(range(self.graph.vertex_count))
        for perm in vertex_automorphisms(self.graph):
            if perm == identity:
                continue
            lift = lift_vertex_perm(self.graph, perm)
            out.append((perm, lift, perm_parity(lift.edge_action)))
        return out

    def lift_h1(self, idx: int) -> int:
        h = self._lift_h1.get(idx)
        if h is None:
            lift = self.vertex_lifts[idx][1]
            h = h1_determinant_sign(lift, self.ref_orientation, self.ref_orientation)
            self._lift_h1[idx] = h
        return h

    def vanishes(self, parity: str) -> bool:
        """Whether the class of the bare graph is zero for this parity."""
        if parity == "even":
            if self.has_parallel_class:
                return True
            return any(par == -1 for _, _, par in self.vertex_lifts)
        if self.graph.has_tadpole:
            return True
        return any(
            par * self.lift_h1(i) == -1
            for i, (_, _, par) in enumerate(self.vertex_lifts)
        )

    # -- collapses --------------------------------------------------------

    def collapse(self, e: int):
        """(target context, composite morphism onto its canonical graph)."""
        hit = self._collapse.get(e)
        if hit is None:
            target, m = self.graph.contract(e)
            form = canonical_form(target)
            composite = form.iso.compose(m)
            hit = (get_context(form), composite)
            self._collapse[e] = hit
        return hit

    def collapse_match_parity(self, e: int) -> int:
        """Parity of the surviving edges against the target's canonical order."""
        _, composite = self.collapse(e)
        seq = [composite.edge_action[f] for f in range(self.graph.edge_count) if f != e]
        return perm_parity(seq)

    def collapse_h1(self, e: int) -> int:
        """Cycle-orientation transport sign across the collapse of edge e."""
        h = self._collapse_h1.get(e)
        if h is None:
            target_ctx, composite = self.collapse(e)
            rebased, d1 = rebase_sign(self.ref_orientation, spanning_tree(self.graph, prefer=e))
            d2 = h1_determinant_sign(composite, rebased, target_ctx.ref_orientation)
            h = d1 * d2
            self._collapse_h1[e] = h
        return h

    # -- subset orbit machinery (cube pairs) ------------------------------

    @cached_property
    def closure(self):
        """All edge permutations of Aut, each with a witness morphism."""
        return edge_action_closure(automorphism_group(self.graph))

    def closure_h1(self, idx: int) -> int:
        h = self._closure_h1.get(idx)
        if h is None:
            m = self.closure[idx][1]
            h = h1_determinant_sign(m, self.ref_orientation, self.ref_orientation)
            self._closure_h1[idx] = h
        return h

    def subset_canonical(self, subset) -> tuple[tuple[int, ...], int]:
        """Orbit-minimal representative of an edge subset and the index of
        a closure element carrying the subset onto it."""
        skey = tuple(sorted(subset))
        hit = self._subset_canon.get(skey)
        if hit is not None:
            return hit
        best = None
        best_idx = 0
        for idx, (p, _) in enumerate(self.closure):
            image = tuple(sorted(p[e] for e in skey))
            if best is None or image < best:
                best, best_idx = image, idx
        result = ((best if best is not None else ()), best_idx)
        self._subset_canon[skey] = result
        return result

    def pair_vanishes(self, subset: tuple[int, ...], parity: str) -> bool:
        """Whether the pair (graph, subset) has an orientation-reversing symmetry."""
        key = (subset, parity)
        hit = self._pair_vanish.get(key)
        if hit is not None:
            return hit
        inside = frozenset(subset)
        result = False
        for members in self.classes.values():
            cin = sum(1 for e in members if e in inside)
            if parity == "even":
                if cin >= 2:
                    result = True
                    break
            else:
                if len(members) - cin >= 2:
                    result = True
                    break
        if not result and parity == "odd" and self.graph.has_tadpole:
            result = True
        if not result:
            result = self._pair_vertex_symmetry_odd(subset, inside, parity)
        self._pair_vanish[key] = result
        return result

    def _pair_vertex_symmetry_odd(self, subset, inside, parity) -> bool:
        for idx, (perm, lift, lift_parity) in enumerate(self.vertex_lifts):
            action = self._subset_aware_action(perm, inside)
            if action is None:
                continue
            restricted = perm_parity([action[e] for e in subset]) if subset else 1
            if parity == "even":
                if restricted == -1:
                    return True
            else:
                total = (restricted * self.lift_h1(idx) * lift_parity
                         * perm_parity(action))
                if total == -1:
                    return True
        return False

    def _subset_aware_action(self, perm, inside):
        """Edge action of the subset-aware lift of a vertex permutation.

        Within every parallel class, subset members map to subset members of
        the image class in index order, complement to complement; returns
        None when the permutation cannot stabilize the subset.
        """
        action = [0] * self.graph.edge_count
        for (u, v), members in self.classes.items():
            a, b = perm[u], perm[v]
            key = (a, b) if a <= b else (b, a)
            targets = self.classes.get(key)
            if targets is None or len(targets) != len(members):
                return None
            src_in = [e for e in members if e in inside]
            src_out = [e for e in members if e not in inside]
            dst_in = [e for e in targets if e in inside]
            dst_out = [e for e in targets if e not in inside]
            if len(src_in) != len(dst_in):
                return None
            for e, f in zip(src_in, dst_in):
                action[e] = f
            for e, f in zip(src_out, dst_out):
                action[e] = f
        return action


_CTX_REGISTRY: dict[str, GraphContext] = {}


def get_context(form: CanonicalForm) -> GraphContext:
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
    if spec.kind in _SIMPLICIAL_FAMILIES:
        params = dict(_SIMPLICIAL_FAMILIES[spec.kind])
    elif spec.kind in ("gf", "gp"):
        params = dict(_PAIR_GRAPH_FAMILY)
    elif spec.kind == "ass":
        params = dict(min_valence=3, allow_tadpoles=False, weighted=False)
    else:  # pragma: no cover
        raise ValueError(spec.kind)
    return EnumSpec(genus=spec.genus, max_edges=spec.max_edges, **params)


def _simplicial_generators(spec: ComplexSpec):
    forms = enumerate_graphs(_family_spec(spec))
    gens = []
    for form in forms:
        ctx = get_context(form)
        if ctx.vanishes(spec.parity):
            continue
        gens.append((ctx, Generator(key=ctx.cert, grade=ctx.graph.edge_count, graph=ctx.graph)))
    return gens


def _pair_generators(spec: ComplexSpec):
    import itertools

    from .generate import enumerate_forests

    forms = enumerate_graphs(_family_spec(spec))
    gens = []
    for form in forms:
        ctx = get_context(form)
        e = ctx.graph.edge_count
        if spec.kind == "gf":
            raw = [m.sorted_edges() for m in enumerate_forests(ctx.graph)]
        else:
            raw = []
            for size in range(0, e):
                raw.extend(itertools.combinations(range(e), size))
        seen = set()
        for subset in raw:
            canon, _ = ctx.subset_canonical(subset)
            if canon in seen:
                continue
            seen.add(canon)
            if ctx.pair_vanishes(canon, spec.parity):
                continue
            key = f"{ctx.cert}|{','.join(map(str, canon))}"
            gens.append((ctx, Generator(key=key, grade=len(canon), graph=ctx.graph, subset=canon)))
    return gens


def _ribbon_generators(spec: ComplexSpec):
    forms = enumerate_graphs(_family_spec(spec))
    gens = []
    for form in forms:
        ctx = get_context(form)
        for rib in enumerate_ribbon_structures(ctx.graph):
            rib_form = canonical_form(ctx.graph, ribbon=rib)
            if _ribbon_vanishes(rib_form, spec.parity):
                continue
            surface = surface_invariants(rib_form.graph, rib_form.ribbon)
            gens.append((ctx, Generator(
                key=rib_form.certificate,
                grade=ctx.graph.edge_count,
                graph=rib_form.graph,
                ribbon=rib_form.ribbon,
                surface=surface,
            )))
    return gens


_RIBBON_VANISH_CACHE: dict[tuple[str, str], bool] = {}


def _ribbon_vanishes(rib_form: CanonicalForm, parity: str) -> bool:
    key = (rib_form.certificate, parity)
    hit = _RIBBON_VANISH_CACHE.get(key)
    if hit is not None:
        return hit
    g = rib_form.graph
    ref = reference_orientation(g)
    result = False
    for m in ribbon_automorphisms(g, rib_form.ribbon):
        sign = perm_parity(m.edge_action)
        if parity == "odd":
            sign *= h1_determinant_sign(m, ref, ref)
        if sign == -1:
            result = True
            break
    _RIBBON_VANISH_CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# boundary assembly


def _assemble(spec, gens):
    grades: dict[int, list[Generator]] = {}
    for _, gen in gens:
        grades.setdefault(gen.grade, []).append(gen)
    index: dict[str, tuple[int, int]] = {}
    for k in grades:
        grades[k].sort(key=lambda g: g.key)
        for pos, gen in enumerate(grades[k]):
            index[gen.key] = (k, pos)
    return grades, index


def _simplicial_boundary(spec: ComplexSpec, gens, grades, index):
    acc: dict[int, dict[tuple[int, int], int]] = {}
    no_tadpole_targets = spec.kind in ("com", "com_geq2", "ass")
    for ctx, gen in gens:
        k = gen.grade
        col = index[gen.key][1]
        for e in range(k):
            if ctx.graph.is_tadpole(e):
                if spec.kind == "cellular_MG" and spec.parity == "even":
                    pass  # weight-increment face
                else:
                    continue
            target_ctx, composite = ctx.collapse(e)
            tg = target_ctx.graph
            if no_tadpole_targets and tg.has_tadpole:
                continue
            if spec.kind == "cellular_MG_relative" and any(tg.weights):
                continue
            hit = index.get(target_ctx.cert)
            if hit is None or hit[0] != k - 1:
                continue
            sign = -1 if (e + 1) % 2 else 1
            sign *= ctx.collapse_match_parity(e)
            if spec.parity == "odd":
                sign *= ctx.collapse_h1(e)
            cell = acc.setdefault(k, {})
            key = (hit[1], col)
            cell[key] = cell.get(key, 0) + sign
    return acc


def _pair_boundary(spec: ComplexSpec, gens, grades, index):
    acc: dict[int, dict[tuple[int, int], int]] = {}
    odd = spec.parity == "odd"
    for ctx, gen in gens:
        subset = gen.subset
        k = gen.grade
        col = index[gen.key][1]
        for pos, e in enumerate(subset):
            base = -1 if (pos + 1) % 2 else 1
            rest = [f for f in subset if f != e]
            # collapse part: d
            if not ctx.graph.is_tadpole(e):
                target_ctx, composite = ctx.collapse(e)
                image = [composite.edge_action[f] for f in rest]
                canon, aidx = target_ctx.subset_canonical(image)
                tkey = f"{target_ctx.cert}|{','.join(map(str, canon))}"
                hit = index.get(tkey)
                if hit is not None:
                    aperm = target_ctx.closure[aidx][0]
                    seq = [aperm[f] for f in image]
                    sign = base * perm_parity(seq)
                    if odd:
                        sign *= ctx.collapse_h1(e) * target_ctx.closure_h1(aidx)
                    cell = acc.setdefault(k, {})
                    key = (hit[1], col)
                    cell[key] = cell.get(key, 0) + sign
            # deletion part: -delta
            canon, aidx = ctx.subset_canonical(rest)
            tkey = f"{ctx.cert}|{','.join(map(str, canon))}"
            hit = index.get(tkey)
            if hit is not None:
                aperm = ctx.closure[aidx][0]
                seq = [aperm[f] for f in rest]
                sign = -base * perm_parity(seq)
                if odd:
                    sign *= ctx.closure_h1(aidx)
                cell = acc.setdefault(k, {})
                key = (hit[1], col)
                cell[key] = cell.get(key, 0) + sign
    return acc


def _ribbon_boundary(spec: ComplexSpec, gens, grades, index):
    acc: dict[int, dict[tuple[int, int], int]] = {}
    for ctx, gen in gens:
        g, rib = gen.graph, gen.ribbon
        k = gen.grade
        col = index[gen.key][1]
        ref = reference_orientation(g)
        for e in range(k):
            if g.is_tadpole(e):
                continue
            target, new_rib, m = contract_ribbon(g, rib, e)
            if target.has_tadpole:
                continue
            rib_form = canonical_form(target, ribbon=new_rib)
            hit = index.get(rib_form.certificate)
            if hit is None or hit[0] != k - 1:
                continue
            composite = rib_form.iso.compose(m)
            sign = -1 if (e + 1) % 2 else 1
            sign *= perm_parity([composite.edge_action[f] for f in range(k) if f != e])
            if spec.parity == "odd":
                rebased, d1 = rebase_sign(ref, spanning_tree(g, prefer=e))
                d2 = h1_determinant_sign(
                    composite, rebased, reference_orientation(rib_form.graph))
                sign *= d1 * d2
            cell = acc.setdefault(k, {})
            key = (hit[1], col)
            cell[key] = cell.get(key, 0) + sign
    return acc


def build_complex(spec: ComplexSpec) -> ChainComplex:
    """Assemble generators and exact boundary matrices for a complex spec."""
    if spec.kind in _SIMPLICIAL_FAMILIES:
        gens = _simplicial_generators(spec)
        builder = _simplicial_boundary
    elif spec.kind in ("gf", "gp"):
        gens = _pair_generators(spec)
        builder = _pair_boundary
    else:
        gens = _ribbon_generators(spec)
        builder = _ribbon_boundary
    grades, index = _assemble(spec, gens)
    acc = builder(spec, gens, grades, index)
    boundaries = {}
    top = max(grades, default=-1)
    for k in range(1, top + 1):
        rows = len(grades.get(k - 1, []))
        cols = len(grades.get(k, []))
        entries = {kk: v for kk, v in acc.get(k, {}).items() if v}
        boundaries[k] = SparseMatrix(rows, cols, entries)
    return ChainComplex(spec=spec, grades=grades, boundaries=boundaries)


# ---------------------------------------------------------------------------
# homology and reports


def _worker_count(jobs: int) -> int:
    """Processes for ``jobs`` ranks: ``GCH_THREADS``, capped at the CPU count
    and at ``jobs``, since a fork pool starts every worker at once."""
    try:
        wanted = int(os.environ.get("GCH_THREADS", "1"))
    except ValueError:
        wanted = 1
    return max(1, min(wanted, os.cpu_count() or 1, jobs))


def homology(complex_: ChainComplex) -> HomologyReport:
    """Rational homology dimensions per grade, with the Euler identity checked."""
    top = complex_.max_grade
    counts = {k: len(complex_.grades.get(k, [])) for k in range(top + 1)}
    jobs = {k: complex_.boundary(k) for k in range(1, top + 1)}
    workers = _worker_count(len(jobs))
    ranks: dict[int, int] = {}
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {k: pool.submit(rank, m) for k, m in jobs.items()}
            ranks = {k: f.result() for k, f in futures.items()}
    else:
        ranks = {k: rank(m) for k, m in jobs.items()}
    ranks[0] = 0
    ranks[top + 1] = 0
    dims = {k: counts[k] - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in counts}
    if any(v < 0 for v in dims.values()):
        raise AssertionError("negative homology dimension; boundary matrices inconsistent")
    euler_h = sum((-1) ** k * v for k, v in dims.items())
    euler_c = sum((-1) ** k * v for k, v in counts.items())
    if euler_h != euler_c:
        raise AssertionError("Euler characteristic mismatch between chains and homology")
    return HomologyReport(spec=complex_.spec, counts=counts,
                          ranks={k: ranks.get(k, 0) for k in counts}, dims=dims)


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
    ctx = context_for_graph(g)
    if parity == "even":
        if ctx.has_parallel_class:
            return True, "parallel-edge swap acts by an odd edge permutation"
        for _, _, par in ctx.vertex_lifts:
            if par == -1:
                return True, "vertex symmetry with odd edge permutation"
        return False, ""
    if ctx.graph.has_tadpole:
        return True, "tadpole reversal reverses the cycle orientation"
    for i, (_, _, par) in enumerate(ctx.vertex_lifts):
        if par * ctx.lift_h1(i) == -1:
            return True, "symmetry with odd combined edge and cycle sign"
    return False, ""


def split_by_surface(complex_: ChainComplex) -> dict[tuple[int, int], ChainComplex]:
    """Split a ribbon complex into blocks by thickened-surface type.

    Raises if any boundary entry were to connect different surface keys;
    contraction preserves the thickening, so the matrices must be
    block-diagonal.
    """
    if complex_.spec.kind != "ass":
        raise ValueError("surface splitting applies to ribbon complexes only")
    keys = sorted({gen.surface for gens in complex_.grades.values() for gen in gens})
    out: dict[tuple[int, int], ChainComplex] = {}
    positions: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
    for key in keys:
        grades = {}
        posmap: dict[int, dict[int, int]] = {}
        for k, gens in complex_.grades.items():
            block = [gen for gen in gens if gen.surface == key]
            if block:
                grades[k] = block
                posmap[k] = {i: j for j, (i, gen) in enumerate(
                    (i, gen) for i, gen in enumerate(gens) if gen.surface == key)}
        positions[key] = posmap
        out[key] = ChainComplex(spec=complex_.spec, grades=grades, boundaries={})
    surface_of: dict[int, list] = {
        k: [gen.surface for gen in gens] for k, gens in complex_.grades.items()
    }
    block_entries: dict[tuple, dict[int, dict]] = {key: {} for key in keys}
    for k in range(1, complex_.max_grade + 1):
        m = complex_.boundary(k)
        for (i, j), v in m.entries.items():
            skey = surface_of[k][j]
            if surface_of[k - 1][i] != skey:
                raise AssertionError("boundary entry crosses surface blocks")
            bi = positions[skey][k - 1][i]
            bj = positions[skey][k][j]
            block_entries[skey].setdefault(k, {})[(bi, bj)] = v
    for key in keys:
        cpx = out[key]
        boundaries = {}
        top = cpx.max_grade
        for k in range(1, top + 1):
            rows = len(cpx.grades.get(k - 1, []))
            cols = len(cpx.grades.get(k, []))
            boundaries[k] = SparseMatrix(rows, cols, block_entries[key].get(k, {}))
        cpx.boundaries = boundaries
    return out

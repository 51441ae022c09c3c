import functools
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gch import verify
from gch.complexes import (
    ChainComplex,
    ComplexSpec,
    Generator,
    build_complex,
    degree_report,
    generator_vanishes,
    homology,
    pair_key,
    split_by_surface,
)
from gch.context import _CLASSES, GraphContext
from gch.families import cycle, rose, theta, wheel
from gch.generate import EnumSpec, enumerate_graphs
from gch.linalg import SparseMatrix
from gch.oracle import (automorphism_sign, compose, contract, contract_ribbon,
                        edge_action_closure, half_edge_automorphisms, morphism_sign,
                        reference_orientation)
from gch.orientation import sequence_parity
from gch.ribbon import RibbonStructure, surface_invariants

from forms import automorphisms, canonical_form


def dims_of(spec):
    return homology(build_complex(spec)).dims


def test_com_even_genus2_is_empty():
    c = build_complex(ComplexSpec("com", "even", 2))
    assert c.total_generators() == 0


def test_com_odd_genus2_is_theta_with_zero_differential():
    c = build_complex(ComplexSpec("com", "odd", 2))
    assert c.total_generators() == 1
    gen = c.grades[3][0]
    assert gen.key == canonical_form(theta()).certificate
    assert c.boundary(3).is_zero()
    assert homology(c).dims[3] == 1


def test_com_even_genus3_single_wheel_class():
    c = build_complex(ComplexSpec("com", "even", 3))
    report = homology(c)
    assert report.dims[6] == 1
    assert all(v == 0 for k, v in report.dims.items() if k != 6)
    top = c.grades[6]
    assert len(top) == 1
    assert top[0].key == canonical_form(wheel(3)).certificate


def test_com_even_genus5_is_grt1_in_weight5():
    """At loop order 5 the even commutative complex has one class, at 10
    edges, in degree 0 for N = 2: dim grt_1 in weight 5 is 1 (Willwacher,
    arXiv:1009.1654, H^0(GC_2) = grt_1)."""
    report = homology(build_complex(ComplexSpec("com", "even", 5)))
    assert {k: v for k, v in report.dims.items() if v} == {10: 1}
    assert degree_report(report, 2)[10]["degree"] == 0


def test_gf_even_genus5_is_rational_homology_of_out_f5():
    """The even forested complex at genus n computes H_*(Out(F_n); Q)
    (Conant-Vogtmann, arXiv:math/0208169), and Out(F_5) has the rational
    homology of a point (Hatcher-Vogtmann, "Rational homology of
    Aut(F_n)", Math. Res. Lett. 5 (1998); Ohashi, "The rational homology
    group of Out(F_n) for n <= 6", Experiment. Math. 17 (2008))."""
    report = homology(build_complex(ComplexSpec("gf", "even", 5)))
    assert {k: v for k, v in report.dims.items() if v} == {0: 1}


def _assert_same_chain_complex(a, b):
    """The same generator keys in every grade and the same boundaries."""
    assert ({k: [g.key for g in gens] for k, gens in a.grades.items()}
            == {k: [g.key for g in gens] for k, gens in b.grades.items()})
    assert a.max_grade == b.max_grade
    for k in range(1, a.max_grade + 1):
        assert a.boundary(k) == b.boundary(k), k


def test_odd_relative_cells_are_the_commutative_complex():
    """The cells of the moduli space of tropical curves with all vertex
    weights zero, relative to the rest, form Kontsevich's commutative graph
    complex (Chan-Galatius-Payne, arXiv:1805.10186).  In odd parity the two
    complexes are equal as chain complexes: the same generators in every
    grade and the same boundary matrices, genus 2 to 5."""
    for genus in range(2, 6):
        _assert_same_chain_complex(
            build_complex(ComplexSpec("cellular_MG_relative", "odd", genus)),
            build_complex(ComplexSpec("com", "odd", genus)))


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_relative_cells_are_the_complex_with_tadpoles(parity):
    """The relative cellular chains of (MG_g, positive-weight locus) are
    the weight-zero complex with tadpoles (Chan-Galatius-Payne,
    arXiv:1805.10186): the same family of graphs, and a non-tadpole
    collapse of a weight-zero graph keeps weight zero, so the faces agree.
    Pinned as chain complexes in both parities, genus 2 to 4."""
    for genus in (2, 3, 4):
        _assert_same_chain_complex(
            build_complex(ComplexSpec("cellular_MG_relative", parity, genus)),
            build_complex(ComplexSpec("com_tad", parity, genus)))


def test_com_odd_genus3_structure():
    """Hand check: grade 5 holds one class, grade 6 two (K4 and the ladder
    with doubled rungs).  K4 collapses onto the grade-5 graph along all six
    edges with one sign (its automorphisms are edge-transitive with even
    signs), the ladder along its two plain edges; the doubled-edge
    collapses make tadpoles and drop.  Hence rank d6 = 1 and the homology
    is one class at the top."""
    c = build_complex(ComplexSpec("com", "odd", 3))
    counts = c.generator_counts()
    assert counts == [0, 0, 0, 0, 0, 1, 2]
    d6 = c.boundary(6)
    values = sorted(abs(v) for v in d6.entries.values())
    assert values == [2, 6]
    report = homology(c)
    assert report.dims == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1}


def test_cellular_genus2_hand_values():
    c = build_complex(ComplexSpec("cellular_MG", "even", 2))
    by_grade = {k: [g.graph for g in gens] for k, gens in c.grades.items()}
    assert sorted(by_grade) == [1, 2]
    assert len(by_grade[1]) == 2
    assert len(by_grade[2]) == 1
    antenna = by_grade[2][0]
    assert antenna.weights in ((0, 1), (1, 0))
    assert c.boundary(2).nnz == 2
    report = homology(c)
    assert report.dims == {0: 0, 1: 1, 2: 0}


def test_cellular_relative_genus2_empty():
    c = build_complex(ComplexSpec("cellular_MG_relative", "even", 2))
    assert c.total_generators() == 0


def test_gf_even_genus2_path_spine():
    c = build_complex(ComplexSpec("gf", "even", 2))
    assert [len(c.grades.get(k, [])) for k in (0, 1)] == [3, 2]
    assert c.max_grade == 1
    report = homology(c)
    assert report.dims == {0: 1, 1: 0}


def test_gf_odd_genus2_empty():
    c = build_complex(ComplexSpec("gf", "odd", 2))
    assert c.total_generators() == 0


def test_gp_even_genus2_acyclic():
    c = build_complex(ComplexSpec("gp", "even", 2))
    counts = c.generator_counts()
    assert counts == [3, 4, 1]
    report = homology(c)
    assert all(v == 0 for v in report.dims.values())


def test_gp_matches_com_genus3_with_shift():
    gp = homology(build_complex(ComplexSpec("gp", "even", 3)))
    com = homology(build_complex(ComplexSpec("com", "even", 3)))
    top = max(com.counts)
    for k in range(top):
        assert gp.dims.get(k, 0) == com.dims.get(k + 1, 0), k


def test_gp_odd_genus5_matches_com_with_shift():
    """The pair complex of cubes (graph, proper edge subset) has the
    homology of ``com`` shifted down one grade, as at genus 3 above.  At
    genus 5 in odd parity the automorphism groups are large enough that
    the alignment signs of many symmetries enter the matrices."""
    gp = homology(build_complex(ComplexSpec("gp", "odd", 5)))
    com = homology(build_complex(ComplexSpec("com", "odd", 5)))
    assert {k: v for k, v in com.dims.items() if v} == {12: 2}
    assert {k: v for k, v in gp.dims.items() if v} == {11: 2}


@pytest.mark.parametrize("parity,expected", [
    ("even", {2: {}, 3: {5: 1}, 4: {}}),
    ("odd", {2: {2: 1}, 3: {5: 1}, 4: {8: 1}}),
])
def test_gp_is_com_tad_one_grade_down(parity, expected):
    """``gp`` has the homology of ``com_tad`` one grade down, at genus 2-4
    in every grade, zero or not.  The reason: filter ``gp`` by the edge
    count of the underlying graph.  A deletion face keeps the graph and a
    collapse lowers its edge count, so the associated graded complex is,
    class by class, the proper subsets of the class's E edges with their
    deletion faces: the boundary of a simplex, one sphere, whose homology
    sits in grade E - 1 alone, where the class's ``com_tad`` generator sits
    in grade E.  This test checks the statement at these genera; it does
    not prove it."""
    for genus, dims in expected.items():
        gp = homology(build_complex(ComplexSpec("gp", parity, genus)))
        com_tad = homology(build_complex(ComplexSpec("com_tad", parity, genus)))
        assert {k: d for k, d in gp.dims.items() if d} == dims, genus
        grades = range(-1, max(com_tad.dims, default=0) + 1)
        assert ([gp.dims.get(k, 0) for k in grades]
                == [com_tad.dims.get(k + 1, 0) for k in grades]), genus


def test_com_geq2_genus1_window():
    even = homology(build_complex(ComplexSpec("com_geq2", "even", 1, max_edges=9)))
    nonzero = {k for k, v in even.dims.items() if v}
    assert nonzero == {5, 9}
    odd = homology(build_complex(ComplexSpec("com_geq2", "odd", 1, max_edges=9)))
    assert {k for k, v in odd.dims.items() if v} == {3, 7}


def test_com_tad_geq2_genus1_includes_loop_class():
    even = homology(build_complex(ComplexSpec("com_tad_geq2", "even", 1, max_edges=9)))
    assert {k for k, v in even.dims.items() if v} == {1, 5, 9}
    odd = homology(build_complex(ComplexSpec("com_tad_geq2", "odd", 1, max_edges=9)))
    assert {k for k, v in odd.dims.items() if v} == {3, 7}


@pytest.mark.parametrize("kind", [
    "com", "com_geq2", "com_tad", "com_tad_geq2",
    "cellular_MG", "cellular_MG_relative", "gf", "gp", "ass",
])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_d_squared_zero_small(kind, parity):
    genus = 2 if kind.startswith("cellular") else 2
    max_edges = 6 if "geq2" in kind or "tad" in kind else None
    spec = ComplexSpec(kind, parity, genus, max_edges=max_edges)
    c = build_complex(spec)
    assert c.d_squared_is_zero()


def test_d_squared_zero_genus3_all_kinds():
    for kind in ("com", "com_tad", "cellular_MG", "cellular_MG_relative", "gf", "gp", "ass"):
        for parity in ("even", "odd"):
            c = build_complex(ComplexSpec(kind, parity, 3))
            assert c.d_squared_is_zero(), (kind, parity)


def test_generator_vanishes_examples():
    assert generator_vanishes(cycle(4), "even")[0] is True
    assert generator_vanishes(cycle(7), "odd")[0] is False
    assert generator_vanishes(wheel(7), "odd")[0] is False
    assert generator_vanishes(theta(), "even") == (
        True, "parallel-edge swap acts by an odd edge permutation")
    vanished, reason = generator_vanishes(rose(1), "odd")
    assert vanished and "tadpole" in reason


def _collapse_onto_canonical(gen, e):
    """The canonical form of gen / e and the collapse composed with the
    isomorphism onto it."""
    if gen.ribbon is None:
        target, m = contract(gen.graph, e)
        form = canonical_form(target)
    else:
        target, cycles, m = contract_ribbon(gen.graph, gen.ribbon.cycles, e)
        form = canonical_form(target, ribbon=RibbonStructure(target, cycles))
    return form, compose(form.iso, m)


def _simplicial_faces(c, k):
    """The oracle's entries of the grade-k boundary of a simplicial complex:
    each entry (H, G) is the sum of the oracle's morphism_sign of
    iso . collapse over the edges of G whose collapse lands on H, against
    the oracle's reference orientations; a tadpole collapse counts only as
    the weight-increment face of even cellular_MG."""
    kind, parity = c.spec.kind, c.spec.parity
    rows = {gen.key: i for i, gen in enumerate(c.grades.get(k - 1, []))}
    expected = {}
    for j, gen in enumerate(c.grades.get(k, [])):
        src = reference_orientation(gen.graph)
        for e in range(k):
            if gen.graph.is_tadpole(e) and (parity == "odd" or kind != "cellular_MG"):
                continue
            form, m = _collapse_onto_canonical(gen, e)
            i = rows.get(form.certificate)
            if i is not None:
                sign = morphism_sign(m, parity, src, reference_orientation(form.graph))
                expected[i, j] = expected.get((i, j), 0) + sign
    return expected


def _oracle_face(expected, rows, form, images, sign, odd, col, autos):
    """Add a face to the row it aligns onto.  ``images`` are the face's
    subset edges in the canonical graph of ``form``, in the column's subset
    order; an automorphism from the brute-force search carries them onto
    the row's subset, with its parity there and, for odd parity, its sign
    on H_1 (the all-edges odd sign over the even sign).  A face aligned
    onto no row is a vanishing generator."""
    g = form.graph
    if form.certificate not in autos:
        autos[form.certificate] = half_edge_automorphisms(g)
    every = range(g.edge_count)
    for aut in autos[form.certificate]:
        aligned = [aut.edges[e] for e in images]
        row = rows.get(pair_key(form.certificate, sorted(aligned)))
        if row is None:
            continue
        if sum(a > b for a, b in itertools.combinations(aligned, 2)) % 2:
            sign = -sign
        if odd:
            sign *= automorphism_sign(aut, every, True) * automorphism_sign(aut, every, False)
        expected[row, col] = expected.get((row, col), 0) + sign
        return


def _pair_faces(c, k, autos):
    """The oracle's entries of the grade-k boundary of a cube complex,
    recomputed without the engine's orbit walk.  The face of (G, S) dropping
    the edge e at 0-based position p of S is the collapse (G/e, S - e), for
    e not a tadpole, and the deletion (G, S - e).  Its sign is (-1)^(p+1),
    times the parity and H_1 sign of an oracle automorphism aligning its
    subset onto the row's, times for a collapse the cycle transport, the
    oracle's morphism_sign of iso . collapse with its edge-order part
    divided out, and for a deletion -1.  Any aligning automorphism gives
    the same sign: the stabilizer of a surviving row acts with sign 1."""
    odd = c.spec.parity == "odd"
    rows = {gen.key: i for i, gen in enumerate(c.grades.get(k - 1, []))}
    expected = {}
    for j, gen in enumerate(c.grades.get(k, [])):
        g, subset = gen.graph, gen.subset
        for p, e in enumerate(subset):
            base = 1 if p % 2 else -1
            rest = [f for f in subset if f != e]
            if not g.is_tadpole(e):
                target, m = contract(g, e)
                form = canonical_form(target)
                composite = compose(form.iso, m)
                transport = 1
                if odd:
                    src, dst = reference_orientation(g), reference_orientation(form.graph)
                    transport = (morphism_sign(composite, "odd", src, dst)
                                 * morphism_sign(composite, "even", src, dst))
                _oracle_face(expected, rows, form, [composite.edge_action[f] for f in rest],
                             base * transport, odd, j, autos)
            _oracle_face(expected, rows, canonical_form(g), rest, -base, odd, j, autos)
    return expected


def _wrong_grades(kind, parity, genus):
    """The grades whose boundary differs from the oracle's face signs."""
    c = build_complex(ComplexSpec(kind, parity, genus))
    autos = {}
    wrong = []
    for k in range(1, c.max_grade + 1):
        expected = _pair_faces(c, k, autos) if kind in ("gf", "gp") else _simplicial_faces(c, k)
        if c.boundary(k).entries != {ij: v for ij, v in expected.items() if v}:
            wrong.append(k)
    return wrong


@pytest.mark.parametrize("kind", ["com", "com_tad", "cellular_MG", "cellular_MG_relative", "ass"])
def test_face_signs_match_morphism_sign(kind):
    """Each boundary entry of a simplicial kind at genus 2-4 is the sum of
    the oracle's morphism signs of its collapses (``_simplicial_faces``)."""
    for parity in ("even", "odd"):
        for genus in (2, 3, 4):
            assert _wrong_grades(kind, parity, genus) == [], (parity, genus)


@pytest.mark.parametrize("kind", ["gf", "gp"])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_pair_face_signs_match_oracle(kind, parity):
    """Each boundary entry of a cube kind at genus 2-4, recomputed from
    oracle automorphisms and morphism signs (``_pair_faces``)."""
    for genus in (2, 3, 4):
        assert _wrong_grades(kind, parity, genus) == [], genus


# The odd complexes whose boundaries change when every collapse H_1 sign is
# negated: gf odd genus 3 has a single entry, a deletion face, so gf is taken
# at genus 4.
GENERA = {"com": 3, "gf": 4, "ass": 3}
# Negates the H_1 sign of every collapse wherever ``h1_map_sign`` is bound,
# automorphisms keeping theirs, then prints the grades where the oracle's
# face signs disagree.
MUTANT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import gch.context, gch.orientation
from test_complexes import GENERA, _wrong_grades

h1_map_sign = gch.orientation.h1_map_sign


def mutant(graph, half_edge_map, target, e=None):
    sign = h1_map_sign(graph, half_edge_map, target, e)
    return sign if e is None else -sign


gch.context.h1_map_sign = gch.orientation.h1_map_sign = mutant
print(json.dumps({kind: _wrong_grades(kind, "odd", genus) for kind, genus in GENERA.items()}))
"""


def test_face_sign_oracle_catches_a_negated_collapse_transport():
    """The odd face-sign references share no code with the engine: with the
    engine's H_1 sign negated on every collapse, the odd com, gf
    and ass boundaries of ``GENERA`` disagree with the oracle.  The mutant
    runs in a fresh interpreter, so that its collapse signs do not stay in
    this process's class registry."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    result = subprocess.run([sys.executable, "-c", MUTANT, str(tests)], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    wrong = json.loads(result.stdout)
    assert all(wrong[kind] for kind in GENERA), wrong


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("kind", ["gf", "gp", "ass", "cellular_MG"])
def test_face_targets_are_the_registry_objects(kind, parity, monkeypatch):
    """Every class that a face lands on while a genus-3 complex is built,
    the target of a collapse or the class of a deletion, is the registry's
    one object of its class: each is recorded as ``GraphContext.collapse``
    hands it to the face walk."""
    collapse, targets = GraphContext.collapse, []

    def recording(self, e):
        hit = collapse(self, e)
        targets.extend((self, hit[0]))
        return hit

    monkeypatch.setattr(GraphContext, "collapse", recording)
    build_complex(ComplexSpec(kind, parity, 3))
    assert targets
    assert all(target is _CLASSES[target.certificate] for target in targets)


def test_split_by_surface_genus2():
    c = build_complex(ComplexSpec("ass", "odd", 2))
    blocks = split_by_surface(c)
    assert set(blocks) == {(0, 3), (1, 1)}
    for sub in blocks.values():
        assert sub.d_squared_is_zero()


def test_split_by_surface_preserves_generators():
    c = build_complex(ComplexSpec("ass", "even", 3))
    blocks = split_by_surface(c)
    assert sum(b.total_generators() for b in blocks.values()) == c.total_generators()
    for sub in blocks.values():
        assert sub.d_squared_is_zero()


def _dict_blocks(c):
    """The surface blocks of a ribbon complex with each boundary built by
    the dictionary constructor of ``SparseMatrix`` from (row, column)
    entries: the reference for ``split_by_surface``."""
    place, blocks = {}, {}
    for k, gens in c.grades.items():
        for i, gen in enumerate(gens):
            block = blocks.setdefault(gen.surface, {}).setdefault(k, [])
            place[k, i] = (gen.surface, len(block))
            block.append(gen)
    entries = {key: {} for key in blocks}
    for k in range(1, c.max_grade + 1):
        for i, j, v in c.boundary(k).items():
            (key, bi), (_, bj) = place[k - 1, i], place[k, j]
            entries[key].setdefault(k, {})[bi, bj] = v
    return {key: {k: SparseMatrix(len(grades.get(k - 1, [])), len(grades.get(k, [])),
                                  entries[key].get(k, {}))
                  for k in range(1, max(grades) + 1)}
            for key, grades in blocks.items()}


@pytest.mark.parametrize("genus", [3, 4])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_surface_blocks_match_the_dictionary_build(genus, parity):
    """Every surface block's boundaries, written column by column, equal
    the dictionary constructor's build from the same entries, and its
    grades are the complex's generators of that surface in order."""
    c = build_complex(ComplexSpec("ass", parity, genus))
    blocks, reference = split_by_surface(c), _dict_blocks(c)
    assert list(blocks) == sorted(reference)
    for key, sub in blocks.items():
        assert sub.boundaries == reference[key], key
        for k, gens in sub.grades.items():
            assert gens == [gen for gen in c.grades[k] if gen.surface == key]


def test_ribbon_surface_check_reads_the_same_through_either_build(monkeypatch):
    """``gch verify``'s ribbon-surface row is the same whether its blocks
    come from ``split_by_surface`` or from the dictionary build."""
    row = verify._run("ribbon_surfaces", verify.check_ribbon_surfaces)

    def dict_split(c):
        return {key: ChainComplex(c.spec, {k: [gen for gen in gens if gen.surface == key]
                                           for k, gens in c.grades.items()}, boundaries)
                for key, boundaries in sorted(_dict_blocks(c).items())}

    monkeypatch.setattr(verify, "split_by_surface", dict_split)
    assert verify._run("ribbon_surfaces", verify.check_ribbon_surfaces) == row
    assert row.passed


@functools.cache
def _surface_dims(genus, parity):
    """Nonzero homology dims of each surface block of ``ass`` at this genus."""
    blocks = split_by_surface(build_complex(ComplexSpec("ass", parity, genus)))
    return {key: {k: v for k, v in homology(sub).dims.items() if v}
            for key, sub in blocks.items()}


def test_one_boundary_surface_blocks_agree_between_parities():
    """A (h, 1) block computes the cohomology of M_{h,1}/S_1, and S_1 is
    trivial, so the sign twist on the boundary components cannot tell the
    parities apart (Kontsevich, Penner)."""
    for genus in (2, 3, 4):
        for parity in ("even", "odd"):
            one_boundary = {key for key in _surface_dims(genus, parity) if key[1] == 1}
            assert one_boundary == ({(genus // 2, 1)} if genus % 2 == 0 else set())
    assert _surface_dims(2, "even")[(1, 1)] == _surface_dims(2, "odd")[(1, 1)] == {3: 1}
    assert _surface_dims(4, "even")[(2, 1)] == _surface_dims(4, "odd")[(2, 1)] \
        == {6: 1, 7: 2, 9: 1}


def test_planar_surface_blocks_are_one_class_in_odd_parity():
    """The (0, g+1) block computes H^*(M_{0,g+1}) with S_{g+1} permuting the
    boundary components.  At genus 2, M_{0,3} is a point, so the block with
    a class is the one with S_3 acting trivially: the odd parity is the
    untwisted one, and the even parity twists by the sign of S_s.  The
    invariants H^*(M_{0,s})^{S_s} are Q in degree zero (Getzler, "Operads
    and moduli spaces of genus 0 Riemann surfaces"), one class on the
    3g-3 edges of the trivalent graphs; the sign-twisted part vanishes."""
    for genus in (2, 3, 4):
        assert _surface_dims(genus, "odd")[(0, genus + 1)] == {3 * genus - 3: 1}
        assert _surface_dims(genus, "even").get((0, genus + 1), {}) == {}


def test_degree_report_formulas():
    report = homology(build_complex(ComplexSpec("com", "even", 3)))
    table = degree_report(report, 0)
    assert table[6]["degree"] == 6
    table2 = degree_report(report, 2)
    assert table2[6]["degree"] == 0
    # degrees for two parameters differ by (n - n') * genus in every grade
    table1 = degree_report(report, 1)
    for k in table:
        assert table[k]["degree"] - table1[k]["degree"] == 3
    gf_report = homology(build_complex(ComplexSpec("gf", "even", 2)))
    gf_table = degree_report(gf_report, 2)
    assert gf_table[0]["classifying_space_degree"] == 4
    assert gf_table[1]["dual_tree_degree"] == (3 - 4) * 2 - 3 - 1


def test_homology_euler_identity():
    for spec in [
        ComplexSpec("cellular_MG", "even", 3),
        ComplexSpec("gf", "even", 3),
        ComplexSpec("com_tad", "odd", 3),
    ]:
        report = homology(build_complex(spec))
        lhs = sum((-1) ** k * v for k, v in report.dims.items())
        assert lhs == report.euler_characteristic()


def test_homology_invariant_under_relabeling_and_orientation_flips():
    """Permuting generator order and flipping reference orientations acts by
    signed permutation matrices on the boundaries, so dimensions must not move."""
    import random

    from gch.linalg import SparseMatrix, boundary_ranks

    rng = random.Random(6)
    for spec in [ComplexSpec("cellular_MG", "even", 3), ComplexSpec("gf", "even", 3)]:
        c = build_complex(spec)
        report = homology(c)
        base = [report.dims.get(k, 0) for k in range(max(report.counts, default=-1) + 1)]
        counts = c.generator_counts()
        perms = {}
        signs = {}
        for k, n in enumerate(counts):
            p = list(range(n))
            rng.shuffle(p)
            perms[k] = p
            signs[k] = [rng.choice((1, -1)) for _ in range(n)]
        boundaries = [None]
        for k in range(1, len(counts)):
            m = c.boundary(k)
            entries = {
                (perms[k - 1][i], perms[k][j]): v * signs[k - 1][i] * signs[k][j]
                for (i, j), v in m.entries.items()
            }
            boundaries.append(SparseMatrix(m.rows, m.cols, entries))
        assert boundary_ranks(boundaries, counts)[1] == base


def test_empty_complex_report():
    report = homology(build_complex(ComplexSpec("com", "even", 2)))
    assert report.dims == {}
    assert report.euler_characteristic() == 0


def test_gf_even_matches_known_group_homology():
    """The forest-pair complex computes the rational homology of the spine,
    a classifying space for outer automorphisms of free groups: trivial in
    rank 3, and a single class in degree 4 for rank 4 (the first known
    nontrivial class there)."""
    rank3 = homology(build_complex(ComplexSpec("gf", "even", 3)))
    assert {k: v for k, v in rank3.dims.items() if v} == {0: 1}
    rank4 = homology(build_complex(ComplexSpec("gf", "even", 4)))
    assert {k: v for k, v in rank4.dims.items() if v} == {0: 1, 4: 1}


def test_gp_even_genus4_matches_empty_commutative():
    gp = homology(build_complex(ComplexSpec("gp", "even", 4)))
    assert all(v == 0 for v in gp.dims.values())
    assert build_complex(ComplexSpec("com", "even", 4)).total_generators() == 0


def test_cellular_genus4_rationally_acyclic():
    """Genus-4 moduli cells: reduced homology vanishes in every degree, and
    the relative complex (weight-zero cells only) is exact."""
    absolute = homology(build_complex(ComplexSpec("cellular_MG", "even", 4)))
    reduced = dict(absolute.dims)
    reduced[1] -= 1
    assert all(v == 0 for v in reduced.values()), reduced
    relative = homology(build_complex(ComplexSpec("cellular_MG_relative", "even", 4)))
    assert all(v == 0 for v in relative.dims.values())


def test_unbounded_variant_needs_max_edges():
    from gch.generate import InfeasibleEnumeration

    with pytest.raises(InfeasibleEnumeration):
        build_complex(ComplexSpec("com_geq2", "even", 2))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        ComplexSpec("nope", "even", 2)
    with pytest.raises(ValueError):
        ComplexSpec("com", "sideways", 2)
    with pytest.raises(ValueError):
        ComplexSpec("cellular_MG", "even", 1)
    with pytest.raises(ValueError, match="non-negative"):
        ComplexSpec("com", "even", 2, max_edges=-3)
    with pytest.raises(ValueError):
        split_by_surface(build_complex(ComplexSpec("com", "even", 2)))


@pytest.mark.parametrize("family", [
    dict(min_valence=3, allow_tadpoles=True),
    dict(weighted=True, allow_tadpoles=True, min_edges=1),
    dict(min_valence=3, ribbon=True),
    dict(min_valence=3, allow_tadpoles=True, ribbon=True),
], ids=["com_tad", "weighted", "ribbon", "ribbon_tad"])
def test_full_mask_takes_the_bare_verdict_without_a_table(family):
    """The full mask's verdict is the bare graph's, with no subset table:
    in a fresh class of every class of the family at g <= 4, both parities
    agree in truth value with the bare verdict and with the verdict of the
    full subset read off the edge-action closure (whose stabilizer is the
    whole group), and the class has no ``_orbit`` after it."""
    checked = 0
    for genus in (1, 2, 3, 4):
        if family.get("weighted") and genus < 2:
            continue
        for ctx in enumerate_graphs(EnumSpec(genus=genus, **family)):
            fresh = GraphContext(ctx.certificate, ctx.graph, ctx.ribbon, ctx.generators,
                                 ctx.aut_order)
            closure = edge_action_closure(fresh.graph.edge_count,
                                          [(m.edge_action, fresh.aut_h1(m.half_edge_map))
                                           for m in automorphisms(fresh)])
            even = any(sequence_parity(p) for p, _ in closure)
            odd = fresh.kernel_odd or any((-1 if sequence_parity(p) else 1) * sign == -1
                                          for p, sign in closure)
            for parity, expected in (("even", even), ("odd", odd)):
                verdict = bool(fresh.witness(parity, fresh.full_mask))
                assert verdict == bool(fresh.witness(parity)) == expected, (ctx.certificate, parity)
            assert "_orbit" not in vars(fresh), ctx.certificate
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("kind,parity", [("gf", "even"), ("gp", "odd"), ("com", "odd"),
                                         ("cellular_MG", "even"), ("ass", "even"),
                                         ("ass", "odd")])
def test_generators_hold_their_class_mask_and_subset(kind, parity):
    """A generator keeps exactly its key, class, mask and subset, in slots,
    and reads its graph, ribbon and surface off its class; a ribbon
    generator's surface is its class's surface invariants."""
    c = build_complex(ComplexSpec(kind, parity, 3))
    assert Generator.__slots__ == ("key", "ctx", "mask", "subset")
    cubes = kind in ("gf", "gp")
    for k, gens in c.grades.items():
        for gen in gens:
            assert not hasattr(gen, "__dict__")
            assert gen.graph is gen.ctx.graph and gen.ribbon is gen.ctx.ribbon
            assert gen.mask.bit_count() == k
            assert gen.ctx is _CLASSES[gen.ctx.certificate]
            if cubes:
                assert gen.subset == gen.ctx.subset_of(gen.mask)
                assert gen.key == pair_key(gen.ctx.certificate, gen.subset)
            else:
                assert gen.mask == gen.ctx.full_mask
                assert gen.subset is None and gen.key == gen.ctx.certificate
            if kind == "ass":
                assert gen.surface == surface_invariants(gen.graph, gen.ribbon)
            else:
                assert gen.surface is None

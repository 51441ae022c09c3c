"""Named verification suites behind ``gch verify`` and the acceptance tests.

Each check returns a :class:`CheckResult`.  The ``core`` suite is a fast
smoke battery; the ``paper`` suite checks the paper's claims exactly:
boundary-squared vanishing for every complex kind, the symmetry vanishing
table of the cycle/wheel/banana families, the known small homology values,
the cellular, relative and cube-pair complexes against the commutative
one, the moduli dimension formulas and the ribbon surface invariants.
Property checks against the brute-force references of :mod:`gch.oracle`
live in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import canonical_entry
from .complexes import (
    KINDS,
    ComplexSpec,
    build_complex,
    generator_vanishes,
    homology,
    split_by_surface,
)
from .families import banana, cycle, triangle_with_doubled_edge, wheel
from .generate import EnumSpec, enumerate_graphs
from .linalg import rank
from .moduli import build_cell_poset, build_spine, f_vector
from .ribbon import surface_invariants


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _run(name, fn):
    try:
        detail = fn()
        passed = True
        if detail is None:
            detail = "ok"
    except AssertionError as exc:
        passed = False
        detail = str(exc) or "assertion failed"
    return CheckResult(name=name, passed=passed, detail=detail)


def _check(condition, message=None) -> None:
    """``assert condition, message``, which ``python -O`` would strip, so
    that a failed check is reported under -O too."""
    if not condition:
        raise AssertionError() if message is None else AssertionError(message)


def _variant_max_edges(kind):
    return 9 if ("geq2" in kind or "tad" in kind) else None


# ---------------------------------------------------------------------------
# paper-suite checks


def check_boundary_squared():
    """d o d = 0 exactly for every kind, both parities, genus 2..4."""
    total = 0
    for genus in (2, 3, 4):
        for kind in KINDS:
            for parity in ("even", "odd"):
                spec = ComplexSpec(kind, parity, genus, max_edges=_variant_max_edges(kind))
                c = build_complex(spec)
                _check(c.d_squared_is_zero(), f"d^2 != 0 for {spec}")
                total += c.total_generators()
    return f"all boundaries square to zero ({total} generators touched)"


def _vanishing_table_rows():
    rows = []
    # cycles: even survive iff n = 1 mod 4; odd survive iff n = 3 mod 4
    for n in range(1, 10):
        rows.append((f"C{n}", cycle(n), "even", n % 4 != 1))
        rows.append((f"C{n}", cycle(n), "odd", n % 4 != 3))
    # bananas from n=2 (the single edge has no symmetry to kill it):
    # even always vanish, odd vanish exactly for even n
    for n in range(2, 10):
        rows.append((f"B{n}", banana(n), "even", True))
        rows.append((f"B{n}", banana(n), "odd", n % 2 == 0))
    # even wheels vanish in both parities; odd wheels survive in the even
    # parity and vanish for odd parity exactly when the spoke count is 4k+1
    for n in range(1, 10):
        rows.append((f"W{2 * n}", wheel(2 * n), "even", True))
        rows.append((f"W{2 * n}", wheel(2 * n), "odd", True))
    for n in range(1, 10):
        rows.append((f"W{2 * n + 1}", wheel(2 * n + 1), "even", False))
        rows.append((f"W{2 * n + 1}", wheel(2 * n + 1), "odd", n % 2 == 0))
    return rows


def check_vanishing_table():
    """Symmetry vanishing of cycles, bananas and wheels for both parities."""
    bad = []
    rows = _vanishing_table_rows()
    for name, graph, parity, expected in rows:
        got, _ = generator_vanishes(graph, parity)
        if got is not expected:
            bad.append(f"{name}/{parity}: expected vanish={expected}, got {got}")
    _check(not bad, "; ".join(bad))
    return f"{len(rows)} rows match"


def check_small_commutative_homology():
    """Genus 2 even: empty complex; genus 3 even: one class on six edges."""
    c2 = build_complex(ComplexSpec("com", "even", 2))
    _check(c2.total_generators() == 0, "genus-2 even complex should be empty")
    c3 = build_complex(ComplexSpec("com", "even", 3))
    report = homology(c3)
    expected = {k: (1 if k == 6 else 0) for k in report.dims}
    _check(report.dims == expected, f"genus-3 dims {report.dims}")
    _check(c3.grades[6][0].key == canonical_entry(wheel(3))[0].certificate)
    return "genus 2 empty; genus 3 homology Q at six edges (the 3-spoke wheel)"


def check_moduli_genus2_contractible():
    """The genus-2 cell complex has trivial reduced homology; by hand the
    surviving generators are the two one-edge graphs and the tadpole
    antenna, whose boundary has rank one."""
    c = build_complex(ComplexSpec("cellular_MG", "even", 2))
    counts = c.generator_counts()
    _check(counts == [0, 2, 1], f"generator counts {counts}")
    one_edge = {gen.graph.edges for gen in c.grades[1]}
    _check(one_edge == {((0, 1),), ((0, 0),)}, "unexpected one-edge generators")
    antenna = c.grades[2][0].graph
    _check(sorted(antenna.weights) == [0, 1] and antenna.edge_count == 2)
    _check(rank(c.boundary(2)) == 1)
    report = homology(c)
    reduced = dict(report.dims)
    reduced[1] -= 1  # one connected component
    _check(all(v == 0 for v in reduced.values()), f"reduced dims {reduced}")
    return "reduced homology vanishes on generators {weight-1 pair, weight-1 tadpole; antenna}"


def check_relative_cells_match_commutative():
    """Relative weight-zero cells compute commutative graph homology, and
    agree with reduced absolute cell homology, genus 2 and 3."""
    for genus in (2, 3):
        com = homology(build_complex(ComplexSpec("com", "even", genus)))
        rel = homology(build_complex(ComplexSpec("cellular_MG_relative", "even", genus)))
        top = max(max(com.counts, default=0), max(rel.counts, default=0))
        for k in range(top + 1):
            _check(com.dims.get(k, 0) == rel.dims.get(k, 0),
                   f"genus {genus} grade {k}: com {com.dims.get(k, 0)} vs relative {rel.dims.get(k, 0)}")
        absolute = homology(build_complex(ComplexSpec("cellular_MG", "even", genus)))
        for k in range(top + 1):
            reduced = absolute.dims.get(k, 0) - (1 if k == 1 else 0)
            _check(rel.dims.get(k, 0) == reduced,
                   f"genus {genus} grade {k}: relative {rel.dims.get(k, 0)} vs reduced {reduced}")
    return "relative = commutative = reduced absolute, genus 2 and 3"


def check_one_loop_window():
    """One-loop bivalent complexes on at most nine edges: surviving classes
    sit exactly on the 5- and 9-cycles (even) resp. 3- and 7-cycles (odd)."""
    even = homology(build_complex(ComplexSpec("com_geq2", "even", 1, max_edges=9)))
    _check({k for k, v in even.dims.items() if v} == {5, 9}, even.dims)
    _check(even.dims[5] == even.dims[9] == 1)
    odd = homology(build_complex(ComplexSpec("com_geq2", "odd", 1, max_edges=9)))
    _check({k for k, v in odd.dims.items() if v} == {3, 7}, odd.dims)
    _check(odd.dims[3] == odd.dims[7] == 1)
    tad_even = homology(build_complex(ComplexSpec("com_tad_geq2", "even", 1, max_edges=9)))
    _check({k for k, v in tad_even.dims.items() if v} == {1, 5, 9}, tad_even.dims)
    return "windows {5,9} even, {3,7} odd, plus the one-edge loop class with tadpoles"


def check_forested_genus2():
    """The genus-2 forested complex: edge-only orientation gives a single
    class in grade zero (a connected spine); the cycle-twisted variant is
    entirely killed by symmetries."""
    even = homology(build_complex(ComplexSpec("gf", "even", 2)))
    _check(even.dims == {0: 1, 1: 0}, even.dims)
    odd = build_complex(ComplexSpec("gf", "odd", 2))
    _check(odd.total_generators() == 0, "twisted genus-2 forested complex should be empty")
    return "edge-only: H0 = Q and nothing above; twisted: zero complex"


def check_cubical_commutative_experiment():
    """Cube pairs over weight-zero graphs reproduce commutative homology
    one grade down (subset size k against edge count k+1), genus 2 and 3."""
    for genus in (2, 3):
        gp = homology(build_complex(ComplexSpec("gp", "even", genus)))
        com = homology(build_complex(ComplexSpec("com", "even", genus)))
        top = max(max(com.counts, default=0), max(gp.counts, default=0) + 1)
        for k in range(top):
            _check(gp.dims.get(k, 0) == com.dims.get(k + 1, 0),
                   f"genus {genus}: cube grade {k} = {gp.dims.get(k, 0)} vs edge grade {k + 1} = {com.dims.get(k + 1, 0)}")
    return "cube-pair homology matches the commutative complex, genus 2 and 3"


def check_moduli_dimensions():
    """Cell dimension 3g-4, spine dimension 2g-3 (genus 2..4), and five
    spanning-tree cubes in the doubled-edge triangle."""
    for genus in (2, 3, 4):
        poset = build_cell_poset(genus)
        _check(poset.max_dimension == 3 * genus - 4,
               f"genus {genus}: cell dimension {poset.max_dimension}")
        spine = build_spine(genus)
        _check(spine.max_dimension == 2 * genus - 3,
               f"genus {genus}: spine dimension {spine.max_dimension}")
        _check(spine.facets_closed())
    # each forest orbit of size V-1 holds |Aut| / |stabilizer| spanning trees
    g = triangle_with_doubled_edge()
    ctx = canonical_entry(g)[0]
    spanning = sum(ctx.aut_order // ctx.stabilizer_order(tree)
                   for tree in ctx.subset_orbits(forests_only=True)
                   if tree.bit_count() == g.vertex_count - 1)
    _check(spanning == 5, f"{spanning} spanning trees")
    return "cell dimension 3g-4 and spine dimension 2g-3 for genus 2..4; 5 tree cubes"


def _ribbon_classes(genus):
    """The ribbon classes of valence >= 3 with tadpoles, up to six edges."""
    return enumerate_graphs(EnumSpec(genus=genus, min_valence=3, allow_tadpoles=True,
                                     max_edges=6, ribbon=True))


def _theta_surfaces():
    """The surface invariants of the ribbon classes on the theta graph."""
    return sorted(surface_invariants(ctx.graph, ctx.ribbon) for ctx in _ribbon_classes(2)
                  if ctx.graph.edges == ((0, 1),) * 3)


def check_ribbon_surfaces():
    """Theta thickens to (0,3) and (1,1); surface invariants survive every
    contraction of a ribbon class up to six edges (``GraphContext.collapse``);
    ribbon boundaries are surface-diagonal."""
    invs = _theta_surfaces()
    _check(invs == [(0, 3), (1, 1)], invs)
    checked = 0
    for genus in (2, 3):
        for ctx in _ribbon_classes(genus):
            g = ctx.graph
            inv = surface_invariants(g, ctx.ribbon)
            for e in range(g.edge_count):
                if g.is_tadpole(e):
                    continue
                target = ctx.collapse(e)[0]
                _check(surface_invariants(target.graph, target.ribbon) == inv, (ctx.certificate, e))
                checked += 1
    for genus in (2, 3):
        for parity in ("even", "odd"):
            blocks = split_by_surface(build_complex(ComplexSpec("ass", parity, genus)))
            for sub in blocks.values():
                _check(sub.d_squared_is_zero())
    return f"theta surfaces (0,3)/(1,1); {checked} contractions preserved invariants; blocks closed"


PAPER_CHECKS = [
    ("boundary_squared_all_kinds", check_boundary_squared),
    ("vanishing_table", check_vanishing_table),
    ("small_commutative_homology", check_small_commutative_homology),
    ("moduli_genus2_contractible", check_moduli_genus2_contractible),
    ("relative_cells_match_commutative", check_relative_cells_match_commutative),
    ("one_loop_window", check_one_loop_window),
    ("forested_genus2", check_forested_genus2),
    ("cubical_commutative_experiment", check_cubical_commutative_experiment),
    ("moduli_dimensions", check_moduli_dimensions),
    ("ribbon_surfaces", check_ribbon_surfaces),
]

def _core_checks():
    def quick_d_squared():
        for kind in ("com", "com_tad", "cellular_MG", "gf", "gp", "ass"):
            for parity in ("even", "odd"):
                c = build_complex(ComplexSpec(kind, parity, 2,
                                              max_edges=_variant_max_edges(kind)))
                _check(c.d_squared_is_zero(), (kind, parity))
        return "genus-2 boundaries square to zero"

    def quick_surface():
        _check(_theta_surfaces() == [(0, 3), (1, 1)])
        return "theta thickening invariants"

    def quick_spine():
        spine = build_spine(2)
        _check(f_vector(spine) == (3, 2))
        poset = build_cell_poset(2)
        _check(f_vector(poset, odd_symmetry_free=True) == (2, 1, 0))
        return "genus-2 spine and cell counts"

    return [
        ("quick_boundary_squared", quick_d_squared),
        ("quick_surface_invariants", quick_surface),
        ("quick_genus2_cells", quick_spine),
        ("moduli_genus2_contractible", check_moduli_genus2_contractible),
        ("forested_genus2", check_forested_genus2),
    ]


def run_suite(name: str) -> list[CheckResult]:
    if name == "core":
        checks = _core_checks()
    elif name == "paper":
        checks = PAPER_CHECKS
    else:
        raise ValueError(f"unknown suite {name!r}")
    return [_run(check_name, fn) for check_name, fn in checks]

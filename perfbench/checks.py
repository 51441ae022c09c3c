"""Expected values and the benchmark's own algorithms for checking gch.

Every expected value here comes from the literature or from a property
that holds by construction, never from an earlier run of gch.  The
algorithms (sparse product, rank modulo a prime, face tracing) share no
code with gch, so a fault in gch cannot hide itself by also breaking the
check.
"""

from __future__ import annotations

from fractions import Fraction

GENUS = 4

# Stable weighted genus-4 graphs with at least one edge.  Maggiolo-Pagani
# list 379 stable graphs of genus 4 (7 and 42 for genus 2 and 3), one of
# which is the edgeless weighted point.
STABLE_G4_WITH_EDGES = 379 - 1
# Connected trivalent multigraphs on 6 vertices (9 edges, genus 4): with
# loops allowed (OEIS A005967) and without loops (OEIS A000421).
TRIVALENT_G4 = 17
TRIVALENT_G4_NO_TADPOLES = 6
# Dimension of the moduli space of tropical curves: 3g - 4.  The spine is
# spanned by forests, at most a spanning tree of a trivalent graph: 2g - 3.
CELL_POSET_DIMENSION = 3 * GENUS - 4
SPINE_DIMENSION = 2 * GENUS - 3

# Homology of the commutative graph complex at loop order 4, graded by edge
# count.  Even: GC_2 has no homology at loop order 4 (grt_1 has nothing in
# weight 4; Willwacher, arXiv:1009.1654, and the tables of
# Khoroshkin-Willwacher-Zivkovic).  Odd: GC_3 has one class at loop order
# 4, in the trivalent top grade (connected closed Jacobi diagrams of
# degree 3; Bar-Natan 1995).
COM_G4_DIMS = {"even": {}, "odd": {9: 1}}
# The forested complex computes H_*(Out(F_4); Q): Q in degrees 0 and 4
# (Hatcher-Vogtmann).
GF_EVEN_G4_DIMS = {0: 1, 4: 1}
# The one-loop window at genus 1, bivalent vertices allowed, up to 9 edges:
# the n-cycle survives its dihedral symmetries exactly for n = 1 mod 4 in
# even parity and n = 3 mod 4 in odd parity; the one-edge loop needs
# tadpoles.  Neighbouring survivors are four edges apart, so the
# differential vanishes on them.
ONE_LOOP_DIMS = {
    ("com_geq2", "even"): {5: 1, 9: 1},
    ("com_geq2", "odd"): {3: 1, 7: 1},
    ("com_tad_geq2", "even"): {1: 1, 5: 1, 9: 1},
}

PRIME = 2_147_483_647


def nonzero(dims) -> dict[int, int]:
    return {int(k): v for k, v in dims.items() if v}


def shift_down(dims, by: int = 1) -> dict[int, int]:
    return {k - by: v for k, v in nonzero(dims).items()}


def compare(label: str, got, expected) -> list[str]:
    return [] if got == expected else [f"{label}: got {got}, expected {expected}"]


def ranks_from_dims(counts: dict[int, int], dims: dict[int, int]) -> dict[int, int] | None:
    """The boundary ranks that generator counts and homology dimensions fix.

    With r_k the rank of the boundary leaving grade k, n_k = h_k + r_k +
    r_{k+1} and r_0 = 0.  Returns None when no ranks fit.
    """
    ranks = {0: 0}
    top = max(counts, default=-1)
    for k in range(top + 1):
        nxt = counts.get(k, 0) - dims.get(k, 0) - ranks[k]
        if nxt < 0:
            return None
        ranks[k + 1] = nxt
    if ranks.pop(top + 1, 0) != 0:
        return None
    return ranks


def sparse_product(a: dict, b: dict) -> dict:
    """Product of two coordinate dictionaries {(row, col): value}."""
    b_rows: dict[int, list] = {}
    for (k, j), w in b.items():
        b_rows.setdefault(k, []).append((j, w))
    acc: dict[tuple[int, int], Fraction] = {}
    for (i, k), v in a.items():
        for j, w in b_rows.get(k, ()):
            acc[(i, j)] = acc.get((i, j), 0) + v * w
    return {key: v for key, v in acc.items() if v}


def rank_mod_p(entries: dict, p: int = PRIME) -> int:
    """Rank over F_p of a coordinate dictionary of rationals.

    Reduction to row echelon form, pivoting on the lowest column.  Over
    the rationals the rank is at least this.
    """
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in entries.items():
        v = Fraction(v)
        x = v.numerator * pow(v.denominator, -1, p) % p
        if x:
            rows.setdefault(i, {})[j] = x
    pivots: dict[int, dict[int, int]] = {}
    for row in rows.values():
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {j: x * inv % p for j, x in row.items()}
                break
            f = row[col]
            for j, x in pivot.items():
                y = (row.get(j, 0) - f * x) % p
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
    return len(pivots)


def surface_type(edges, cycles) -> tuple[int, int]:
    """(genus, boundary count) of a ribbon graph's thickening.

    Edge i owns half-edges 2i and 2i+1; ``cycles`` lists the cyclic order
    of half-edges at each vertex.  Boundary components are the orbits of
    h -> next(partner(h)), and V - E + F = 2 - 2 genus.
    """
    nxt = {}
    for cyc in cycles:
        for pos, h in enumerate(cyc):
            nxt[h] = cyc[(pos + 1) % len(cyc)]
    seen = set()
    faces = 0
    for start in range(2 * len(edges)):
        if start in seen:
            continue
        faces += 1
        h = start
        while h not in seen:
            seen.add(h)
            h = nxt[h ^ 1]
    euler = len(cycles) - len(edges) + faces
    return (2 - euler) // 2, faces


def is_cycle_graph(vertex_count: int, edges, n: int) -> bool:
    """Whether the graph is the connected n-cycle (n = 1: one loop)."""
    if vertex_count != n or len(edges) != n:
        return False
    valence = [0] * n
    adjacent: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        valence[u] += 1
        valence[v] += 1
        adjacent[u].add(v)
        adjacent[v].add(u)
    if any(d != 2 for d in valence):
        return False
    reached, todo = {0}, [0]
    while todo:
        for w in adjacent[todo.pop()]:
            if w not in reached:
                reached.add(w)
                todo.append(w)
    return len(reached) == n


def parse_triples(text: str) -> tuple[int, int, dict]:
    """Read a plain-text triple matrix: ``rows cols M``, ``i j v``, ``0 0 0``."""
    lines = text.split("\n")
    rows, cols, tag = lines[0].split()
    if tag != "M":
        raise ValueError("bad matrix header")
    entries = {}
    for line in lines[1:]:
        i, j, v = line.split()
        if (i, j, v) == ("0", "0", "0"):
            return int(rows), int(cols), entries
        entries[(int(i) - 1, int(j) - 1)] = Fraction(v)
    raise ValueError("matrix text lacks its terminator")

import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from gch import linalg
from gch.complexes import KINDS, ComplexSpec, build_complex
from gch.io import matrix_to_text, text_to_matrix
from gch.linalg import SparseMatrix, boundary_ranks, multiply, rank
from gch.oracle import dense_rank


def random_sparse(rng, rows, cols, density=0.2, magnitude=9):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = rng.randint(-magnitude, magnitude)
                if v:
                    entries[(i, j)] = Fraction(v)
    return SparseMatrix(rows, cols, entries)


def transpose(m):
    return SparseMatrix(m.cols, m.rows, {(j, i): v for i, j, v in m.items()})


def identity(n):
    return SparseMatrix(n, n, {(i, i): 1 for i in range(n)})


def dense(m):
    """Rows of ``Fraction``s, also for integer entries, so that the dense
    oracle divides exactly."""
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for i, j, v in m.items():
        out[i][j] = Fraction(v)
    return out


def test_rank_trivia():
    assert rank(SparseMatrix.zero(5, 7)) == 0
    assert rank(identity(6)) == 6
    assert rank(SparseMatrix(1, 1, {(0, 0): Fraction(3, 7)})) == 1


def test_rank_random_matches_dense_oracle():
    rng = random.Random(2024)
    for trial in range(100):
        rows = rng.randint(1, 20)
        cols = rng.randint(1, 20)
        m = random_sparse(rng, rows, cols, density=rng.choice([0.1, 0.3, 0.7]))
        assert rank(m) == dense_rank(dense(m)), (trial, m.entries)


def test_rank_rational_entries():
    rng = random.Random(5)
    entries = {}
    for i in range(8):
        for j in range(8):
            if rng.random() < 0.5:
                entries[(i, j)] = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
    m = SparseMatrix(8, 8, entries)
    assert rank(m) == dense_rank(dense(m))


def test_rank_invariances():
    rng = random.Random(77)
    for _ in range(20):
        m = random_sparse(rng, 12, 9)
        r = rank(m)
        assert r == rank(transpose(m))
        assert r <= min(m.rows, m.cols)
        rperm = list(range(m.rows))
        cperm = list(range(m.cols))
        rng.shuffle(rperm)
        rng.shuffle(cperm)
        shuffled = SparseMatrix(
            m.rows, m.cols,
            {(rperm[i], cperm[j]): v for (i, j), v in m.entries.items()})
        assert rank(shuffled) == r


def test_multiply_trivia():
    rng = random.Random(9)
    a = random_sparse(rng, 6, 5)
    z = SparseMatrix.zero(5, 4)
    assert multiply(a, z).is_zero()
    assert multiply(identity(6), a).entries == a.entries
    with pytest.raises(ValueError):
        multiply(a, SparseMatrix.zero(6, 2))


def test_multiply_normalises_its_product():
    """A product keeps the matrix invariants: an integral ``Fraction`` comes
    out as an ``int``, a cancelled entry is left out, and ``integral`` says
    whether any ``Fraction`` is left."""
    a = SparseMatrix(2, 2, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3), (1, 1): 1})
    b = SparseMatrix(2, 2, {(0, 0): 2, (0, 1): Fraction(2, 3), (1, 1): -1})
    prod = multiply(a, b)
    assert prod.entries == {(0, 0): 1, (1, 1): -1} and prod.integral
    assert all(type(v) is int for v in prod.entries.values())
    assert prod == SparseMatrix(2, 2, {(0, 0): 1, (1, 1): -1})
    half = multiply(a, identity(2))
    assert half == a and not half.integral


def test_multiply_against_dense():
    rng = random.Random(31)
    for _ in range(20):
        a = random_sparse(rng, 5, 6, density=0.4)
        b = random_sparse(rng, 6, 4, density=0.4)
        prod = multiply(a, b)
        da, db, dp = dense(a), dense(b), dense(prod)
        for i in range(5):
            for j in range(4):
                assert dp[i][j] == sum(da[i][k] * db[k][j] for k in range(6))


def test_homology_dims_trivia():
    # all-zero boundaries: dims equal generator counts
    assert boundary_ranks([None, None, None], [2, 3, 4])[1] == [2, 3, 4]
    # chain 0 -> Q -> Q -> 0 with the identity boundary
    d1 = SparseMatrix(1, 1, {(0, 0): Fraction(1)})
    assert boundary_ranks([None, d1], [1, 1])[1] == [0, 0]
    # contractible genus-2 moduli cells: two vertices, one connecting edge
    d1 = SparseMatrix(2, 1, {(0, 0): Fraction(1), (1, 0): Fraction(-1)})
    assert boundary_ranks([None, d1], [2, 1])[1] == [1, 0]


def test_homology_dims_euler_identity():
    rng = random.Random(123)
    for _ in range(10):
        # build a random two-step complex with d1 d2 = 0 by construction:
        # d2 maps into the kernel of d1 via its transpose annihilator trick
        n0, n1, n2 = 4, 6, 3
        d1 = random_sparse(rng, n0, n1, density=0.3, magnitude=3)
        # choose d2 columns in ker(d1) by solving: here simply zero columns
        d2 = SparseMatrix.zero(n1, n2)
        dims = boundary_ranks([None, d1, d2], [n0, n1, n2])[1]
        lhs = sum((-1) ** k * d for k, d in enumerate(dims))
        rhs = sum((-1) ** k * n for k, n in enumerate([n0, n1, n2]))
        assert lhs == rhs


def test_homology_dims_shape_mismatch():
    with pytest.raises(ValueError):
        boundary_ranks([None, SparseMatrix.zero(3, 3)], [2, 3])[1]


def test_sms_sized_known_rank():
    entries = {(i, i): Fraction(1) for i in range(5)}
    entries[(0, 4)] = Fraction(1)
    m = SparseMatrix(5, 5, entries)
    assert rank(m) == 5
    entries = {(i, j): Fraction(1) for i in range(4) for j in range(4)}
    assert rank(SparseMatrix(4, 4, entries)) == 1


def test_dense_oracle_is_exact_on_integer_entries():
    """Integer entries stay ``int`` in the sparse matrix, but ``dense``
    hands out ``Fraction``s, so the dense oracle divides exactly."""
    m = SparseMatrix(2, 3, {(0, 0): 3, (0, 2): Fraction(4, 2), (1, 1): -1})
    assert all(type(v) is int for v in m.entries.values())
    assert all(type(x) is Fraction for row in dense(m) for x in row)
    rng = random.Random(30)
    for trial in range(100):
        rows, cols = rng.randint(1, 20), rng.randint(1, 20)
        entries = {(i, j): rng.randint(-9, 9) for i in range(rows) for j in range(cols)
                   if rng.random() < 0.5}
        m = SparseMatrix(rows, cols, entries)
        assert rank(m) == dense_rank(dense(m)), trial


def _signed_permuted(rng, boundaries, counts):
    """The same complex with every grade's generators shuffled and their
    orientations flipped at random (a signed permutation in each grade)."""
    perm = [rng.sample(range(n), n) for n in counts]
    sign = [[rng.choice((1, -1)) for _ in range(n)] for n in counts]
    out = [None]
    for k, m in enumerate(boundaries[1:], start=1):
        out.append(None if m is None else SparseMatrix(m.rows, m.cols, {
            (perm[k - 1][i], perm[k][j]): v * sign[k - 1][i] * sign[k][j]
            for (i, j), v in m.entries.items()}))
    return out


def _boundaries_of(spec):
    c = build_complex(spec)
    counts = c.generator_counts()
    return [None] + [c.boundary(k) for k in range(1, len(counts))], counts


def _assert_cleared_ranks_exact(boundaries, counts):
    ranks, dims = boundary_ranks(boundaries, counts)
    for k, m in enumerate(boundaries[1:], start=1):
        expected = 0 if m is None else dense_rank(dense(m))
        assert ranks[k] == expected == (0 if m is None else rank(m)), k
    return dims


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_cleared_boundary_ranks_match_dense_ranks(kind, parity):
    """Clearing the rows of d_{k+1} at d_k's pivot columns keeps every rank:
    each graded rank equals the per-matrix rank and the dense Fraction
    rank, for the complexes themselves and for signed permutations."""
    rng = random.Random(f"{kind}-{parity}")
    for genus in range(2 if kind.startswith("cellular") else 1, 4):
        max_edges = (9 if genus == 1 else 7) if kind in ("com_geq2", "com_tad", "com_tad_geq2") else None
        boundaries, counts = _boundaries_of(
            ComplexSpec(kind, parity, genus, max_edges=max_edges))
        dims = _assert_cleared_ranks_exact(boundaries, counts)
        for _ in range(3):
            assert _assert_cleared_ranks_exact(_signed_permuted(rng, boundaries, counts), counts) == dims


def _simplicial_boundaries(rng, vertices, facets):
    """Boundaries of the simplicial complex generated by random facets."""
    faces = set()
    for _ in range(facets):
        top = rng.sample(range(vertices), rng.randint(1, min(5, vertices)))
        for size in range(1, len(top) + 1):
            faces.update(itertools.combinations(sorted(top), size))
    grades = [sorted(f for f in faces if len(f) == k + 1) for k in range(5)]
    index = [{f: i for i, f in enumerate(g)} for g in grades]
    boundaries = [None]
    for k in range(1, 5):
        entries = {}
        for j, f in enumerate(grades[k]):
            for p in range(len(f)):
                entries[(index[k - 1][f[:p] + f[p + 1:]], j)] = (-1) ** p
        boundaries.append(SparseMatrix(len(grades[k - 1]), len(grades[k]), entries))
    return boundaries, [len(g) for g in grades]


def test_cleared_ranks_on_rescaled_simplicial_boundaries():
    """Random simplicial complexes, with every basis vector rescaled by a
    random rational, so d'_k = D_{k-1}^{-1} d_k D_k has non-unit and
    non-integer entries and still squares to zero."""
    rng = random.Random(1405)
    for trial in range(40):
        boundaries, counts = _simplicial_boundaries(rng, rng.randint(4, 8), rng.randint(1, 6))
        dims = _assert_cleared_ranks_exact(boundaries, counts)
        scale = [[Fraction(rng.choice((1, -1)) * rng.randint(1, 6), rng.randint(1, 6))
                  for _ in range(n)] for n in counts]
        rescaled = [None] + [SparseMatrix(m.rows, m.cols, {
            (i, j): v * scale[k][j] / scale[k - 1][i] for (i, j), v in m.entries.items()})
            for k, m in enumerate(boundaries[1:], start=1)]
        assert _assert_cleared_ranks_exact(rescaled, counts) == dims, trial


def test_cleared_ranks_check_catches_wrong_clearing(monkeypatch):
    """The cleared-rank comparison passes on the genus-3 forested complex,
    and fails once the clearing drops the rows one past d_k's pivot
    columns."""
    boundaries, counts = _boundaries_of(ComplexSpec("gf", "even", 3))
    _assert_cleared_ranks_exact(boundaries, counts)
    real = linalg._pivots
    monkeypatch.setattr(linalg, "_pivots", lambda m, drop=frozenset(): real(
        m, frozenset(col + 1 for col in drop)))
    with pytest.raises(AssertionError):
        _assert_cleared_ranks_exact(boundaries, counts)


def _reference_pivots(m, drop=frozenset()):
    """Pivot columns of a naive elimination that follows the documented
    pivot rule, rescanning every active row at every step: the column is
    the least (active rows, column), the row the least (non-unit value,
    length, row).  Rows are scaled to integers first; a unit pivot
    subtracts a multiple of the pivot row, and any other pivot scales the
    target row and then divides out its content."""
    active = {}
    for (i, j), v in m.entries.items():
        if i not in drop:
            active.setdefault(i, {})[j] = Fraction(v)
    for i, row in active.items():
        scale = math.lcm(*(v.denominator for v in row.values()))
        active[i] = {j: int(v * scale) for j, v in row.items()}
    pivots = []
    while active:
        counts = {}
        for row in active.values():
            for j in row:
                counts[j] = counts.get(j, 0) + 1
        col = min(counts, key=lambda j: (counts[j], j))
        holders = [i for i, row in active.items() if col in row]
        prow = min(holders, key=lambda i: (abs(active[i][col]) != 1, len(active[i]), i))
        pivot = active.pop(prow)
        pivots.append(col)
        pval = pivot[col]
        for i in holders:
            if i == prow:
                continue
            row = active.pop(i)
            f = row[col]
            if abs(pval) == 1:
                a, b = 1, f * pval
            else:
                g = math.gcd(pval, f)
                a, b = pval // g, f // g
            new = {j: a * row.get(j, 0) - b * pivot.get(j, 0) for j in row.keys() | pivot.keys()}
            new = {j: v for j, v in new.items() if v}
            if new:
                content = 1 if abs(pval) == 1 else math.gcd(*new.values())
                active[i] = {j: v // content for j, v in new.items()}
    return pivots


def _assert_pivot_rule(m, drop=frozenset()):
    pivots = list(linalg._pivots(m, drop))
    assert pivots == _reference_pivots(m, drop)
    return pivots


def test_elimination_follows_pivot_rule_on_random_matrices():
    """The kernel's pivot sequence is the one the documented rule gives,
    on sparse matrices with unit and non-unit entries, empty rows and
    columns, and rational entries."""
    rng = random.Random(1107)
    for trial in range(300):
        rows, cols = rng.randint(0, 24), rng.randint(0, 24)
        values = rng.choice([(1, -1), (1, -1, 2, -3), (1, -1, 2, -2, 3, 5, -7)])
        density = rng.choice([0.05, 0.12, 0.3])
        dead_rows = set(rng.sample(range(rows), rows // 4))
        dead_cols = set(rng.sample(range(cols), cols // 4))
        entries = {(i, j): rng.choice(values) for i in range(rows) for j in range(cols)
                   if i not in dead_rows and j not in dead_cols and rng.random() < density}
        if trial % 3 == 0:
            entries = {ij: Fraction(v, rng.randint(1, 4)) for ij, v in entries.items()}
        m = SparseMatrix(rows, cols, entries)
        assert m.integral == all(type(v) is int for v in m.entries.values())
        pivots = _assert_pivot_rule(m)
        assert len(pivots) == dense_rank(dense(m)), trial


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_elimination_follows_pivot_rule_on_boundaries(parity):
    """The same on every genus 2-4 boundary, alone and with its rows at
    the previous grade's pivot columns cleared, as ``boundary_ranks``
    reduces it."""
    for kind in KINDS:
        max_edges = 7 if kind in ("com_geq2", "com_tad", "com_tad_geq2") else None
        for genus in range(2, 5):
            c = build_complex(ComplexSpec(kind, parity, genus, max_edges=max_edges))
            cleared = frozenset()
            for k in range(1, len(c.generator_counts())):
                m = c.boundary(k)
                _assert_pivot_rule(m)
                cleared = frozenset(_assert_pivot_rule(m, cleared))


def _random_entries(rng, rows, cols):
    """A random ``{(i, j): value}`` input and what the matrix keeps of it:
    zeros, ``int``s from 2^63 up, ``Fraction``s, and ``Fraction``s of
    denominator 1, which the matrix keeps as ``int``s."""
    given, kept = {}, {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.3:
                kind = rng.randrange(5)
                if kind == 0:
                    v = rng.choice((0, Fraction(0), Fraction(0, 5)))
                elif kind == 1:
                    v = rng.choice((1, -1)) * (2 ** 63 + rng.randrange(2 ** 70))
                elif kind == 2:
                    v = Fraction(rng.randint(-9, 9), rng.randint(2, 9))
                elif kind == 3:
                    v = Fraction(rng.randint(-9, 9) * 4, 4)
                else:
                    v = rng.randint(-9, 9)
                given[i, j] = v
                if v:
                    kept[i, j] = v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v
    return given, kept


def test_storage_keeps_exactly_the_normalised_input():
    """On random inputs the matrix keeps the normalised nonzeros: ``entries``
    equals them, with ``int`` for every integral value, and is a fresh copy;
    equality, ``nnz`` and ``integral`` follow them; and the matrix text is
    the sorted triples, which read back to the same matrix."""
    rng = random.Random(4401)
    for trial in range(200):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        given, kept = _random_entries(rng, rows, cols)
        m = SparseMatrix(rows, cols, given)
        entries = m.entries
        assert entries == kept and entries is not m.entries, trial
        assert all(type(v) is int or type(v) is Fraction and v.denominator != 1
                   for v in entries.values())
        assert m.nnz == len(kept)
        assert m.integral == all(type(v) is int for v in kept.values())
        entries[rows, cols] = 1
        entries.pop(next(iter(kept), None), None)
        assert m.entries == kept
        assert list(m.items()) == [(i, j, v) for (i, j), v in sorted(kept.items())]
        assert repr(m) == f"SparseMatrix(rows={rows}, cols={cols}, entries={dict(sorted(kept.items()))!r})"
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m and copy.integral == m.integral and copy.entries == kept
        shuffled = list(given.items())
        rng.shuffle(shuffled)
        assert SparseMatrix(rows, cols, dict(shuffled)) == m
        assert SparseMatrix(rows, cols, kept) == m
        assert SparseMatrix(rows + 1, cols, kept) != m
        if kept:
            key = rng.choice(sorted(kept))
            assert SparseMatrix(rows, cols, {**kept, key: kept[key] + 1}) != m
        lines = [f"{rows} {cols} M"]
        for (i, j), v in sorted(kept.items()):
            v = Fraction(v)
            lines.append(f"{i + 1} {j + 1} {v.numerator}" if v.denominator == 1
                         else f"{i + 1} {j + 1} {v.numerator}/{v.denominator}")
        text = "\n".join(lines + ["0 0 0"]) + "\n"
        assert matrix_to_text(m) == text, trial
        assert text_to_matrix(text) == m


def test_from_columns_matches_the_dictionary_constructor():
    """Columns given in order, with repeated rows summed by the caller,
    zeros and rows in any order within a column, make the same matrix as
    the dictionary of their nonzeros; a wrong column count or a row out of
    range is refused."""
    rng = random.Random(4402)
    for trial in range(200):
        rows, cols = rng.randint(0, 12), rng.randint(0, 12)
        columns = []
        for _ in range(cols):
            picked = rng.sample(range(rows), rng.randint(0, rows))
            columns.append({i: rng.choice((0, 1, -1, 2, -3)) for i in picked})
        m = SparseMatrix.from_columns(rows, cols, iter(columns))
        expected = {(i, j): v for j, column in enumerate(columns) for i, v in column.items() if v}
        assert m == SparseMatrix(rows, cols, expected) and m.entries == expected, trial
        assert m.integral and m.nnz == len(expected)
    with pytest.raises(ValueError):
        SparseMatrix.from_columns(2, 3, [{0: 1}, {}])
    with pytest.raises(ValueError):
        SparseMatrix.from_columns(2, 1, [{2: 1}])
    with pytest.raises(ValueError):
        SparseMatrix.from_columns(2, 1, [{-1: 1}])


@pytest.mark.parametrize("column", [{True: 1}, {0: True}, {0: False}, {1: 1, 0: 1.0}, {0.0: 1}])
def test_from_columns_refuses_what_the_dictionary_constructor_refuses(column):
    """A bool or float row or value is refused with the dictionary
    constructor's ``TypeError``, not read as an int."""
    with pytest.raises(TypeError) as by_dict:
        SparseMatrix(2, 1, {(i, 0): v for i, v in column.items()})
    with pytest.raises(TypeError) as by_columns:
        SparseMatrix.from_columns(2, 1, [column])
    if type(next(iter(column))) is not int:
        assert str(by_columns.value) == str(by_dict.value)


STORAGE = r"""
import gc, json, sys
from gch.complexes import ComplexSpec, build_complex

def referents(obj):
    return [r for r in gc.get_referents(obj) if not isinstance(r, type)]

def retained(obj):
    seen, stack, total = set(), [obj], 0
    while stack:
        o = stack.pop()
        if id(o) not in seen:
            seen.add(id(o))
            total += sys.getsizeof(o)
            stack.extend(referents(o))
    return total

def compressed_rows(m):
    p, j, v = m.csr
    return (len(p) == m.rows + 1 and p[0] == 0 and p[-1] == len(j) == len(v)
            and all(a <= b for a, b in zip(p, p[1:]))
            and all(j[t] < j[t + 1] for i in range(m.rows) for t in range(p[i], p[i + 1] - 1))
            and all(0 <= c < m.cols for c in j) and all(v))

out = {}
for kind, parity in (("gp", "even"), ("ass", "odd")):
    c = build_complex(ComplexSpec(kind, parity, 3))
    ms = list(c.boundaries.values())
    out[f"{kind}-{parity}"] = {
        "holders": sorted({type(r).__name__ for m in ms for r in referents(m)}),
        "itemsizes": sorted({r.itemsize for m in ms for r in referents(m) if hasattr(r, "itemsize")}),
        "csr": all(map(compressed_rows, ms)),
        "nnz": sum(m.nnz for m in ms),
        "rows": sum(m.rows for m in ms),
        "matrices": len(ms),
        "bytes": sum(retained(m) for m in ms),
    }
print(json.dumps(out))
"""

# what one boundary retains: at most FIXED bytes for the object and its
# empty arrays, PER_NONZERO bytes for each nonzero (a 4-byte column and an
# 8-byte value) and PER_ROW bytes for each row pointer; a dictionary entry
# with its key tuple costs over 100
FIXED, PER_NONZERO, PER_ROW = 512, 12, 4


def test_boundaries_hold_nonzeros_in_packed_arrays():
    """In a fresh interpreter, every boundary of ``gp`` even and ``ass`` odd
    at genus 3 refers to nothing but its row pointer, column and value
    arrays and its shape and flags; the rows are compressed (``rows + 1``
    pointers from 0 to ``nnz``, increasing columns within a row, no stored
    zero); the arrays hold 4-byte pointers and columns and 8-byte values;
    and the bytes the boundaries retain stay within FIXED per matrix plus
    PER_NONZERO per nonzero plus PER_ROW per row."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-c", STORAGE], capture_output=True, text=True,
                            env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    for name, got in json.loads(result.stdout).items():
        assert got["holders"] == ["array", "bool", "int"], (name, got)
        assert got["itemsizes"] == [4, 8], (name, got)
        assert got["csr"], name
        assert got["nnz"] > 0, name
        assert got["bytes"] <= (FIXED * got["matrices"] + PER_NONZERO * got["nnz"]
                                + PER_ROW * got["rows"]), (name, got)


def test_peeled_rank_allocates_little_beyond_the_matrix():
    """The rank of a 20 000 x 20 001 bidiagonal matrix of signs, every
    pivot of which the peeling phase takes, allocates less than 24 bytes
    per nonzero at its peak (a dictionary per row and a set per column
    would take hundreds)."""
    n = 20_000
    m = SparseMatrix.from_columns(n, n + 1, ({i: (-1) ** i for i in (j - 1, j) if 0 <= i < n}
                                             for j in range(n + 1)))
    assert m.nnz == 2 * n
    tracemalloc.start()
    try:
        assert rank(m) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * m.nnz, peak

"""Exact sparse rational matrices and rank computation.

A matrix holds its nonzeros as coordinate arrays sorted by row, then
column: row and column indices in ``array("i")`` and values in
``array("q")``, so an integer entry costs 16 bytes.  Only a matrix with a
``Fraction`` entry, or an integer wider than 63 bits, keeps its values in
a list.  Entries are ``int`` or ``Fraction`` (anything else raises
``TypeError``): integral values are stored as ``int`` and the rest as
``Fraction``, so the boundary operators, which are sums of signs, carry
no ``Fraction`` at all, and a matrix notes once whether it is integral.
Code outside the class reads the nonzeros through
:meth:`SparseMatrix.items`; ``entries`` is a fresh dictionary on every
read.  Every rank comes from one fraction-free sparse elimination,
:func:`_eliminate`:

* rows holding a non-integer are scaled to integers first;
* the pivot column is the one with the fewest active rows, the lowest
  index on a tie; the pivot row there is the sparsest, preferring a unit
  value;
* columns with a single active row, most pivots of a boundary
  operator, come first from a queue of their own: such a pivot drops its
  row with no row operation (a coreduction pair, Mrozek--Batko, 2009).
  The columns left then come from a lazy heap, by the same rule;
* a unit pivot updates each target row in place, touching only the pivot
  row's columns; any other pivot scales the target row and divides out
  its content afterwards, which keeps entries small on the
  nearly-unimodular matrices that boundary operators produce.

Across grades, :func:`boundary_ranks` clears the rows of d_{k+1} at the
pivot columns of d_k, as in the clearing of persistent homology
(Bauer--Kerber--Reininghaus, *Clear and Compress*, 2014).
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from fractions import Fraction


def _index_code(rows: int, cols: int) -> str:
    """The typecode of a matrix's index arrays: ``"i"`` unless an index
    can pass 2^31 - 1."""
    return "i" if max(rows, cols) <= 2 ** 31 else "q"


def _values(values: list) -> array | list:
    """``array("q")`` of integer values that fit in 63 bits, else the list."""
    try:
        return array("q", values)
    except (TypeError, OverflowError):
        return values


def _keep(m: "SparseMatrix", rows: int, cols: int, ii: array, jj: array,
          vv: array | list, integral: bool) -> "SparseMatrix":
    """Set the shape and the sorted nonzeros of a matrix being made."""
    setter = object.__setattr__
    setter(m, "rows", rows)
    setter(m, "cols", cols)
    setter(m, "integral", integral)
    setter(m, "_i", ii)
    setter(m, "_j", jj)
    setter(m, "_v", vv)
    return m


class SparseMatrix:
    """An exact ``rows`` x ``cols`` matrix, its nonzeros held as coordinate
    arrays sorted by (row, column).

    The constructor takes a ``{(i, j): value}`` dictionary of ``int`` and
    ``Fraction`` values, checks it, turns a ``Fraction`` of denominator 1
    into an ``int`` and leaves zeros out; :meth:`from_columns` takes
    integer columns in order instead.  ``entries`` is a fresh dictionary on
    every read, so changing it leaves the matrix as it was.  A matrix is
    not changed once made."""

    __slots__ = ("rows", "cols", "integral", "_i", "_j", "_v")

    def __init__(self, rows: int, cols: int,
                 entries: dict[tuple[int, int], int | Fraction] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape {rows}x{cols}")
        entries = {} if entries is None else entries
        others = set(map(type, itertools.chain.from_iterable(entries))) - {int}
        if others:
            raise TypeError("entry coordinates must be int, not "
                            + ", ".join(sorted(t.__name__ for t in others)))
        ii, jj, vv = [], [], []
        integral = True
        for key in sorted(entries):
            i, j = key
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) out of range")
            v = entries[key]
            if type(v) is not int:
                if not isinstance(v, Fraction):
                    raise TypeError(f"entry ({i},{j}) is {type(v).__name__}, not int or Fraction")
                if v.denominator == 1:
                    v = v.numerator
                else:
                    integral = False
            if v:
                ii.append(i)
                jj.append(j)
                vv.append(v)
        code = _index_code(rows, cols)
        _keep(self, rows, cols, array(code, ii), array(code, jj), _values(vv), integral)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a SparseMatrix is not changed once made")

    def __reduce__(self):
        return SparseMatrix, (self.rows, self.cols, self.entries)

    @classmethod
    def from_columns(cls, rows: int, cols: int, columns) -> "SparseMatrix":
        """The matrix whose j-th column is the j-th ``{row: value}`` of
        ``columns``, with integer values of at most 63 bits and zeros left
        out; there must be ``cols`` columns.

        The columns are read once, in order, into column-major arrays; a
        counting sort by row then lays the entries out row by row, in
        column order within a row, so the order of the rows within a column
        does not matter, and no dictionary of coordinates is made."""
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape {rows}x{cols}")
        code = _index_code(rows, cols)
        col_i, col_v, sizes = array(code), array("q"), []
        for column in columns:
            if 0 in column.values():
                column = {i: v for i, v in column.items() if v}
            col_i.extend(column)
            col_v.extend(column.values())
            sizes.append(len(column))
        if len(sizes) != cols:
            raise ValueError(f"{len(sizes)} columns given for {cols}")
        if col_i and not (min(col_i) >= 0 and max(col_i) < rows):
            raise ValueError(f"a row index is out of range 0..{rows - 1}")
        counts = [0] * rows
        for i in col_i:
            counts[i] += 1
        # free[i]: the next free position of row i in row-major order
        free = list(itertools.accumulate(counts, initial=0))
        n, size = len(col_i), col_i.itemsize
        ii, jj = array(code, bytes(n * size)), array(code, bytes(n * size))
        vv = array("q", bytes(8 * n))
        entries = zip(col_i, col_v)
        for j, column_size in enumerate(sizes):
            for i, v in itertools.islice(entries, column_size):
                p = free[i]
                free[i] = p + 1
                ii[p] = i
                jj[p] = j
                vv[p] = v
        return _keep(cls.__new__(cls), rows, cols, ii, jj, vv, True)

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseMatrix":
        return SparseMatrix(rows, cols, {})

    @property
    def nnz(self) -> int:
        return len(self._i)

    @property
    def entries(self) -> dict[tuple[int, int], int | Fraction]:
        """A fresh ``{(i, j): value}`` dictionary of the nonzeros."""
        return dict(zip(zip(self._i, self._j), self._v))

    def items(self):
        """(row, column, value) of every nonzero, by row, then column."""
        return zip(self._i, self._j, self._v)

    def is_zero(self) -> bool:
        return not self._i

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols and self.nnz == other.nnz
                and all(a == b for a, b in zip(self.items(), other.items())))

    __hash__ = None

    def __repr__(self) -> str:
        return f"SparseMatrix(rows={self.rows}, cols={self.cols}, entries={self.entries!r})"


def multiply(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    b_rows: list[list] = [[] for _ in range(b.rows)]
    for k, j, w in b.items():
        b_rows[k].append((j, w))
    acc: dict[tuple[int, int], int | Fraction] = {}
    for i, k, v in a.items():
        for j, w in b_rows[k]:
            key = (i, j)
            cur = acc.get(key)
            acc[key] = v * w if cur is None else cur + v * w
    return SparseMatrix(a.rows, b.cols, {k: v for k, v in acc.items() if v})


def _integer_rows(m: SparseMatrix, drop: frozenset[int] = frozenset()) -> list[dict[int, int]]:
    """The nonzero rows of ``m`` outside ``drop``, in order, each scaled to
    integers if it holds a non-integer.  One pass over the entries, which
    come row by row, builds only the rows that are kept.  Every row keys a
    column by the same ``int`` object, which speeds up the elimination's
    dictionary and set lookups; a matrix with more columns than nonzeros
    indexes a ``range`` instead, so that no int is made per empty column."""
    out: list[dict[int, int | Fraction]] = []
    last, row = -1, None
    columns = list(range(m.cols)) if m.cols <= m.nnz else range(m.cols)
    for i, j, v in m.items():
        if i != last:
            last = i
            row = None if i in drop else {}
            if row is not None:
                out.append(row)
        if row is not None:
            row[columns[j]] = v
    if not m.integral:
        for n, row in enumerate(out):
            if any(type(v) is not int for v in row.values()):
                scale = math.lcm(*(v.denominator for v in row.values()))
                out[n] = {j: int(v * scale) for j, v in row.items()}
    return out


def _eliminate(rows: list[dict[int, int]]) -> list[int]:
    """Pivot columns, in pivot order, of a sparse elimination of integer rows.

    The rows are reduced in place.  The pivot columns are linearly
    independent columns of the matrix, and there are rank-many of them.

    The pivot column is always the least (active rows, column), and the
    pivot row there the least (non-unit value, length, row).  While some
    column has a single active row, that column is the least choice, so
    these columns come first, from a queue of their own: such a pivot only
    drops its row, with no row operation, and counts only fall.  The
    columns left then go through a lazy heap of (active rows, column).
    """
    active = dict(enumerate(rows))
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            if (s := col_rows.get(j)) is None:
                col_rows[j] = {i}
            else:
                s.add(i)
    pivots = []
    # single-row columns, lowest index first; counts only fall here, so a
    # column enters at most once, and one whose count fell to 0 is skipped
    singles = [j for j, s in col_rows.items() if len(s) == 1]
    heapq.heapify(singles)
    while singles:
        col = heapq.heappop(singles)
        targets = col_rows.pop(col, None)
        if targets is None:
            continue
        prow_id = targets.pop()
        pivots.append(col)
        for j in active.pop(prow_id):
            s = col_rows.get(j)
            if s is not None:
                s.discard(prow_id)
                if len(s) == 1:
                    heapq.heappush(singles, j)
                elif not s:
                    del col_rows[j]
    # lazy queue of (active rows, column): every column keeps an entry at
    # or below its count, so an entry popped at its count is the least
    # choice.  A pivot pushes only the columns whose count fell; a popped
    # entry whose count rose since goes back at the new count
    queue = [(len(s), j) for j, s in col_rows.items()]
    heapq.heapify(queue)
    while queue:
        count, col = heapq.heappop(queue)
        targets = col_rows.get(col)
        if targets is None:
            continue
        if len(targets) != count:
            heapq.heappush(queue, (len(targets), col))
            continue
        prow_id = min(targets, key=lambda i: (abs(active[i][col]) != 1, len(active[i]), i))
        pivot_row = active.pop(prow_id)
        pivots.append(col)
        del col_rows[col]
        targets.discard(prow_id)
        pval = pivot_row[col]
        others = [(j, v) for j, v in pivot_row.items() if j != col]
        before = []
        for j, _ in others:
            s = col_rows[j]
            before.append(len(s))
            s.discard(prow_id)
        unit = abs(pval) == 1
        for rid in targets:
            row = active[rid]
            f = row.pop(col)
            if unit:
                f *= pval
            else:
                g = math.gcd(pval, f)
                scale, f = pval // g, f // g
                for j in row:
                    row[j] *= scale
            # subtract f * pivot_row, on the pivot row's columns only
            for j, v in others:
                old = row.get(j)
                if old is None:
                    row[j] = -f * v
                    col_rows[j].add(rid)
                    continue
                w = old - f * v
                if w:
                    row[j] = w
                else:
                    del row[j]
                    col_rows[j].discard(rid)
            if not row:
                del active[rid]
            elif not unit:
                g = math.gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
        for (j, _), was in zip(others, before):
            s = col_rows[j]
            if not s:
                del col_rows[j]
            elif len(s) < was:
                heapq.heappush(queue, (len(s), j))
    return pivots


def rank(m: SparseMatrix) -> int:
    """Exact rank over the rationals."""
    return len(_eliminate(_integer_rows(m)))


def boundary_ranks(boundaries: list[SparseMatrix | None],
                   generator_counts: list[int]) -> tuple[list[int], list[int]]:
    """Ranks of the boundaries and dim H_k = n_k - rank d_k - rank d_{k+1}.

    ``boundaries[k]`` maps grade k to grade k-1 (``None`` or missing means
    the zero map); ``boundaries[0]`` is ignored even if present, matching a
    complex that ends at grade 0.  Returns ``(ranks, dims)`` with
    ``ranks[k]`` the rank of d_k for k = 0..n (zero at both ends).

    The boundaries must form a chain complex, d_k d_{k+1} = 0: the rank of
    d_{k+1} is taken with its rows at the pivot columns of d_k cleared.
    Those columns are independent, so ker d_k meets their span in 0, and
    im d_{k+1}, which lies in ker d_k, projects injectively off them.  The
    precondition is not checked; without it the ranks of d_{k+1} can come
    out too low (never the dimensions negative, since a cleared d_{k+1}
    has n_k - rank d_k rows).
    """
    n = len(generator_counts)
    ranks = [0] * (n + 1)
    cleared: frozenset[int] = frozenset()
    for k in range(1, n):
        m = boundaries[k] if k < len(boundaries) else None
        if m is None:
            cleared = frozenset()
            continue
        if m.cols != generator_counts[k] or m.rows != generator_counts[k - 1]:
            raise ValueError(f"boundary {k} has shape {m.rows}x{m.cols}, "
                             f"expected {generator_counts[k - 1]}x{generator_counts[k]}")
        cleared = frozenset(_eliminate(_integer_rows(m, cleared)))
        ranks[k] = len(cleared)
    dims = [generator_counts[k] - ranks[k] - ranks[k + 1] for k in range(n)]
    return ranks, dims

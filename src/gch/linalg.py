"""Exact sparse rational matrices and rank computation.

A matrix holds its nonzeros in compressed sparse row form: the columns of
row i are ``_j[_p[i]:_p[i + 1]]``, in increasing order, and their values
sit at the same positions of ``_v``.  Row pointers and column indices are
``array("i")`` (``"q"`` once they can pass 2^31 - 1) and values
``array("q")``, so an integer entry costs 12 bytes.  Only a matrix with a
``Fraction`` entry, or an integer wider than 63 bits, keeps its values in
a list.  Entries are ``int`` or ``Fraction`` (anything else raises
``TypeError``): integral values are stored as ``int`` and the rest as
``Fraction``, so the boundary operators, which are sums of signs, carry
no ``Fraction`` at all, and a matrix notes once whether it is integral.
Code outside the class reads the nonzeros through
:meth:`SparseMatrix.items`, and the kernels here through the read-only
:attr:`SparseMatrix.csr` arrays; ``entries`` is a fresh dictionary on
every read.  Every rank comes from one fraction-free sparse elimination,
:func:`_pivots`, in two phases:

* peeling: while some column has a single live row, the lowest such
  column is the pivot, and its row is dropped with no row operation (a
  coreduction pair, Mrozek--Batko, 2009).  This phase works on the arrays
  alone and never reads a value: per column it keeps the count of live
  rows and the sum of their indices, so a column of count 1 names its
  row.  Most pivots of a boundary operator come off here;
* the heap phase: the rows left become integer rows, each scaled to
  integers first if it holds a non-integer.  The pivot column is the one
  with the fewest active rows, the lowest index on a tie, taken from a
  lazy heap; the pivot row there is the sparsest, preferring a unit value;
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
import operator
from array import array
from collections.abc import Iterable
from fractions import Fraction


def _index_code(n: int) -> str:
    """The typecode of an array of ints in ``range(n)``: ``"i"`` unless
    one can pass 2^31 - 1."""
    return "i" if n <= 2 ** 31 else "q"


def _values(values: list) -> array | list:
    """``array("q")`` of integer values that fit in 63 bits, else the list."""
    try:
        return array("q", values)
    except (TypeError, OverflowError):
        return values


def _refuse_coordinates(types: set[type]) -> None:
    others = types - {int}
    if others:
        raise TypeError("entry coordinates must be int, not "
                        + ", ".join(sorted(t.__name__ for t in others)))


# swaps the bytes 0 and 1: a row mask to its complement
_FLIP = bytes([1, 0]) + bytes(254)


def _keep(m: "SparseMatrix", rows: int, cols: int, pp: array, jj: array,
          vv: array | list, integral: bool) -> "SparseMatrix":
    """Set the shape, row pointers and sorted nonzeros of a matrix being made."""
    setter = object.__setattr__
    setter(m, "rows", rows)
    setter(m, "cols", cols)
    setter(m, "integral", integral)
    setter(m, "_p", pp)
    setter(m, "_j", jj)
    setter(m, "_v", vv)
    return m


def _pack(m: "SparseMatrix", rows: int, cols: int, col_i, col_v: array | list,
          sizes: list[int], integral: bool) -> "SparseMatrix":
    """Lay out row by row the nonzeros of a matrix being made, given by
    column (column j holds the next ``sizes[j]`` rows ``col_i`` and values
    ``col_v``): a stable counting sort by row keeps each row in order."""
    counts = [0] * rows
    for i in col_i:
        counts[i] += 1
    # free[i]: the next free position of row i in row-major order
    free = list(itertools.accumulate(counts, initial=0))
    pp = array(_index_code(len(col_i) + 1), free)
    jj, vv = [0] * len(col_i), [0] * len(col_i)
    col_j = itertools.chain.from_iterable(map(itertools.repeat, range(cols), sizes))
    for i, j, v in zip(col_i, col_j, col_v):
        p = free[i]
        free[i] = p + 1
        jj[p] = j
        vv[p] = v
    return _keep(m, rows, cols, pp, array(_index_code(cols), jj), _values(vv), integral)


class SparseMatrix:
    """An exact ``rows`` x ``cols`` matrix, its nonzeros held row by row in
    compressed sparse row arrays.

    The constructor takes a ``{(i, j): value}`` dictionary of ``int`` and
    ``Fraction`` values, checks it, turns a ``Fraction`` of denominator 1
    into an ``int`` and leaves zeros out; :meth:`from_columns` takes
    integer columns in order instead.  ``entries`` is a fresh dictionary on
    every read, so changing it leaves the matrix as it was.  A matrix is
    not changed once made."""

    __slots__ = ("rows", "cols", "integral", "_p", "_j", "_v")

    def __init__(self, rows: int, cols: int,
                 entries: dict[tuple[int, int], int | Fraction] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape {rows}x{cols}")
        entries = {} if entries is None else entries
        if set(map(len, entries)) - {2}:
            raise ValueError("an entry's key is not a (row, column) pair")
        ii, jj = (list(map(operator.itemgetter(k), entries)) for k in (0, 1))
        _refuse_coordinates(set(map(type, ii)) | set(map(type, jj)))
        if ii and not (min(ii) >= 0 and max(ii) < rows and min(jj) >= 0 and max(jj) < cols):
            i, j = next((i, j) for i, j in entries if not (0 <= i < rows and 0 <= j < cols))
            raise ValueError(f"entry ({i},{j}) out of range")
        vv = list(entries.values())
        integral = set(map(type, vv)) <= {int}
        if not integral:
            for p, v in enumerate(vv):
                if type(v) is not int and not isinstance(v, Fraction):
                    raise TypeError(f"entry ({ii[p]},{jj[p]}) is {type(v).__name__}, not int or Fraction")
            vv = [v.numerator if type(v) is not int and v.denominator == 1 else v for v in vv]
            integral = all(type(v) is int for v in vv)
        if 0 in vv:
            ii, jj, vv = (list(itertools.compress(c, vv)) for c in (ii, jj, vv))
        # bucket the nonzeros by column
        sizes = [0] * cols
        for j in jj:
            sizes[j] += 1
        free = list(itertools.accumulate(sizes, initial=0))
        col_i, col_v = [0] * len(vv), [0] * len(vv)
        for i, j, v in zip(ii, jj, vv):
            p = free[j]
            free[j] = p + 1
            col_i[p] = i
            col_v[p] = v
        del ii, jj, vv  # before the row pass, which keeps a copy of its own
        _pack(self, rows, cols, col_i, col_v, sizes, integral)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a SparseMatrix is not changed once made")

    def __reduce__(self):
        return SparseMatrix, (self.rows, self.cols, self.entries)

    @classmethod
    def from_columns(cls, rows: int, cols: int, columns) -> "SparseMatrix":
        """The matrix whose j-th column is the j-th ``{row: value}`` of
        ``columns``, with ``int`` rows and values of at most 63 bits (a
        ``bool`` raises ``TypeError``, as in the constructor) and zeros
        left out; there must be ``cols`` columns.

        The columns are read once, in order, into column-major arrays,
        which ``_pack`` lays out row by row, so the order of the rows
        within a column does not matter, and no dictionary of coordinates
        is made."""
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape {rows}x{cols}")
        col_i, col_v, sizes = array(_index_code(rows)), array("q"), []
        # the types of the rows and values read so far: a bool, which the
        # arrays would take as an int, or any other type makes one grow
        row_types, value_types = {int}, {int}
        for column in columns:
            row_types.update(map(type, column))
            value_types.update(map(type, column.values()))
            if len(row_types) + len(value_types) > 2:
                _refuse_coordinates(row_types)
                i, v = next((i, v) for i, v in column.items() if type(v) is not int)
                raise TypeError(f"entry ({i},{len(sizes)}) is {type(v).__name__}, not int")
            if 0 in column.values():
                column = {i: v for i, v in column.items() if v}
            col_i.extend(column)
            col_v.extend(column.values())
            sizes.append(len(column))
        if len(sizes) != cols:
            raise ValueError(f"{len(sizes)} columns given for {cols}")
        if col_i and not (min(col_i) >= 0 and max(col_i) < rows):
            raise ValueError(f"a row index is out of range 0..{rows - 1}")
        return _pack(cls.__new__(cls), rows, cols, col_i, col_v, sizes, True)

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseMatrix":
        return SparseMatrix(rows, cols, {})

    @property
    def nnz(self) -> int:
        return len(self._j)

    @property
    def csr(self) -> tuple[array, array, array | list]:
        """The row pointers, column indices and values: the matrix's own
        arrays, to be read and never written."""
        return self._p, self._j, self._v

    def _row_indices(self):
        """The row of every nonzero, in storage order."""
        p = self._p
        return itertools.chain.from_iterable(
            map(itertools.repeat, range(self.rows), map(operator.sub, p[1:], p)))

    @property
    def entries(self) -> dict[tuple[int, int], int | Fraction]:
        """A fresh ``{(i, j): value}`` dictionary of the nonzeros."""
        return dict(zip(zip(self._row_indices(), self._j), self._v))

    def items(self):
        """(row, column, value) of every nonzero, by row, then column."""
        return zip(self._row_indices(), self._j, self._v)

    def is_zero(self) -> bool:
        return not self._j

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.csr) == (other.rows, other.cols, other.csr)

    __hash__ = None

    def __repr__(self) -> str:
        return f"SparseMatrix(rows={self.rows}, cols={self.cols}, entries={self.entries!r})"


def multiply(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """The product ``a @ b``, one row of ``a`` at a time: a row accumulator
    sums the rows of ``b`` that the row's entries pick out, and the row's
    nonzeros are written out in column order."""
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    ap, aj, av = a.csr
    bp, bj, bv = b.csr
    pp, jj, vv = [0], [], []
    for i in range(a.rows):
        acc: dict[int, int | Fraction] = {}
        for t in range(ap[i], ap[i + 1]):
            k, v = aj[t], av[t]
            for s in range(bp[k], bp[k + 1]):
                j = bj[s]
                acc[j] = acc.get(j, 0) + v * bv[s]
        for j in sorted(acc):
            if w := acc[j]:
                jj.append(j)
                vv.append(w)
        pp.append(len(jj))
    integral = a.integral and b.integral
    if not integral:
        vv = [v.numerator if type(v) is not int and v.denominator == 1 else v for v in vv]
        integral = all(type(v) is int for v in vv)
    return _keep(SparseMatrix.__new__(SparseMatrix), a.rows, b.cols,
                 array(_index_code(len(vv) + 1), pp), array(_index_code(b.cols), jj),
                 _values(vv), integral)


def _pivots(m: SparseMatrix, drop: Iterable[int] = ()) -> array:
    """Pivot columns, in pivot order, of a sparse elimination of the rows
    of ``m`` outside ``drop`` (row indices; one outside ``range(m.rows)``
    names no row).

    The pivot columns are linearly independent columns of the matrix, and
    there are rank-many of them.  The pivot column is always the least
    (active rows, column), and the pivot row there the least (non-unit
    value, length, row).

    While some column has a single live row, that column is the least
    choice, so these columns come first, from a min-heap of their own:
    such a pivot only drops its row, and counts only fall, so a column
    enters the heap at most once.  Each column keeps the count of its live
    rows and the sum of their indices, which is the index of its row when
    the count is 1.  The rows left then become integer ``{column: value}``
    rows, and their columns go through a lazy heap of (active rows,
    column).
    """
    p, jj, vv = m.csr
    # per column, the sum of its live rows' indices above the low ``shift``
    # bits, which count those rows (at most ``m.rows``): a column is 0 once
    # it has no live row, and names its row by ``>> shift`` when it has one
    shift = m.rows.bit_length()
    low = (1 << shift) - 1
    live = [0] * m.cols
    dead = bytearray(m.rows)
    for i in drop:
        if 0 <= i < m.rows:
            dead[i] = 1
    for i in itertools.compress(range(m.rows), dead.translate(_FLIP)):
        step = (i << shift) + 1
        for c in jj[p[i]:p[i + 1]]:
            live[c] += step
    # ascending, so already a heap; a column whose count fell to 0 is skipped
    singles = [c for c, s in enumerate(live) if s & low == 1]
    pivots = array(jj.typecode)
    pop, push, keep = heapq.heappop, heapq.heappush, pivots.append
    while singles:
        col = pop(singles)
        step = live[col]
        if not step:
            continue
        # the column holds its row alone: drop the row from every column
        prow_id = step >> shift
        keep(col)
        dead[prow_id] = 1
        for c in jj[p[prow_id]:p[prow_id + 1]]:
            s = live[c] - step
            live[c] = s
            if s & low == 1:
                push(singles, c)
    if not any(live):
        return pivots
    alive = dead.translate(_FLIP)
    # the rows left, read in one pass over the entries of live rows
    lengths = list(map(operator.sub, itertools.islice(p, 1, None), p))
    entries = itertools.compress(
        zip(jj, vv),
        itertools.chain.from_iterable(map(itertools.repeat, alive, lengths)))
    active: dict[int, dict[int, int]] = {}
    for i, n in itertools.compress(enumerate(lengths), alive):
        if n:
            row = dict(itertools.islice(entries, n))
            if not m.integral and any(type(v) is not int for v in row.values()):
                scale = math.lcm(*(v.denominator for v in row.values()))
                row = {j: int(v * scale) for j, v in row.items()}
            active[i] = row
    col_rows: dict[int, set[int]] = {}
    for i, row in active.items():
        for j in row:
            if (s := col_rows.get(j)) is None:
                col_rows[j] = {i}
            else:
                s.add(i)
    # lazy queue of (active rows, column): every column keeps an entry at
    # or below its count, so an entry popped at its count is the least
    # choice.  A pivot pushes only the columns whose count fell; a popped
    # entry whose count rose since goes back at the new count
    queue = [(len(s), j) for j, s in col_rows.items()]
    heapq.heapify(queue)
    while queue:
        count, col = pop(queue)
        targets = col_rows.get(col)
        if targets is None:
            continue
        if len(targets) != count:
            push(queue, (len(targets), col))
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
                push(queue, (len(s), j))
    return pivots


def rank(m: SparseMatrix) -> int:
    """Exact rank over the rationals."""
    return len(_pivots(m))


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
    cleared: Iterable[int] = ()
    for k in range(1, n):
        m = boundaries[k] if k < len(boundaries) else None
        if m is None:
            cleared = ()
            continue
        if m.cols != generator_counts[k] or m.rows != generator_counts[k - 1]:
            raise ValueError(f"boundary {k} has shape {m.rows}x{m.cols}, "
                             f"expected {generator_counts[k - 1]}x{generator_counts[k]}")
        cleared = _pivots(m, cleared)
        ranks[k] = len(cleared)
    dims = [generator_counts[k] - ranks[k] - ranks[k + 1] for k in range(n)]
    return ranks, dims

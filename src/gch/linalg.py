"""Exact sparse rational matrices and rank computation.

Matrices are coordinate dictionaries of Fractions (integers pass through
unchanged).  Rank runs a fraction-free sparse elimination: rows are scaled
to integers, pivots are chosen Markowitz-style (sparsest column, then
sparsest row, unit pivots preferred) and rows are divided by their content
after each update, which keeps entries small on the nearly-unimodular
matrices that boundary operators produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class SparseMatrix:
    rows: int
    cols: int
    entries: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"entry ({i},{j}) out of range")
            if v:
                clean[(i, j)] = Fraction(v)
        object.__setattr__(self, "entries", clean)

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseMatrix":
        return SparseMatrix(rows, cols, {})

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(n, n, {(i, i): Fraction(1) for i in range(n)})

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows,
                            {(j, i): v for (i, j), v in self.entries.items()})

    def row_dicts(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out


def multiply(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    b_rows = b.row_dicts()
    acc: dict[tuple[int, int], Fraction] = {}
    for (i, k), v in a.entries.items():
        row = b_rows[k]
        for j, w in row.items():
            key = (i, j)
            cur = acc.get(key)
            acc[key] = v * w if cur is None else cur + v * w
    return SparseMatrix(a.rows, b.cols, {k: v for k, v in acc.items() if v})


def _integer_rows(m: SparseMatrix) -> list[dict[int, int]]:
    rows: list[dict[int, int]] = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    out = []
    for row in rows:
        if not row:
            continue
        scale = math.lcm(*(v.denominator for v in row.values()))
        ints = {j: int(v * scale) for j, v in row.items()}
        g = math.gcd(*(abs(x) for x in ints.values()))
        if g > 1:
            ints = {j: x // g for j, x in ints.items()}
        out.append(ints)
    return out


def rank(m: SparseMatrix) -> int:
    """Exact rank over the rationals."""
    rows = _integer_rows(m)
    if not rows:
        return 0
    active: dict[int, dict[int, int]] = {i: r for i, r in enumerate(rows)}
    col_index: dict[int, set[int]] = {}
    for i, r in active.items():
        for j in r:
            col_index.setdefault(j, set()).add(i)
    rk = 0
    while active:
        # pivot column: fewest active rows; pivot row there: fewest entries,
        # preferring a unit value
        col = min(col_index, key=lambda j: (len(col_index[j]), j))
        candidates = col_index[col]
        prow_id = min(
            candidates,
            key=lambda i: (abs(active[i][col]) != 1, len(active[i]), i),
        )
        pivot_row = active.pop(prow_id)
        pval = pivot_row[col]
        for j in pivot_row:
            s = col_index[j]
            s.discard(prow_id)
            if not s:
                del col_index[j]
        rk += 1
        targets = list(col_index.get(col, ()))
        for rid in targets:
            row = active[rid]
            f = row[col]
            for j in row:
                col_index[j].discard(rid)
            new = {}
            for j, v in row.items():
                new[j] = v * pval
            for j, v in pivot_row.items():
                w = new.get(j, 0) - f * v
                if w:
                    new[j] = w
                else:
                    new.pop(j, None)
            if new:
                g = math.gcd(*(abs(x) for x in new.values()))
                if g > 1:
                    new = {j: x // g for j, x in new.items()}
                active[rid] = new
                for j in new:
                    col_index.setdefault(j, set()).add(rid)
            else:
                del active[rid]
        for j in list(col_index):
            if not col_index[j]:
                del col_index[j]
    return rk


def boundary_ranks(boundaries: list[SparseMatrix | None],
                   generator_counts: list[int]) -> tuple[list[int], list[int]]:
    """Ranks of the boundaries and dim H_k = n_k - rank d_k - rank d_{k+1}.

    ``boundaries[k]`` maps grade k to grade k-1 (``None`` or missing means
    the zero map); ``boundaries[0]`` is ignored even if present, matching a
    complex that ends at grade 0.  Returns ``(ranks, dims)`` with
    ``ranks[k]`` the rank of d_k for k = 0..n (zero at both ends).
    """
    n = len(generator_counts)
    ranks = [0] * (n + 1)
    for k in range(1, n):
        m = boundaries[k] if k < len(boundaries) else None
        if m is None:
            continue
        if m.cols != generator_counts[k] or m.rows != generator_counts[k - 1]:
            raise ValueError(f"boundary {k} has shape {m.rows}x{m.cols}, "
                             f"expected {generator_counts[k - 1]}x{generator_counts[k]}")
        ranks[k] = rank(m)
    dims = [generator_counts[k] - ranks[k] - ranks[k + 1] for k in range(n)]
    if any(d < 0 for d in dims):
        raise AssertionError("negative homology dimension: boundaries are inconsistent")
    return ranks, dims


def homology_dims(boundaries: list[SparseMatrix | None], generator_counts: list[int]) -> list[int]:
    """dim H_k for each grade; see :func:`boundary_ranks`."""
    return boundary_ranks(boundaries, generator_counts)[1]

"""Exact matrices over a parameter ring, with fraction-free elimination.

rank_exact runs Bareiss elimination with full pivoting. Intermediate
entries stay polynomial (each is a minor of the input), every division is
exact, and the final pivot is, up to a tracked permutation sign, the
determinant of the selected rank x rank submatrix. That determinant is
returned as the certificate: a concrete minor, nonzero as a polynomial,
whose nonvanishing witnesses the rank over the fraction field.

rank_exact and det share that loop, _bareiss, but not its pivot search:
rank_exact takes the first nonzero entry, which fixes its pivot rows (the
lex-first row basis) and the minor it certifies; det, whose value no
pivot order changes, takes the entry with the fewest terms. Its step
piv*a - head*b is ParamScalar.mul_sub, which takes the two products in
one accumulation when all four operands have two or more terms.

kernel_basis is Gauss-Jordan on the field elements of a parameter-free
matrix; each row operation x - f*y is taken raw and reduced once
(Field.reduce).
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConstraintViolated, RingMismatch
from .fields import Scalar, Value, slot_setters
from .params import ParamRing, ParamScalar, _degree, require_constant


class ExactMatrix(Value):
    __slots__ = ("ring", "rows", "cols", "entries")

    ring: ParamRing
    rows: int
    cols: int
    entries: tuple[ParamScalar, ...]  # row-major

    def __init__(
        self, ring: ParamRing, rows: int, cols: int, entries: tuple[ParamScalar, ...]
    ) -> None:
        if len(entries) != rows * cols:
            raise ConstraintViolated(f"entry count {len(entries)} != {rows}x{cols}")
        for e in entries:
            if e.ring is not ring and e.ring != ring:
                raise RingMismatch("entry ring differs from matrix ring")
        _set_ring(self, ring)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)

    @classmethod
    def from_rows(cls, ring: ParamRing, rows: Sequence[Sequence[ParamScalar]]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ConstraintViolated("ragged rows")
        return cls(ring, r, c, tuple(x for row in rows for x in row))

    def entry(self, i: int, j: int) -> ParamScalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[ParamScalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[ParamScalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        ents = tuple(self.entry(i, j) for i in row_idx for j in col_idx)
        return ExactMatrix(self.ring, len(row_idx), len(col_idx), ents)

    def transpose(self) -> "ExactMatrix":
        ents = tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows))
        return ExactMatrix(self.ring, self.cols, self.rows, ents)

    def str_rows(self) -> list[list[str]]:
        return [[str(self.entry(i, j)) for j in range(self.cols)] for i in range(self.rows)]


class RankResult(Value):
    __slots__ = ("rank", "certificate", "pivot_rows", "pivot_cols")

    rank: int
    certificate: ParamScalar
    pivot_rows: tuple[int, ...]
    pivot_cols: tuple[int, ...]

    def __init__(
        self,
        rank: int,
        certificate: ParamScalar,
        pivot_rows: tuple[int, ...],
        pivot_cols: tuple[int, ...],
    ) -> None:
        _set_rank(self, rank)
        _set_certificate(self, certificate)
        _set_pivot_rows(self, pivot_rows)
        _set_pivot_cols(self, pivot_cols)


_set_ring, _set_rows, _set_cols, _set_entries = slot_setters(ExactMatrix)
_set_rank, _set_certificate, _set_pivot_rows, _set_pivot_cols = slot_setters(RankResult)


def _perm_sign(seq: Sequence[int]) -> int:
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def _first_nonzero(work: list[list[ParamScalar]], k: int) -> tuple[int, int] | None:
    """The first nonzero entry at or past (k, k), in row-major order."""
    cells = ((i, j) for i in range(k, len(work)) for j in range(k, len(work[i])))
    return next(((i, j) for i, j in cells if not work[i][j].is_zero), None)


def _cheapest(work: list[list[ParamScalar]], k: int) -> tuple[int, int] | None:
    """The nonzero entry at or past (k, k) with the fewest terms, then the
    lowest total degree, then the first in row-major order."""
    best = None
    for i in range(k, len(work)):
        for j, x in enumerate(work[i][k:], k):
            if x.packed and (best is None or (len(x.packed), _degree(x)) < best[0]):
                if not x.packed[0][0]:  # a constant: nothing is cheaper
                    return i, j
                best = (len(x.packed), _degree(x)), (i, j)
    return best and best[1]


def _bareiss(
    m: ExactMatrix, search=_first_nonzero
) -> tuple[int, list[list[ParamScalar]], list[int], list[int]]:
    """Full-pivot Bareiss; returns (rank, worked grid, row ids, col ids).
    `search(work, k)` picks the pivot at step k, (row, col) or None.

    A row whose head is zero at a step is left alone: its true entries
    are its stored ones times prev / div[i], where div[i] is the pivot it
    was last reduced by (one before that), which keeps its zero pattern.
    The row is brought up to date only when it becomes the pivot row.
    """
    work = m.to_lists()
    row_ids = list(range(m.rows))
    col_ids = list(range(m.cols))
    one = prev = m.ring.one()
    zero = m.ring.zero()
    div = [one] * m.rows
    k = 0
    limit = min(m.rows, m.cols)
    while k < limit:
        pivot = search(work, k)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            work[k], work[pi] = work[pi], work[k]
            row_ids[k], row_ids[pi] = row_ids[pi], row_ids[k]
            div[k], div[pi] = div[pi], div[k]
        if pj != k:
            for row in work:
                row[k], row[pj] = row[pj], row[k]
            col_ids[k], col_ids[pj] = col_ids[pj], col_ids[k]
        pivot_row = work[k]
        d = div[k]
        if d is not prev:  # a lagging pivot row: (prev*a) / d
            for c in range(k, m.cols):
                a = pivot_row[c]
                if not a.is_zero:
                    a = prev * a
                    pivot_row[c] = a if d is one else a.exact_div(d)
        piv = pivot_row[k]
        for i in range(k + 1, m.rows):
            # row[c] = (piv*row[c] - head*pivot_row[c]) / div[i], exactly,
            # as each entry is a minor of the input (Sylvester's identity);
            # where pivot_row[c] is zero the second product is not formed,
            # and where div[i] is one there is nothing to divide by
            row = work[i]
            head = row[k]
            if head.is_zero:
                continue
            d = div[i]
            for c in range(k + 1, m.cols):
                a = row[c]
                b = pivot_row[c]
                if b.is_zero:
                    if a.is_zero:
                        continue
                    a = piv * a
                else:
                    a = piv.mul_sub(a, head, b)
                row[c] = a if d is one else a.exact_div(d)
            row[k] = zero
            div[i] = piv
        prev = piv
        k += 1
    return k, work, row_ids, col_ids


def rank_exact(m: ExactMatrix) -> RankResult:
    """Rank over the fraction field of the parameter ring, with a witness.

    The certificate is the determinant of the rank x rank submatrix on the
    returned pivot rows and columns (taken in increasing order); for an
    empty matrix or rank 0 it is the constant 1.

    The pivot rows are the lexicographically first rows that form a basis
    of the row space. Each pivot is taken in the first remaining row with a
    nonzero entry, a swap moves only rows already reduced to zero, and a
    row reduces to zero exactly when it lies in the span of the rows
    chosen before it. The local equations print these rows, and the pivot
    rows of the transposed pivot-row block as their columns.
    """
    if m.rows == 0 or m.cols == 0:
        return RankResult(0, m.ring.one(), (), ())
    rank, work, row_ids, col_ids = _bareiss(m)
    if rank == 0:
        return RankResult(0, m.ring.one(), (), ())
    sel_rows = row_ids[:rank]
    sel_cols = col_ids[:rank]
    sign = _perm_sign(sel_rows) * _perm_sign(sel_cols)
    cert = work[rank - 1][rank - 1]
    if sign < 0:
        cert = -cert
    return RankResult(rank, cert, tuple(sorted(sel_rows)), tuple(sorted(sel_cols)))


def det(m: ExactMatrix) -> ParamScalar:
    """The determinant, pivoting on the entry with the fewest terms (then
    the lowest degree, then row-major order): the value is the same under
    any pivots, unlike rank_exact's certified minor (module docstring)."""
    if m.rows != m.cols:
        raise ConstraintViolated("determinant of a non-square matrix")
    if m.rows == 0:
        return m.ring.one()
    rank, work, row_ids, col_ids = _bareiss(m, _cheapest)
    if rank < m.rows:
        return m.ring.zero()
    sign = _perm_sign(row_ids) * _perm_sign(col_ids)
    d = work[rank - 1][rank - 1]
    return -d if sign < 0 else d


def kernel_basis(m: ExactMatrix) -> list[tuple[Scalar, ...]]:
    """Basis of the right kernel of a parameter-free matrix.

    Gauss-Jordan over the base field; one basis vector per free column,
    emitted in increasing column order. Raises ParameterPresent when an
    entry carries a parameter.
    """
    field = m.ring.field
    reduce = field.reduce
    grid = [require_constant(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []  # pivot column of each reduced row
    r = 0
    for c in range(m.cols):
        hit = None
        for i in range(r, m.rows):
            if not field.is_zero(grid[i][c]):
                hit = i
                break
        if hit is None:
            continue
        grid[r], grid[hit] = grid[hit], grid[r]
        inv = field.inv(grid[r][c])
        grid[r] = [reduce(x * inv) for x in grid[r]]
        for i in range(m.rows):
            if i != r and not field.is_zero(grid[i][c]):
                f = grid[i][c]
                grid[i] = [reduce(x - f * y) for x, y in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for c in range(m.cols):
        if c in pivot_set:
            continue
        vec = [field.zero] * m.cols
        vec[c] = field.one
        for i, pc in enumerate(pivots):
            vec[pc] = reduce(-grid[i][c])
        basis.append(tuple(vec))
    return basis

"""Test-only reference: the dense fraction-free loops kept verbatim to
cross-check the Bareiss elimination of exactmatrix, which skips vanishing
products and defers the scaling of rows whose head is zero. Here every
entry of every row below the pivot is updated at every step as
(piv*a - head*b) / prev, zero products included.

_bareiss, rank_exact and det are the full-pivot loops as exactmatrix
ran them before its step skipped vanishing products. lex_first_basis is
the greedy row-by-row elimination that once chose the pivot rows of the
local equations on its own; rank_exact's pivot rows must equal it.
"""

from __future__ import annotations

from cilines.exactmatrix import ExactMatrix, RankResult, _perm_sign
from cilines.params import ParamScalar


def _bareiss(m: ExactMatrix) -> tuple[int, list[list[ParamScalar]], list[int], list[int]]:
    """Full-pivot Bareiss; returns (rank, worked grid, row ids, col ids)."""
    work = m.to_lists()
    row_ids = list(range(m.rows))
    col_ids = list(range(m.cols))
    prev = m.ring.one()
    k = 0
    limit = min(m.rows, m.cols)
    while k < limit:
        pivot = None
        for i in range(k, m.rows):
            for j in range(k, m.cols):
                if not work[i][j].is_zero:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            work[k], work[pi] = work[pi], work[k]
            row_ids[k], row_ids[pi] = row_ids[pi], row_ids[k]
        if pj != k:
            for row in work:
                row[k], row[pj] = row[pj], row[k]
            col_ids[k], col_ids[pj] = col_ids[pj], col_ids[k]
        piv = work[k][k]
        for i in range(k + 1, m.rows):
            head = work[i][k]
            for j in range(k + 1, m.cols):
                work[i][j] = (piv * work[i][j] - head * work[k][j]).exact_div(prev)
            work[i][k] = m.ring.zero()
        prev = piv
        k += 1
    return k, work, row_ids, col_ids


def rank_exact(m: ExactMatrix) -> RankResult:
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
    if m.rows == 0:
        return m.ring.one()
    rank, work, row_ids, col_ids = _bareiss(m)
    if rank < m.rows:
        return m.ring.zero()
    sign = _perm_sign(row_ids) * _perm_sign(col_ids)
    d = work[rank - 1][rank - 1]
    return -d if sign < 0 else d


def lex_first_basis(matrix: ExactMatrix) -> tuple[int, ...]:
    work = matrix.to_lists()
    free = list(range(matrix.cols))
    chosen: list[int] = []
    prev = matrix.ring.one()
    for i, row in enumerate(work):
        j = next((j for j in free if not row[j].is_zero), None)
        if j is None:
            continue
        chosen.append(i)
        free.remove(j)
        piv = row[j]
        for later in work[i + 1 :]:
            head = later[j]
            for c in free:
                later[c] = (piv * later[c] - head * row[c]).exact_div(prev)
        prev = piv
    return tuple(chosen)

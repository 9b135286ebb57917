"""Local equations and smoothness certificates for the locus of non-free
lines at a corank-1 point.

At a chart line on X where M(h) drops rank by exactly one, the locus of
non-free lines is cut out, inside the locus of lines on X, by the
maximal minors of M(h). A minimal such set is obtained by bordering: fix
a nonsingular (|d|-1) x (|d|-1) submatrix at the point and adjoin one
extra row at a time, giving m = N - |d| determinants g_1, ..., g_m, each
vanishing at the point. Each g_l is expanded along its extra row, so
it is a dot product of that row with the signed maximal minors
(cofactors) of the (|d|-1) x |d| block of pivot rows of the symbolic
M(h); the cofactors are shared by all m equations and taken once per
report.

The locus is then smooth of the expected local dimension N - r - 2 at
the line exactly when the (|d|+r+m) x 2(N-1) matrix of first derivatives
of the containment polynomials f^i_k and of the g_l, evaluated at the
point, has full rank |d| + r + m = N + r. Derivative rows for the f^i_k
are read off M(h) itself: differentiating the composite with the chart
parameterization by a_j (resp. b_j) multiplies the restricted partial by
s (resp. t), which shifts its coefficient vector by one slot. Rows
for the g_l are their first partials at the point. Each comes with the
value that checks g_l vanishes there from one walk over the terms of
g_l (MultiPoly.jet_at), and no derivative polynomial is formed.

With symbolic parameters the ranks are taken over the fraction field,
and certificates (explicit nonzero polynomials in the parameters whose
nonvanishing guarantees every rank used) are returned in place of the
informal phrase "for general parameters".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .chart import (
    NonFreeMatrix,
    chart_ring,
    chart_variables,
    membership_system,  # not called here; perfbench's tracer test reads it
    nonfree_matrix,
)
from .errors import InvariantViolated, LineNotContained, NotCorankOne
from .exactmatrix import ExactMatrix, det, rank_exact
from .geometry import CompleteIntersection, LineChartPoint
from .multipoly import MultiPoly
from .params import ParamRing, ParamScalar, sum_of_products


@dataclass(frozen=True)
class LocalEquations:
    """Bordered-minor equations for the non-free locus at a corank-1 line."""

    base: LineChartPoint
    pivot_rows: tuple[int, ...]
    pivot_cols: tuple[int, ...]
    pivot_det: ParamScalar
    minors: tuple[MultiPoly, ...]

    @property
    def count(self) -> int:
        return len(self.minors)


@dataclass(frozen=True)
class GenericityCertificate:
    """Nonzero polynomials in the parameters whose simultaneous
    nonvanishing guarantees the ranks of the enclosing report."""

    conditions: tuple[ParamScalar, ...]


Verdict = Literal["SmoothExpectedDim", "NotSmoothOrExcess", "NotInJ", "NotContained"]


@dataclass(frozen=True)
class SmoothnessReport:
    """Verdict on a pair (line, X) and what it rests on.

    `matrix` is M(h) evaluated at the line, with rank `matrix_rank`; it
    is None when the line is not on X. The local equations, the Jacobian
    rank and the local dimension are filled in at corank 1 only.
    """

    verdict: Verdict
    required_rank: int
    matrix: ExactMatrix | None = None
    matrix_rank: int | None = None
    corank: int | None = None
    equations: LocalEquations | None = None
    jacobian_rank: int | None = None
    local_dimension: int | None = None
    certificate: ParamScalar | None = None
    genericity: GenericityCertificate | None = None

    @property
    def contained(self) -> bool:
        return self.verdict != "NotContained"

    @property
    def in_nonfree_locus(self) -> bool:
        return bool(self.corank)


def local_equations(x: CompleteIntersection, point: LineChartPoint) -> LocalEquations:
    """Emit the N - |d| bordered minors at a corank-1 chart line.

    The pivot is the lexicographically first nonsingular minor of size
    |d| - 1; each emitted equation is the determinant of the symbolic
    M(h) on the pivot rows plus one further row, over all columns.
    Raises NotCorankOne when the line is free (corank 0) or the drop is
    deeper than one (corank >= 2, unsupported).
    """
    return _local_equations_from(x, nonfree_matrix(x, at=point))[0]


def _local_equations_from(
    x: CompleteIntersection, nf: NonFreeMatrix
) -> tuple[LocalEquations, list[list[ParamScalar]]]:
    """local_equations at the line of the evaluated M(h) `nf`, and the
    Jacobian rows of its minors there; the pivot rows are the lex-first
    row basis that nf.rank reports. One more elimination, of the
    transposed pivot rows, gives the lex-first columns as its pivot rows
    and the pivot minor as its certificate. One jet per minor at the
    line gives its vanishing check and its row."""
    point = nf.at
    pivot_rows = nf.rank.pivot_rows
    corank = x.ci_type.total_degree - nf.rank.rank
    if corank != 1:
        raise NotCorankOne(
            f"corank is {corank}, not 1 "
            + ("(the line is free)" if corank == 0 else "(deeper drops are unsupported)")
        )
    pivot = rank_exact(nf.matrix.submatrix(pivot_rows, range(nf.matrix.cols)).transpose())

    ab = chart_ring(x.coeff_ring, x.n)
    avars, bvars = chart_variables(x.n)
    sym = [[e.flat for e in row] for row in nf.entries_ab]
    minors: list[MultiPoly] = []
    rows: list[list[ParamScalar]] = []
    vals = point.values(x.n)
    for g_flat in bordered_minors(ab.flat, sym, pivot_rows):
        g = MultiPoly(ab, g_flat)
        value, row = g.jet_at(avars + bvars, vals)
        if not value.is_zero:
            raise InvariantViolated("bordered minor fails to vanish at the base point")
        minors.append(g)
        rows.append(row)
    pivot_cols, pivot_det = pivot.pivot_rows, pivot.certificate
    return LocalEquations(point, pivot_rows, pivot_cols, pivot_det, tuple(minors)), rows


def bordered_minors(
    ring: ParamRing, rows: list[list[ParamScalar]], pivot_rows: tuple[int, ...]
) -> list[ParamScalar]:
    """The determinants of the rows `pivot_rows` (|d| - 1 of them, sorted)
    of the |d|-column grid `rows` together with each other row, in the
    order of that other row.

    Each is expanded along its extra row e: with pos the place of e among
    the sorted rows of the minor, g = sum_c (-1)^(pos+c) e_c C_c, where C_c
    is the determinant of the pivot rows without column c. The cofactors
    C_c do not depend on e, so each is taken once, and only for a column
    where some extra row has a nonzero entry. Each g is one
    sum_of_products over its columns.
    """
    cols = range(len(rows[0]))
    extras = [i for i in range(len(rows)) if i not in pivot_rows]
    cofactors: dict[int, ParamScalar] = {}
    for c in cols:
        if any(not rows[i][c].is_zero for i in extras):
            block = [[rows[i][k] for k in cols if k != c] for i in pivot_rows]
            cofactors[c] = det(ExactMatrix.from_rows(ring, block))
    out = []
    for extra in extras:
        pos = sum(1 for i in pivot_rows if i < extra)
        pairs = [(rows[extra][c], cof) for c, cof in cofactors.items()]
        out.append(sum_of_products(ring, pairs, [(pos + c) % 2 == 1 for c in cofactors]))
    return out


def jacobian_def_matrix(
    x: CompleteIntersection, nf: NonFreeMatrix
) -> tuple[ExactMatrix, LocalEquations]:
    """The (|d|+r+m) x 2(N-1) derivative matrix at the chart line of the
    evaluated M(h) `nf`, as nonfree_matrix(x, at=point) returns it, and
    the local equations whose rows it holds.

    Rows come in the order f^1_0, ..., f^r_{d^r}, g_1, ..., g_m; the
    f-rows are assembled from `nf` by the coefficient shift, the g-rows
    are the gradients of the bordered minors at the line, read from the
    jets that check their vanishing.
    """
    vals = nf.value_rows()  # vals[j][block i offset + k]
    equations, g_rows = _local_equations_from(x, nf)
    n = x.n
    degrees = x.ci_type.degrees
    ring = x.coeff_ring
    blocks = nf.col_blocks
    zero = ring.zero()

    rows: list[list[ParamScalar]] = []
    for i, d in enumerate(degrees):
        lo, _ = blocks[i]
        for k in range(d + 1):
            da = [vals[j][lo + k] if k <= d - 1 else zero for j in range(n - 1)]
            db = [vals[j][lo + k - 1] if k >= 1 else zero for j in range(n - 1)]
            rows.append(da + db)

    rows.extend(g_rows)
    return ExactMatrix.from_rows(ring, rows), equations


def expected_pair_report(
    x: CompleteIntersection, point: LineChartPoint
) -> SmoothnessReport:
    """Full verdict for the pair (line, X): containment, corank of M(h),
    local equations, Jacobian rank against the required |d|+r+m = N+r,
    and genericity certificates when parameters are present."""
    n, r = x.n, x.ci_type.r
    total = x.ci_type.total_degree
    required = n + r

    try:
        nf = nonfree_matrix(x, at=point)
    except LineNotContained:
        return SmoothnessReport("NotContained", required)
    rk = nf.rank
    corank = total - rk.rank
    if corank != 1:  # the rank of M(h) decides, off the zero set of its certificate
        return SmoothnessReport(
            "NotSmoothOrExcess" if corank else "NotInJ",
            required,
            nf.matrix,
            rk.rank,
            corank,
            certificate=None if corank else rk.certificate,
            genericity=_genericity([rk.certificate]),
        )

    jac, eqs = jacobian_def_matrix(x, nf)
    jrk = rank_exact(jac)
    smooth = jrk.rank == required
    # |d|+r+m with m = N-|d| collapses to N+r; expected local dimension
    # is the chart dimension minus that rank
    local_dim = 2 * (n - 1) - required
    if local_dim != n - r - 2:
        raise InvariantViolated(f"local dimension {local_dim} differs from N - r - 2")
    return SmoothnessReport(
        "SmoothExpectedDim" if smooth else "NotSmoothOrExcess",
        required,
        nf.matrix,
        rk.rank,
        corank=1,
        equations=eqs,
        jacobian_rank=jrk.rank,
        local_dimension=local_dim if smooth else None,
        certificate=jrk.certificate,
        genericity=_genericity([rk.certificate, eqs.pivot_det, jrk.certificate]),
    )


def _genericity(conditions: list[ParamScalar]) -> GenericityCertificate:
    seen: dict[str, ParamScalar] = {}
    for c in conditions:
        if c.is_constant:
            continue
        seen.setdefault(str(c), c)
    return GenericityCertificate(tuple(seen.values()))



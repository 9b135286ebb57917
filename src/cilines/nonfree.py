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
report. The symbolic M(h) is differentiated from the membership system
only here, once per corank-1 report with m >= 1: a line of any other
corank, or with m = 0, builds no membership system. M(h) at the line
itself comes from one walk over each form (chart.nonfree_matrix).

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

from typing import Literal

from .chart import (
    NonFreeMatrix,
    _nonfree_entries,
    chart_ring,
    chart_variables,
    membership_system,
    nonfree_matrix,
)
from .errors import ConstraintViolated, InvariantViolated, LineNotContained, NotCorankOne
from .exactmatrix import ExactMatrix, det, rank_exact
from .fields import Value, slot_setters
from .geometry import CompleteIntersection, Line
from .multipoly import MultiPoly
from .params import ParamRing, ParamScalar, sum_of_products


class LocalEquations(Value):
    """Bordered-minor equations for the non-free locus at a corank-1 line."""

    __slots__ = ("pivot_rows", "pivot_cols", "pivot_det", "minors")

    pivot_rows: tuple[int, ...]
    pivot_cols: tuple[int, ...]
    pivot_det: ParamScalar
    minors: tuple[MultiPoly, ...]

    def __init__(
        self,
        pivot_rows: tuple[int, ...],
        pivot_cols: tuple[int, ...],
        pivot_det: ParamScalar,
        minors: tuple[MultiPoly, ...],
    ) -> None:
        _set_pivot_rows(self, pivot_rows)
        _set_pivot_cols(self, pivot_cols)
        _set_pivot_det(self, pivot_det)
        _set_minors(self, minors)

    @property
    def count(self) -> int:
        return len(self.minors)


Verdict = Literal["SmoothExpectedDim", "NotSmoothOrExcess", "NotInJ", "NotContained"]


class SmoothnessReport(Value):
    """Verdict on a pair (line, X) and what it rests on.

    `matrix` is M(h) evaluated at the line, with rank `matrix_rank`; it
    is None when the line is not on X. The local equations, the Jacobian
    rank and the local dimension are filled in at corank 1 only.
    `genericity` holds the nonconstant certificates of the ranks used,
    each once: the verdict holds wherever none of them vanishes.
    """

    __slots__ = (
        "verdict", "required_rank", "matrix", "matrix_rank", "corank", "equations",
        "jacobian_rank", "local_dimension", "certificate", "genericity",
    )

    verdict: Verdict
    required_rank: int
    matrix: ExactMatrix | None
    matrix_rank: int | None
    corank: int | None
    equations: LocalEquations | None
    jacobian_rank: int | None
    local_dimension: int | None
    certificate: ParamScalar | None
    genericity: tuple[ParamScalar, ...]

    def __init__(
        self,
        verdict: Verdict,
        required_rank: int,
        matrix: ExactMatrix | None = None,
        matrix_rank: int | None = None,
        corank: int | None = None,
        equations: LocalEquations | None = None,
        jacobian_rank: int | None = None,
        local_dimension: int | None = None,
        certificate: ParamScalar | None = None,
        genericity: tuple[ParamScalar, ...] = (),
    ) -> None:
        _set_verdict(self, verdict)
        _set_required_rank(self, required_rank)
        _set_matrix(self, matrix)
        _set_matrix_rank(self, matrix_rank)
        _set_corank(self, corank)
        _set_equations(self, equations)
        _set_jacobian_rank(self, jacobian_rank)
        _set_local_dimension(self, local_dimension)
        _set_certificate(self, certificate)
        _set_genericity(self, genericity)

    @property
    def contained(self) -> bool:
        return self.verdict != "NotContained"

    @property
    def in_nonfree_locus(self) -> bool:
        return bool(self.corank)


_set_pivot_rows, _set_pivot_cols, _set_pivot_det, _set_minors = slot_setters(LocalEquations)
(
    _set_verdict, _set_required_rank, _set_matrix, _set_matrix_rank, _set_corank, _set_equations,
    _set_jacobian_rank, _set_local_dimension, _set_certificate, _set_genericity,
) = slot_setters(SmoothnessReport)


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
    the local equations whose rows it holds: the N - |d| bordered minors
    at a corank-1 chart line.

    The pivot rows are the lex-first row basis that nf.rank reports. One
    more elimination, of the transposed pivot rows, gives the lex-first
    columns as its pivot rows and the pivot minor as its certificate.
    Each equation is the determinant of the symbolic M(h), read off
    membership_system(x) here, on the pivot rows plus one further row,
    over all columns; with no further row (m = 0) nothing symbolic is
    built. Rows come in the order f^1_0, ..., f^r_{d^r}, g_1, ..., g_m;
    the f-rows are assembled from `nf` by the coefficient shift, the
    g-rows are the gradients of the bordered minors at the line, read
    from the jet that checks each one vanishes there. Raises NotCorankOne
    when the line is free (corank 0) or the drop is deeper than one
    (corank >= 2, unsupported).
    Chart-only: the equations are in a_j, b_j, read from the line's rows
    as a = rows[0][2:] and b = rows[1][2:], so a line is refused
    (ConstraintViolated) unless S = s and T = t along it, that is, unless
    its first two columns are (1, 0) and (0, 1).
    """
    s_row, t_row = nf.at.rows
    if (s_row[:2], t_row[:2]) != ((1, 0), (0, 1)):
        raise ConstraintViolated("local equations need M(h) at a line with S = s and T = t")
    pivot_rows = nf.rank.pivot_rows
    corank = x.ci_type.total_degree - nf.rank.rank
    if corank != 1:
        raise NotCorankOne(
            f"corank is {corank}, not 1 "
            + ("(the line is free)" if corank == 0 else "(deeper drops are unsupported)")
        )
    pivot = rank_exact(nf.matrix.submatrix(pivot_rows, range(nf.matrix.cols)).transpose())

    n, ring = x.n, x.coeff_ring
    vals = nf.matrix.to_lists()  # vals[j][block i offset + k]
    zero = ring.zero()
    rows: list[list[ParamScalar]] = []
    lo = 0
    for d in x.ci_type.degrees:
        for k in range(d + 1):
            da = [vals[j][lo + k] if k <= d - 1 else zero for j in range(n - 1)]
            db = [vals[j][lo + k - 1] if k >= 1 else zero for j in range(n - 1)]
            rows.append(da + db)
        lo += d

    minors: list[MultiPoly] = []
    if len(pivot_rows) < n - 1:  # m >= 1: some row borders the pivot block
        ab = chart_ring(ring, n)
        avars, bvars = chart_variables(n)
        sym = [[e.flat for e in row] for row in _nonfree_entries(n, membership_system(x))]
        point_vals = dict(zip(avars + bvars, s_row[2:] + t_row[2:]))
        for g_flat in bordered_minors(ab.flat, sym, pivot_rows):
            g = MultiPoly(ab, g_flat)
            value, row = g.jet_at(avars + bvars, point_vals)
            if not value.is_zero:
                raise InvariantViolated("bordered minor fails to vanish at the base point")
            minors.append(g)
            rows.append(row)
    equations = LocalEquations(pivot_rows, pivot.pivot_rows, pivot.certificate, tuple(minors))
    return ExactMatrix.from_rows(ring, rows), equations


def expected_pair_report(x: CompleteIntersection, point: Line) -> SmoothnessReport:
    """Full verdict for the pair (line, X): containment, corank of M(h),
    local equations, Jacobian rank against the required |d|+r+m = N+r,
    and genericity certificates when parameters are present. Chart-only,
    as the local equations are in a_j, b_j."""
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


def _genericity(conditions: list[ParamScalar]) -> tuple[ParamScalar, ...]:
    """The nonconstant conditions, each once, in order of first occurrence."""
    return tuple(dict.fromkeys(c for c in conditions if not c.is_constant))

"""Helpers that only the tests call: views and transforms of the
program's objects that the program itself never needs, and the per-dom
section kernel that bundles._section_kernel_dims reads in one pass."""

from __future__ import annotations

from typing import Sequence

from cilines.bundles import SplittingType, normal_splitting_line, tangent_splitting_from_normal
from cilines.chart import (
    FqLine,
    chart_variables,
    line_jacobian,
    membership_system,
    nonfree_matrix,
    smooth_along_components,
)
from cilines.errors import ConstraintViolated
from cilines.exactmatrix import ExactMatrix, kernel_basis, rank_exact
from cilines.families import _hyp_head
from cilines.fields import Field, Scalar
from cilines.geometry import CompleteIntersection, LineChartPoint, ambient_variables
from cilines.multipoly import BinaryForm, MultiPoly, PolyRing
from cilines.params import ParamRing


def chart_line_jacobian(x: CompleteIntersection, point: LineChartPoint) -> list[list[BinaryForm]]:
    """The Jacobian of X restricted along a chart line on X, read off M(h)
    at the line, as classify-line hands it to the bundle routes."""
    return line_jacobian(x, point, nonfree_matrix(x, at=point).matrix)


def on_x(x: CompleteIntersection, point: LineChartPoint) -> bool:
    """Whether the chart line lies on X: every membership polynomial
    evaluated at it vanishes, identically in the parameters."""
    vals = point.values(x.n)
    return all(f.evaluate(vals).is_zero for sys in membership_system(x).systems for f in sys)


def is_smooth_along_line(x: CompleteIntersection, point: LineChartPoint) -> bool:
    return smooth_along_components(x, chart_line_jacobian(x, point))


def chart_point(line: FqLine) -> LineChartPoint:
    """The chart coordinates of a line in the standard chart."""
    if line.pivots != (0, 1):
        raise ConstraintViolated("line meets (S = T = 0); move it into the chart first")
    return LineChartPoint(line.field, line.rows[0][2:], line.rows[1][2:])


def tangent_splitting_line(x: CompleteIntersection, point: LineChartPoint) -> SplittingType:
    """Splitting type of T_X restricted to a chart line."""
    return tangent_splitting_from_normal(normal_splitting_line(x, chart_line_jacobian(x, point)))


def differential_span_matrix(
    x: CompleteIntersection, polys: list[MultiPoly], point: LineChartPoint
) -> ExactMatrix:
    """Rows of first derivatives (d/da_1..d/db_{N-1}) of chart
    polynomials at a point."""
    avars, bvars = chart_variables(x.n)
    pt = point.values(x.n)
    return ExactMatrix.from_rows(x.coeff_ring, [g.gradient_at(avars + bvars, pt) for g in polys])


def same_differential_span(
    x: CompleteIntersection,
    ours: list[MultiPoly],
    reference: list[MultiPoly],
    point: LineChartPoint,
) -> bool:
    """Whether two sets of chart polynomials have equal differential span
    at the point, over the fraction field of the parameters."""
    a = differential_span_matrix(x, ours, point)
    b = differential_span_matrix(x, reference, point)
    both = ExactMatrix.from_rows(x.coeff_ring, a.to_lists() + b.to_lists())
    return rank_exact(a).rank == rank_exact(b).rank == rank_exact(both).rank


def scaled(x: CompleteIntersection, factors: Sequence[Scalar]) -> CompleteIntersection:
    """Replace each form h^i by lambda_i h^i (all lambda_i nonzero)."""
    field = x.field
    new_forms = []
    for f, lam in zip(x.forms, factors):
        lam = field.make(lam)
        if field.is_zero(lam):
            raise ConstraintViolated("scaling factor is zero")
        new_forms.append(f * x.coeff_ring.const(lam))
    return CompleteIntersection(x.ci_type, tuple(new_forms))


def specialized(x: CompleteIntersection, values: dict[str, Scalar]) -> CompleteIntersection:
    """x with every parameter set to its value: the same forms over the
    base field, with no parameters left."""
    ring = PolyRing(ParamRing(x.field, ()), x.ring.variables)
    forms = (
        ring.from_terms({e: ring.coeffs.const(c.evaluate(values)) for e, c in f.terms})
        for f in x.forms
    )
    return CompleteIntersection(x.ci_type, tuple(forms))


def permuted_z(x: CompleteIntersection, perm: dict[str, str]) -> CompleteIntersection:
    """Apply a permutation of Z1..Z{N-1} (S, T fixed) to every form."""
    full = {"S": "S", "T": "T", **perm}
    return CompleteIntersection(x.ci_type, tuple(f.permute_variables(full) for f in x.forms))


def permuted(point: LineChartPoint, z_perm: Sequence[int]) -> LineChartPoint:
    """Reorder columns by the permutation sending slot j to z_perm[j]."""
    a = tuple(point.a[z_perm[j]] for j in range(point.width))
    b = tuple(point.b[z_perm[j]] for j in range(point.width))
    return LineChartPoint(point.field, a, b)


def identity(ring: ParamRing, n: int) -> ExactMatrix:
    one, zero = ring.one(), ring.zero()
    entries = tuple(one if i == j else zero for i in range(n) for j in range(n))
    return ExactMatrix(ring, n, n, entries)


def ci_4_3_p9_literal_forms(field: Field) -> tuple[MultiPoly, MultiPoly]:
    """The two forms with the published middle term T*Z7 taken literally;
    the second is not homogeneous and is rejected by the variety
    constructor."""
    coeffs = ParamRing(field, ("c1", "c2", "c3"))
    ring = PolyRing(coeffs, ambient_variables(9))
    s, t = ring.var("S"), ring.var("T")
    h1 = _hyp_head(ring, None, 4) + t**2 * ring.var("Z4") * ring.var("Z5")
    h2 = s**2 * ring.var("Z6") + t * ring.var("Z7") + t**2 * ring.var("Z8")
    return h1, h2


def section_kernel_dim(phi: Sequence[Sequence[BinaryForm]], dom: int) -> int:
    """Reference for bundles._section_kernel_dims: the kernel dimension of
    the map H^0(O(dom-1))^{columns} -> (+)_i H^0(O(deg phi_i + dom - 1)),
    from its own matrix at this dom, columns form-major."""
    ring = ParamRing(phi[0][0].field)
    rows = []
    for forms in phi:
        deg = forms[0].degree
        for l in range(deg + dom):
            rows.append(
                [
                    ring.const(f.coeffs[l - k]) if 0 <= l - k <= deg else ring.zero()
                    for f in forms
                    for k in range(dom)
                ]
            )
    if dom == 0:
        return 0
    return len(kernel_basis(ExactMatrix.from_rows(ring, rows)))

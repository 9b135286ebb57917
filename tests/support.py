"""Helpers that only the tests call: views and transforms of the
program's objects that the program itself never needs (evaluation at a
point, a parameter as a polynomial, a form from loose scalars or from a
polynomial in s and t, the line of a chart point as a curve and the
local equations alone among them),
the per-dom section kernel that bundles._section_kernel_dims reads in
one pass, and the routes that the composition walk of
multipoly._compose_terms replaced: M(h) at a line read off the
membership system by jets, the Jacobian along a curve as each
partial derivative composed term by term, and a census line moved into
the standard chart by a permutation of the coordinates."""

from __future__ import annotations

from typing import Mapping, Sequence

from cilines.bundles import SplittingType, normal_splitting_line, tangent_splitting_from_normal
from cilines.chart import (
    FqLine,
    NonFreeMatrix,
    chart_variables,
    membership_system,
    nonfree_matrix,
    restricted_jacobian,
    smooth_along_components,
)
from cilines.errors import (
    ConstraintViolated,
    LineNotContained,
    NotHomogeneous,
    RingMismatch,
    UnknownVariable,
)
from cilines.exactmatrix import ExactMatrix, kernel_basis, rank_exact
from cilines.families import _hyp_head
from cilines.fields import Field, Scalar
from cilines.geometry import CompleteIntersection, LineChartPoint, RationalCurve, ambient_variables
from cilines.multipoly import BinaryForm, MultiPoly, PolyRing
from cilines.nonfree import LocalEquations, jacobian_def_matrix
from cilines.params import ParamRing, ParamScalar, _unpacked, jet_from


def line_param(point: LineChartPoint) -> RationalCurve:
    """The degree-1 curve (s, t, a_1 s + b_1 t, ...) through a chart point."""
    field = point.field
    comps = [BinaryForm(field, 1, (1, 0)), BinaryForm(field, 1, (0, 1))]
    comps += [BinaryForm(field, 1, ab) for ab in zip(point.a, point.b)]
    return RationalCurve(tuple(comps))


def local_equations(x: CompleteIntersection, point: LineChartPoint) -> LocalEquations:
    """The N - |d| bordered minors at a corank-1 chart line, the second
    half of jacobian_def_matrix (NotCorankOne, LineNotContained)."""
    return jacobian_def_matrix(x, nonfree_matrix(x, at=point))[1]


def on_x(x: CompleteIntersection, point: LineChartPoint) -> bool:
    """Whether the chart line lies on X: every membership polynomial
    evaluated at it vanishes, identically in the parameters."""
    vals = point.values(x.n)
    return all(evaluate(f, vals).is_zero for sys in membership_system(x) for f in sys)


def nonfree_matrix_by_jets(x: CompleteIntersection, at: LineChartPoint) -> NonFreeMatrix:
    """Reference for chart.nonfree_matrix, read off the membership system:
    one jet per f^i_k at the line gives its value, for the containment
    check, and its a_j-partials, the evaluated column of M(h)."""
    system = membership_system(x)
    avars, _ = chart_variables(x.n)
    vals = at.values(x.n)
    columns = []
    for sys in system:
        for k, f in enumerate(sys):
            value, partials = f.jet_at(avars if k < len(sys) - 1 else (), vals)
            if not value.is_zero:
                raise LineNotContained("the chart line is not on X")
            if partials:
                columns.append(partials)
    matrix = ExactMatrix.from_rows(x.coeff_ring, [list(row) for row in zip(*columns)])
    return NonFreeMatrix(at, matrix, rank_exact(matrix))


def naive_mul(field: Field, f: Sequence[Scalar], g: Sequence[Scalar]) -> list[Scalar]:
    """Reference for BinaryForm.__mul__: every product formed and added
    with the field's own operations, zeros included."""
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return out


def naive_power(field: Field, f: Sequence[Scalar], x: int) -> list[Scalar]:
    out = [field.one]
    for _ in range(x):
        out = naive_mul(field, out, f)
    return out


def naive_compose_terms(
    field: Field, terms, comps: Sequence[Sequence[Scalar]], degree: int
) -> list[Scalar]:
    """sum c * prod comps[i]^e_i over the terms (e, c), each power by
    repeated naive_mul."""
    out = [field.zero] * (degree + 1)
    for e, c in terms:
        piece = [c]
        for comp, x in zip(comps, e):
            piece = naive_mul(field, piece, naive_power(field, list(comp), x))
        out = [field.add(a, b) for a, b in zip(out, piece)]
    return out


def restricted_jacobian_by_partials(
    x: CompleteIntersection, components: Sequence[BinaryForm]
) -> list[list[BinaryForm]]:
    """Reference for chart.restricted_jacobian, the route it replaced:
    each form differentiated by each of the N + 1 coordinates
    (MultiPoly.differentiate), and each partial composed with the curve
    term by term (naive_compose_terms). It checks no containment."""
    field, b = x.field, components[0].degree
    comps = [c.coeffs for c in components]
    return [
        [
            BinaryForm(
                field,
                b * (d - 1),
                tuple(naive_compose_terms(field, form.differentiate(w).field_terms(), comps, b * (d - 1))),
            )
            for w in x.ring.variables
        ]
        for form, d in zip(x.forms, x.ci_type.degrees)
    ]


def is_smooth_along_line(x: CompleteIntersection, point: LineChartPoint) -> bool:
    return smooth_along_components(x, restricted_jacobian(x, line_param(point).components))


def chart_point(line: FqLine) -> LineChartPoint:
    """The chart coordinates of a line in the standard chart."""
    if line.pivots != (0, 1):
        raise ConstraintViolated("line meets (S = T = 0); move it into the chart first")
    return LineChartPoint(line.field, line.rows[0][2:], line.rows[1][2:])


def tangent_splitting_line(x: CompleteIntersection, point: LineChartPoint) -> SplittingType:
    """Splitting type of T_X restricted to a chart line."""
    return tangent_splitting_from_normal(normal_splitting_line(x, nonfree_matrix(x, at=point).matrix))


def differential_span_matrix(
    x: CompleteIntersection, polys: list[MultiPoly], point: LineChartPoint
) -> ExactMatrix:
    """Rows of first derivatives (d/da_1..d/db_{N-1}) of chart
    polynomials at a point."""
    avars, bvars = chart_variables(x.n)
    pt = point.values(x.n)
    return ExactMatrix.from_rows(x.coeff_ring, [gradient_at(g, avars + bvars, pt) for g in polys])


def evaluate(p: MultiPoly | ParamScalar, values: Mapping[str, Scalar]):
    """The value of p at field values of its variables, the value of the
    jet (params.jet_from): a MultiPoly gives a ParamScalar in the
    parameters, which survive untouched, and a ParamScalar a field
    element. Every variable that occurs needs a value."""
    if isinstance(p, MultiPoly):
        return jet_from(p.flat, p.ring.coeffs, (), values)[0]
    return jet_from(p, ParamRing(p.ring.field), (), values)[0].constant_value()


def param(ring: PolyRing, name: str) -> MultiPoly:
    """The parameter `name` of ring.coeffs as a polynomial of the ring."""
    return ring.const(ring.coeffs.var(name))


def binary_form_from_poly(p: MultiPoly) -> BinaryForm:
    """A homogeneous polynomial in s and t read as a binary form
    (NotHomogeneous, ParameterPresent)."""
    if set(p.ring.variables) != {"s", "t"}:
        raise UnknownVariable("expected a ring in (s, t)")
    d = p.homogeneous_degree()
    if d is None:
        raise NotHomogeneous(f"{p} is not homogeneous")
    field = p.ring.coeffs.field
    coeffs = [field.zero] * (d + 1)
    si = p.ring.variables.index("s")
    for e, c in p.field_terms():
        coeffs[d - e[si]] = c
    return BinaryForm(field, d, tuple(coeffs))


def form_from_scalars(field: Field, values: Sequence[ParamScalar | Scalar]) -> BinaryForm:
    """The binary form with these coefficients: an int or Fraction is
    brought into the field, and a ParamScalar must be a constant over it
    (RingMismatch, ParameterPresent)."""
    coeffs = []
    for v in values:
        if isinstance(v, ParamScalar):
            if v.ring.field != field:
                raise RingMismatch(f"a scalar over {v.ring.field} in a form over {field}")
            v = v.constant_value()
        coeffs.append(field.make(v))
    return BinaryForm(field, len(coeffs) - 1, tuple(coeffs))


def gradient_at(p: MultiPoly, names: Sequence[str], values: dict[str, Scalar]) -> list[ParamScalar]:
    """The partials of p by `names` at `values` (MultiPoly.jet_at)."""
    return p.jet_at(names, values)[1]


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
        ring.from_terms({e: ring.coeffs.const(evaluate(c, values)) for e, c in f.terms})
        for f in x.forms
    )
    return CompleteIntersection(x.ci_type, tuple(forms))


def permute_variables(p: MultiPoly, mapping: Mapping[str, str]) -> MultiPoly:
    """Rename the variables of p by a bijection of its ring's variable set."""
    variables = p.ring.variables
    if set(mapping) != set(variables) or set(mapping.values()) != set(variables):
        raise UnknownVariable("variable permutation must be a bijection of the ring")
    k = p.ring.coeffs.k
    source = {variables.index(mapping[v]): j for j, v in enumerate(variables)}
    order = [*range(k), *(k + source[i] for i in range(p.ring.n))]
    acc = {tuple(e[i] for i in order): c for e, c in _unpacked(p.flat)}
    return MultiPoly(p.ring, p.ring.flat.from_terms(acc))


def permuted_z(x: CompleteIntersection, perm: dict[str, str]) -> CompleteIntersection:
    """Apply a permutation of Z1..Z{N-1} (S, T fixed) to every form."""
    full = {"S": "S", "T": "T", **perm}
    return CompleteIntersection(x.ci_type, tuple(permute_variables(f, full) for f in x.forms))


def move_line_to_chart(
    x: CompleteIntersection, line: FqLine
) -> tuple[CompleteIntersection, LineChartPoint, tuple[int, ...]]:
    """Reference for M(h) at a census line read where it lies: permute the
    coordinates so the line lands in the standard chart.

    Returns the transformed complete intersection, the chart point of the
    moved line, and the position permutation used (new slot k reads old
    slot perm[k]). All chart verdicts are equivariant under coordinate
    permutations, so they may be computed on the transformed pair.
    """
    n = x.n
    j1, j2 = line.pivots
    perm = [j1, j2] + [l for l in range(n + 1) if l not in (j1, j2)]
    names = ambient_variables(n)
    mapping = {names[l]: names[k] for k, l in enumerate(perm)}
    x2 = CompleteIntersection(x.ci_type, tuple(permute_variables(f, mapping) for f in x.forms))
    row1, row2 = ([row[l] for l in perm] for row in line.rows)
    return x2, LineChartPoint(x.field, row1[2:], row2[2:]), tuple(perm)


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

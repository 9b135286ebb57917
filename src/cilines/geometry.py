"""Ambient geometry: complete intersections, lines, rational curves.

Conventions, used everywhere downstream:

* homogeneous coordinates on P^N are (S : T : Z1 : ... : Z{N-1});
* the standard line is L = (Z1 = ... = Z{N-1} = 0);
* the chart of lines disjoint from (S = T = 0) is the affine space of
  2 x (N-1) matrices [[a1..a{N-1}], [b1..b{N-1}]], the line being the
  image of (s:t) -> (s : t : s a1 + t b1 : ... : s a{N-1} + t b{N-1});
* a line is the reduced row echelon form of a full-rank 2 x (N+1)
  matrix (Line); it lies in the chart exactly when its pivots are S and
  T, and then its rows are (1, 0, a1, ...) and (0, 1, b1, ...);
* a rational curve of degree b is an (N+1)-tuple of degree-b binary
  forms in (s, t) with no common projective zero.
"""

from __future__ import annotations

from typing import Sequence

from .errors import AllZero, ConstraintViolated, NotHomogeneous, ParameterPresent, RingMismatch
from .fields import Field, Scalar, Value, slot_setters
from .multipoly import BinaryForm, MultiPoly, PolyRing, _compose_terms, _prefixed_terms, binary_gcd
from .params import ParamRing


def ambient_variables(n: int) -> tuple[str, ...]:
    return ("S", "T") + tuple(f"Z{j}" for j in range(1, n))


class CIType(Value):
    """Ambient dimension N and the degree vector (d^1, ..., d^r)."""

    __slots__ = ("ambient_dim", "degrees")

    ambient_dim: int
    degrees: tuple[int, ...]

    def __init__(self, ambient_dim: int, degrees: tuple[int, ...]) -> None:
        if len(degrees) < 1:
            raise ConstraintViolated("r >= 1 fails: no degrees given")
        if any(d < 1 for d in degrees):
            raise ConstraintViolated(f"degrees must be positive, got {degrees}")
        if ambient_dim < 1:
            raise ConstraintViolated(f"ambient dimension must be positive, got {ambient_dim}")
        _set_ambient_dim(self, ambient_dim)
        _set_degrees(self, degrees)

    @property
    def r(self) -> int:
        return len(self.degrees)

    @property
    def total_degree(self) -> int:
        """Sum of the degrees d^1 + ... + d^r."""
        return sum(self.degrees)

    @property
    def variety_dim(self) -> int:
        return self.ambient_dim - self.r

    def variables(self) -> tuple[str, ...]:
        return ambient_variables(self.ambient_dim)


class CompleteIntersection(Value):
    """r homogeneous forms of the declared degrees in S, T, Z1..Z{N-1}.

    The parameter ring of the forms' coefficients may carry symbolic
    parameters c_1..c_k; every containment and rank verdict downstream is
    then computed over the fraction field in those parameters.
    """

    __slots__ = ("ci_type", "forms")

    ci_type: CIType
    forms: tuple[MultiPoly, ...]

    def __init__(self, ci_type: CIType, forms: tuple[MultiPoly, ...]) -> None:
        t = ci_type
        if t.variety_dim < 2:
            raise ConstraintViolated(
                f"N >= r+2 fails: N={t.ambient_dim}, r={t.r}"
            )
        if len(forms) != t.r:
            raise ConstraintViolated(f"expected {t.r} forms, got {len(forms)}")
        expected_vars = t.variables()
        for i, (form, d) in enumerate(zip(forms, t.degrees), start=1):
            if form.ring.variables != expected_vars:
                raise RingMismatch(
                    f"form {i} lives in variables {form.ring.variables}, expected {expected_vars}"
                )
            if form.is_zero:
                raise ConstraintViolated(f"form {i} is zero")
            if not form.is_homogeneous(d):
                raise NotHomogeneous(f"form {i} is not homogeneous of degree {d}: {form}")
        rings = {f.ring for f in forms}
        if len(rings) != 1:
            raise RingMismatch("forms live in different rings")
        _set_ci_type(self, ci_type)
        _set_forms(self, forms)

    @property
    def ring(self) -> PolyRing:
        return self.forms[0].ring

    @property
    def coeff_ring(self) -> ParamRing:
        return self.ring.coeffs

    @property
    def field(self) -> Field:
        return self.coeff_ring.field

    @property
    def n(self) -> int:
        return self.ci_type.ambient_dim

    @property
    def is_parameter_free(self) -> bool:
        return all(f.is_parameter_free for f in self.forms)


class Line(Value):
    """A line in P^N as the reduced row echelon form of a full-rank
    2 x (N+1) matrix: `rows`, with their leading ones at the coordinates
    `pivots`. Along the line the coordinate W reads rows[0][W] s +
    rows[1][W] t, so at pivots (0, 1) it is the chart line through
    a = rows[0][2:] and b = rows[1][2:]."""

    __slots__ = ("field", "rows", "pivots")

    field: Field
    rows: tuple[tuple[Scalar, ...], tuple[Scalar, ...]]
    pivots: tuple[int, int]

    def __init__(
        self,
        field: Field,
        rows: tuple[tuple[Scalar, ...], tuple[Scalar, ...]],
        pivots: tuple[int, int],
    ) -> None:
        _set_field(self, field)
        _set_rows(self, rows)
        _set_pivots(self, pivots)

    @classmethod
    def chart(cls, field: Field, a: Sequence[Scalar], b: Sequence[Scalar]) -> "Line":
        """The chart line (s : t : s a_1 + t b_1 : ...), each entry brought
        into the field."""
        if len(a) != len(b):
            raise ConstraintViolated("a and b must have equal length")
        make = field.make
        return cls(field, ((1, 0, *map(make, a)), (0, 1, *map(make, b))), (0, 1))

    @classmethod
    def standard(cls, field: Field, n: int) -> "Line":
        """The origin of the chart: the line Z1 = ... = Z{N-1} = 0."""
        zeros = (field.zero,) * (n - 1)
        return cls.chart(field, zeros, zeros)

    def sort_key(self):
        return (self.pivots, self.rows)

    @property
    def images(self) -> tuple[tuple[Scalar, Scalar], ...]:
        """Each coordinate's (s, t) coefficients along the line: a column."""
        return tuple(zip(*self.rows))

    def components(self) -> tuple[BinaryForm, ...]:
        return tuple(BinaryForm(self.field, 1, ab) for ab in self.images)


class RationalCurve(Value):
    """A basepoint-free (N+1)-tuple of degree-b binary forms."""

    __slots__ = ("components",)

    components: tuple[BinaryForm, ...]

    def __init__(self, components: tuple[BinaryForm, ...]) -> None:
        if not components:
            raise ConstraintViolated("curve needs at least one component")
        degs = {c.degree for c in components}
        if len(degs) != 1:
            raise ConstraintViolated(f"components of mixed degrees {sorted(degs)}")
        if components[0].degree < 1:
            raise ConstraintViolated("curve degree must be >= 1")
        fields = {c.field for c in components}
        if len(fields) != 1:
            raise RingMismatch("components over different fields")
        try:
            g = binary_gcd(components)
        except AllZero:
            raise ConstraintViolated("all components are zero") from None
        if g.degree != 0:
            raise ConstraintViolated(f"components share the projective zero locus of {g}")
        _set_components(self, components)

    @property
    def degree(self) -> int:
        return self.components[0].degree

    @property
    def field(self) -> Field:
        return self.components[0].field


_set_ambient_dim, _set_degrees = slot_setters(CIType)
_set_ci_type, _set_forms = slot_setters(CompleteIntersection)
_set_field, _set_rows, _set_pivots = slot_setters(Line)
(_set_components,) = slot_setters(RationalCurve)


def restrict_along(
    form: MultiPoly, components: Sequence[BinaryForm], rows: Sequence[int] = ()
) -> BinaryForm | tuple[BinaryForm, list[BinaryForm]]:
    """h|_C: a homogeneous form composed with binary forms, one per ambient
    coordinate in ring order, by the walk of multipoly._compose_terms, of
    degree b deg(h) (0 for the zero form). With `rows`, coordinate
    indices, the pair (h|_C, [(dh/dW)|_C for each W of rows]) from that
    one walk. The form's coefficients must be constants
    (ParameterPresent) of the components' field."""
    d = form.homogeneous_degree()
    if d is None and not form.is_zero:
        raise NotHomogeneous(f"{form} is not homogeneous")
    d = d or 0
    if len(components) != form.ring.n:
        raise ConstraintViolated(f"{len(components)} components for {form.ring.n} coordinates")
    field, b = components[0].field, components[0].degree
    if form.ring.coeffs.field != field:
        raise RingMismatch("form and components live over different fields")
    if not form.is_parameter_free:
        raise ParameterPresent(f"{form} carries parameters")
    reduce, top, size = field.reduce, b * d + 1, b * (d - 1) + 1
    walk = _compose_terms(_prefixed_terms(form), [c.coeffs for c in components], rows, d, reduce)
    acc = tuple(map(reduce, walk[0]))
    h = BinaryForm(field, top - 1, acc[:top])
    if not rows:
        return h
    return h, [BinaryForm(field, size - 1, acc[k : k + size]) for k in range(top, len(acc), size)]

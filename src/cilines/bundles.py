"""Cohomology of pulled-back tangent and normal bundles on rational curves.

Sections of the restricted tangent bundle are computed through the
Euler-kernel presentation: along a degree-b curve mu on X, the Jacobian
rows h^i_W composed with mu define a map of sheaves

    psi : O(b)^{N+1}  ->  (+)_i O(b d^i),

whose kernel F sits in 0 -> O -> F -> mu^* T_X -> 0 via the Euler
section (the component tuple of mu itself). Taking global sections of a
twist m >= -1 gives

    h^0(mu^* T_X(m)) = dim ker H^0(psi(m)) - h^0(O(m)),

and h^1 follows from chi = b (N+1-|d|) + (N-r)(m+1). Twists below -1
would need the H^1(O(m)) correction and are rejected.

For a line, the analogous kernel presentation of the normal bundle
N_{L/X} inside O(1)^{N-1} is exact at every twist, so the full splitting
type is recovered from consecutive section counts:
#{a_i >= k} = h^0(E(-k)) - h^0(E(-k-1)).

Both presentations are built from the Jacobian of X restricted to the
curve. Along a chart line it is read off the evaluated M(h)
(chart.line_jacobian), whose rows are the restricted Z-partials and
which gives the S- and T-partials because h o xi vanishes identically;
callers that already hold M(h) pass that Jacobian in. Along a general
curve (curve-check) it is composed by chart.restricted_jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .chart import (
    line_jacobian,
    membership_system,  # not called here; perfbench's tracer test reads it
    nonfree_matrix,
    restricted_jacobian,
    smooth_along_components,
)
from .errors import (
    AllZero,
    BasePointedCover,
    ConstraintViolated,
    CurveNotOnX,
    InvariantViolated,
    ParameterPresent,
    RingMismatch,
    SingularAlongCurve,
    SingularAlongLine,
    TwistTooNegative,
)
from .exactmatrix import ExactMatrix, kernel_basis
from .geometry import CIType, CompleteIntersection, LineChartPoint, RationalCurve, restrict_along
from .multipoly import BinaryForm, binary_gcd
from .params import ParamRing


@dataclass(frozen=True)
class SplittingType:
    """Twists (a_1 >= a_2 >= ... >= a_n) of a direct sum of line bundles
    on the projective line."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(x < y for x, y in zip(self.entries, self.entries[1:])):
            raise ConstraintViolated(f"entries must be non-increasing: {self.entries}")

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def degree(self) -> int:
        return sum(self.entries)

    @property
    def min_entry(self) -> int:
        return min(self.entries)


def _coerce_components(
    ring: ParamRing, comps: Sequence[BinaryForm]
) -> tuple[BinaryForm, ...]:
    out = []
    for c in comps:
        if c.ring == ring:
            out.append(c)
        else:
            if c.ring.field != ring.field:
                raise RingMismatch("curve and variety live over different fields")
            out.append(
                BinaryForm(ring, c.degree, tuple(ring.const(v.constant_value()) for v in c.coeffs))
            )
    return tuple(out)


def _check_on_x(x: CompleteIntersection, comps: Sequence[BinaryForm]) -> None:
    for form in x.forms:
        if not restrict_along(form, comps).is_zero:
            raise CurveNotOnX(f"{form} does not vanish along the curve")


def _check_jacobian(
    x: CompleteIntersection, jac: Sequence[Sequence[BinaryForm]], b: int
) -> None:
    """A restricted Jacobian along a degree-b curve has r rows of N+1
    entries, those of row i of degree b(d^i - 1)."""
    degrees = x.ci_type.degrees
    if len(jac) != len(degrees) or any(
        len(row) != x.n + 1 or any(f.degree != b * (d - 1) for f in row)
        for row, d in zip(jac, degrees)
    ):
        raise ConstraintViolated(
            f"Jacobian does not have {len(degrees)} rows of {x.n + 1} forms "
            f"of degrees {[b * (d - 1) for d in degrees]}"
        )


def _section_kernel_dim(phi: Sequence[Sequence[BinaryForm]], dom: int) -> int:
    """Kernel dimension of the map H^0(O(dom-1))^{columns} -> (+)_i
    H^0(O(deg phi_i + dom - 1)) given by a grid of binary forms, one row
    phi_i of equal-degree forms per target summand."""
    ring = phi[0][0].ring
    rows = []
    for forms in phi:
        deg = forms[0].degree
        for l in range(deg + dom):
            rows.append(
                [
                    f.coeffs[l - k] if 0 <= l - k <= deg else ring.zero()
                    for f in forms
                    for k in range(dom)
                ]
            )
    return len(kernel_basis(ExactMatrix.from_rows(ring, rows)))


def tangent_cohomology(
    x: CompleteIntersection,
    mu: RationalCurve,
    m: int,
    jac: Sequence[Sequence[BinaryForm]] | None = None,
) -> tuple[int, int]:
    """(h^0, h^1) of mu^* T_X twisted by m, for m >= -1.

    jac, when given, is the Jacobian of X restricted along mu, from a
    caller that has already settled that mu lies on X (line_jacobian of
    an evaluated M(h)); otherwise containment is checked and the
    Jacobian composed here."""
    if m <= -2:
        raise TwistTooNegative(f"twist {m} is below -1")
    if not x.is_parameter_free:
        raise ParameterPresent("tangent cohomology needs parameter-free forms")
    comps = _coerce_components(x.coeff_ring, mu.components)
    if len(comps) != x.n + 1:
        raise ConstraintViolated(f"curve has {len(comps)} components, expected {x.n + 1}")
    if jac is None:
        _check_on_x(x, comps)
        jac = restricted_jacobian(x, comps)
    else:
        _check_jacobian(x, jac, mu.degree)
    if not smooth_along_components(x, jac):
        raise SingularAlongCurve("X is singular somewhere along the curve")

    b = mu.degree
    n, r = x.n, x.ci_type.r
    degrees = x.ci_type.degrees
    # the component tuple is always in the kernel of psi(0)
    for i in range(r):
        acc = BinaryForm.zero(x.coeff_ring, b * degrees[i])
        for j in range(n + 1):
            acc = acc + jac[i][j] * comps[j]
        if not acc.is_zero:
            raise InvariantViolated("Euler section escaped the kernel")

    kernel_dim = _section_kernel_dim(jac, b + m + 1)  # h^0(O(b+m)) per component
    h0_line = m + 1 if m >= 0 else 0
    h0 = kernel_dim - h0_line
    chi = b * (n + 1 - x.ci_type.total_degree) + (n - r) * (m + 1)
    h1 = h0 - chi
    if h1 < 0:
        raise InvariantViolated("negative h^1; kernel presentation violated")
    return h0, h1


# -- splitting types of lines -------------------------------------------------


def normal_splitting_line(
    x: CompleteIntersection,
    point: LineChartPoint,
    jac: Sequence[Sequence[BinaryForm]] | None = None,
) -> SplittingType:
    """Splitting type of the normal bundle of a chart line inside X.

    Requires the line on X and X smooth along it; the result has rank
    N - r - 1, every entry at most 1, and total degree N - 1 - |d|.
    jac is the line's restricted Jacobian, line_jacobian of M(h) at the
    point; without it M(h) is built here, which checks containment.
    """
    if not x.is_parameter_free:
        raise ParameterPresent("splitting types need parameter-free forms")
    if jac is None:
        jac = line_jacobian(x, point, nonfree_matrix(x, at=point).matrix)
    else:
        _check_jacobian(x, jac, 1)
    if not smooth_along_components(x, jac):
        raise SingularAlongLine("X is singular somewhere along the line")

    n, r = x.n, x.ci_type.r
    rank = n - r - 1
    total = n - 1 - x.ci_type.total_degree
    partials = [row[2:] for row in jac]  # (dh^i/dZ_j)|_L

    floor = total - (rank - 1)  # all other entries are at most 1
    h_at = {2: 0}  # h^0(E(-k)); entries never exceed 1
    counts: dict[int, int] = {2: 0}
    k = 1
    while True:
        # the presenting map is O(1-k)^{N-1} -> (+)_i O(d^i - k)
        h_at[k] = _section_kernel_dim(partials, 2 - k)
        counts[k] = h_at[k] - h_at[k + 1]
        if counts[k] == rank:
            break
        k -= 1
        if k < floor - 1:
            raise InvariantViolated("splitting recovery descended past the degree floor")

    entries: list[int] = []
    for v in range(1, k - 1, -1):
        entries.extend([v] * (counts[v] - counts[v + 1]))
    st = SplittingType(tuple(entries))
    if st.rank != rank or st.degree != total or max(st.entries) > 1:
        raise InvariantViolated(f"splitting bookkeeping failed: {st.entries}")
    return st


def tangent_splitting_from_normal(normal: SplittingType) -> SplittingType:
    """Splitting type of T_X along a line from that of its normal bundle:
    the tangent direction of the line splits off as a degree-2 summand
    and the complement is the normal bundle."""
    return SplittingType(tuple(sorted((2,) + normal.entries, reverse=True)))


def tangent_splitting_line(
    x: CompleteIntersection, point: LineChartPoint
) -> SplittingType:
    """Splitting type of T_X restricted to a chart line."""
    return tangent_splitting_from_normal(normal_splitting_line(x, point))


# -- covers and the degree gate ---------------------------------------------------


def precompose(
    mu: RationalCurve, cover: tuple[BinaryForm, BinaryForm]
) -> RationalCurve:
    """Precompose a curve with a basepoint-free self-map of the line of
    degree k, multiplying the curve degree by k."""
    u, w = cover
    if u.degree != w.degree or u.degree < 1:
        raise BasePointedCover("cover components must share one positive degree")
    try:
        g = binary_gcd([u, w])
    except (AllZero, ParameterPresent) as exc:  # both disqualify the cover
        raise BasePointedCover(f"degenerate cover: {exc}") from None
    if g.degree != 0:
        raise BasePointedCover(f"cover has the base locus of {g}")
    comps = tuple(c.compose(u, w) for c in mu.components)
    return RationalCurve(comps)


GateVerdict = Literal["AllImmersionsNonFree", "NotTriggered"]


@dataclass(frozen=True)
class DegreeGateReport:
    """Outcome of the degree-sum criterion for curves of degree b on a
    complete intersection of the given type."""

    ci_type: CIType
    curve_degree: int
    degree_sum: int  # sum of the splitting entries of mu^* T_X
    verdict: GateVerdict


def degree_nonfree_gate(ci_type: CIType, b: int) -> DegreeGateReport:
    """When |d| > N the pulled-back tangent bundle has nonpositive degree
    while containing a degree >= 2 summand, so every immersed rational
    curve is non-free. The immersion hypothesis itself is not checked;
    the verdict is conditional on it."""
    if b < 1:
        raise ConstraintViolated(f"curve degree must be >= 1, got {b}")
    total = ci_type.total_degree
    s = b * (ci_type.ambient_dim + 1 - total)
    verdict: GateVerdict = (
        "AllImmersionsNonFree" if total > ci_type.ambient_dim else "NotTriggered"
    )
    return DegreeGateReport(ci_type, b, s, verdict)

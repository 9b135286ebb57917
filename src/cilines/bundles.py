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
#{a_i >= k} = h^0(E(-k)) - h^0(E(-k-1)). Its presenting map is the
Z-partials of X along L, which are the columns of M(h) evaluated at the
line, so the normal splitting takes that matrix from its caller
(classify-line has it already) and X is smooth along L exactly when its
section count says so. Since T_X|_L = O(2) (+) N_{L/X}, a line's tangent
cohomology follows from its splitting type.

Tangent cohomology along a general curve (curve-check) takes the
Jacobian along the curve, and its containment check, from one walk per
form (chart.restricted_jacobian), decides smoothness by its minors, and
is eliminated once, at its largest twist.
"""

from __future__ import annotations

from typing import Literal, Sequence

from .chart import (
    membership_system,  # not called here; perfbench's tracer test reads it
    restricted_jacobian,
    smooth_along_components,
)
from .errors import (
    AllZero,
    BasePointedCover,
    BudgetExceeded,
    ConstraintViolated,
    InvariantViolated,
    ParameterPresent,
    SingularAlongCurve,
    SingularAlongLine,
    TwistTooNegative,
)
from .exactmatrix import ExactMatrix, kernel_basis
from .fields import Value, slot_setters
from .geometry import CIType, CompleteIntersection, RationalCurve
from .multipoly import BinaryForm, binary_gcd
from .params import ParamRing, require_constant


class SplittingType(Value):
    """Twists (a_1 >= a_2 >= ... >= a_n) of a direct sum of line bundles
    on the projective line."""

    __slots__ = ("entries",)

    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]) -> None:
        if any(x < y for x, y in zip(entries, entries[1:])):
            raise ConstraintViolated(f"entries must be non-increasing: {entries}")
        _set_entries(self, entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def degree(self) -> int:
        return sum(self.entries)

    @property
    def min_entry(self) -> int:
        return min(self.entries)


(_set_entries,) = slot_setters(SplittingType)


#: most entries that one section-kernel elimination holds: its grid of
#: sum_i (deg phi_i + top) rows by top * c columns, c forms per row, and the
#: kernel basis, at least columns - rows vectors of `columns` entries, so
#: columns * max(rows, columns). On a 2-core Xeon (Python 3.11),
#: curve-check --twist 0 --cover 400 on four quadrics in P^12 holds 27.2
#: million (10.5 s, 480 MB max RSS); classify-line on Z1*S^399 + Z2*T^399
#: over F_7 holds 36 million at N = 16 (4.4 s, 371 MB) and 635 million at
#: N = 64, where it did not finish in 50 s
MAX_SECTION_ENTRIES = 30_000_000


def _section_kernel_dims(phi: Sequence[Sequence[BinaryForm]], top: int) -> list[int]:
    """dims[dom] for 0 <= dom <= top: the kernel dimension of the map
    H^0(O(dom-1))^{columns} -> (+)_i H^0(O(deg phi_i + dom - 1)) given by a
    grid of binary forms, one row phi_i of equal-degree forms per target
    summand.

    Coefficients are indexed by their power of t, so the column of form c
    times the k-th basis monomial is the same vector at every dom > k. One
    matrix is built, at dom = top, with its columns power-major (k, then
    c): the matrix at a smaller dom is its first dom * columns columns,
    which vanish outside that matrix's rows. Gauss-Jordan by columns
    pivots within each prefix of columns as it would on the prefix alone,
    so the kernel at dom has one basis vector per free column below
    dom * columns; a basis vector's free column is its last nonzero entry.
    A presentation past MAX_SECTION_ENTRIES is refused (BudgetExceeded)
    before its grid is built.
    """
    width = len(phi[0])
    height, columns = sum(forms[0].degree + top for forms in phi), top * width
    entries = columns * max(height, columns)
    if entries > MAX_SECTION_ENTRIES:
        raise BudgetExceeded(
            f"a {height} x {columns} section kernel holds {entries} entries with its basis; "
            f"one elimination takes at most MAX_SECTION_ENTRIES = {MAX_SECTION_ENTRIES}"
        )
    ring = ParamRing(phi[0][0].field)
    zero = ring.zero()
    rows = []
    for forms in phi:
        deg = forms[0].degree
        wrapped = [[ring.const(v) if v else zero for v in f.coeffs] for f in forms]
        for l in range(deg + top):
            rows.append(
                [w[l - k] if 0 <= l - k <= deg else zero for k in range(top) for w in wrapped]
            )
    free = [
        max(j for j, v in enumerate(vec) if v)
        for vec in kernel_basis(ExactMatrix.from_rows(ring, rows))
    ]
    return [sum(j < dom * width for j in free) for dom in range(top + 1)]


def tangent_cohomology(
    x: CompleteIntersection, mu: RationalCurve, m: int
) -> tuple[tuple[int, int], ...]:
    """(h^0, h^1) of mu^* T_X twisted by k, for each k = -1, ..., m, for a
    curve mu on X along which X is smooth (CurveNotOnX, SingularAlongCurve)."""
    if m <= -2:
        raise TwistTooNegative(f"twist {m} is below -1")
    if not x.is_parameter_free:
        raise ParameterPresent("tangent cohomology needs parameter-free forms")
    comps = mu.components
    jac = restricted_jacobian(x, comps)  # CurveNotOnX, and restrict_along's checks of mu
    if not smooth_along_components(x, jac):
        raise SingularAlongCurve("X is singular somewhere along the curve")

    b, n, r = mu.degree, x.n, x.ci_type.r
    # the component tuple is always in the kernel of psi(0)
    for row, d in zip(jac, x.ci_type.degrees):
        euler = sum((f * c for f, c in zip(row, comps)), BinaryForm.zero(x.field, b * d))
        if not euler.is_zero:
            raise InvariantViolated("Euler section escaped the kernel")

    dims = _section_kernel_dims(jac, b + m + 1)
    pairs = []
    for k in range(-1, m + 1):
        h0 = dims[b + k + 1] - (k + 1)  # h^0(O(b+k)) per component, less h^0(O(k))
        chi = b * (n + 1 - x.ci_type.total_degree) + (n - r) * (k + 1)
        h1 = h0 - chi
        if h1 < 0:
            raise InvariantViolated("negative h^1; kernel presentation violated")
        pairs.append((h0, h1))
    return tuple(pairs)


# -- splitting types of lines -------------------------------------------------


def normal_splitting_line(x: CompleteIntersection, m_h: ExactMatrix) -> SplittingType:
    """Splitting type of the normal bundle of a line L on X, from m_h,
    M(h) evaluated at L (constant entries, else ParameterPresent), as
    chart.nonfree_matrix gives it at any line. The result has rank
    N - r - 1, every entry at most 1, and total degree N - 1 - |d|.

    Row j, block i of m_h is (dh^i/dZ_j)|_L, Z_j the j-th coordinate off
    L's pivots (for a chart line, Z_j itself). X is smooth along L exactly
    when these Z-partials map O(1)^{N-1} onto (+)_i O(d^i) with kernel
    E = N_{L/X}. If so, every entry of E is at least floor,
    H^1(E(-floor)) = 0 and the map is onto on sections at twist -floor.
    If not, its cokernel is a nonzero quotient of the globally generated
    (+)_i O(d^i - floor), and it is not. So X is singular along L exactly
    when h[top] > (N-1) top - sum_i (d^i - 1 + top), by rank-nullity.
    """
    if not x.is_parameter_free:
        raise ParameterPresent("splitting types need parameter-free forms")
    if (m_h.rows, m_h.cols) != (x.n - 1, x.ci_type.total_degree):
        raise ConstraintViolated(
            f"M(h) is {m_h.rows} x {m_h.cols}; expected {x.n - 1} x {x.ci_type.total_degree}"
        )
    values = [require_constant(m_h.row(j)) for j in range(m_h.rows)]
    partials = []  # row i: (dh^i/dZ_j)|_L for each j
    start = 0
    for d in x.ci_type.degrees:
        partials.append([BinaryForm(x.field, d - 1, tuple(v[start : start + d])) for v in values])
        start += d

    n, r = x.n, x.ci_type.r
    rank = n - r - 1
    total = n - 1 - x.ci_type.total_degree

    # every entry lies in [floor, 1], so the twists k = 1 down to floor tell
    # them all; h^0(E(-k)) is the kernel of the presenting map
    # O(1-k)^{N-1} -> (+)_i O(d^i - k), at dom = 2 - k
    floor = total - (rank - 1)
    top = 2 - floor
    h = _section_kernel_dims(partials, top)
    if h[top] > (n - 1) * top - sum(d - 1 + top for d in x.ci_type.degrees):
        raise SingularAlongLine("X is singular somewhere along the line")
    entries: list[int] = []
    above = 0  # #{a_i > k}
    for k in range(1, floor - 1, -1):
        at_least = h[2 - k] - h[1 - k]  # #{a_i >= k}
        entries.extend([k] * (at_least - above))
        above = at_least
    st = SplittingType(tuple(entries))
    if st.rank != rank or st.degree != total or max(st.entries) > 1:
        raise InvariantViolated(f"splitting bookkeeping failed: {st.entries}")
    return st


def tangent_splitting_from_normal(normal: SplittingType) -> SplittingType:
    """Splitting type of T_X along a line from that of its normal bundle:
    the tangent direction of the line splits off as a degree-2 summand
    and the complement is the normal bundle."""
    return SplittingType(tuple(sorted((2,) + normal.entries, reverse=True)))


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
    except AllZero as exc:
        raise BasePointedCover(f"degenerate cover: {exc}") from None
    if g.degree != 0:
        raise BasePointedCover(f"cover has the base locus of {g}")
    comps = tuple(c.compose(u, w) for c in mu.components)
    return RationalCurve(comps)


GateVerdict = Literal["AllImmersionsNonFree", "NotTriggered"]


class DegreeGateReport(Value):
    """Outcome of the degree-sum criterion for curves of degree b on a
    complete intersection of the given type."""

    __slots__ = ("degree_sum", "verdict")

    degree_sum: int  # sum of the splitting entries of mu^* T_X
    verdict: GateVerdict

    def __init__(self, degree_sum: int, verdict: GateVerdict) -> None:
        _set_degree_sum(self, degree_sum)
        _set_verdict(self, verdict)


_set_degree_sum, _set_verdict = slot_setters(DegreeGateReport)


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
    return DegreeGateReport(s, verdict)

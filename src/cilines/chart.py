"""The standard chart of the Grassmannian of lines, and everything
computed on it.

For a complete intersection X = (h^1 = ... = h^r = 0) and the chart line
through [[a], [b]], the composite h^i(s, t, s a_1 + t b_1, ...) expands as

    f^i_0 s^{d^i} + f^i_1 s^{d^i - 1} t + ... + f^i_{d^i} t^{d^i}

with the f^i_k polynomial in the chart coordinates. The line lies on X
exactly when every f^i_k vanishes at the point; the membership system is
that list of |d| + r polynomials.

The non-freeness matrix M(h) is the (N-1) x |d| matrix whose row j,
block i is the coefficient vector of the restricted partial derivative
(dh^i/dZ_j) composed with the line, against the basis
s^{d^i-1}, ..., t^{d^i-1}. For a line on X along which X is smooth, the
line is free exactly when M(h) evaluated at the chart point has full
column rank |d|.

Along a chart line on X, M(h) evaluated at the point also carries the
whole restricted Jacobian (dh^i/dW)|_L: its Z_j entries are the rows of
M(h), and since h^i o xi vanishes identically, its s- and t-derivatives
give h^i_S|_L = -sum_j a_j h^i_{Z_j}|_L and h^i_T|_L = -sum_j b_j
h^i_{Z_j}|_L. line_jacobian reads it off that way; restricted_jacobian
composes every partial with an arbitrary curve and serves general
rational curves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .errors import (
    BudgetExceeded,
    ConstraintViolated,
    InfiniteField,
    LineNotContained,
    NotHomogeneous,
    ParameterPresent,
)
from .exactmatrix import ExactMatrix, RankResult, rank_exact
from .fields import Field, Scalar
from .geometry import (
    CIType,
    CompleteIntersection,
    LineChartPoint,
    RationalCurve,
    ambient_variables,
    restrict_along,
)
from .multipoly import BinaryForm, MultiPoly, PolyRing, binary_gcd
from .params import ParamRing, ParamScalar, require_constant


def chart_variables(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    avars = tuple(f"a{j}" for j in range(1, n))
    bvars = tuple(f"b{j}" for j in range(1, n))
    return avars, bvars


def chart_ring(coeffs: ParamRing, n: int) -> PolyRing:
    """Ring in the chart coordinates a_1..a_{N-1}, b_1..b_{N-1}."""
    avars, bvars = chart_variables(n)
    return PolyRing(coeffs, avars + bvars)


def _full_ring(coeffs: ParamRing, n: int) -> PolyRing:
    avars, bvars = chart_variables(n)
    return PolyRing(coeffs, ("s", "t") + avars + bvars)


@lru_cache(maxsize=256)
def _chart_monomials(coeffs: ParamRing, n: int) -> tuple[ParamScalar, ...]:
    """s, t, s a_1, t b_1, ..., s a_{N-1}, t b_{N-1} as scalars of the flat
    ring of (s, t, a, b), formed once per parameter ring and N."""
    full = _full_ring(coeffs, n)
    s, t = full.flat.var("s"), full.flat.var("t")
    out = [s, t]
    for a, b in zip(*chart_variables(n)):
        out += [s * full.flat.var(a), t * full.flat.var(b)]
    return tuple(out)


def chart_image(form: MultiPoly, n: int) -> MultiPoly:
    """Substitute S -> s, T -> t, Z_j -> s a_j + t b_j."""
    full = _full_ring(form.ring.coeffs, n)
    s, t, *rest = _chart_monomials(form.ring.coeffs, n)
    assign = {"S": MultiPoly(full, s), "T": MultiPoly(full, t)}
    # each sum is taken here, not cached with its monomials: on the lines
    # workload these are the only ParamScalar additions, which the
    # benchmark's tracer counts as params.add
    for j in range(1, n):
        assign[f"Z{j}"] = MultiPoly(full, rest[2 * j - 2] + rest[2 * j - 1])
    return form.substitute(assign)


def line_param(point: LineChartPoint) -> RationalCurve:
    """The degree-1 curve (s, t, a_1 s + b_1 t, ...) through a chart point."""
    field = point.field
    comps = [BinaryForm(field, 1, (1, 0)), BinaryForm(field, 1, (0, 1))]
    comps += [BinaryForm(field, 1, ab) for ab in zip(point.a, point.b)]
    return RationalCurve(tuple(comps))


@dataclass(frozen=True)
class MembershipSystem:
    """The s,t-coefficients of every h^i composed with the chart line."""

    ci_type: CIType
    systems: tuple[tuple[MultiPoly, ...], ...]  # systems[i] = (f^i_0, ..., f^i_{d^i})

    @property
    def count(self) -> int:
        return sum(len(s) for s in self.systems)


def membership_system(x: CompleteIntersection) -> MembershipSystem:
    n = x.n
    systems = []
    for form, d in zip(x.forms, x.ci_type.degrees):
        image = chart_image(form, n)
        pieces = image.split(("s", "t"))
        ab = chart_ring(x.coeff_ring, n)
        coeffs = [ab.zero()] * (d + 1)
        for (es, et), poly in pieces.items():
            if es + et != d:
                raise NotHomogeneous(f"composite of {form} is not homogeneous")
            coeffs[et] = poly
        systems.append(tuple(coeffs))
    return MembershipSystem(x.ci_type, tuple(systems))


@dataclass(frozen=True)
class NonFreeMatrix:
    """M(h) at a chart line on X.

    system is the membership system of X that M(h) is read off. matrix is
    M(h) evaluated at the line `at`, over the coefficient parameter ring,
    and rank is rank_exact of matrix, whose pivot rows are the lex-first
    row basis. entries_ab, the (N-1) x |d| grid of chart polynomials, is
    built from the system when it is first read: only the local equations
    of a corank-1 line read it.
    """

    system: MembershipSystem
    at: LineChartPoint
    matrix: ExactMatrix
    rank: RankResult

    @property
    def ci_type(self) -> CIType:
        return self.system.ci_type

    @cached_property
    def entries_ab(self) -> tuple[tuple[MultiPoly, ...], ...]:
        return _nonfree_entries(self.system)

    @property
    def col_blocks(self) -> tuple[tuple[int, int], ...]:
        """Half-open column ranges, one per defining form."""
        out = []
        start = 0
        for d in self.ci_type.degrees:
            out.append((start, start + d))
            start += d
        return tuple(out)

    def value_rows(self) -> list[list[ParamScalar]]:
        return self.matrix.to_lists()


def _nonfree_entries(ms: MembershipSystem) -> tuple[tuple[MultiPoly, ...], ...]:
    """M(h) read off the membership system: by the chain rule
    d(h^i o xi)/da_j = s (h^i_{Z_j} o xi), so row j, block i is the
    a_j-derivative of (f^i_0, ..., f^i_{d^i - 1})."""
    avars, _ = chart_variables(ms.ci_type.ambient_dim)
    return tuple(
        tuple(f.differentiate(a) for sys in ms.systems for f in sys[:-1]) for a in avars
    )


def nonfree_matrix(x: CompleteIntersection, at: LineChartPoint) -> NonFreeMatrix:
    """Build M(h) at a chart line, which must lie on X, with the rank of
    the evaluated matrix. One jet per f^i_k at the line gives its value,
    for the containment check, and its a_j-partials, the evaluated column
    of M(h)."""
    ms = membership_system(x)
    avars, _ = chart_variables(x.n)
    vals = at.values(x.n)
    columns = []
    for sys in ms.systems:
        for k, f in enumerate(sys):
            value, partials = f.jet_at(avars if k < len(sys) - 1 else (), vals)
            if not value.is_zero:
                raise LineNotContained("the chart line is not on X")
            if partials:
                columns.append(partials)
    matrix = ExactMatrix.from_rows(x.coeff_ring, [list(row) for row in zip(*columns)])
    return NonFreeMatrix(ms, at, matrix, rank_exact(matrix))


# -- smoothness along a curve -------------------------------------------------


def _maximal_minors(jac: Sequence[Sequence[BinaryForm]]) -> dict[tuple[int, ...], BinaryForm]:
    """The r x r minors of an r-row grid, keyed by their column tuple. Level
    k + 1 expands each minor along row k over the minors of level k,
    sum_p (-1)^(k+p) jac[k][c_p] * M_k(cols without c_p): each is formed once."""
    minors = {(c,): e for c, e in enumerate(jac[0])}
    for k in range(1, len(jac)):
        level = {}
        for cols in itertools.combinations(range(len(jac[k])), k + 1):
            for p, c in enumerate(cols):
                term = jac[k][c] * minors[cols[:p] + cols[p + 1 :]]
                term = -term if (k + p) % 2 else term
                level[cols] = level[cols] + term if p else term
        minors = level
    return minors


def restricted_jacobian(
    x: CompleteIntersection, components: Sequence[BinaryForm]
) -> list[list[BinaryForm]]:
    """Full Jacobian (dh^i/dW for all N+1 coordinates W) restricted along
    the given curve components; row i has entries of degree b(d^i - 1)."""
    rows = []
    for form, d in zip(x.forms, x.ci_type.degrees):
        row = [
            restrict_along(form.differentiate(w), components, form_degree=d - 1)
            for w in x.ring.variables
        ]
        rows.append(row)
    return rows


def line_jacobian(
    x: CompleteIntersection, point: LineChartPoint, m_h: ExactMatrix
) -> list[list[BinaryForm]]:
    """The Jacobian restricted along a chart line on X, as restricted_jacobian
    returns it (row i: N+1 entries of degree d^i - 1 in the order S, T,
    Z_1, ...), read off M(h) evaluated at the line: the Z_j entry of row i
    is row j of column block i, and the S and T entries are
    -sum_j a_j h^i_{Z_j}|_L and -sum_j b_j h^i_{Z_j}|_L. The entries of
    M(h) must be constants (ParameterPresent)."""
    n, field = x.n, x.field
    if point.width != n - 1 or (m_h.rows, m_h.cols) != (n - 1, x.ci_type.total_degree):
        raise ConstraintViolated(
            f"M(h) is {m_h.rows} x {m_h.cols} at a chart point of width {point.width}; "
            f"expected {n - 1} x {x.ci_type.total_degree} at width {n - 1}"
        )
    values = [require_constant(m_h.row(j)) for j in range(n - 1)]  # M(h) over the field
    rows = []
    start = 0
    for d in x.ci_type.degrees:
        z = [row[start : start + d] for row in values]
        start += d
        s_col, t_col = (
            BinaryForm(
                field,
                d - 1,
                tuple(field.make(-sum(wj * zj[k] for wj, zj in zip(w, z))) for k in range(d)),
            )
            for w in (point.a, point.b)
        )
        rows.append([s_col, t_col] + [BinaryForm(field, d - 1, tuple(zj)) for zj in z])
    return rows


#: most terms, C(N+1, r) * r!, in the maximal minors of a smoothness check
#: along a curve (r! signed products per minor). On one Xeon core (Python
#: 3.11) the 17,160 of four quadrics in P^12 take 0.04 s along a line, 0.5 s
#: at curve degree 100 and 2.0 s at 400
MAX_MINOR_TERMS = 20_000


def smooth_along_components(
    x: CompleteIntersection, jac: Sequence[Sequence[BinaryForm]]
) -> bool:
    """True when the r x r minors of the restricted Jacobian, as returned
    by restricted_jacobian, have no common projective zero on the curve."""
    if not x.is_parameter_free:
        raise ParameterPresent("smoothness checks need parameter-free forms")
    r = x.ci_type.r
    terms = math.comb(x.n + 1, r) * math.factorial(r)
    if terms > MAX_MINOR_TERMS:  # refused before any minor is formed
        raise BudgetExceeded(
            f"the {r} x {r} minors of the Jacobian along the curve have "
            f"C(N+1, r) * r! = {terms} terms; a smoothness check takes at most "
            f"MAX_MINOR_TERMS = {MAX_MINOR_TERMS}"
        )
    minors = [m for m in _maximal_minors(jac).values() if not m.is_zero]
    if not minors:
        return False
    return binary_gcd(minors).degree == 0


# -- exhaustive line enumeration over finite fields ------------------------------


@dataclass(frozen=True)
class FqLine:
    """A line in P^N over F_q as its canonical reduced row echelon
    representative, a full-rank 2 x (N+1) matrix."""

    field: Field
    rows: tuple[tuple[Scalar, ...], tuple[Scalar, ...]]
    pivots: tuple[int, int]

    def sort_key(self):
        return (self.pivots, self.rows)

    def components(self) -> tuple[BinaryForm, ...]:
        return tuple(BinaryForm(self.field, 1, ab) for ab in zip(*self.rows))


def all_lines_fq(field: Field, n: int) -> Iterator[FqLine]:
    """Every line of P^n over F_q, one canonical representative each,
    in lexicographic order of (pivot pair, matrix entries)."""
    if not field.is_finite:
        raise InfiniteField("line enumeration needs a finite base field")
    q = field.p
    elems = list(range(q))
    for j1, j2 in itertools.combinations(range(n + 1), 2):
        free1 = [c for c in range(j1 + 1, n + 1) if c != j2]
        free2 = [c for c in range(j2 + 1, n + 1)]
        for vals in itertools.product(elems, repeat=len(free1) + len(free2)):
            row1 = [field.zero] * (n + 1)
            row2 = [field.zero] * (n + 1)
            row1[j1] = field.one
            row2[j2] = field.one
            for c, v in zip(free1, vals[: len(free1)]):
                row1[c] = v
            for c, v in zip(free2, vals[len(free1) :]):
                row2[c] = v
            yield FqLine(field, (tuple(row1), tuple(row2)), (j1, j2))


#: largest P^N(F_q), counted in points, that a line census tabulates
MAX_CENSUS_POINTS = 20_000
#: most pairs of points of X that a line census tests as lines
MAX_CENSUS_CANDIDATES = 1_000_000


def _points_fq(q: int, n: int) -> Iterator[tuple[int, ...]]:
    """Every point of P^n(F_q), first nonzero coordinate equal to 1."""
    for lead in range(n + 1):
        for tail in itertools.product(range(q), repeat=n - lead):
            yield (0,) * lead + (1,) + tail


def _vanishes_at(terms: list, pt: tuple[int, ...], q: int) -> bool:
    """terms: (nonzero (coordinate, exponent) pairs, coefficient) per monomial."""
    acc = 0
    for factors, c in terms:
        for i, k in factors:
            c *= pt[i] ** k
        acc += c
    return acc % q == 0


def enumerate_lines_fq(x: CompleteIntersection) -> list[FqLine]:
    """All F_q-rational lines of P^N lying on X, canonically sorted.

    The forms are evaluated once at every point of P^N(F_q); a line lies
    on X only if all q+1 of its points are in that table. Both rows of a
    line's reduced row echelon representative are points of the line, so
    the candidates are the pairs (r1, r2) of points of X in echelon
    position: r1 leads before r2 and is 0 in r2's lead column. When
    q >= max d^i the lookups decide containment, since a form of degree d
    vanishing at d+1 points of a line vanishes on it; below that every
    surviving line is confirmed by restricting each form to it.
    """
    if not x.field.is_finite:
        raise InfiniteField("line enumeration needs a finite base field")
    if not x.is_parameter_free:
        raise ParameterPresent("line enumeration needs parameter-free forms")
    q, n = x.field.p, x.n
    points = (q ** (n + 1) - 1) // (q - 1)
    if points > MAX_CENSUS_POINTS:
        raise BudgetExceeded(
            f"P^{n}(F_{q}) has {points} points; a line census tabulates "
            f"at most {MAX_CENSUS_POINTS}"
        )
    forms = [
        [([(i, k) for i, k in enumerate(e) if k], c) for e, c in f.field_terms()]
        for f in x.forms
    ]
    on_x = {pt for pt in _points_fq(q, n) if all(_vanishes_at(t, pt, q) for t in forms)}
    by_lead: dict[int, list[tuple[int, ...]]] = {}
    for pt in on_x:
        by_lead.setdefault(pt.index(1), []).append(pt)
    firsts = {
        j2: [r1 for j1, pts in by_lead.items() if j1 < j2 for r1 in pts if r1[j2] == 0]
        for j2 in by_lead
    }
    candidates = sum(len(by_lead[j2]) * len(firsts[j2]) for j2 in by_lead)
    if candidates > MAX_CENSUS_CANDIDATES:
        raise BudgetExceeded(
            f"X has {len(on_x)} points over F_{q} spanning {candidates} candidate lines; "
            f"a line census tests at most {MAX_CENSUS_CANDIDATES}"
        )
    exact = q >= max(x.ci_type.degrees)
    found = []
    for j2, seconds in by_lead.items():
        for r2 in seconds:
            for r1 in firsts[j2]:
                if not all(
                    tuple((a + t * b) % q for a, b in zip(r1, r2)) in on_x
                    for t in range(1, q)
                ):
                    continue
                line = FqLine(x.field, (r1, r2), (r1.index(1), j2))
                if not exact:
                    comps = line.components()
                    if not all(restrict_along(f, comps).is_zero for f in x.forms):
                        continue
                found.append(line)
    found.sort(key=FqLine.sort_key)
    return found


def move_line_to_chart(
    x: CompleteIntersection, line: FqLine
) -> tuple[CompleteIntersection, LineChartPoint, tuple[int, ...]]:
    """Permute coordinates so the line lands in the standard chart.

    Returns the transformed complete intersection, the chart point of the
    moved line, and the position permutation used (new slot k reads old
    slot perm[k]). All chart verdicts are equivariant under coordinate
    permutations, so they may be computed on the transformed pair.
    """
    n = x.n
    j1, j2 = line.pivots
    rest = [l for l in range(n + 1) if l not in (j1, j2)]
    perm = [j1, j2] + rest
    names = ambient_variables(n)
    inv = [0] * (n + 1)
    for k, l in enumerate(perm):
        inv[l] = k
    mapping = {names[l]: names[inv[l]] for l in range(n + 1)}
    new_forms = tuple(f.permute_variables(mapping) for f in x.forms)
    x2 = CompleteIntersection(x.ci_type, new_forms)
    row1 = tuple(line.rows[0][l] for l in perm)
    row2 = tuple(line.rows[1][l] for l in perm)
    point = LineChartPoint(x.field, row1[2:], row2[2:])
    return x2, point, tuple(perm)

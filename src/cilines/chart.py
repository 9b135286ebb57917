"""The standard chart of the Grassmannian of lines, and everything
computed on it.

For a complete intersection X = (h^1 = ... = h^r = 0) and the chart line
through [[a], [b]], the composite h^i(s, t, s a_1 + t b_1, ...) expands as

    f^i_0 s^{d^i} + f^i_1 s^{d^i - 1} t + ... + f^i_{d^i} t^{d^i}

with the f^i_k polynomial in the chart coordinates. The line lies on X
exactly when every f^i_k vanishes at the point; the membership system is
those |d| + r polynomials, one tuple (f^i_0, ..., f^i_{d^i}) per form.

The non-freeness matrix M(h) is the (N-1) x |d| matrix whose row j,
block i is the coefficient vector of the restricted partial derivative
(dh^i/dZ_j) composed with the line, against the basis
s^{d^i-1}, ..., t^{d^i-1}. For a line on X along which X is smooth, the
line is free exactly when M(h) evaluated at the chart point has full
column rank |d|. M(h) at a line and the Jacobian along a curve each come
from one walk per form (multipoly._compose_terms), with the containment
check; the symbolic grid, read off the membership system by
_nonfree_entries, is built only for the local equations at a corank-1
line with m = N - |d| >= 1 (nonfree.jacobian_def_matrix).

M(h) needs only a line's images (each coordinate's (s, t) coefficients)
and pivots (the coordinates reading s and t; its rows are the others), so
a census line (FqLine) is classified where it lies, with no change of
coordinates.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (
    BudgetExceeded,
    ConstraintViolated,
    CurveNotOnX,
    InfiniteField,
    InvariantViolated,
    LineNotContained,
    ParameterPresent,
)
from .exactmatrix import ExactMatrix, RankResult, rank_exact
from .fields import Field, Scalar, Value, slot_setters
from .geometry import CompleteIntersection, LineChartPoint, restrict_along
from .multipoly import BinaryForm, MultiPoly, PolyRing, _compose_terms, _prefixed_terms, binary_gcd
from .params import ParamRing, ParamScalar, _from_rows


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


def membership_system(x: CompleteIntersection) -> tuple[tuple[MultiPoly, ...], ...]:
    """The s,t-coefficients of every h^i composed with the chart line:
    entry i is (f^i_0, ..., f^i_{d^i})."""
    n = x.n
    ab = chart_ring(x.coeff_ring, n)
    systems = []
    for form, d in zip(x.forms, x.ci_type.degrees):
        coeffs = [ab.zero()] * (d + 1)
        for (es, et), poly in chart_image(form, n).split(("s", "t")).items():
            if es + et != d:  # a CompleteIntersection's forms are homogeneous of degree d
                raise InvariantViolated(f"composite of {form} has (s, t)-degree {es + et}, not {d}")
            coeffs[et] = poly
        systems.append(tuple(coeffs))
    return tuple(systems)


class NonFreeMatrix(Value):
    """M(h) at a line on X, a chart point or a census line.

    matrix is M(h) evaluated at the line `at`, over the coefficient
    parameter ring, and rank is rank_exact of matrix, whose pivot rows are
    the lex-first row basis.
    """

    __slots__ = ("at", "matrix", "rank")

    at: LineChartPoint | FqLine
    matrix: ExactMatrix
    rank: RankResult

    def __init__(self, at: LineChartPoint | FqLine, matrix: ExactMatrix, rank: RankResult) -> None:
        _set_at(self, at)
        _set_matrix(self, matrix)
        _set_rank(self, rank)


_set_at, _set_matrix, _set_rank = slot_setters(NonFreeMatrix)


def _nonfree_entries(
    n: int, system: tuple[tuple[MultiPoly, ...], ...]
) -> tuple[tuple[MultiPoly, ...], ...]:
    """The symbolic M(h), an (N-1) x |d| grid of chart polynomials, read
    off the membership system: by the chain rule
    d(h^i o xi)/da_j = s (h^i_{Z_j} o xi), so row j, block i is the
    a_j-derivative of (f^i_0, ..., f^i_{d^i - 1})."""
    avars, _ = chart_variables(n)
    return tuple(tuple(f.differentiate(a) for sys in system for f in sys[:-1]) for a in avars)


def nonfree_matrix(x: CompleteIntersection, at: LineChartPoint | FqLine) -> NonFreeMatrix:
    """Build M(h) at a line, which must lie on X, with the rank of the
    evaluated matrix, from one walk over each form's terms
    (multipoly._compose_terms) along the line's images, the coordinates
    off its pivots as rows, in increasing order: h|_L is the containment
    check (LineNotContained), and row j, d raw coefficients per parameter
    prefix, is row j of the form's block (params._from_rows). A chart
    point's images are s, t, a_j s + b_j t and its rows the Z_j; a census
    line is read where it lies, with no change of coordinates."""
    n, out = x.n, x.coeff_ring
    images = at.images
    if len(images) != n + 1:
        raise ConstraintViolated(f"a line with {len(images)} coordinates, expected {n + 1}")
    rows = [w for w in range(n + 1) if w not in at.pivots]
    blocks = []
    for form, d in zip(x.forms, x.ci_type.degrees):
        walk = _compose_terms(_prefixed_terms(form), images, rows, d, out.field.reduce)
        outs = _from_rows(out, walk, n * d + 1, form.flat.width)
        if not all(v.is_zero for v in outs[: d + 1]):
            raise LineNotContained("the line is not on X")
        blocks.append([outs[(j + 1) * d + 1 : (j + 2) * d + 1] for j in range(n - 1)])
    matrix = ExactMatrix.from_rows(out, [sum(row, []) for row in zip(*blocks)])
    return NonFreeMatrix(at, matrix, rank_exact(matrix))


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
    """The full Jacobian (dh^i/dW for all N+1 coordinates W) along a curve
    on X, from one walk over each form (restrict_along with every row),
    which refuses a form that does not vanish there (CurveNotOnX); row i
    has entries of degree b(d^i - 1)."""
    rows = []
    for form in x.forms:
        h, partials = restrict_along(form, components, range(x.n + 1))
        if not h.is_zero:
            raise CurveNotOnX(f"{form} does not vanish along the curve")
        rows.append(partials)
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


class FqLine(Value):
    """A line in P^N over F_q as its canonical reduced row echelon
    representative, a full-rank 2 x (N+1) matrix."""

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

    def sort_key(self):
        return (self.pivots, self.rows)

    @property
    def images(self) -> tuple[tuple[Scalar, Scalar], ...]:
        """Each coordinate's (s, t) coefficients along the line: a column."""
        return tuple(zip(*self.rows))

    def components(self) -> tuple[BinaryForm, ...]:
        return tuple(BinaryForm(self.field, 1, ab) for ab in self.images)


_set_field, _set_rows, _set_pivots = slot_setters(FqLine)


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
    # more than 2^N points: a large N is refused before the count is formed
    if n >= MAX_CENSUS_POINTS.bit_length() or (q ** (n + 1) - 1) // (q - 1) > MAX_CENSUS_POINTS:
        raise BudgetExceeded(
            f"P^{n}(F_{q}) has more than MAX_CENSUS_POINTS = {MAX_CENSUS_POINTS} points"
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

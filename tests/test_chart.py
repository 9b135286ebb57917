from fractions import Fraction
import itertools
import math

import pytest

from cilines.chart import (
    _maximal_minors,
    _nonfree_entries,
    all_lines_fq,
    chart_image,
    enumerate_lines_fq,
    membership_system,
    nonfree_matrix,
    restricted_jacobian,
    smooth_along_components,
)
from cilines.errors import BudgetExceeded, ConstraintViolated, InfiniteField, LineNotContained
from cilines.exactmatrix import ExactMatrix, det, kernel_basis, rank_exact
from cilines.families import FamilySpec, build_family
from cilines.fields import RATIONALS, prime_field
from cilines.geometry import (
    CIType,
    CompleteIntersection,
    Line,
    ambient_variables,
    restrict_along,
)
from cilines.multipoly import BinaryForm, PolyRing
from cilines.params import ParamRing
from cilines.polytext import parse_poly

from conftest import ambient_ring, field_of_char, random_homogeneous
from support import (
    chart_values,
    evaluate,
    is_smooth_along_line,
    line_param,
    move_line_to_chart,
    nonfree_matrix_by_jets,
    on_x,
    permuted,
    permuted_z,
    scaled,
)


def make_ci(field, n, degrees, texts, params=()):
    ring = PolyRing(ParamRing(field, params), ambient_variables(n))
    return CompleteIntersection(
        CIType(n, degrees), tuple(parse_poly(t, ring) for t in texts)
    )


# -- line parameterization ------------------------------------------------------


def test_line_param_standard():
    point = Line.standard(RATIONALS, 6)
    mu = line_param(point)
    assert [str(c) for c in mu.components] == ["s", "t"] + ["0"] * 5


def test_line_param_diagonal():
    point = Line.chart(RATIONALS, (1, 0), (0, 1))
    mu = line_param(point)
    assert [str(c) for c in mu.components] == ["s", "t", "s", "t"]


def test_line_param_roundtrip():
    point = Line.chart(RATIONALS, (2, -3), (5, 7))
    mu = line_param(point)
    for j, comp in enumerate(mu.components[2:]):
        assert comp.coeffs == (point.rows[0][j + 2], point.rows[1][j + 2])


def test_line_chart_refuses_rows_of_unequal_length():
    with pytest.raises(ConstraintViolated, match="equal length"):
        Line.chart(RATIONALS, (1, 2), (3,))


def test_line_chart_brings_its_entries_into_the_field():
    """Line.chart reduces each a_j and b_j: 8 is 1 over F_7, and 4/2 is
    the int 2 over Q."""
    line = Line.chart(prime_field(7), (8, -1), (0, 14))
    assert line.rows == ((1, 0, 1, 6), (0, 1, 0, 0)) and line.pivots == (0, 1)
    line = Line.chart(RATIONALS, (Fraction(4, 2),), (Fraction(1, 3),))
    assert line.rows == ((1, 0, 2), (0, 1, Fraction(1, 3)))
    assert type(line.rows[0][2]) is int


# -- membership systems -----------------------------------------------------------


def test_membership_single_term_example():
    x = make_ci(RATIONALS, 6, (4,), ["T^2*Z4*Z5"])
    sys = membership_system(x)[0]
    assert [str(f) for f in sys] == ["0", "0", "a4*a5", "a4*b5 + a5*b4", "b4*b5"]


def test_membership_4_6_leading_coefficient():
    built = build_family(FamilySpec("hyp-4-6"), RATIONALS)
    sys = membership_system(built.x)[0]
    assert str(sys[0]) == "c1*a1 + c2*a2 + c3*a3"


def test_membership_count_and_reconstruction(rng):
    for char in (0, 3):
        field = field_of_char(char)
        for n, degrees in ((4, (2,)), (5, (3, 2))):
            ring = ambient_ring(field, n)
            forms = tuple(random_homogeneous(rng, ring, d) for d in degrees)
            x = CompleteIntersection(CIType(n, degrees), forms)
            ms = membership_system(x)
            assert sum(len(sys) for sys in ms) == sum(degrees) + len(degrees)
            # the coefficients reassemble the composite exactly
            full_vars = ("s", "t") + ms[0][0].ring.variables
            full = PolyRing(x.coeff_ring, full_vars)
            s, t = full.var("s"), full.var("t")
            for form, d, sys in zip(forms, degrees, ms):
                image = chart_image(form, n)
                rebuilt = full.zero()
                for k, f in enumerate(sys):
                    lift = f.substitute({v: full.var(v) for v in f.ring.variables}) if not f.is_zero else full.zero()
                    rebuilt = rebuilt + lift * s ** (d - k) * t ** k
                assert rebuilt == image


FAMILY_SPECS = [
    FamilySpec("hyp-4-6"),
    FamilySpec("hyp-general", 8, (3,)),
    FamilySpec("hyp-char-not-2", 7, (4,)),
    FamilySpec("mixed-general", 9, (4, 3)),
    FamilySpec("ci-4-3-P9"),
    FamilySpec("quadrics-general", 7, (2, 2)),
]


def test_standard_line_on_every_family():
    for spec in FAMILY_SPECS:
        built = build_family(spec, RATIONALS)
        assert on_x(built.x, built.line), spec.name


def test_membership_rejects_wrong_width():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    with pytest.raises(ConstraintViolated):
        nonfree_matrix(x, at=Line.standard(RATIONALS, 7))


def test_nonfree_matrix_rejects_a_census_line_of_another_space():
    x = make_ci(prime_field(3), 3, (2,), ["S*Z1 + T*Z2"])
    with pytest.raises(ConstraintViolated, match="coordinates"):
        nonfree_matrix(x, at=next(all_lines_fq(prime_field(3), 4)))


# -- the non-freeness matrix -------------------------------------------------------


def test_nonfree_matrix_4_6_symbolic_display():
    built = build_family(FamilySpec("hyp-4-6"), RATIONALS)
    grid = _nonfree_entries(built.x.n, membership_system(built.x))
    grid = [[str(e) for e in row] for row in grid]
    assert grid == [
        ["c1", "-1", "0", "0"],
        ["c2", "0", "-1", "0"],
        ["c3", "0", "0", "-1"],
        ["0", "0", "a5", "b5"],
        ["0", "0", "a4", "b4"],
    ]


def test_nonfree_matrix_quadrics_p7_symbolic_display():
    built = build_family(FamilySpec("quadrics-general", 7, (2, 2)), RATIONALS)
    grid = _nonfree_entries(built.x.n, membership_system(built.x))
    grid = [[str(e) for e in row] for row in grid]
    assert grid == [
        ["1", "0", "0", "0"],
        ["0", "1", "1", "0"],
        ["0", "0", "0", "1"],
        ["0", "0", "a5", "b5"],
        ["a6", "b6", "a4", "b4"],
        ["a5", "b5", "0", "0"],
    ]


def test_nonfree_matrix_quadric_p3_free_line():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    point = Line.standard(RATIONALS, 3)
    nf = nonfree_matrix(x, at=point)
    assert nf.matrix.str_rows() == [["1", "0"], ["0", "1"]]
    assert rank_exact(nf.matrix).rank == 2 == x.ci_type.total_degree  # free


def test_nonfree_matrix_rejects_off_line_point():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    with pytest.raises(LineNotContained):
        nonfree_matrix(x, at=Line.chart(RATIONALS, (1, 0), (0, 0)))


def test_derivative_identities(rng):
    """d(h o xi)/da_j = s * (h_{Z_j} o xi) and the t/b_j twin."""
    for char in (0, 2, 3, 5):
        field = field_of_char(char)
        n = 4
        ring = ambient_ring(field, n)
        for _ in range(8):
            h = random_homogeneous(rng, ring, rng.randint(1, 4))
            image = chart_image(h, n)
            s = image.ring.var("s")
            t = image.ring.var("t")
            for j in range(1, n):
                partial = chart_image(h.differentiate(f"Z{j}"), n)
                assert image.differentiate(f"a{j}") == s * partial
                assert image.differentiate(f"b{j}") == t * partial


def test_scaling_invariance(rng):
    built = build_family(FamilySpec("quadrics-general", 7, (2, 2)), RATIONALS)
    x, point = built.x, built.line
    base_rank = rank_exact(nonfree_matrix(x, at=point).matrix).rank
    x2 = scaled(x, (3, -7))
    assert on_x(x2, point)
    assert rank_exact(nonfree_matrix(x2, at=point).matrix).rank == base_rank
    assert is_smooth_along_line(x2, point) == is_smooth_along_line(x, point)


def test_z_permutation_equivariance():
    x = make_ci(RATIONALS, 4, (2,), ["S*Z1 + T*Z2 + Z3^2"])
    point = Line.chart(RATIONALS, (0, 0, 0), (0, 0, 0))
    base_rank = rank_exact(nonfree_matrix(x, at=point).matrix).rank
    # swap Z1 <-> Z3 in both the forms and the chart columns
    perm = {"Z1": "Z3", "Z2": "Z2", "Z3": "Z1"}
    x2 = permuted_z(x, perm)
    point2 = permuted(point, (2, 1, 0))
    assert on_x(x2, point2)
    assert rank_exact(nonfree_matrix(x2, at=point2).matrix).rank == base_rank
    assert is_smooth_along_line(x2, point2) == is_smooth_along_line(x, point)


def census_chart_lines(rng):
    """(X, chart point) for every census line, moved into the chart, of
    the F_3 quadric, the F_7 Fermat cubic and quintic surfaces and a
    seeded (2,3) complete intersection in P^4 over F_2."""
    xs = [
        make_ci(prime_field(3), 3, (2,), ["S*Z1 + T*Z2"]),
        make_ci(prime_field(7), 3, (3,), ["S^3 + T^3 + Z1^3 + Z2^3"]),
        make_ci(prime_field(7), 3, (5,), ["S^5 + T^5 + Z1^5 + Z2^5"]),
    ]
    ring = ambient_ring(prime_field(2), 4)
    linears = [random_homogeneous(rng, ring, 1, n_terms=3) for _ in range(2)]
    forms = tuple(_ideal_form(rng, ring, linears, d) for d in (2, 3))
    xs.append(CompleteIntersection(CIType(4, (2, 3)), forms))
    out = []
    for x in xs:
        lines = enumerate_lines_fq(x)
        assert lines
        out.extend(move_line_to_chart(x, ln)[:2] for ln in lines)
    return out


def test_nonfree_matrix_is_its_entries_evaluated_at_the_line(rng):
    """The evaluated M(h), from one walk over each form at the line,
    equals each symbolic entry evaluated at the line on its own, on every
    census line of census_chart_lines and on the family lines, symbolic
    over Q and sampled over F_3."""
    cases = census_chart_lines(rng)
    for spec in FAMILY_SPECS:
        sampled = FamilySpec(spec.name, spec.n, spec.degrees, "sampled", seed=2)
        for built in (build_family(spec, RATIONALS), build_family(sampled, prime_field(3))):
            cases.append((built.x, built.line))
    for x, point in cases:
        nf = nonfree_matrix(x, at=point)
        vals = chart_values(point)
        grid = _nonfree_entries(x.n, membership_system(x))
        assert nf.matrix.to_lists() == [[evaluate(e, vals) for e in row] for row in grid]


def test_restricted_jacobian_z_columns_are_the_blocks_of_m_h(rng):
    """The Z-columns of the restricted Jacobian are the rows of M(h) at
    the line, block i holding form i (in characteristic 2 as well)."""
    for x2, point in census_chart_lines(rng):
        jac = restricted_jacobian(x2, line_param(point).components)
        nf = nonfree_matrix(x2, at=point)
        degrees = x2.ci_type.degrees
        for j, row in enumerate(nf.matrix.to_lists()):
            for i, d in enumerate(degrees):
                lo = sum(degrees[:i])
                assert list(jac[i][2 + j].coeffs) == [c.constant_value() for c in row[lo : lo + d]]


def _route(build, x, point):
    """What an M(h) builder gives at a chart point: the evaluated matrix
    and its RankResult, or the refusal of a line that is not on X."""
    try:
        nf = build(x, at=point)
    except LineNotContained:
        return "LineNotContained"
    return nf.matrix, nf.rank


@pytest.mark.parametrize(
    "char,params",
    [(0, ("c1", "c2")), (2, ()), (3, ()), (7, ())],
    ids=["Q-params", "F2", "F3", "F7"],
)
def test_nonfree_matrix_matches_the_jets_of_the_membership_system(rng, char, params):
    """chart.nonfree_matrix, one walk over each form, agrees with the
    route it replaced, one jet per membership polynomial
    (support.nonfree_matrix_by_jets): the same evaluated M(h) and
    RankResult at chart lines on X, and the same LineNotContained off X.
    Each form of X is one on the standard line moved onto a random chart
    point by Z_j -> Z_j - a_j S - b_j T, and a random form is added to
    take X off the line. Columns with a_j = b_j = 0 come up often, and
    every fifth point is the standard line."""
    field = field_of_char(char)
    seen = {True: 0, False: 0}
    for draw in range(40):
        x, point = draw_through_a_chart_point(rng, field, params, draw % 5 == 0)
        ours = _route(nonfree_matrix, x, point)
        assert ours == _route(nonfree_matrix_by_jets, x, point)
        seen[ours != "LineNotContained"] += 1
    assert seen[True] and seen[False]


def draw_through_a_chart_point(rng, field, params, standard):
    """(X, chart point), X on the line three times in ten. Each form of X
    is one on the standard line moved onto the point by
    Z_j -> Z_j - a_j S - b_j T, and a random form is added to take X off
    the line. The point is the standard line when `standard` is set;
    elsewhere a third of its entries are 0 and the rest any small value,
    0 too."""
    n = rng.randint(3, 6)
    degrees = (rng.randint(1, 4),) if n < 5 or rng.random() < 0.5 else (2, rng.randint(1, 3))
    ring = ambient_ring(field, n, params)
    a, b = (
        [0 if standard else rng.randrange(3) and rng.randrange(field.p or 9) for _ in range(n - 1)]
        for _ in "ab"
    )
    point = Line.chart(field, tuple(a), tuple(b))
    s, t = ring.var("S"), ring.var("T")
    shift = {"S": s, "T": t}
    for j in range(1, n):
        shift[f"Z{j}"] = ring.var(f"Z{j}") - s * a[j - 1] - t * b[j - 1]
    off = rng.random() < 0.3
    forms = []
    for d in degrees:
        form = _form_on_the_standard_line(rng, ring, d).substitute(shift)
        if off:
            form = form + random_homogeneous(rng, ring, d, n_terms=2)
        forms.append(form if not form.is_zero else ring.var("S") ** d)
    return CompleteIntersection(CIType(n, degrees), tuple(forms)), point


def _rational(sympy, v):
    return sympy.Rational(v.numerator, v.denominator)


def _to_sympy(sympy, form, symbols):
    """The form with one symbol per name of form.ring.flat: parameters,
    then variables."""
    out = sympy.Integer(0)
    for e, c in form.flat.terms:
        mono = _rational(sympy, c)
        for sym, k in zip(symbols, e):
            mono *= sym**k
        out += mono
    return out


def _form_on_the_standard_line(rng, ring, d):
    """A random form of degree d with a Z in every monomial, so that it
    contains the line Z = 0; its coefficients carry the ring's parameters,
    and over Q some are proper fractions."""
    field, k = ring.coeffs.field, ring.coeffs.k
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = [0] * ring.n
        exps[rng.randrange(2, ring.n)] = 1
        for _ in range(d - 1):
            exps[rng.randrange(ring.n)] += 1
        coeff = {}
        for _ in range(rng.randint(1, 3) if k else 1):
            pe = tuple(rng.randint(0, 2) for _ in range(k))
            v = rng.randint(-4, 4)
            coeff[pe] = field.make(Fraction(v, rng.randint(1, 3)) if field.p is None else v)
        terms[tuple(exps)] = ring.coeffs.from_terms(coeff)
    form = ring.from_terms(terms)
    return form if not form.is_zero else ring.var("Z1") ** d


@pytest.mark.parametrize("char", [0, 3])
@pytest.mark.parametrize("params", [(), ("c1", "c2")])
def test_membership_system_and_m_h_match_sympy(rng, char, params):
    """Oracle for the chart layer: sympy expands h(s, t, s*a + t*b); its
    s,t-coefficients must be the f^i_k of membership_system, and their
    a_j-derivatives the entries of M(h). Over F_3 the differences must
    vanish mod 3."""
    sympy = pytest.importorskip("sympy")
    field = field_of_char(char)
    s, t = sympy.symbols("s t")

    def same(ours, theirs):
        diff = sympy.expand(ours - theirs)
        if char == 0 or diff == 0:
            return diff == 0
        return all(c % char == 0 for c in sympy.Poly(diff, *diff.free_symbols).coeffs())

    for n, degrees in ((3, (2,)), (3, (3,)), (4, (2, 2))):
        ring = ambient_ring(field, n, params)
        x = CompleteIntersection(
            CIType(n, degrees), tuple(_form_on_the_standard_line(rng, ring, d) for d in degrees)
        )
        ms = membership_system(x)
        grid = _nonfree_entries(n, ms)
        ab = grid[0][0].ring
        symbols = sympy.symbols(ab.flat.names)
        by_name = dict(zip(ab.flat.names, symbols))
        avars = [by_name[f"a{j}"] for j in range(1, n)]
        line = {sympy.Symbol("S"): s, sympy.Symbol("T"): t}
        for j in range(1, n):
            line[sympy.Symbol(f"Z{j}")] = s * by_name[f"a{j}"] + t * by_name[f"b{j}"]
        start = 0
        for i, (form, d) in enumerate(zip(x.forms, degrees)):
            h = _to_sympy(sympy, form, sympy.symbols(ring.flat.names))
            composite = sympy.Poly(sympy.expand(h.subs(line, simultaneous=True)), s, t)
            for k in range(d + 1):
                theirs = composite.coeff_monomial(s ** (d - k) * t**k)
                assert same(_to_sympy(sympy, ms[i][k], symbols), theirs)
                if k < d:
                    for j, a in enumerate(avars):
                        ours = _to_sympy(sympy, grid[j][start + k], symbols)
                        assert same(ours, sympy.diff(theirs, a))
            start += d


# -- smoothness along lines ----------------------------------------------------------


def test_smooth_quadric_line():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    assert is_smooth_along_line(x, Line.standard(RATIONALS, 3))


def test_double_plane_singular_along_line():
    x = make_ci(RATIONALS, 3, (2,), ["Z1^2"])
    assert not is_smooth_along_line(x, Line.standard(RATIONALS, 3))


def test_fermat_quintic_line_smooth_after_swap():
    field = prime_field(7)
    x = make_ci(field, 3, (5,), ["S^5 + T^5 + Z1^5 + Z2^5"])
    lines = enumerate_lines_fq(x)
    target = None
    for ln in lines:
        if ln.rows == ((1, 0, 6, 0), (0, 1, 0, 6)):
            target = ln
    # (s : t : -s : -t) sits in the chart already
    assert target is not None
    assert is_smooth_along_line(x, target)


def _det_at(grid, t, field):
    """det of the grid of binary forms evaluated at (1 : t), by Bareiss."""
    ring = ParamRing(field, ())
    rows = [[ring.const(sum(c * t**k for k, c in enumerate(f.coeffs))) for f in row] for row in grid]
    return det(ExactMatrix.from_rows(ring, rows)).constant_value()


def test_maximal_minors_match_determinants_at_enough_points(rng):
    """Each minor of degree D, evaluated at (1 : t) for t = 0..D, equals
    the determinant of the evaluated submatrix; over F_101 D + 1 < 101
    points fix a form of degree D, so this checks every minor exactly."""
    field = prime_field(101)
    for r in range(1, 5):
        for width in range(r + 1, r + 4):
            degrees = [rng.randint(0, 3) for _ in range(r)]
            jac = [
                [BinaryForm(field, d, tuple(rng.randrange(101) for _ in range(d + 1))) for _ in range(width)]
                for d in degrees
            ]
            minors = _maximal_minors(jac)
            assert list(minors) == list(itertools.combinations(range(width), r))
            for cols, m in minors.items():
                assert m.degree == sum(degrees)
                sub = [[row[c] for c in cols] for row in jac]
                for t in range(m.degree + 1):
                    value = sum(c * t**k for k, c in enumerate(m.coeffs))
                    assert field.make(value) == _det_at(sub, t, field)


def test_proportional_jacobian_rows_have_only_zero_minors(rng):
    """Two forms h and 3h through the standard line: the rows of the
    restricted Jacobian are proportional, every 2 x 2 minor vanishes,
    and X is not smooth along the line."""
    field = prime_field(101)
    ring = ambient_ring(field, 4)
    h = sum(random_homogeneous(rng, ring, 1) * ring.var(z) for z in ("Z1", "Z2", "Z3"))
    x = CompleteIntersection(CIType(4, (2, 2)), (h, 3 * h))
    jac = restricted_jacobian(x, line_param(Line.standard(field, 4)).components)
    assert all(m.is_zero for m in _maximal_minors(jac).values())
    assert not smooth_along_components(x, jac)


# -- enumeration over finite fields -----------------------------------------------------


def gaussian_binomial_lines(n, q):
    return ((q ** (n + 1) - 1) * (q ** n - 1)) // ((q ** 2 - 1) * (q - 1))


def test_total_line_count_p3_f2():
    assert sum(1 for _ in all_lines_fq(prime_field(2), 3)) == 35
    assert gaussian_binomial_lines(3, 2) == 35


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2)])
def test_total_line_count_matches_gaussian_binomial(n, q):
    assert sum(1 for _ in all_lines_fq(prime_field(q), n)) == gaussian_binomial_lines(n, q)


def test_quadric_two_rulings_f3():
    x = make_ci(prime_field(3), 3, (2,), ["S*Z1 + T*Z2"])
    lines = enumerate_lines_fq(x)
    assert len(lines) == 8  # two rulings of q+1 lines each


def test_fermat_cubic_27_lines_f7():
    x = make_ci(prime_field(7), 3, (3,), ["S^3 + T^3 + Z1^3 + Z2^3"])
    assert len(enumerate_lines_fq(x)) == 27


def test_enumeration_is_sorted_and_unique():
    x = make_ci(prime_field(3), 3, (2,), ["S*Z1 + T*Z2"])
    lines = enumerate_lines_fq(x)
    keys = [ln.sort_key() for ln in lines]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_enumeration_needs_finite_field():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    with pytest.raises(InfiniteField):
        enumerate_lines_fq(x)


def test_census_refuses_a_projective_space_over_the_points_budget():
    x = make_ci(prime_field(1000003), 3, (2,), ["S*Z1 + T*Z2"])
    with pytest.raises(BudgetExceeded, match="points"):
        enumerate_lines_fq(x)


@pytest.mark.parametrize("p, n", [(2**61 - 1, 300), (7, 6000)])
def test_census_refuses_a_point_count_too_long_to_print(p, n):
    """(q^(N+1) - 1)/(q - 1) has more digits than Python prints (4,300);
    the refusal neither prints nor forms it."""
    x = make_ci(prime_field(p), n, (2,), ["S*Z1 + T*Z2"])
    with pytest.raises(BudgetExceeded, match="points"):
        enumerate_lines_fq(x)


def test_census_refuses_too_many_candidate_lines():
    # vanishes at every F_2-point of P^12, so every line is a candidate
    x = make_ci(prime_field(2), 12, (3,), ["S^2*T + S*T^2"])
    with pytest.raises(BudgetExceeded, match="candidate lines"):
        enumerate_lines_fq(x)


def restriction_census(x):
    """The census by restricting every form to every line of P^N(F_q)."""
    return [
        ln
        for ln in all_lines_fq(x.field, x.n)
        if all(restrict_along(f, ln.components()).is_zero for f in x.forms)
    ]


def _ideal_form(rng, ring, linears, d):
    """A degree-d form in the ideal of the given linear forms."""
    out = ring.zero()
    for lin in linears:
        out = out + lin * random_homogeneous(rng, ring, d - 1, n_terms=4)
    return out


# (q, N, degrees, k): every form lies in the ideal of k random linear
# forms, so X contains their common zero set, of dimension N - k at least
CROSS_CHECK_CASES = [
    (5, 3, (3,), 2),  # r = 1, q >= d, a line
    (3, 3, (4,), 2),  # r = 1, q < d, a line
    (3, 3, (3,), 1),  # r = 1, q >= d, a plane
    (2, 4, (2, 2), 3),  # r = 2, q >= d, a line
    (2, 4, (2, 3), 2),  # r = 2, q < d, a plane
    (2, 4, (2, 2), 2),  # r = 2, q >= d, a plane
    (3, 3, (2,), 0),  # a random quadric surface
]


@pytest.mark.parametrize("q,n,degrees,k", CROSS_CHECK_CASES)
def test_census_matches_restriction_of_every_line(rng, q, n, degrees, k):
    field = prime_field(q)
    ring = ambient_ring(field, n)
    for _ in range(3):
        linears = [random_homogeneous(rng, ring, 1, n_terms=3) for _ in range(k)]
        forms = [
            _ideal_form(rng, ring, linears, d) if k else random_homogeneous(rng, ring, d)
            for d in degrees
        ]
        if any(f.is_zero for f in forms):
            continue
        x = CompleteIntersection(CIType(n, degrees), tuple(forms))
        expected = restriction_census(x)
        assert enumerate_lines_fq(x) == expected
        if k:
            assert expected, "the forms vanish on a common line or plane"


def test_census_restricts_when_every_point_is_on_x():
    """S^3 T - S T^3 vanishes at every F_3-point, so every line passes
    the point lookups; only restriction rejects the lines off X, which
    are those outside the four planes S = 0, T = 0, S = T, S = -T."""
    x = make_ci(prime_field(3), 3, (4,), ["S^3*T - S*T^3"])
    lines = enumerate_lines_fq(x)
    assert lines == restriction_census(x)
    assert len(lines) == 4 * 12 + 1 < gaussian_binomial_lines(3, 3)


def test_move_line_to_chart_preserves_containment():
    field = prime_field(3)
    x = make_ci(field, 3, (2,), ["S*Z1 + T*Z2"])
    for ln in enumerate_lines_fq(x):
        x2, point, perm = move_line_to_chart(x, ln)
        assert on_x(x2, point)
        assert sorted(perm) == list(range(4))


# -- containment codimension count ---------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_forms_vanishing_on_line_codimension(n):
    """Degree-d forms vanishing on the standard line form a subspace of
    codimension d+1 inside all degree-d forms."""
    ring = ParamRing(RATIONALS, ())
    for d in range(1, 6):
        monos = list(_monomials(n + 1, d))
        rows = []
        for k in range(d + 1):  # restriction to L in the basis s^{d-k} t^k
            row = []
            for e in monos:
                is_st = all(x == 0 for x in e[2:])
                row.append(ring.one() if is_st and e[1] == k else ring.zero())
            rows.append(row)
        m = ExactMatrix.from_rows(ring, rows)
        kernel = kernel_basis(m)
        assert len(monos) == math.comb(n + d, d)
        assert len(kernel) == math.comb(n + d, d) - (d + 1)


def _monomials(nvars, d):
    for bars in itertools.combinations(range(d + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + nvars - 2 - prev)
        yield tuple(exps)

from fractions import Fraction

import pytest

from cilines.bundles import (
    _section_kernel_dims,
    SplittingType,
    degree_nonfree_gate,
    normal_splitting_line,
    precompose,
    tangent_cohomology,
    tangent_splitting_from_normal,
)
from cilines.chart import (
    enumerate_lines_fq,
    line_param,
    move_line_to_chart,
    nonfree_matrix,
    restricted_jacobian,
    smooth_along_components,
)
from cilines.errors import (
    BasePointedCover,
    ConstraintViolated,
    CurveNotOnX,
    InvariantViolated,
    ParameterPresent,
    SingularAlongCurve,
    SingularAlongLine,
    TwistTooNegative,
)
from cilines.exactmatrix import rank_exact
from cilines.families import FamilySpec, build_family
from cilines.fields import RATIONALS, prime_field
from cilines.geometry import CIType, CompleteIntersection, LineChartPoint, RationalCurve
from cilines.multipoly import BinaryForm
from cilines.params import ParamRing

from conftest import ambient_ring, random_homogeneous
from support import (
    chart_line_jacobian,
    chart_point,
    form_from_scalars,
    is_smooth_along_line,
    section_kernel_dim,
    specialized,
    tangent_splitting_line,
)
from test_chart import _ideal_form, census_chart_lines, make_ci


def bform(field, *coeffs):
    return form_from_scalars(field, list(coeffs))


def fermat_quintic_line():
    field = prime_field(7)
    x = make_ci(field, 3, (5,), ["S^5 + T^5 + Z1^5 + Z2^5"])
    mu = RationalCurve(
        (bform(field, 1, 0), bform(field, -1, 0), bform(field, 0, 1), bform(field, 0, -1))
    )
    return x, mu


def test_splitting_type_validation():
    st = SplittingType((2, 0, -1))
    assert (st.rank, st.degree, st.min_entry) == (3, 1, -1)
    with pytest.raises(ConstraintViolated):
        SplittingType((0, 1))


# -- tangent cohomology ------------------------------------------------------------


def test_quadric_line_is_free():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    mu = line_param(LineChartPoint.standard(RATIONALS, 3))
    assert tangent_cohomology(x, mu, -1) == ((2, 0),)


def test_quintic_line_nonfree_and_nonconvex():
    x, mu = fermat_quintic_line()
    assert tangent_cohomology(x, mu, 0) == ((2, 3), (3, 2))


def test_twist_below_minus_one_rejected():
    x, mu = fermat_quintic_line()
    with pytest.raises(TwistTooNegative):
        tangent_cohomology(x, mu, -2)


def test_curve_not_on_x_rejected():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    r = x.field
    mu = RationalCurve((bform(r, 1, 0), bform(r, 0, 1), bform(r, 1, 0), bform(r, 1, 1)))
    with pytest.raises(CurveNotOnX):
        tangent_cohomology(x, mu, -1)


def test_singular_along_curve_rejected():
    x = make_ci(RATIONALS, 3, (2,), ["Z1^2"])
    mu = line_param(LineChartPoint.standard(RATIONALS, 3))
    with pytest.raises(SingularAlongCurve):
        tangent_cohomology(x, mu, 0)


def test_chi_bookkeeping(rng):
    """h0 - h1 = b(N+1-|d|) + (N-r)(m+1) on every computed instance."""
    cases = []
    x1 = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    cases.append((x1, line_param(LineChartPoint.standard(RATIONALS, 3))))
    xq, muq = fermat_quintic_line()
    cases.append((xq, muq))
    cases.append((xq, precompose(muq, (bform(xq.field, 1, 0, 0), bform(xq.field, 0, 0, 1)))))
    for x, mu in cases:
        t = x.ci_type
        for m, (h0, h1) in zip((-1, 0), tangent_cohomology(x, mu, 0)):
            chi = mu.degree * (t.ambient_dim + 1 - t.total_degree) + t.variety_dim * (m + 1)
            assert h0 - h1 == chi


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (SingularAlongCurve, SingularAlongLine) as exc:
        return type(exc)


def test_line_jacobian_route_agrees_with_restriction(rng):
    """On every census line the normal splitting gives the same splitting
    type, or the same refusal, whether it is handed the Jacobian read off
    M(h) or the one composed by restriction along the line. Where the
    splitting exists, tangent_cohomology gives the same counts from the
    Jacobian read off M(h) as from the one it composes itself. Where X
    is singular along the line, the restriction route of
    tangent_cohomology refuses too; the Jacobian route is not asked,
    since a Jacobian handed in promises smoothness."""
    singular = 0
    for x, point in census_chart_lines(rng):
        jac = chart_line_jacobian(x, point)
        mu = line_param(point)
        normal = _outcome(normal_splitting_line, x, jac)
        assert normal == _outcome(normal_splitting_line, x, restricted_jacobian(x, mu.components))
        if normal is SingularAlongLine:
            with pytest.raises(SingularAlongCurve):
                tangent_cohomology(x, mu, 0)
        else:
            assert tangent_cohomology(x, mu, 0, jac) == tangent_cohomology(x, mu, 0)
        singular += normal is SingularAlongLine
    assert singular >= 1


def test_every_twist_of_one_pass_matches_the_splitting_type(rng):
    """On every census line along which X is smooth, one pass to twist 2
    gives at each twist k the h^0 of the tangent splitting type twisted
    by k, and the pair that a pass stopping at k gives last."""
    smooth = 0
    for x, point in census_chart_lines(rng):
        jac = chart_line_jacobian(x, point)
        try:
            normal = normal_splitting_line(x, jac)
        except SingularAlongLine:
            continue
        smooth += 1
        tangent = tangent_splitting_from_normal(normal).entries
        mu = line_param(point)
        twists = tangent_cohomology(x, mu, 2, jac)
        assert len(twists) == 4
        for k, pair in zip(range(-1, 3), twists):
            assert pair[0] == sum(max(0, a + k + 1) for a in tangent)
            assert tangent_cohomology(x, mu, k, jac)[-1] == pair
    assert smooth >= 10


def test_tangent_cohomology_rejects_a_misshapen_jacobian():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    point = LineChartPoint.standard(RATIONALS, 3)
    mu = line_param(point)
    jac = chart_line_jacobian(x, point)
    r = x.field
    assert tangent_cohomology(x, mu, 0, jac)[-1] == (4, 0)  # T_X|_L = O(2) + O
    for bad in (
        [],  # no row for the form
        jac + jac,  # a row too many
        [jac[0][:-1]],  # an entry short
        [jac[0][:-1] + [bform(r, 0, 0, 1)]],  # an entry of degree 2 on a line
    ):
        with pytest.raises(ConstraintViolated):
            tangent_cohomology(x, mu, 0, bad)
    # a degree-2 curve needs entries of degree 2
    double = precompose(mu, (bform(r, 1, 0, 0), bform(r, 0, 0, 1)))
    with pytest.raises(ConstraintViolated):
        tangent_cohomology(x, double, 0, jac)


def test_tangent_cohomology_checks_the_euler_section_of_a_given_jacobian():
    """A handed-in Jacobian skips the containment check but not the
    invariant: along L = (s : t : 0 : 0) on S Z1 + T Z2 the S-column
    is 0, and a Jacobian claiming s there breaks the Euler relation."""
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    point = LineChartPoint.standard(RATIONALS, 3)
    mu = line_param(point)
    jac = chart_line_jacobian(x, point)
    bad = [[bform(x.field, 1, 0)] + jac[0][1:]]
    with pytest.raises(InvariantViolated, match="Euler"):
        tangent_cohomology(x, mu, 0, bad)


# -- section kernels ----------------------------------------------------------------

SECTION_FIELDS = (RATIONALS, prime_field(2), prime_field(3), prime_field(7))


def random_grid(rng, field, rows, cols, max_deg, zero_form=0.2, zero_coeff=0.3):
    """rows x cols binary forms, each row of one random degree; whole zero
    forms and zero coefficients among them, rationals with denominators."""

    def value():
        if rng.random() < zero_coeff:
            return 0
        if field.p is None:
            return field.make(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        return rng.randrange(field.p)

    grid = []
    for _ in range(rows):
        deg = rng.randint(0, max_deg)
        grid.append(
            [
                BinaryForm.zero(field, deg)
                if rng.random() < zero_form
                else form_from_scalars(field, [value() for _ in range(deg + 1)])
                for _ in range(cols)
            ]
        )
    return grid


def assert_one_pass_matches_per_dom(phi, top):
    want = [section_kernel_dim(phi, dom) for dom in range(top + 1)]
    assert _section_kernel_dims(phi, top) == want


@pytest.mark.parametrize("field", SECTION_FIELDS, ids=str)
def test_one_pass_section_kernels_match_the_per_dom_reference(rng, field):
    """The kernel dimension at every dom <= top, read from one elimination
    at top, against a matrix built and eliminated at each dom; rows of
    different degrees, zero forms and zero coefficients included."""
    for _ in range(60):
        phi = random_grid(rng, field, rng.randint(1, 3), rng.randint(1, 4), 4)
        assert_one_pass_matches_per_dom(phi, rng.randint(1, 6))
    # an all-zero grid: every section is in the kernel
    zero = [[BinaryForm.zero(field, 2)] * 3, [BinaryForm.zero(field, 0)] * 3]
    assert _section_kernel_dims(zero, 4) == [0, 3, 6, 9, 12]


# -- splitting types of lines ------------------------------------------------------------


def test_quadric_line_splittings():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    point = LineChartPoint.standard(RATIONALS, 3)
    assert normal_splitting_line(x, chart_line_jacobian(x, point)).entries == (0,)
    assert tangent_splitting_line(x, point).entries == (2, 0)


def test_splitting_recovery_stops_at_the_degree_floor(monkeypatch):
    """The splitting type is read from the section counts at every twist
    from 1 down to the degree floor; counts that do not add up to the rank
    and degree of N_{L/X} are refused by a raised error that python -O
    keeps, not an assert. A count at the floor above the onto count,
    (N-1) top - sum_i (d^i - 1 + top) = 1 here, means X is singular
    along the line."""
    import cilines.bundles as bundles

    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    point = LineChartPoint.standard(RATIONALS, 3)
    s, t = bform(RATIONALS, 1, 0), bform(RATIONALS, 0, 1)
    jac = chart_line_jacobian(x, point)
    assert bundles._section_kernel_dims([[s, t]], 2) == [0, 0, 1]  # N_{L/X} = O
    assert normal_splitting_line(x, jac).entries == (0,)
    for dims, error, match in (
        ([0, 0, 0], InvariantViolated, "bookkeeping"),
        ([0, 1, 1], InvariantViolated, "bookkeeping"),
        ([0, 0, 2], SingularAlongLine, "singular"),
        ([0, 1, 3, 4], SingularAlongLine, "singular"),
    ):
        monkeypatch.setattr(bundles, "_section_kernel_dims", lambda phi, top, d=dims: d)
        with pytest.raises(error, match=match):
            normal_splitting_line(x, jac)


def test_quintic_line_splittings():
    x, _ = fermat_quintic_line()
    lines = enumerate_lines_fq(x)
    ln = next(l for l in lines if l.rows == ((1, 0, 6, 0), (0, 1, 0, 6)))
    point = chart_point(ln)
    assert normal_splitting_line(x, chart_line_jacobian(x, point)).entries == (-3,)
    assert tangent_splitting_line(x, point).entries == (2, -3)


def test_quadrics_p7_standard_line_splitting():
    built = build_family(FamilySpec("quadrics-general", 7, (2, 2)), RATIONALS)
    st = normal_splitting_line(built.x, chart_line_jacobian(built.x, built.line))
    assert st.rank == 4 and st.degree == 2
    assert st.min_entry <= -1  # the pair sits in the non-free locus
    assert st.entries == (1, 1, 1, -1)


def test_cubic_threefold_free_line_splitting():
    # free line on a cubic threefold: [2, 0, 0] after the tangent merge
    x = make_ci(RATIONALS, 4, (3,), ["S^2*Z1 + T^2*Z2 + Z3^3 + S*T*Z3"])
    point = LineChartPoint.standard(RATIONALS, 4)
    nf = nonfree_matrix(x, at=point)
    assert rank_exact(nf.matrix).rank == 3  # free
    assert normal_splitting_line(x, chart_line_jacobian(x, point)).entries == (0, 0)
    assert tangent_splitting_line(x, point).entries == (2, 0, 0)


def test_splitting_constraints_various(rng):
    built = build_family(FamilySpec("mixed-general", 9, (4, 3)), RATIONALS)
    # parameters present: splittings need parameter-free forms, even when
    # handed the Jacobian of a specialization
    plain = specialized(built.x, dict.fromkeys(built.x.coeff_ring.names, 1))
    jac = restricted_jacobian(plain, line_param(built.line).components)
    with pytest.raises(ParameterPresent):
        normal_splitting_line(built.x, jac)


def test_singular_along_line_rejected_for_splitting():
    x = make_ci(RATIONALS, 3, (2,), ["Z1^2"])
    jac = chart_line_jacobian(x, LineChartPoint.standard(RATIONALS, 3))
    with pytest.raises(SingularAlongLine):
        normal_splitting_line(x, jac)


def through_a_chart_line(rng, field, n, degrees):
    """A random chart line over F_q and an X of the given degrees on it,
    or None when a form comes out zero. Each form lies in the ideal of a
    random nonempty subset of the line's linear forms Z_j - a_j S - b_j T,
    so small subsets leave X singular along the line."""
    ring = ambient_ring(field, n)
    a = tuple(rng.randrange(field.p) for _ in range(n - 1))
    b = tuple(rng.randrange(field.p) for _ in range(n - 1))
    s, t = ring.var("S"), ring.var("T")
    linears = [
        ring.var(f"Z{j + 1}") - s * ring.const(a[j]) - t * ring.const(b[j]) for j in range(n - 1)
    ]
    forms = tuple(
        _ideal_form(rng, ring, rng.sample(linears, rng.randint(1, n - 1)), d) for d in degrees
    )
    if any(f.is_zero for f in forms):
        return None
    return CompleteIntersection(CIType(n, degrees), forms), LineChartPoint(field, a, b)


def assert_count_decides_smoothness(x, point):
    """normal_splitting_line refuses with SingularAlongLine exactly when
    the maximal minors of the restricted Jacobian share a zero on L."""
    jac = chart_line_jacobian(x, point)
    smooth = smooth_along_components(x, jac)
    try:
        normal_splitting_line(x, jac)
    except SingularAlongLine:
        assert not smooth
    else:
        assert smooth
    return smooth


PIN_FIELDS = tuple(prime_field(q) for q in (2, 3, 5, 7))


@pytest.mark.parametrize("field", PIN_FIELDS, ids=str)
def test_section_count_decides_smoothness_as_the_minors_do(rng, field):
    """The normal splitting's one section count against the minors route,
    N from 3 to 5, r of 1 or 2, degrees 1 to 3; both verdicts occur."""
    verdicts = []
    for n in (3, 4, 5):
        for r in range(1, min(2, n - 2) + 1):
            for _ in range(4):
                drawn = through_a_chart_line(
                    rng, field, n, tuple(rng.randint(1, 3) for _ in range(r))
                )
                if drawn is not None:
                    verdicts.append(assert_count_decides_smoothness(*drawn))
    assert any(verdicts) and not all(verdicts)


# -- covers --------------------------------------------------------------------------


def test_precompose_standard_line_squares():
    point = LineChartPoint.standard(RATIONALS, 6)
    mu = line_param(point)
    r = mu.field
    mu2 = precompose(mu, (bform(r, 1, 0, 0), bform(r, 0, 0, 1)))
    assert [str(c) for c in mu2.components] == ["s^2", "t^2"] + ["0"] * 5
    assert mu2.degree == 2


def test_precompose_identity_cover():
    point = LineChartPoint(RATIONALS, (1, 2), (3, 4))
    mu = line_param(point)
    r = mu.field
    mu1 = precompose(mu, (bform(r, 1, 0), bform(r, 0, 1)))
    assert mu1 == mu


def test_precompose_rejects_basepointed_cover():
    mu = line_param(LineChartPoint.standard(RATIONALS, 3))
    r = mu.field
    with pytest.raises(BasePointedCover):
        precompose(mu, (bform(r, 1, 0, 0), bform(r, 0, 1, 0)))  # s^2, st share s = 0
    with pytest.raises(BasePointedCover):
        precompose(mu, (bform(r, 0, 0), bform(r, 0, 0)))  # the zero cover
    # a cover with a parameter, s + c1*t, is refused where the form is built
    c = ParamRing(RATIONALS, ("c1",))
    with pytest.raises(ParameterPresent):
        bform(r, 1, c.var("c1"))


def test_quintic_double_cover_breaks_convexity():
    x, mu = fermat_quintic_line()
    r = x.field
    mu2 = precompose(mu, (bform(r, 1, 0, 0), bform(r, 0, 0, 1)))
    h0, h1 = tangent_cohomology(x, mu2, 0)[-1]
    assert (h0, h1) == (5, 5)
    assert h1 != 0  # convexity obstruction realized


def test_precompose_doubles_splitting_counts():
    """Along a line with known splitting, the degree-2 cover doubles
    every entry; check through h^0/h^1 at twists -1 and 0."""
    x, mu = fermat_quintic_line()
    r = x.field
    mu2 = precompose(mu, (bform(r, 1, 0, 0), bform(r, 0, 0, 1)))
    # T_X restricted to the line splits as (2, -3); pullback is (4, -6)
    for m, (h0, h1) in zip((-1, 0), tangent_cohomology(x, mu2, 0)):
        expect_h0 = sum(max(0, a + m + 1) for a in (4, -6))
        assert h0 == expect_h0


# -- the degree gate ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,degrees,b,verdict,total",
    [
        (3, (5,), 1, "AllImmersionsNonFree", -1),
        (4, (3,), 1, "NotTriggered", 2),
        (6, (4,), 2, "NotTriggered", 6),
    ],
)
def test_degree_gate(n, degrees, b, verdict, total):
    rep = degree_nonfree_gate(CIType(n, degrees), b)
    assert rep.verdict == verdict
    assert rep.degree_sum == total


def test_degree_gate_rejects_degree_zero():
    with pytest.raises(ConstraintViolated):
        degree_nonfree_gate(CIType(3, (5,)), 0)


# -- two-route agreement -------------------------------------------------------------------


def test_two_route_freeness_agreement(rng):
    """rank M = |d|  <=>  h^1(T_X|_L(-1)) = 0  <=>  min splitting >= 0,
    on every chartable smooth-along line of random complete
    intersections over F_3 with N <= 4."""
    field = prime_field(3)
    shapes = [(3, (2,)), (4, (2,)), (4, (3,)), (4, (2, 2))]
    seen_lines = 0
    for n, degrees in shapes:
        for attempt in range(6):
            from conftest import ambient_ring

            ring = ambient_ring(field, n)
            forms = tuple(random_homogeneous(rng, ring, d, n_terms=8) for d in degrees)
            try:
                x = make_ci(field, n, degrees, [str(f) for f in forms])
            except Exception:
                continue
            for ln in enumerate_lines_fq(x):
                x2, point, _ = move_line_to_chart(x, ln)
                if not is_smooth_along_line(x2, point):
                    continue
                seen_lines += 1
                rank = rank_exact(nonfree_matrix(x2, at=point).matrix).rank
                free_by_rank = rank == x.ci_type.total_degree
                mu = line_param(point)
                _, h1 = tangent_cohomology(x2, mu, -1)[-1]
                free_by_h1 = h1 == 0
                normal = normal_splitting_line(x2, chart_line_jacobian(x2, point))
                free_by_split = normal.min_entry >= 0
                assert free_by_rank == free_by_h1 == free_by_split
    assert seen_lines >= 10

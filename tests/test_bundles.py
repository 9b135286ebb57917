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
    nonfree_matrix,
    restricted_jacobian,
    smooth_along_components,
)
from cilines.errors import (
    BasePointedCover,
    BudgetExceeded,
    ConstraintViolated,
    CurveNotOnX,
    InvariantViolated,
    ParameterPresent,
    SingularAlongCurve,
    SingularAlongLine,
    TwistTooNegative,
)
from cilines.cli import _tangent_pairs
from cilines.exactmatrix import ExactMatrix, rank_exact
from cilines.families import FamilySpec, build_family
from cilines.fields import RATIONALS, prime_field
from cilines.geometry import CIType, CompleteIntersection, Line, RationalCurve
from cilines.multipoly import BinaryForm
from cilines.params import ParamRing

from conftest import ambient_ring, random_homogeneous
from support import (
    form_from_scalars,
    is_smooth_along_line,
    line_param,
    move_line_to_chart,
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
    mu = line_param(Line.standard(RATIONALS, 3))
    assert tangent_cohomology(x, mu, -1) == ((2, 0),)
    assert tangent_cohomology(x, mu, 0)[-1] == (4, 0)  # T_X|_L = O(2) + O


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


def test_curve_of_the_wrong_length_rejected():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    mu = line_param(Line.standard(RATIONALS, 4))
    with pytest.raises(ConstraintViolated, match="components"):
        tangent_cohomology(x, mu, 0)


def test_tangent_cohomology_checks_the_euler_section(monkeypatch):
    """The component tuple of the curve is in the kernel of psi(0), and
    a Jacobian that breaks this is refused by a raised error that python
    -O keeps: along L = (s : t : 0 : 0) on S Z1 + T Z2 the S-column is
    0, and a Jacobian claiming s there has coprime minors but breaks the
    Euler relation."""
    import cilines.bundles as bundles

    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    mu = line_param(Line.standard(RATIONALS, 3))
    jac = restricted_jacobian(x, mu.components)
    assert jac[0][0].is_zero
    bad = [[bform(x.field, 1, 0)] + jac[0][1:]]
    monkeypatch.setattr(bundles, "restricted_jacobian", lambda x, comps: bad)
    with pytest.raises(InvariantViolated, match="Euler"):
        tangent_cohomology(x, mu, 0)


def test_singular_along_curve_rejected():
    x = make_ci(RATIONALS, 3, (2,), ["Z1^2"])
    mu = line_param(Line.standard(RATIONALS, 3))
    with pytest.raises(SingularAlongCurve):
        tangent_cohomology(x, mu, 0)


def test_chi_bookkeeping(rng):
    """h0 - h1 = b(N+1-|d|) + (N-r)(m+1) on every computed instance."""
    cases = []
    x1 = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    cases.append((x1, line_param(Line.standard(RATIONALS, 3))))
    xq, muq = fermat_quintic_line()
    cases.append((xq, muq))
    cases.append((xq, precompose(muq, (bform(xq.field, 1, 0, 0), bform(xq.field, 0, 0, 1)))))
    for x, mu in cases:
        t = x.ci_type
        for m, (h0, h1) in zip((-1, 0), tangent_cohomology(x, mu, 0)):
            chi = mu.degree * (t.ambient_dim + 1 - t.total_degree) + t.variety_dim * (m + 1)
            assert h0 - h1 == chi


def _splitting_or_refusal(x, m_h):
    try:
        return normal_splitting_line(x, m_h)
    except SingularAlongLine:
        return SingularAlongLine


def m_h_at(x, point):
    """M(h) evaluated at a chart line, as classify-line hands it to
    normal_splitting_line."""
    return nonfree_matrix(x, at=point).matrix


def composed_m_h(x, point):
    """M(h) at a chart line built without the membership system: the
    Z-partials of X composed with the line by restricted_jacobian, form
    i's partial by Z_j as row j, block i."""
    jac = restricted_jacobian(x, line_param(point).components)
    ring = x.coeff_ring
    return ExactMatrix.from_rows(
        ring,
        [[ring.const(c) for row in jac for c in row[2 + j].coeffs] for j in range(x.n - 1)],
    )


def test_normal_splitting_from_m_h_agrees_with_restriction(rng):
    """On every census line the normal splitting gives the same splitting
    type, or the same refusal, whether it is handed M(h) read off the
    membership system or the matrix of Z-partials composed with the
    line. Where X is singular along the line, tangent_cohomology, which
    decides smoothness by the minors of the composed Jacobian, refuses
    too."""
    singular = 0
    for x, point in census_chart_lines(rng):
        normal = _splitting_or_refusal(x, m_h_at(x, point))
        assert normal == _splitting_or_refusal(x, composed_m_h(x, point))
        if normal is SingularAlongLine:
            singular += 1
            with pytest.raises(SingularAlongCurve):
                tangent_cohomology(x, line_param(point), 0)
    assert singular >= 1


def test_every_twist_of_one_pass_matches_the_splitting_type(rng):
    """On every census line along which X is smooth, one pass of
    tangent_cohomology to twist 2 gives at each twist k the (h^0, h^1)
    that classify-line reads off the tangent splitting type twisted by
    k, and the pair that a pass stopping at k gives last."""
    smooth = 0
    for x, point in census_chart_lines(rng):
        try:
            normal = normal_splitting_line(x, m_h_at(x, point))
        except SingularAlongLine:
            continue
        smooth += 1
        tangent = tangent_splitting_from_normal(normal)
        mu = line_param(point)
        twists = tangent_cohomology(x, mu, 2)
        assert len(twists) == 4
        for k, pair in zip(range(-1, 3), twists):
            assert list(pair) == _tangent_pairs(tangent, k)
            assert tangent_cohomology(x, mu, k)[-1] == pair
    assert smooth >= 10


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


@pytest.mark.parametrize(
    "degrees, width, top, entries",
    [((1, 0), 3, 2, 36), ((3, 3), 1, 2, 20)],
    ids=["columns-past-rows", "rows-past-columns"],
)
def test_a_section_kernel_at_the_entry_budget_is_eliminated(
    monkeypatch, degrees, width, top, entries
):
    """MAX_SECTION_ENTRIES bounds columns * max(rows, columns): the grid,
    sum_i (deg_i + top) rows by top * width columns, and at least
    columns - rows kernel vectors of `columns` entries. At the bound the
    kernel is eliminated; one entry past it, it is refused at once."""
    import cilines.bundles as bundles

    field = prime_field(7)
    phi = [[bform(field, *range(1, d + 2))] * width for d in degrees]
    monkeypatch.setattr(bundles, "MAX_SECTION_ENTRIES", entries)
    assert_one_pass_matches_per_dom(phi, top)
    monkeypatch.setattr(bundles, "MAX_SECTION_ENTRIES", entries - 1)
    with pytest.raises(BudgetExceeded, match=f"holds {entries} entries"):
        _section_kernel_dims(phi, top)


# -- splitting types of lines ------------------------------------------------------------


def test_quadric_line_splittings():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    point = Line.standard(RATIONALS, 3)
    assert normal_splitting_line(x, m_h_at(x, point)).entries == (0,)
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
    point = Line.standard(RATIONALS, 3)
    s, t = bform(RATIONALS, 1, 0), bform(RATIONALS, 0, 1)
    m_h = m_h_at(x, point)
    assert bundles._section_kernel_dims([[s, t]], 2) == [0, 0, 1]  # N_{L/X} = O
    assert normal_splitting_line(x, m_h).entries == (0,)
    for dims, error, match in (
        ([0, 0, 0], InvariantViolated, "bookkeeping"),
        ([0, 1, 1], InvariantViolated, "bookkeeping"),
        ([0, 0, 2], SingularAlongLine, "singular"),
        ([0, 1, 3, 4], SingularAlongLine, "singular"),
    ):
        monkeypatch.setattr(bundles, "_section_kernel_dims", lambda phi, top, d=dims: d)
        with pytest.raises(error, match=match):
            normal_splitting_line(x, m_h)


def test_quintic_line_splittings():
    x, _ = fermat_quintic_line()
    lines = enumerate_lines_fq(x)
    ln = next(l for l in lines if l.rows == ((1, 0, 6, 0), (0, 1, 0, 6)))
    assert normal_splitting_line(x, m_h_at(x, ln)).entries == (-3,)
    assert tangent_splitting_line(x, ln).entries == (2, -3)


def test_quadrics_p7_standard_line_splitting():
    built = build_family(FamilySpec("quadrics-general", 7, (2, 2)), RATIONALS)
    st = normal_splitting_line(built.x, m_h_at(built.x, built.line))
    assert st.rank == 4 and st.degree == 2
    assert st.min_entry <= -1  # the pair sits in the non-free locus
    assert st.entries == (1, 1, 1, -1)


def test_cubic_threefold_free_line_splitting():
    # free line on a cubic threefold: [2, 0, 0] after the tangent merge
    x = make_ci(RATIONALS, 4, (3,), ["S^2*Z1 + T^2*Z2 + Z3^3 + S*T*Z3"])
    point = Line.standard(RATIONALS, 4)
    nf = nonfree_matrix(x, at=point)
    assert rank_exact(nf.matrix).rank == 3  # free
    assert normal_splitting_line(x, m_h_at(x, point)).entries == (0, 0)
    assert tangent_splitting_line(x, point).entries == (2, 0, 0)


def test_splitting_constraints_various(rng):
    built = build_family(FamilySpec("mixed-general", 9, (4, 3)), RATIONALS)
    # parameters present: splittings need parameter-free forms, even when
    # handed M(h) of a specialization
    plain = specialized(built.x, dict.fromkeys(built.x.coeff_ring.names, 1))
    with pytest.raises(ParameterPresent):
        normal_splitting_line(built.x, m_h_at(plain, built.line))


def test_normal_splitting_refuses_a_misshapen_or_parametric_m_h():
    """M(h) at a line on X is (N-1) x |d| with constant entries; a matrix
    of another shape is refused with ConstraintViolated, and one carrying
    a parameter, as M(h) of a symbolic X does, with ParameterPresent."""
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    point = Line.standard(RATIONALS, 3)
    m_h = m_h_at(x, point)
    assert normal_splitting_line(x, m_h).entries == (0,)
    for rows, cols in (([0], [0, 1]), ([0, 1, 1], [0, 1]), ([0, 1], [0])):
        bad = m_h.submatrix(rows, cols)
        with pytest.raises(ConstraintViolated):
            normal_splitting_line(x, bad)
    symbolic = make_ci(RATIONALS, 3, (2,), ["c*S*Z1 + T*Z2"], params=("c",))
    with pytest.raises(ParameterPresent):
        normal_splitting_line(x, m_h_at(symbolic, point))


def test_singular_along_line_rejected_for_splitting():
    x = make_ci(RATIONALS, 3, (2,), ["Z1^2"])
    with pytest.raises(SingularAlongLine):
        normal_splitting_line(x, m_h_at(x, Line.standard(RATIONALS, 3)))


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
    return CompleteIntersection(CIType(n, degrees), forms), Line.chart(field, a, b)


def assert_count_decides_smoothness(x, point):
    """normal_splitting_line refuses with SingularAlongLine exactly when
    the maximal minors of the restricted Jacobian share a zero on L."""
    smooth = smooth_along_components(x, restricted_jacobian(x, line_param(point).components))
    try:
        normal_splitting_line(x, m_h_at(x, point))
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
    point = Line.standard(RATIONALS, 6)
    mu = line_param(point)
    r = mu.field
    mu2 = precompose(mu, (bform(r, 1, 0, 0), bform(r, 0, 0, 1)))
    assert [str(c) for c in mu2.components] == ["s^2", "t^2"] + ["0"] * 5
    assert mu2.degree == 2


def test_precompose_identity_cover():
    point = Line.chart(RATIONALS, (1, 2), (3, 4))
    mu = line_param(point)
    r = mu.field
    mu1 = precompose(mu, (bform(r, 1, 0), bform(r, 0, 1)))
    assert mu1 == mu


def test_precompose_rejects_basepointed_cover():
    mu = line_param(Line.standard(RATIONALS, 3))
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
                normal = normal_splitting_line(x2, m_h_at(x2, point))
                free_by_split = normal.min_entry >= 0
                assert free_by_rank == free_by_h1 == free_by_split
    assert seen_lines >= 10

"""The one composition walk (multipoly._compose_terms) against the routes
it replaced: M(h) at a chart line by jets of the membership system, over
Q with parameters, and each partial derivative composed with a curve
term by term, over F_2, F_3 and F_7 at curve degrees 1 to 20. The images
of the coordinates are drawn zero, with one nonzero coefficient, or
general, and the forms carry Z^p terms, whose partial by Z dies in
characteristic p. The walk's rows also satisfy the Euler identity
sum_W C_W (dh/dW)|_C = d h|_C. M(h) at a census line read where it lies
is checked against the line moved into the standard chart, and a census
line at pivots (0, 1) against the chart line on its rows. The draws are
hypothesis's when it is installed, and a fixed-seed loop otherwise."""

import random

import pytest

from cilines.bundles import normal_splitting_line, precompose
from cilines.chart import enumerate_lines_fq, nonfree_matrix, restricted_jacobian
from cilines.errors import BasePointedCover, CurveNotOnX, SingularAlongLine
from cilines.fields import RATIONALS, prime_field
from cilines.geometry import CIType, CompleteIntersection, Line, restrict_along
from cilines.nonfree import expected_pair_report
from cilines.multipoly import BinaryForm

from conftest import ambient_ring, random_homogeneous, random_nonzero
from support import (
    line_param,
    move_line_to_chart,
    naive_compose_terms,
    nonfree_matrix_by_jets,
    restricted_jacobian_by_partials,
)
from test_chart import _route, draw_through_a_chart_point

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # a fixed-seed loop stands in
    given = None


def seeded(examples):
    """Run a test on `examples` hypothesis-drawn seeds, or on as many fixed
    ones when hypothesis is not installed."""

    def wrap(test):
        if given is not None:
            return settings(max_examples=examples, deadline=None)(given(st.integers(0, 2**32))(test))

        def loop():
            for seed in range(examples):
                test(seed)

        loop.__name__, loop.__doc__ = test.__name__, test.__doc__
        return loop

    return wrap


FIELDS = (prime_field(2), prime_field(3), prime_field(7))
CENSUS_FIELDS = FIELDS + (prime_field(5),)


def random_image(rng, field, b):
    """A degree-b binary form: zero, one nonzero coefficient, or general,
    a third of the time each."""
    kind = rng.randrange(3)
    coeffs = [0] * (b + 1)
    if kind == 1:
        coeffs[rng.randrange(b + 1)] = random_nonzero(field, rng)
    elif kind == 2:
        coeffs = [rng.randrange(field.p) for _ in range(b + 1)]
    return BinaryForm(field, b, tuple(coeffs))


def random_form_with_p_powers(rng, ring, d):
    """A random form of degree d, with a Z^p term when d >= p."""
    field, n = ring.coeffs.field, ring.n
    form = random_homogeneous(rng, ring, d, n_terms=rng.randint(1, 6))
    p = field.p
    if d >= p:
        z = ring.var(f"Z{rng.randrange(1, n - 1)}")
        rest = random_homogeneous(rng, ring, d - p, n_terms=1) if d > p else ring.one()
        form = form + z**p * rest * random_nonzero(field, rng)
    return form if not form.is_zero else ring.var("S") ** d


@seeded(30)
def test_m_h_at_a_line_with_parameters_matches_the_jets(seed):
    """Over Q with two parameters, nonfree_matrix (the walk with images s,
    t and a_j s + b_j t) gives the M(h), rank and refusal that jets of the
    membership system give."""
    rng = random.Random(seed)
    x, point = draw_through_a_chart_point(rng, RATIONALS, ("c1", "c2"), rng.random() < 0.2)
    assert _route(nonfree_matrix, x, point) == _route(nonfree_matrix_by_jets, x, point)


@seeded(60)
def test_the_walk_composes_each_partial_as_differentiate_then_compose(seed):
    """h|_C and every row (dh/dW)|_C of one walk (restrict_along with
    every coordinate as a row) equal the naive composition of h and of
    each partial, and sum_W C_W (dh/dW)|_C = d h|_C."""
    rng = random.Random(seed)
    field = rng.choice(FIELDS)
    n = rng.randint(3, 4)
    b = rng.randint(1, 20)
    d = rng.randint(1, min(field.p + 1, max(1, 40 // b)))
    ring = ambient_ring(field, n)
    form = random_form_with_p_powers(rng, ring, d)
    comps = [random_image(rng, field, b) for _ in range(n + 1)]
    h, partials = restrict_along(form, comps, range(n + 1))

    want = naive_compose_terms(field, form.field_terms(), [c.coeffs for c in comps], b * d)
    assert list(h.coeffs) == want
    x = CompleteIntersection(CIType(n, (d,)), (form,))
    assert partials == restricted_jacobian_by_partials(x, comps)[0]
    euler = sum((c * row for c, row in zip(comps, partials)), BinaryForm.zero(field, b * d))
    assert euler.coeffs == tuple(field.make(d * v) for v in h.coeffs)


@seeded(40)
def test_restricted_jacobian_matches_the_partials_along_a_cover(seed):
    """On forms in the ideal of the standard line, along the line
    precomposed with a cover of degree k (zero Z-images, and s, t images
    general or with one coefficient), restricted_jacobian equals the
    partials composed term by term. Off the line it refuses with
    CurveNotOnX."""
    rng = random.Random(seed)
    field = rng.choice(FIELDS)
    n = rng.randint(3, 5)
    ring = ambient_ring(field, n)
    degrees = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, n - 2)))
    forms = []
    for d in degrees:
        form = sum(
            (
                random_form_with_p_powers(rng, ring, d - 1) * ring.var(f"Z{j}")
                for j in range(1, n)
                if rng.random() < 0.6
            ),
            ring.zero(),
        )
        forms.append(form if not form.is_zero else ring.var("Z1") ** d)
    x = CompleteIntersection(CIType(n, degrees), tuple(forms))
    line = line_param(Line.standard(field, n))
    k = rng.randint(1, 20)
    while True:
        u, w = (random_image(rng, field, k) for _ in "uw")
        try:
            mu = precompose(line, (u, w))
            break
        except BasePointedCover:
            continue
    assert restricted_jacobian(x, mu.components) == restricted_jacobian_by_partials(x, mu.components)

    off = CompleteIntersection(CIType(n, degrees), (ring.var("S") ** degrees[0], *forms[1:]))
    with pytest.raises(CurveNotOnX):
        restricted_jacobian(off, mu.components)


def random_fq_line(rng, field, n):
    """A line of P^n over F_q as its reduced echelon rows, at a pivot pair
    drawn uniformly."""
    j1, j2 = sorted(rng.sample(range(n + 1), 2))
    rows = [[0] * (n + 1), [0] * (n + 1)]
    rows[0][j1] = rows[1][j2] = 1
    for c in range(j1 + 1, n + 1):
        rows[0][c] = 0 if c == j2 else rng.randrange(field.p)
    for c in range(j2 + 1, n + 1):
        rows[1][c] = rng.randrange(field.p)
    return Line(field, (tuple(rows[0]), tuple(rows[1])), (j1, j2))


def form_through(rng, ring, line, d):
    """A random form of degree d through the line: the linear forms
    W_l - row1[l] W_j1 - row2[l] W_j2, l off the pivots, times random
    forms of degree d - 1. One time in five a random form is added, which
    takes X off the line."""
    w = [ring.var(v) for v in ring.variables]
    (j1, j2), (row1, row2) = line.pivots, line.rows
    form = ring.zero()
    for l in range(ring.n):
        if l not in line.pivots and (form.is_zero or rng.random() < 0.5):
            ell = w[l] - w[j1] * row1[l] - w[j2] * row2[l]
            form = form + ell * random_homogeneous(rng, ring, d - 1, n_terms=6)
    if rng.random() < 0.2:
        form = form + random_homogeneous(rng, ring, d, n_terms=2)
    return form if not form.is_zero else w[j1] ** d


def _splitting(x, m_h):
    try:
        return normal_splitting_line(x, m_h).entries
    except SingularAlongLine:
        return "SingularAlongLine"


@seeded(40)
def test_m_h_at_a_census_line_matches_the_line_moved_into_the_chart(seed):
    """On every F_q-line of a random X over F_2, F_3, F_5 or F_7, a
    surface with r = 1 or 2 through a line at a random pivot pair,
    nonfree_matrix at the census line as it lies gives the M(h) and
    RankResult that the reference route gives: X and the line moved into
    the standard chart by a permutation of the coordinates. The normal
    splitting types agree, or X is singular along the line for both."""
    rng = random.Random(seed)
    field = rng.choice(CENSUS_FIELDS)
    r = rng.randint(1, 2)
    n = r + 2
    ring = ambient_ring(field, n)
    planted = random_fq_line(rng, field, n)
    degrees = tuple(rng.randint(1, 3) for _ in range(r))
    x = CompleteIntersection(
        CIType(n, degrees), tuple(form_through(rng, ring, planted, d) for d in degrees)
    )
    for ln in enumerate_lines_fq(x):
        ours = nonfree_matrix(x, at=ln)
        x2, point, _ = move_line_to_chart(x, ln)
        ref = nonfree_matrix(x2, at=point)
        assert (ours.matrix, ours.rank) == (ref.matrix, ref.rank), ln
        assert _splitting(x, ours.matrix) == _splitting(x2, ref.matrix), ln


@seeded(30)
def test_a_census_line_at_pivots_s_and_t_is_its_chart_line(seed):
    """On a random X over F_3, F_5 or F_7 through a random chart line,
    r = 1 or 2 and N = r + 2 or r + 3, the planted line is a census line
    exactly when it lies on X, and each census line at pivots (0, 1), of
    up to six drawn, is the line Line.chart builds from its rows' a and b,
    and expected_pair_report gives the same report on both."""
    rng = random.Random(seed)
    field = rng.choice((prime_field(3), prime_field(5), prime_field(7)))
    r = rng.randint(1, 2)
    n = r + rng.randint(2, 3)
    ring = ambient_ring(field, n)
    a, b = ([rng.randrange(field.p) for _ in range(n - 1)] for _ in "ab")
    planted = Line.chart(field, a, b)
    degrees = tuple(rng.randint(1, 3) for _ in range(r))
    x = CompleteIntersection(
        CIType(n, degrees), tuple(form_through(rng, ring, planted, d) for d in degrees)
    )
    charted = [ln for ln in enumerate_lines_fq(x) if ln.pivots == (0, 1)]
    on_x = all(restrict_along(f, planted.components()).is_zero for f in x.forms)
    assert (planted in charted) == on_x  # a form may have been taken off it
    for ln in rng.sample(charted, min(len(charted), 6)):  # a linear X holds hundreds
        chart = Line.chart(field, ln.rows[0][2:], ln.rows[1][2:])
        assert ln == chart
        assert expected_pair_report(x, ln) == expected_pair_report(x, chart), ln

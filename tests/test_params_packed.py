"""The packed scalar kernel of params against the tuple-keyed reference
(params_reference.py, test-only), on seeded random operands over Q, F_2,
F_3 and F_7: rings of 0 to 3 parameters and rings as wide as a chart
ring's flat ring, and degrees around the points where a key takes wider
fields (127/128, 255/256, 32767/32768) and far beyond them (c1^99999999).
Products, sums, exact division, sum_of_products, the `terms` view,
printing, equality and hashing must agree, and so must every entry that
exactmatrix._bareiss works on both scalar classes. A hypothesis property
test does the same on drawn operands and skips when hypothesis is not
installed."""

from fractions import Fraction

import pytest

from cilines.errors import InexactDivision
from cilines.exactmatrix import ExactMatrix, _bareiss
from cilines.fields import RATIONALS, prime_field
from cilines.multipoly import PolyRing
from cilines.params import ParamRing, sum_of_products

import params_reference as ref

FIELDS = (RATIONALS, prime_field(2), prime_field(3), prime_field(7))
CHART_NAMES = ("c1",) + tuple(f"a{j}" for j in range(1, 16)) + tuple(f"b{j}" for j in range(1, 16))
NAMES = ((), ("c1",), ("c1", "c2"), ("c1", "c2", "c3"), CHART_NAMES)
#: total degrees around the widths' limits, and far past them
EDGES = (127, 128, 255, 256, 32767, 32768, 99999999)


def rings():
    for field in FIELDS:
        for names in NAMES:
            yield ParamRing(field, names)


def typed(terms):
    """Terms with the class of each coefficient, since an int and the
    Fraction of the same value compare equal."""
    return tuple((e, c, c.__class__) for e, c in terms)


def coefficient(rng, field):
    if field.p is None and rng.random() < 0.3:
        return field.make(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return field.make(rng.randint(-9, 9))


def random_operand(rng, ring, n_terms, degree=3, edge=None):
    """Up to n_terms terms of degree up to `degree`; with an edge, each
    term of degree edge - 2 to edge + 1 on one or two slots."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * ring.k
        if ring.k and edge is not None:
            total = max(0, edge + rng.randint(-2, 1))
            i = rng.randrange(ring.k)
            split = rng.randint(0, min(total, 3))
            exps[i] += total - split
            exps[rng.randrange(ring.k)] += split
        elif ring.k:
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(ring.k)] += 1
        terms[tuple(exps)] = coefficient(rng, ring.field)
    return ring.from_terms(terms)


def assert_same(got, want):
    """A packed scalar and a reference one hold the same value, the same
    way: terms, coefficient classes, text, and equal to, with the hash of,
    that value built from its terms."""
    assert typed(got.terms) == typed(want.terms)
    assert str(got) == str(want)
    again = got.ring.from_terms(dict(want.terms))
    assert got == again and hash(got) == hash(again)
    assert got.is_zero == (not want.terms)


def outcome(f):
    try:
        return f()
    except InexactDivision:
        return InexactDivision


def check_operands(ring, a, b):
    R = ref.TupleRing(ring)
    ra, rb = R.of(a), R.of(b)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(b - a, rb - ra)
    assert_same(-a, -ra)
    assert_same(a * b, ra * rb)
    assert_same(b * a, rb * ra)
    assert_same(a - a, R.zero())
    if not b.is_zero:
        product = a * b
        assert_same(product.exact_div(b), R.of(product).exact_div(rb))
        assert product.exact_div(b) == a
        if max((sum(e) for e, _ in (a + b).terms), default=0) > 8:
            return  # a division that leaves a remainder may run through every monomial first
        got, want = outcome(lambda: a.exact_div(b)), outcome(lambda: ra.exact_div(rb))
        if want is InexactDivision:
            assert got is InexactDivision
        else:
            assert_same(got, want)
        shifted = product + ring.one()
        got, want = outcome(lambda: shifted.exact_div(b)), outcome(lambda: R.of(shifted).exact_div(rb))
        if want is InexactDivision:
            assert got is InexactDivision
        else:
            assert_same(got, want)


def check_sum_of_products(ring, pairs, signs):
    R = ref.TupleRing(ring)
    want = ref.sum_of_products(R, [(R.of(x), R.of(y)) for x, y in pairs], signs)
    assert_same(sum_of_products(ring, pairs, signs), want)


def test_kernel_matches_the_tuple_keyed_reference(rng):
    for ring in rings():
        for _ in range(12):
            a = random_operand(rng, ring, rng.randint(0, 6))
            b = random_operand(rng, ring, rng.randint(0, 6))
            check_operands(ring, a, b)
            check_operands(ring, a, random_operand(rng, ring, 1))
            pairs = [
                (random_operand(rng, ring, rng.randint(0, 4)), random_operand(rng, ring, rng.randint(0, 4)))
                for _ in range(rng.randint(0, 4))
            ]
            check_sum_of_products(ring, pairs, [rng.random() < 0.4 for _ in pairs])


@pytest.mark.parametrize("edge", EDGES)
def test_kernel_matches_the_reference_where_keys_widen(rng, edge):
    for ring in rings():
        if not ring.k:
            continue
        for _ in range(3):
            a = random_operand(rng, ring, rng.randint(1, 4), edge=edge // 2)
            b = random_operand(rng, ring, rng.randint(1, 4), edge=edge - edge // 2)
            near = random_operand(rng, ring, rng.randint(1, 3), edge=edge)
            check_operands(ring, a, b)
            check_operands(ring, near, random_operand(rng, ring, 2))
            check_operands(ring, near, b)
            check_sum_of_products(ring, [(a, b), (near, ring.one()), (b, a)], [False, True, False])


def test_a_value_is_equal_and_hashes_alike_whatever_width_it_was_reached_at():
    for field in FIELDS:
        ring = ParamRing(field, ("c1", "c2", "c3"))
        c1, c2, c3 = (ring.var(n) for n in ring.names)
        for wide in (c1**200, c1**40000, c1**99999999 * c3):
            narrow = c2 * c3 + 1
            for value in ((narrow + wide) - wide, (wide * narrow).exact_div(wide), -(wide - narrow - wide)):
                assert value == narrow and hash(value) == hash(narrow)
                assert value.terms == narrow.terms and str(value) == str(narrow)
                assert value.width == narrow.width == 1
        top = c1**127
        assert top.width == 1 and (top * c2).width == 2 and (top * c2).exact_div(c2) == top
        assert (top * c2).exact_div(c2).width == 1
        for e in EDGES:  # a quotient key with a guard bit set: a negative exponent
            with pytest.raises(InexactDivision):
                (c2**e).exact_div(c1 * c2)
            with pytest.raises(InexactDivision):
                (c1**e * c3).exact_div(c1 * c2)
            assert (c1**e * c3).exact_div(c1 * c3) == c1 ** (e - 1)
        assert (c1**99999999).terms == (((99999999, 0, 0), 1),)
        assert (c1**99999999 * c1**99999999).terms == (((199999998, 0, 0), 1),)


def test_exponent_views_are_tuples_at_every_width():
    for names in ((), ("c1",)):
        ring = PolyRing(ParamRing(prime_field(7), names), ("x", "y"))
        x, y = ring.var("x"), ring.var("y")
        for f, width in ((x * y + 1, 1), (x**200 * y + y**201, 2)):
            assert f.flat.width == width
            views = [e for e, _ in f.terms] + [e for e, _ in f.flat.terms] + [e for e, _ in f.field_terms()]
            views += [e for c in f.split(["x"]).values() for e, _ in c.terms]
            assert views and all(type(e) is tuple for e in views)
        assert f.field_terms() == [((200, 1), 1), ((0, 201), 1)]


def test_bareiss_works_the_same_grid_over_both_kernels(rng):
    checked = 0
    for field in FIELDS:
        for names in (("c1",), ("c1", "c2", "c3")):
            ring = ParamRing(field, names)
            for trial in range(8):
                rows, cols = rng.randint(2, 4), rng.randint(2, 5)
                edge = 40 if trial % 4 == 3 else None  # products of pivots pass degree 128
                grid = [
                    [
                        ring.zero() if rng.random() < 0.25
                        else random_operand(rng, ring, rng.randint(1, 3), edge=edge)
                        for _ in range(cols)
                    ]
                    for _ in range(rows)
                ]
                m = ExactMatrix.from_rows(ring, grid)
                rank, work, row_ids, col_ids = _bareiss(m)
                want_rank, want, want_rows, want_cols = _bareiss(ref.TupleMatrix(m))
                assert (rank, row_ids, col_ids) == (want_rank, want_rows, want_cols)
                for got_row, want_row in zip(work, want):
                    for got, exp in zip(got_row, want_row):
                        assert typed(got.terms) == typed(exp.terms)
                checked += rank
    assert checked > 100


# -- drawn operands ----------------------------------------------------------------


def test_kernel_matches_the_reference_on_drawn_operands():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def operands(draw):
        field = draw(st.sampled_from(FIELDS))
        ring = ParamRing(field, draw(st.sampled_from(NAMES)))
        if field.p is None:
            coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)
        else:
            coeff = st.integers(0, field.p - 1)
        exponent = st.one_of(st.integers(0, 3), st.sampled_from((63, 64, 126, 127, 128, 255, 256)))
        exps = st.lists(exponent, min_size=ring.k, max_size=ring.k).map(tuple)
        factor = st.dictionaries(exps, coeff.map(field.make), max_size=5).map(ring.from_terms)
        pairs = draw(st.lists(st.tuples(factor, factor), min_size=1, max_size=4))
        signs = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return ring, pairs, signs

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(operands())
    def check(case):
        ring, pairs, signs = case
        for a, b in pairs:
            check_operands(ring, a, b)
        check_sum_of_products(ring, pairs, signs)

    check()

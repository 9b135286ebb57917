"""Property tests of MultiPoly evaluation, of the ParamScalar and
MultiPoly products and of polytext against test-only references; they
skip when hypothesis is not installed."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cilines.fields import RATIONALS, prime_field
from cilines.multipoly import PolyRing
from cilines.params import ParamRing
from cilines.polytext import parse_poly

from conftest import naive_evaluate
from support import evaluate, gradient_at
from test_multipoly import naive_poly_mul, typed_poly
from test_params import naive_mul, typed
from test_polytext import ALPHABET, FIELDS as PARSE_FIELDS, LONG_EXPONENT, assert_agree

VARIABLES = ("a1", "a2", "b1", "b2")
FIELDS = (RATIONALS, prime_field(2), prime_field(3), prime_field(7))


@st.composite
def poly_and_point(draw, coeff_terms=3):
    field = draw(st.sampled_from(FIELDS))
    coeffs = ParamRing(field, draw(st.sampled_from(((), ("c1",), ("c1", "c2")))))
    ring = PolyRing(coeffs, VARIABLES)
    exps = st.tuples(*(st.integers(0, 4) for _ in VARIABLES))
    pexps = st.tuples(*(st.integers(0, 2) for _ in coeffs.names))
    small = st.integers(-6, 6)
    terms = draw(
        st.dictionaries(
            exps,
            st.dictionaries(pexps, small.map(field.make), min_size=1, max_size=coeff_terms),
            max_size=6,
        )
    )
    p = ring.from_terms({e: coeffs.from_terms(c) for e, c in terms.items()})
    if field.p is None:
        value = st.fractions(min_value=-5, max_value=5, max_denominator=5)
    else:
        value = st.integers(0, field.p - 1)
    point = draw(st.fixed_dictionaries({v: value for v in VARIABLES}))
    names = draw(st.lists(st.sampled_from(VARIABLES), max_size=6))
    return p, point, names


@settings(max_examples=150, deadline=None)
@given(poly_and_point())
def test_evaluate_agrees_with_the_naive_reference(case):
    p, point, _ = case
    assert evaluate(p, point) == naive_evaluate(p, point)


@settings(max_examples=150, deadline=None)
@given(poly_and_point())
def test_gradient_at_agrees_with_differentiating_first(case):
    p, point, names = case
    assert gradient_at(p, names, point) == [naive_evaluate(p.differentiate(v), point) for v in names]


PRODUCT_NAMES = (("x1",), ("x1", "x2", "x3"), tuple(f"x{i}" for i in range(1, 13)))


def coefficients(field):
    if field.p is None:
        values = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    else:
        values = st.integers(0, field.p - 1)
    return values.map(field.make)


def scalars(coeffs, max_terms=12):
    exps = st.tuples(*(st.integers(0, 5) | st.just(99999999) for _ in coeffs.names))
    terms = st.dictionaries(exps, coefficients(coeffs.field), max_size=max_terms)
    return terms.map(coeffs.from_terms)


@st.composite
def scalar_pair(draw):
    coeffs = ParamRing(draw(st.sampled_from(FIELDS)), draw(st.sampled_from(PRODUCT_NAMES)))
    return draw(scalars(coeffs)), draw(scalars(coeffs))


@st.composite
def poly_pair(draw):
    coeffs = ParamRing(draw(st.sampled_from(FIELDS)), ("c1",))
    ring = PolyRing(coeffs, draw(st.sampled_from(PRODUCT_NAMES)))
    exps = st.tuples(*(st.integers(0, 5) | st.just(99999999) for _ in ring.variables))
    polys = st.dictionaries(exps, scalars(coeffs, 3), max_size=8).map(ring.from_terms)
    return draw(polys), draw(polys)


@settings(max_examples=200, deadline=None)
@given(scalar_pair())
def test_scalar_product_agrees_with_the_naive_reference(pair):
    a, b = pair
    assert typed((a * b).terms) == typed(naive_mul(a, b))


@settings(max_examples=150, deadline=None)
@given(poly_pair())
def test_poly_product_agrees_with_the_naive_reference(pair):
    p, q = pair
    assert typed_poly((p * q).terms) == typed_poly(naive_poly_mul(p, q))


@settings(max_examples=150, deadline=None)
@given(poly_and_point(coeff_terms=1))
def test_parse_poly_reads_back_what_str_prints(case):
    # a coefficient of several terms prints in parentheses, which the
    # grammar lacks, so each coefficient here is one term
    p, _, _ = case
    assert parse_poly(str(p), p.ring) == p


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=12).map("".join), st.sampled_from(PARSE_FIELDS))
def test_parse_poly_agrees_with_the_arithmetic_parser(text, field):
    assume(not LONG_EXPONENT.search(text))
    assert_agree(text, field)

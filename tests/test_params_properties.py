"""Property test of params.sum_of_products against sums of products and a
naive reference; it skips when hypothesis is not installed."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from cilines.params import ParamRing

from test_params import SUM_FIELDS, assert_sum_of_products_is_naive


@st.composite
def pairs_and_signs(draw):
    field = draw(st.sampled_from(SUM_FIELDS))
    ring = ParamRing(field, draw(st.sampled_from(((), ("c1",), ("c1", "c2", "c3")))))
    if field.p is None:
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    else:
        coeff = st.integers(0, field.p - 1)
    # the empty dict is the zero factor; degrees differ from pair to pair
    exps = st.tuples(*(st.integers(0, 6) for _ in ring.names))
    factor = st.dictionaries(exps, coeff.map(field.make), max_size=6).map(ring.from_terms)
    pairs = draw(st.lists(st.tuples(factor, factor), max_size=5))
    signs = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return ring, pairs, signs


@settings(max_examples=150, deadline=None)
@given(pairs_and_signs())
def test_sum_of_products_matches_sums_of_products(case):
    ring, pairs, signs = case
    assert_sum_of_products_is_naive(ring, pairs, signs)
    # each product once more with the other sign: the total cancels
    flipped = [not neg for neg in signs]
    assert assert_sum_of_products_is_naive(ring, pairs + pairs, signs + flipped).is_zero

"""Property twin of test_elimination: the one Bareiss driver
against the dense reference loops on hypothesis-drawn sparse matrices;
it skips when hypothesis is not installed."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from test_elimination import RINGS, assert_matches_reference, sparse_matrix


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(RINGS),
    st.integers(1, 8),
    st.integers(1, 10),
    st.floats(0.1, 0.6),
    st.integers(0, 2**32),
)
def test_sparse_step_agrees_with_the_dense_loops(ring, rows, cols, density, seed):
    m = sparse_matrix(random.Random(seed), ring, rows, cols, density)
    assert_matches_reference(m)

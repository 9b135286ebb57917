"""Property twin of the one-pass section kernels of test_bundles: every
dimension read from one elimination against the per-dom reference, on
hypothesis-drawn grids; it skips when hypothesis is not installed."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from test_bundles import SECTION_FIELDS, assert_one_pass_matches_per_dom, random_grid


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SECTION_FIELDS),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 5),
    st.integers(1, 7),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32),
)
def test_one_pass_section_kernels_match_the_per_dom_reference(
    field, rows, cols, max_deg, top, zeros, seed
):
    phi = random_grid(random.Random(seed), field, rows, cols, max_deg, zeros, zeros)
    assert_one_pass_matches_per_dom(phi, top)

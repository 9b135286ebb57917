"""Property twins of test_bundles: every dimension read from one
elimination against the per-dom reference, on hypothesis-drawn grids,
and the normal splitting's smoothness verdict against the minors on
hypothesis-drawn chart lines; they skip when hypothesis is not
installed."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from test_bundles import (
    PIN_FIELDS,
    SECTION_FIELDS,
    assert_count_decides_smoothness,
    assert_one_pass_matches_per_dom,
    random_grid,
    through_a_chart_line,
)


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


@settings(max_examples=40, deadline=2000)
@given(
    st.sampled_from(PIN_FIELDS),
    st.integers(3, 5),
    st.lists(st.integers(1, 3), min_size=1, max_size=2),
    st.integers(0, 2**32),
)
def test_section_count_decides_smoothness_as_the_minors_do(field, n, degrees, seed):
    drawn = through_a_chart_line(random.Random(seed), field, n, tuple(degrees[: n - 2]))
    if drawn is not None:
        assert_count_decides_smoothness(*drawn)

"""The Bareiss elimination of exactmatrix, which skips vanishing products
and leaves a row whose head is zero untouched until it is reduced or
becomes the pivot row, against the dense loops it replaced
(elimination_reference.py, test-only), on seeded random sparse matrices:
ranks, certificates, determinants, and the lex-first pivot rows and
columns that the local equations print; and det/rank against sympy on
integer matrices."""

import random

import pytest

from cilines.exactmatrix import ExactMatrix, det, rank_exact
from cilines.fields import RATIONALS, prime_field
from cilines.params import ParamRing

import elimination_reference as reference
from conftest import random_nonzero

FIELDS = (RATIONALS, prime_field(2), prime_field(3))
RINGS = tuple(ParamRing(f, names) for f in FIELDS for names in ((), ("c1", "c2")))


def sparse_entry(rng, ring, density):
    """Zero with probability 1 - density; else a small nonzero constant,
    or over a parameter ring a sum of up to two terms of degree <= 1."""
    if rng.random() >= density:
        return ring.zero()
    if not ring.k or rng.random() < 0.4:
        return ring.const(random_nonzero(ring.field, rng))
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = [0] * ring.k
        if rng.random() < 0.7:
            exps[rng.randrange(ring.k)] = 1
        terms[tuple(exps)] = random_nonzero(ring.field, rng)
    return ring.from_terms(terms)


def sparse_matrix(rng, ring, rows, cols, density):
    """A random sparse matrix; sometimes a row is made the sum of two
    earlier rows, so that ranks drop over every field."""
    grid = [[sparse_entry(rng, ring, density) for _ in range(cols)] for _ in range(rows)]
    for i in range(2, rows):
        if rng.random() < 0.25:
            j, k = rng.sample(range(i), 2)
            grid[i] = [a + b for a, b in zip(grid[j], grid[k])]
    return ExactMatrix.from_rows(ring, grid)


def assert_matches_reference(m):
    res = rank_exact(m)
    assert res == reference.rank_exact(m)
    assert res.pivot_rows == reference.lex_first_basis(m)
    assert rank_exact(m.transpose()).pivot_rows == reference.lex_first_basis(m.transpose())
    # the pivot of the local equations: lex-first columns of the pivot rows
    # and their minor, from one elimination of the transposed block
    block = m.submatrix(res.pivot_rows, range(m.cols)).transpose()
    pivot = rank_exact(block)
    assert pivot.pivot_rows == reference.lex_first_basis(block)
    assert pivot.certificate == det(m.submatrix(res.pivot_rows, pivot.pivot_rows))
    if m.rows == m.cols:
        assert det(m) == reference.det(m)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_sparse_step_agrees_with_the_dense_loops(ring):
    rng = random.Random(f"elimination {ring}")
    for _ in range(40):
        rows = rng.randint(1, 8)
        cols = rows if rng.random() < 0.4 else rng.randint(1, 10)
        assert_matches_reference(sparse_matrix(rng, ring, rows, cols, rng.uniform(0.1, 0.6)))
    # shaped like the family Jacobians: a pivot row is often brought up
    # from an older step, and a row is often reduced after skipping several
    for _ in range(6):
        rows, cols = rng.randint(10, 14), rng.randint(16, 24)
        assert_matches_reference(sparse_matrix(rng, ring, rows, cols, rng.uniform(0.05, 0.15)))


def test_det_and_rank_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    ring = ParamRing(RATIONALS, ())
    for _ in range(60):
        n = rng.randint(1, 7)
        cols = n if rng.random() < 0.5 else rng.randint(1, 9)
        density = rng.uniform(0.1, 0.6)
        grid = [
            [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(n)
        ]
        m = ExactMatrix.from_rows(ring, [[ring.const(v) for v in row] for row in grid])
        oracle = sympy.Matrix(grid)
        assert rank_exact(m).rank == oracle.rank()
        if n == cols:
            assert det(m) == ring.const(int(oracle.det()))

import itertools
from fractions import Fraction

import pytest

from cilines.errors import ParameterPresent, RingMismatch
from cilines.exactmatrix import ExactMatrix, _bareiss, _cheapest, _perm_sign, det, kernel_basis, rank_exact
from cilines.fields import RATIONALS, prime_field
from cilines.params import ParamRing, ParamScalar

import elimination_reference as reference
from conftest import random_nonzero, random_scalar
from support import evaluate, identity


def matrix_of_ints(ring, rows):
    return ExactMatrix.from_rows(
        ring, [[ring.const(v) for v in row] for row in rows]
    )


def cofactor_det(ring, grid):
    """Independent determinant for the certificate cross-check."""
    n = len(grid)
    if n == 0:
        return ring.one()
    acc = ring.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = ring.one()
        for i in range(n):
            term = term * grid[i][perm[i]]
        acc = acc + (term if sign > 0 else -term)
    return acc


def gaussian_rank_oracle(field, rows):
    """Plain fraction Gaussian elimination, independent of the library."""
    grid = [list(r) for r in rows]
    if not grid:
        return 0
    m, n = len(grid), len(grid[0])
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if not field.is_zero(grid[i][col])), None)
        if piv is None:
            continue
        grid[rank], grid[piv] = grid[piv], grid[rank]
        inv = field.inv(grid[rank][col])
        grid[rank] = [field.mul(x, inv) for x in grid[rank]]
        for i in range(m):
            if i != rank and not field.is_zero(grid[i][col]):
                f = grid[i][col]
                grid[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(grid[i], grid[rank])]
        rank += 1
    return rank


def test_identity_over_f5():
    ring = ParamRing(prime_field(5), ())
    res = rank_exact(identity(ring, 3))
    assert (res.rank, res.certificate) == (3, ring.one())


def test_2x2_with_parameters():
    ring = ParamRing(RATIONALS, ("c1", "c2"))
    c1, c2 = ring.var("c1"), ring.var("c2")
    m = ExactMatrix.from_rows(ring, [[c1, ring.const(-1)], [c2, ring.zero()]])
    res = rank_exact(m)
    assert res.rank == 2
    assert res.certificate in (c2, -c2)  # the 2x2 determinant, up to sign


def test_rank3_of_the_4_6_matrix_at_origin():
    # rows (c1,-1,0,0), (c2,0,-1,0), (c3,0,0,-1), 0, 0
    ring = ParamRing(RATIONALS, ("c1", "c2", "c3"))
    c = [ring.var(f"c{j}") for j in (1, 2, 3)]
    z, o = ring.zero(), ring.const(-1)
    m = ExactMatrix.from_rows(
        ring,
        [
            [c[0], o, z, z],
            [c[1], z, o, z],
            [c[2], z, z, o],
            [z, z, z, z],
            [z, z, z, z],
        ],
    )
    assert rank_exact(m).rank == 3


def test_entry_ring_is_checked_by_value():
    ring = ParamRing(RATIONALS, ("c1",))
    twin = ParamRing(RATIONALS, ("c1",))  # equal, but another object
    assert twin is not ring
    m = ExactMatrix.from_rows(ring, [[ring.var("c1"), twin.one()]])
    assert m.entry(0, 1) == ring.one()
    with pytest.raises(RingMismatch):
        ExactMatrix.from_rows(ring, [[ring.var("c1"), ParamRing(RATIONALS, ("c2",)).one()]])


def test_a_row_with_a_zero_head_is_left_alone(monkeypatch):
    """On a diagonal matrix no row is ever reduced, so the only divisions
    are those bringing a pivot row up to date: at most n - 1 of them,
    where rescaling every row at every step would make n(n-1)/2."""
    n = 6
    ring = ParamRing(RATIONALS, tuple(f"c{i}" for i in range(n)))
    c = [ring.var(name) for name in ring.names]
    m = ExactMatrix.from_rows(
        ring, [[c[i] if i == j else ring.zero() for j in range(n)] for i in range(n)]
    )
    calls = []
    exact_div = ParamScalar.exact_div

    def counted(self, divisor):
        calls.append(divisor)
        return exact_div(self, divisor)

    monkeypatch.setattr(ParamScalar, "exact_div", counted)
    res = rank_exact(m)
    assert len(calls) <= n - 1
    product = ring.one()
    for x in c:
        product = product * x
    assert (res.rank, res.certificate) == (n, product)
    assert det(m) == product


def test_empty_matrix():
    ring = ParamRing(RATIONALS, ())
    res = rank_exact(ExactMatrix(ring, 0, 0, ()))
    assert (res.rank, res.certificate) == (0, ring.one())


def test_certificate_is_the_pivot_minor(rng):
    ring = ParamRing(RATIONALS, ("c1", "c2"))
    for _ in range(25):
        rows = [[random_scalar(rng, ring, 1, 2) for _ in range(4)] for _ in range(3)]
        m = ExactMatrix.from_rows(ring, rows)
        res = rank_exact(m)
        if res.rank == 0:
            continue
        sub = m.submatrix(res.pivot_rows, res.pivot_cols)
        expect = cofactor_det(ring, sub.to_lists())
        assert res.certificate == expect
        assert not res.certificate.is_zero


def test_det_matches_cofactor(rng):
    ring = ParamRing(prime_field(7), ("c1",))
    for _ in range(25):
        rows = [[random_scalar(rng, ring, 1, 2) for _ in range(3)] for _ in range(3)]
        m = ExactMatrix.from_rows(ring, rows)
        assert det(m) == cofactor_det(ring, rows)


def _mixed_entry(rng, ring, costly: bool):
    """Zero, a constant, a one-term parameter entry or one of two terms or
    more; a costly entry is zero or of two terms or more. Without
    parameters, every nonzero entry is a constant."""
    kind = rng.choice(("zero", "multi") if costly else ("zero", "const", "one", "multi"))
    if kind == "zero":
        return ring.zero()
    if kind == "const" or not ring.k:
        return ring.const(random_nonzero(ring.field, rng))
    c = [ring.var(name) for name in ring.names]
    x = ring.const(random_nonzero(ring.field, rng)) * rng.choice(c) ** rng.randint(1, 3)
    if kind == "multi":
        x = x + ring.const(random_nonzero(ring.field, rng))
        if rng.random() < 0.5:
            x = x * (rng.choice(c) + 1)
    return x


def test_det_by_the_cheapest_pivot_matches_both_oracles(rng):
    """det pivots on the entry with the fewest terms, then the lowest
    degree, then the first in row-major order. With parameters, row 0 and
    column 0 hold only zeros and entries of two terms or more, and a
    constant is planted further in, so the first pivot swaps both a row
    and a column; the last row of every third grid is a combination of
    the others, so its determinant is zero."""
    signs, swapped, singular = set(), 0, 0
    for field in (RATIONALS, prime_field(2), prime_field(7)):
        for names in ((), ("c1",), ("c1", "c2")):
            ring = ParamRing(field, names)
            for trial in range(12):
                n = rng.randint(2, 4)
                grid = [[_mixed_entry(rng, ring, 0 in (i, j)) for j in range(n)] for i in range(n)]
                if ring.k:
                    grid[rng.randint(1, n - 1)][rng.randint(1, n - 1)] = ring.const(random_nonzero(field, rng))
                short = trial % 3 == 2
                if short:
                    a, b = (random_scalar(rng, ring, 1, 2) for _ in range(2))
                    grid[-1] = [a * x + b * y for x, y in zip(grid[0], grid[-2])]
                m = ExactMatrix.from_rows(ring, grid)
                want = cofactor_det(ring, grid)
                assert det(m) == reference.det(m) == want
                rank, _, row_ids, col_ids = _bareiss(m, _cheapest)
                if short:
                    assert want.is_zero and rank < n
                    singular += 1
                elif ring.k:
                    assert row_ids[0] != 0 and col_ids[0] != 0
                    swapped += 1
                if rank == n:
                    signs.add(_perm_sign(row_ids) * _perm_sign(col_ids))
    assert signs == {1, -1} and (swapped, singular) == (48, 36)


def test_the_cheapest_pivot_ties_on_degree_then_row_major_order():
    ring = ParamRing(prime_field(7), ("c1", "c2"))
    c1, c2, z = ring.var("c1"), ring.var("c2"), ring.zero()
    grid = [[c1 + c2, c1 * c2 + 1, z], [z, c2 * c2, c1], [c2, ring.const(3), z]]
    assert _cheapest(grid, 0) == (2, 1)  # the constant, though later
    grid[2][1] = c1 * c1
    assert _cheapest(grid, 0) == (1, 2)  # one term and degree 1, first in row-major order
    assert _cheapest(grid, 2) is None and _cheapest([[z, z], [z, c1 + 1]], 0) == (1, 1)


def test_rank_invariance_under_permutation_and_scaling(rng):
    ring = ParamRing(RATIONALS, ("c1", "c2"))
    for _ in range(15):
        rows = [[random_scalar(rng, ring, 1, 2) for _ in range(4)] for _ in range(4)]
        base = rank_exact(ExactMatrix.from_rows(ring, rows)).rank
        perm = list(range(4))
        rng.shuffle(perm)
        permuted = [rows[i] for i in perm]
        cols = list(range(4))
        rng.shuffle(cols)
        permuted = [[row[j] for j in cols] for row in permuted]
        assert rank_exact(ExactMatrix.from_rows(ring, permuted)).rank == base
        scaled = [
            [x * ring.const(rng.randint(1, 9)) for x in row] if i == 0 else row
            for i, row in enumerate(rows)
        ]
        assert rank_exact(ExactMatrix.from_rows(ring, scaled)).rank == base


def test_rank_against_gaussian_oracle(rng):
    field = prime_field(11)
    ring = ParamRing(field, ())
    for _ in range(30):
        raw = [[field.make(rng.randint(-9, 9)) for _ in range(5)] for _ in range(4)]
        m = matrix_of_ints(ring, raw)
        assert rank_exact(m).rank == gaussian_rank_oracle(field, raw)


def test_rank_plus_kernel_is_cols(rng):
    field = RATIONALS
    ring = ParamRing(field, ())
    for _ in range(20):
        raw = [[field.make(rng.randint(-4, 4)) for _ in range(5)] for _ in range(3)]
        m = matrix_of_ints(ring, raw)
        assert rank_exact(m).rank + len(kernel_basis(m)) == 5


def test_kernel_examples():
    ring = ParamRing(RATIONALS, ())
    assert kernel_basis(identity(ring, 2)) == []
    m = matrix_of_ints(ring, [[1, 0]])
    assert kernel_basis(m) == [(Fraction(0), Fraction(1))]


def test_kernel_vectors_annihilate(rng):
    field = prime_field(5)
    ring = ParamRing(field, ())
    for _ in range(10):
        raw = [[field.make(rng.randint(0, 4)) for _ in range(6)] for _ in range(3)]
        m = matrix_of_ints(ring, raw)
        for vec in kernel_basis(m):
            for i in range(3):
                acc = field.zero
                for j in range(6):
                    acc = field.add(acc, field.mul(raw[i][j], vec[j]))
                assert field.is_zero(acc)


def test_kernel_rejects_parameters():
    ring = ParamRing(RATIONALS, ("c1",))
    m = ExactMatrix.from_rows(ring, [[ring.var("c1"), ring.one()]])
    with pytest.raises(ParameterPresent):
        kernel_basis(m)


def test_schwartz_zippel_specialization(rng):
    """Specializing the parameters outside the certificate's zero set
    preserves the rank (20 points over a large prime field)."""
    big = prime_field(1_000_003)
    ring = ParamRing(RATIONALS, ("c1", "c2"))
    rows = [[random_scalar(rng, ring, 2, 3) for _ in range(4)] for _ in range(3)]
    m = ExactMatrix.from_rows(ring, rows)
    res = rank_exact(m)
    checked = 0
    while checked < 20:
        point = {"c1": rng.randrange(big.p), "c2": rng.randrange(big.p)}
        cert_val = big.make(evaluate(res.certificate, {k: Fraction(v) for k, v in point.items()}))
        if big.is_zero(cert_val):
            continue
        raw = [
            [big.make(evaluate(e, {k: Fraction(v) for k, v in point.items()})) for e in row]
            for row in rows
        ]
        assert gaussian_rank_oracle(big, raw) == res.rank
        checked += 1

import time
from fractions import Fraction

import pytest

from cilines.chart import _nonfree_entries, membership_system
from cilines.errors import InexactDivision, ParameterPresent, RingMismatch
from cilines.exactmatrix import ExactMatrix, det
from cilines.families import FamilySpec, build_family
from cilines.fields import RATIONALS, prime_field
from cilines.params import ParamRing, jet_from, sum_of_products

from conftest import random_scalar
from support import evaluate, local_equations


def ring_q(*names):
    return ParamRing(RATIONALS, names)




def test_canonical_form_zero_and_sorting():
    r = ring_q("c1", "c2")
    c1, c2 = r.var("c1"), r.var("c2")
    p = c1 * c2 + c2 * c1 - 2 * c1 * c2
    assert p.is_zero and p.terms == ()
    q = c2 + c1 ** 2 + 1
    degrees = [sum(e) for e, _ in q.terms]
    assert degrees == sorted(degrees, reverse=True)  # graded order, descending


def test_from_terms_brings_each_coefficient_into_the_field():
    """A coefficient given outside [0, p) is reduced before zeros are
    dropped: -3 is 1 and 2 is 0 over F_2, and 7 is 0 over F_7."""
    f2 = ParamRing(prime_field(2), ("c1",))
    assert f2.from_terms({(1,): -3}) == f2.var("c1")
    assert str(f2.from_terms({(1,): -3})) == "c1"
    assert f2.from_terms({(1,): 2}).is_zero
    f7 = ParamRing(prime_field(7), ("c1",))
    assert f7.from_terms({(1,): 7}).is_zero
    assert f7.from_terms({(1,): 7, (0,): 15}) == f7.one()


def test_ring_laws_randomized(rng):
    for field in (RATIONALS, prime_field(5)):
        r = ParamRing(field, ("c1", "c2", "c3"))
        for _ in range(40):
            a, b, c = (random_scalar(rng, r) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == r.zero()
            assert a * r.one() == a


def test_no_zero_divisors(rng):
    r = ParamRing(prime_field(3), ("c1", "c2"))
    for _ in range(60):
        a, b = random_scalar(rng, r), random_scalar(rng, r)
        if not a.is_zero and not b.is_zero:
            assert not (a * b).is_zero


def test_exact_division(rng):
    r = ring_q("c1", "c2")
    for _ in range(40):
        a, b = random_scalar(rng, r), random_scalar(rng, r)
        if b.is_zero:
            continue
        assert (a * b).exact_div(b) == a
    c1, c2 = r.var("c1"), r.var("c2")
    with pytest.raises(InexactDivision):
        (c1 * c1 + 1).exact_div(c2)


def test_evaluation_and_constants():
    r = ring_q("c1", "c2")
    p = r.var("c1") ** 2 - r.var("c2") + 3
    assert evaluate(p, {"c1": 2, "c2": 5}) == RATIONALS.make(2)
    assert r.const(7).constant_value() == RATIONALS.make(7)
    with pytest.raises(ParameterPresent):
        p.constant_value()


def test_ring_mismatch_guard():
    a = ring_q("c1").var("c1")
    b = ring_q("c1", "c2").var("c1")
    with pytest.raises(RingMismatch):
        a + b


def test_str_is_deterministic_and_readable():
    r = ring_q("c1", "c2")
    p = r.var("c1") ** 2 * r.var("c2") - 3 * r.var("c2") + 1
    assert str(p) == "c1^2*c2 - 3*c2 + 1"
    assert str(r.zero()) == "0"
    assert str(-r.one()) == "-1"


# -- the scalar kernel against a naive dict-and-sort reference -------------------

KERNEL_FIELDS = (RATIONALS, prime_field(2), prime_field(7))


def naive_terms(field, acc):
    """Canonical terms of an exponent -> coefficient dict, the plain way."""
    kept = [(e, c) for e, c in acc.items() if not field.is_zero(c)]
    return tuple(sorted(kept, key=lambda t: (sum(t[0]), t[0]), reverse=True))


def naive_add(a, b, sign=1):
    f = a.ring.field
    acc = dict(a.terms)
    for e, c in b.terms:
        acc[e] = f.add(acc.get(e, f.zero), c if sign > 0 else f.neg(c))
    return naive_terms(f, acc)


def naive_mul(a, b):
    f = a.ring.field
    acc = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = f.add(acc.get(e, f.zero), f.mul(c1, c2))
    return naive_terms(f, acc)


def kernel_rings():
    for field in KERNEL_FIELDS:
        for names in ((), ("c1",), ("c1", "c2", "c3")):
            yield ParamRing(field, names)


def test_kernel_matches_naive_reference(rng):
    for r in kernel_rings():
        for _ in range(60):
            a = random_scalar(rng, r, n_terms=rng.randint(0, 6))
            b = random_scalar(rng, r, n_terms=rng.randint(0, 6))
            if rng.random() < 0.25:
                b = random_scalar(rng, r, n_terms=2) - a  # a + b cancels a's terms
            assert (a + b).terms == naive_add(a, b)
            assert (a - b).terms == naive_add(a, b, -1)
            assert (a - a).terms == ()
            assert (a * b).terms == naive_mul(a, b)
            assert (-a).terms == naive_add(r.zero(), a, -1)
            n = rng.randint(-9, 9)
            assert (a * n).terms == (n * a).terms == naive_mul(a, r.const(n))
            assert (a + n).terms == (n + a).terms == naive_add(a, r.const(n))
            assert (n - a).terms == naive_add(r.const(n), a, -1)


def typed(terms):
    """Terms with the class of each coefficient, since an int and the
    Fraction of the same value compare equal."""
    return tuple((e, c, c.__class__) for e, c in terms)


def assert_product_is_naive(a, b):
    want = typed(naive_mul(a, b))
    assert typed((a * b).terms) == want
    assert typed((b * a).terms) == want


def random_large(rng, ring, n_terms, max_deg=5, fractions=False):
    """Up to n_terms terms of degree up to max_deg; over Q, with proper
    fractions among the coefficients when asked."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * ring.k
        for _ in range(rng.randrange(max_deg + 1)):
            exps[rng.randrange(ring.k)] += 1
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if fractions else rng.randint(-9, 9)
        terms[tuple(exps)] = ring.field.make(c)
    return ring.from_terms(terms)


def test_packed_products_match_naive_on_large_operands(rng):
    for field in KERNEL_FIELDS:
        for k in (1, 3, 12):
            r = ParamRing(field, tuple(f"c{i}" for i in range(1, k + 1)))
            for _ in range(10):
                fractions = field.p is None and rng.random() < 0.5
                a = random_large(rng, r, rng.randint(2, 40), fractions=fractions)
                b = random_large(rng, r, rng.randint(2, 40), fractions=fractions)
                assert_product_is_naive(a, b)
                assert_product_is_naive(a, random_large(rng, r, 1, fractions=fractions))
                assert_product_is_naive(a, r.zero())


def test_packed_products_drop_the_terms_that_cancel():
    for field in KERNEL_FIELDS:
        r = ParamRing(field, ("c1", "c2", "c3"))
        c1, c2, c3 = (r.var(n) for n in r.names)
        assert_product_is_naive(c1 + c2, c1 - c2)
        assert (c1 + c2) * (c1 - c2) == c1 * c1 - c2 * c2
        assert_product_is_naive(c1 * c3 + c2 + 1, c1 * c3 - c2 - 1)
        if field.p:  # (c1 + c2)^p = c1^p + c2^p
            assert_product_is_naive(c1 + c2, (c1 + c2) ** (field.p - 1))
            assert (c1 + c2) ** field.p == c1**field.p + c2**field.p
    r = ring_q("c1", "c2")
    c1, c2 = r.var("c1"), r.var("c2")
    half = r.const(Fraction(1, 2))
    p, q = half * c1 + half, 2 * c2 + 2
    assert_product_is_naive(p, q)
    # Fraction products that sum to integers come out as int
    assert [c.__class__ for _, c in (p * q).terms] == [int] * 4
    assert_product_is_naive(p, c1 + 1)


def test_packed_products_at_the_edge_of_the_base():
    for field in KERNEL_FIELDS:
        r = ParamRing(field, ("c1", "c2", "c3"))
        c1, c2, c3 = (r.var(n) for n in r.names)
        # base = 1 + 5 + 3: c1^8 fills the top digit of its slot
        a, b = c1**5 + c2 * c3 + 1, c1**3 + c3 + 1
        assert_product_is_naive(a, b)
        assert (a * b).terms[0][0] == (8, 0, 0)
        huge = c1**99999999 * c2 + c3
        assert_product_is_naive(huge, c1 + c2 * c2 + 1)
        assert_product_is_naive(huge, huge)
        assert (huge * (c1 + 1)).terms[0][0] == (100000000, 1, 0)
        assert (huge * huge).terms[0][0] == (199999998, 2, 0)


def test_exact_division_by_many_term_divisors(rng):
    for r in kernel_rings():
        for _ in range(25):
            a = random_scalar(rng, r, max_deg=4, n_terms=rng.randint(1, 8))
            b = random_scalar(rng, r, max_deg=4, n_terms=rng.randint(4, 9))
            if b.is_zero:
                continue
            assert (a * b).exact_div(b) == a
            if not a.is_zero:
                assert (a * b).exact_div(a) == b


def test_inexact_division_raises_when_a_remainder_is_left(rng):
    for field in KERNEL_FIELDS:
        r = ParamRing(field, ("c1", "c2", "c3"))
        c1, c2 = r.var("c1"), r.var("c2")
        # c1^2 + c1 + 1 = c1 (c1 + 1) + 1: the leading term divides, 1 is left
        with pytest.raises(InexactDivision):
            (c1 * c1 + c1 + 1).exact_div(c1 + 1)
        for _ in range(20):
            a = random_scalar(rng, r, n_terms=4)
            b = random_scalar(rng, r, n_terms=4)
            if a.is_zero or b.is_constant:
                continue
            # the leading term of a*b + 1 is divisible by b's, but a
            # non-constant b cannot divide the unit left over
            with pytest.raises(InexactDivision):
                (a * b + 1).exact_div(b)



def test_inexact_division_is_refused_by_the_degree_bounds_at_once():
    """An exact quotient's degree in each parameter is the dividend's less
    the divisor's. Here the remainder soon needs a quotient term in c2,
    whose bound is 0: the division is refused in a few steps, not after
    the N^2 or so it would take to walk the remainder down."""
    r = ParamRing(prime_field(7), ("c1", "c2", "c3"))
    c1, c2, c3 = (r.var(name) for name in r.names)
    n = 2000
    start = time.perf_counter()
    with pytest.raises(InexactDivision):
        (c1**n - c3**n + c2 * c1 ** (n - 1)).exact_div(c1 + c2 + c3)
    assert time.perf_counter() - start < 0.1
    # the bounds add up past the degree field's guard, which caps them
    a = c1**100 + c2**100 + c3**100
    assert (a * (c1 + c2 + c3)).exact_div(c1 + c2 + c3) == a
    # a divisor in a parameter the dividend lacks is refused before any step
    with pytest.raises(InexactDivision):
        (c1 * c1 + 1).exact_div(c1 + c2)

def test_ring_mismatch_on_fast_and_slow_paths():
    pairs = [
        (ParamRing(RATIONALS), ParamRing(prime_field(7))),  # constant fast path
        (ParamRing(prime_field(7), ("c1",)), ParamRing(prime_field(7), ("c2",))),
        (ring_q("c1"), ring_q("c1", "c2")),
    ]
    for r1, r2 in pairs:
        a, b = r1.const(3), r2.const(5)
        for op in (
            lambda: a + b,
            lambda: a - b,
            lambda: a * b,
            lambda: a.exact_div(b),
            lambda: r1.zero() * b,
            lambda: r1.zero() + r2.zero(),
        ):
            with pytest.raises(RingMismatch):
                op()


def test_equal_but_distinct_rings_are_accepted():
    for field in KERNEL_FIELDS:
        for names in ((), ("c1", "c2")):
            r1, r2 = ParamRing(field, names), ParamRing(field, names)
            assert r1 is not r2 and r1 == r2
            a, b = r1.const(3), r2.const(5)  # nonzero in every field
            assert (a + b) == r1.const(8)
            assert (a - b) == r1.const(-2)
            assert (a * b) == r1.const(15)
            assert (a * b).exact_div(b) == a
            if names:
                c1 = r1.var("c1")
                p = c1 * r2.var("c1") + r2.var("c2")
                assert p.exact_div(r2.const(1)) == p
                assert (p * (c1 + 1)).exact_div(r2.var("c1") + 1) == p


# -- sum_of_products against sums of products --------------------------------------

SUM_FIELDS = (RATIONALS, prime_field(2), prime_field(3), prime_field(7))


def naive_sum_of_products(ring, pairs, signs):
    """Test-only reference: every product by naive_mul, added or
    subtracted term by term."""
    f = ring.field
    acc = {}
    for (x, y), neg in zip(pairs, signs):
        for e, c in naive_mul(x, y):
            acc[e] = f.add(acc.get(e, f.zero), f.neg(c) if neg else c)
    return naive_terms(f, acc)


def assert_sum_of_products_is_naive(ring, pairs, signs):
    got = sum_of_products(ring, pairs, signs)
    assert typed(got.terms) == typed(naive_sum_of_products(ring, pairs, signs))
    total = ring.zero()
    for (x, y), neg in zip(pairs, signs):
        total = total - x * y if neg else total + x * y
    assert got == total
    if not any(signs):
        assert sum_of_products(ring, pairs) == got
    return got


def random_factor(rng, ring, fractions):
    """Zero now and then, else up to 8 terms of degree up to 0..6."""
    if rng.random() < 0.15:
        return ring.zero()
    max_deg = rng.randint(0, 6) if ring.k else 0
    return random_large(rng, ring, rng.randint(1, 8), max_deg=max_deg, fractions=fractions)


def test_sum_of_products_matches_sums_of_products(rng):
    for field in SUM_FIELDS:
        for names in ((), ("c1",), ("c1", "c2", "c3")):
            r = ParamRing(field, names)
            for _ in range(30):
                fractions = field.p is None and rng.random() < 0.5
                pairs = [
                    (random_factor(rng, r, fractions), random_factor(rng, r, fractions))
                    for _ in range(rng.randint(0, 5))
                ]
                signs = [rng.random() < 0.4 for _ in pairs]
                got = assert_sum_of_products_is_naive(r, pairs, signs)
                # each product once more with the other sign: the total is zero
                flipped = [not neg for neg in signs]
                total = assert_sum_of_products_is_naive(r, pairs + pairs, signs + flipped)
                assert total.is_zero and total.terms == ()
                # and added to -got it cancels as well
                assert sum_of_products(r, pairs + [(got, r.const(-1))], signs + [False]).is_zero


def test_sum_of_products_takes_its_base_from_the_largest_pair():
    for field in SUM_FIELDS:
        r = ParamRing(field, ("c1", "c2", "c3"))
        c1, c2, c3 = (r.var(n) for n in r.names)
        small = (c1 + 1, c2 + c3)  # degree 2
        large = (c1**5 + c2 * c3 + 1, c1**3 * c3 + c3 + 1)  # degree 9: c1^8*c3 fills a digit
        for pairs in ([small, large], [large, small], [small, large, small]):
            for signs in ([False] * len(pairs), [True] + [False] * (len(pairs) - 1)):
                got = assert_sum_of_products_is_naive(r, pairs, signs)
                assert got.terms[0][0] == (8, 0, 1)
        huge = c1**99999999 * c2 + c3
        got = assert_sum_of_products_is_naive(r, [small, (huge, huge), (huge, c1)], [True, False, True])
        assert got.terms[0][0] == (199999998, 2, 0)


def test_sum_of_products_without_pairs_and_with_a_foreign_ring():
    for field in SUM_FIELDS:
        for names in ((), ("c1",)):
            r = ParamRing(field, names)
            assert sum_of_products(r, []) == r.zero()
            assert sum_of_products(r, [(r.zero(), r.one())], [True]).terms == ()
            other = ParamRing(field, names + ("c9",))
            with pytest.raises(RingMismatch):
                sum_of_products(r, [(r.one(), other.one())])
            with pytest.raises(ValueError):  # one sign per pair
                sum_of_products(r, [(r.one(), r.one())], [True, False])


def test_evaluate_from_reduces_raw_products_once_at_the_end():
    """Over F_7 the raw product of a term and the raw sum of the terms
    exceed 7; the value under each key is brought into the field once."""
    f7 = prime_field(7)
    r = ParamRing(f7, ("x", "y", "c"))
    x, y, c = (r.var(n) for n in r.names)
    p = 6 * x**3 * y**2 + 6 * x**2 * y * c + 5 * c + 6 * x**2 * y
    values = {"x": 6, "y": 5, "c": 13}  # c = 13 comes into F_7 as 6
    raw = 6 * 6**3 * 5**2 + 6 * 6**2 * 5 * 13 + 5 * 13 + 6 * 6**2 * 5
    assert raw > 7
    base = ParamRing(f7)
    assert jet_from(p, base, (), values)[0] == base.const(raw % 7)
    assert evaluate(p, values) == raw % 7
    # keeping the first slot sums the terms by their x exponent
    xs = ParamRing(f7, ("x",))
    assert jet_from(p, xs, (), values)[0] == xs.from_terms(
        {(3,): 6 * 5**2 % 7, (2,): (6 * 5 * 6 + 6 * 5) % 7, (0,): 5 * 6 % 7}
    )


def test_evaluate_from_takes_far_powers_by_squaring():
    """Powers near the end of a slot's power list extend it, and far ones,
    such as c1^99999999, are taken by square-and-multiply."""
    exponents = (99999999, 200, 70, 40, 3, 1)
    for field in (RATIONALS, prime_field(7)):
        r = ParamRing(field, ("c1", "c2"))
        c1, c2 = r.var("c1"), r.var("c2")
        p = c2 * c1 ** exponents[0] + sum((c1**x for x in exponents[1:]), r.zero())
        for v in (-1, 1, 3) if field.p else (-1, 1):
            powers = [pow(v, x, field.p) if field.p else v**x for x in exponents]
            want = field.make(5 * powers[0] + sum(powers[1:]))
            assert evaluate(p, {"c1": v, "c2": 5}) == want


def to_sympy(sympy, p, symbols):
    out = sympy.Integer(0)
    for e, c in p.terms:
        mono = sympy.Rational(c.numerator, c.denominator)
        for sym, x in zip(symbols, e):
            mono *= sym**x
        out += mono
    return out


def test_bordered_minor_det_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    built = build_family(FamilySpec("hyp-general", n=6, degrees=(3,)), RATIONALS)
    x = built.x
    grid = _nonfree_entries(x.n, membership_system(x))
    flat = grid[0][0].ring.flat
    symbols = sympy.symbols(flat.names)
    sym_rows = [[e.flat for e in row] for row in grid]
    eqs = local_equations(x, built.line)
    checked = 0
    extras = [i for i in range(x.n - 1) if i not in eqs.pivot_rows]
    assert len(extras) == eqs.count
    for extra, minor in zip(extras, eqs.minors):
        rows = [sym_rows[i] for i in sorted((*eqs.pivot_rows, extra))]
        assert len(rows) == len(rows[0]) == 3
        # the emitted equation is this bordered minor, however it is expanded
        theirs = sympy.Matrix([[to_sympy(sympy, e, symbols) for e in row] for row in rows])
        assert sympy.expand(to_sympy(sympy, minor.flat, symbols) - theirs.det()) == 0
        # scaled by random factors too, so Bareiss divides by many-term pivots
        scaled = [[e * random_scalar(rng, flat, n_terms=3) for e in row] for row in rows]
        for grid in (rows, scaled):
            ours = det(ExactMatrix.from_rows(flat, grid))
            assert not ours.is_zero
            theirs = sympy.Matrix([[to_sympy(sympy, e, symbols) for e in row] for row in grid])
            assert sympy.expand(to_sympy(sympy, ours, symbols) - theirs.det()) == 0
            checked += 1
    assert checked == 6

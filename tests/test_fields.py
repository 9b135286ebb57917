import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest

from cilines.errors import BudgetExceeded, ConstraintViolated, ParseError
from cilines.fields import RATIONALS, Field, field_from_str, is_prime, prime_field
from cilines.params import ParamRing

from conftest import random_element, random_nonzero


def test_primality_small():
    primes = [2, 3, 5, 7, 11, 1_000_003, (1 << 61) - 1]
    composites = [1, 0, 4, 9, 561, 1_000_001, 2_047]  # 561 Carmichael, 2047 = 23*89
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_field_construction_guards():
    with pytest.raises(ConstraintViolated):
        prime_field(6)
    with pytest.raises(ConstraintViolated):
        prime_field(1 << 62)
    assert prime_field(5).characteristic == 5
    assert RATIONALS.characteristic == 0


def test_arithmetic_mod_p():
    f = prime_field(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.neg(2) == 5
    assert f.make(-1) == 6
    assert f.make(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1


def test_arithmetic_rationals():
    f = RATIONALS
    assert f.div(f.make(1), f.make(3)) == Fraction(1, 3)
    assert f.inv(Fraction(2, 5)) == Fraction(5, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)


def test_integral_quotient_over_q_forms_no_inverse(monkeypatch):
    """Over Q an int divided by an int that divides it is the int quotient,
    with no Fraction inverse formed, also through exact_div on a ring with
    no parameters; any other quotient, and every one over F_p, inverts."""
    inverted = []
    inv = Field.inv
    monkeypatch.setattr(Field, "inv", lambda self, a: inverted.append(a) or inv(self, a))
    for a, b, q in ((6, 3, 2), (-6, 3, -2), (6, -3, -2), (0, 5, 0)):
        assert RATIONALS.div(a, b) == q and type(RATIONALS.div(a, b)) is int
    ring = ParamRing(RATIONALS, ())
    q = ring.const(6).exact_div(ring.const(3))
    assert q == ring.const(2) and type(q.constant_value()) is int
    assert inverted == []
    third = RATIONALS.div(1, 3)
    assert third == Fraction(1, 3) and type(third) is Fraction and inverted == [3]
    f = prime_field(7)
    assert (f.div(6, 3), f.div(1, 3)) == (2, 5) and inverted == [3, 3, 3]


def test_parse_and_str_roundtrip():
    assert field_from_str("Q") is RATIONALS
    assert field_from_str("F:11").p == 11
    with pytest.raises(ParseError):
        field_from_str("GF(4)")
    f = prime_field(13)
    assert field_from_str(str(f)) == f
    assert f.parse("7/2") == f.div(f.make(7), f.make(2))
    with pytest.raises(ParseError):
        f.parse("x")


def test_integral_rationals_are_ints():
    f = RATIONALS
    half = f.inv(2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert type(f.mul(half, 4)) is int and f.mul(half, 4) == 2
    assert type(f.add(half, half)) is int and f.add(half, half) == 1
    assert type(f.sub(Fraction(3, 2), half)) is int and f.sub(Fraction(3, 2), half) == 1
    assert type(f.make(Fraction(6, 3))) is int and type(f.make(5)) is int
    assert type(f.pow(half, 0)) is int
    assert type(f.zero) is int and type(f.one) is int
    assert f.inv(-1) == -1 and type(f.inv(-1)) is int
    assert f.to_str(3) == "3" and f.to_str(f.make(Fraction(-3, 7))) == "-3/7"
    rng = random.Random(7)
    assert all(type(random_element(f, rng)) is int and type(random_nonzero(f, rng)) is int for _ in range(20))


@pytest.mark.parametrize(
    "a", [1, -1, 2, -2, Fraction(3, 7), Fraction(-3, 7), 10**40 + 1, -(2**200)]
)
def test_rational_inverse_and_quotient_are_exact(a):
    f = RATIONALS
    inv = f.inv(a)
    assert type(inv) in (int, Fraction)  # never a float
    assert f.mul(a, inv) == 1 and type(f.mul(a, inv)) is int
    for b in (1, -2, Fraction(3, 7), 10**40 + 1):
        q = f.div(b, a)
        assert type(q) in (int, Fraction) and q == Fraction(b) / Fraction(a)
        assert type(q) is int or q.denominator != 1


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter prints an int of any length",
)
@pytest.mark.parametrize("a", [10**5000, Fraction(1, 10**5000)], ids=["int", "fraction"])
def test_printing_a_rational_too_long_for_str_is_a_named_error(a):
    with pytest.raises(BudgetExceeded):
        RATIONALS.to_str(a)


#: 2^61 - 1, a Mersenne prime: the largest modulus Field allows
LARGEST_PRIME = (1 << 61) - 1


def same(got, want) -> bool:
    """Equal in value and in class: an int and the Fraction of the same
    value compare equal."""
    return got == want and type(got) is type(want)


@pytest.mark.parametrize("p", [2, 3, 7, 101, LARGEST_PRIME])
def test_reduce_equals_make_on_raw_ints_over_f_p(rng, p):
    """The hot loops sum and multiply field elements raw and reduce each
    stored value once: negative sums, sums past p^2, and products."""
    f = prime_field(p)
    raws = [0, 1, -1, p - 1, p, -p, p * p, p * p - 1, -p * p, p**3 + 1, -(p**3) - 1]
    for _ in range(300):
        a, b, c = (rng.randrange(p) for _ in range(3))
        raws += [a * b, -a * b, a * b + c * c, a - b * c, a * b * c * p + a, rng.randint(-(p**3), p**3)]
    for x in raws:
        assert same(f.reduce(x), f.make(x)), x
        assert 0 <= f.reduce(x) < p


def test_reduce_equals_make_on_raw_rationals(rng):
    f = RATIONALS
    raws = [0, 1, -1, 10**40, -(10**40), Fraction(6, 3), Fraction(-8, 4), Fraction(1, 2), Fraction(-3, 7)]
    for _ in range(300):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        n = rng.randint(-50, 50)
        raws += [a * b, a - b * n, a + b, a * n, n * n - n]
    for x in raws:
        assert same(f.reduce(x), f.make(x)), x
    for x in (Fraction(6, 3), Fraction(-8, 4), Fraction(1, 2) + Fraction(1, 2)):
        assert type(f.reduce(x)) is int  # an integral Fraction comes back as int


def test_reduce_leaves_equality_hash_repr_and_pickle_on_p_alone():
    for f, text in ((prime_field(7), "Field(p=7)"), (RATIONALS, "Field(p=None)")):
        again = Field(f.p)
        assert f == again and hash(f) == hash(again) == hash(f.p)  # as with the one slot p
        assert repr(f) == text
        for back in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
            assert back == f and hash(back) == hash(f) and repr(back) == text
            assert back.reduce(-3) == f.reduce(-3) == f.make(-3)
    assert prime_field(7) != prime_field(5)
    with pytest.raises(AttributeError):
        prime_field(7).reduce = abs

"""The printers of ParamScalar, MultiPoly and BinaryForm (params._sum_text)
against the route they replaced (printing_reference.py, test-only) on
seeded random values over Q, F_2 and F_7, with and without parameters."""

import random
from fractions import Fraction

import pytest

from cilines.fields import RATIONALS, prime_field
from cilines.multipoly import BinaryForm, MultiPoly, PolyRing
from cilines.params import ParamRing

import printing_reference as ref

FIELDS = (RATIONALS, prime_field(2), prime_field(7))
NAMES = ((), ("c1",), ("c1", "c2", "c3"))


def coefficient(rng: random.Random, field):
    """Over Q a negative or fractional value as often as not."""
    c = rng.randint(-9, 9)
    if field.p is None and rng.random() < 0.4:
        c = Fraction(c, rng.randint(1, 12))
    return field.make(c)


def random_terms(rng: random.Random, field, k: int) -> dict:
    """Up to six terms in k slots; an exponent past 127 now and then, so
    the keys are packed two bytes a field."""
    top = 300 if rng.random() < 0.2 else 3
    return {
        tuple(rng.randint(0, top) for _ in range(k)): coefficient(rng, field)
        for _ in range(rng.randint(0, 6))
    }


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_scalars_print_as_before(field):
    rng = random.Random(f"scalars {field}")
    for names in NAMES:
        ring = ParamRing(field, names)
        assert str(ring.zero()) == ref.scalar_text(ring.zero()) == "0"
        for _ in range(400):
            x = ring.from_terms(random_terms(rng, field, ring.k))
            assert str(x) == ref.scalar_text(x)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_polynomials_print_as_before(field):
    """With parameters, a coefficient of several terms prints in
    parentheses and one of a single term gives its sign to the joiner."""
    rng = random.Random(f"polynomials {field}")
    grouped = 0
    for names in NAMES:
        ring, k = PolyRing(ParamRing(field, names), ("S", "T", "Z1")), len(names)
        assert str(ring.zero()) == ref.poly_text(ring.zero()) == "0"
        for _ in range(300):
            p = MultiPoly(ring, ring.flat.from_terms(random_terms(rng, field, ring.flat.k)))
            # the same variable monomial under several parameter monomials
            extra = {(*pe, 1, 0, 2): coefficient(rng, field) for pe in ((0,) * k, (1,) * k)}
            q = p + MultiPoly(ring, ring.flat.from_terms(extra))
            for f in (p, q):
                text = str(f)
                assert text == ref.poly_text(f)
                grouped += "(" in text
    assert grouped > 100


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_binary_forms_print_as_before(field):
    rng = random.Random(f"binary forms {field}")
    for d in range(7):
        zero = BinaryForm.zero(field, d)
        assert str(zero) == ref.binary_form_text(zero) == "0"
        for _ in range(60):
            f = BinaryForm(field, d, tuple(coefficient(rng, field) for _ in range(d + 1)))
            assert str(f) == ref.binary_form_text(f)


def test_signs_and_ones_over_q():
    ring = PolyRing(ParamRing(RATIONALS, ("c1",)), ("S", "T"))
    # exponents of (c1, S, T)
    terms = {(1, 1, 0): -1, (1, 0, 2): Fraction(-1, 2), (0, 0, 2): 1, (1, 0, 0): -3}
    p = MultiPoly(ring, ring.flat.from_terms(terms))
    assert str(p) == ref.poly_text(p) == "(-1/2*c1 + 1)*T^2 - c1*S - 3*c1"
    assert str(p.flat) == ref.scalar_text(p.flat) == "-1/2*c1*T^2 - c1*S + T^2 - 3*c1"
    assert str(BinaryForm(RATIONALS, 2, (-1, 0, Fraction(1, 3)))) == "-s^2 + 1/3*t^2"

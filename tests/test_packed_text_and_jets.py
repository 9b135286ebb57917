"""Printing and jets read packed keys: the text of a ParamScalar and a
MultiPoly against the tuple-keyed references (params_reference.TupleScalar
and multipoly_reference.NestedPoly), and MultiPoly.jet_at against
differentiate-then-evaluate, at every key width (exponents around
127/128 and 32767/32768), with 0, 1 and 2 parameters, over Q with
negative rationals, F_2 and F_7."""

from fractions import Fraction

import pytest

from cilines.errors import ConstraintViolated, UnknownVariable
from cilines.fields import RATIONALS, prime_field
from cilines.multipoly import PolyRing
from cilines.monomials import _monomial_texts
from cilines.params import ParamRing, ParamScalar

import params_reference as ref
from conftest import naive_evaluate
from multipoly_reference import NestedPoly
from support import evaluate, param

FIELDS = (RATIONALS, prime_field(2), prime_field(7))
PARAMS = ((), ("c1",), ("c1", "c2"))
VARIABLES = ("x", "y", "z")
#: exponents around the points where a key takes wider fields
EXPONENTS = (0, 0, 1, 2, 3, 127, 128, 32767, 32768)


def coefficient(rng, field):
    """A nonzero value; over Q often a negative or a proper fraction."""
    while True:
        if field.p is None:
            v = field.make(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))))
        else:
            v = field.make(rng.randint(1, 9))
        if v:
            return v


def exponents(rng, k, top):
    """k exponents of at most 3, but for at most one from
    EXPONENTS[5:top]."""
    e = [rng.choice(EXPONENTS[:5]) for _ in range(k)]
    if k and top > 5 and rng.random() < 0.5:
        e[rng.randrange(k)] = rng.choice(EXPONENTS[5:top])
    return tuple(e)


def scalar_terms(rng, ring, n, top=len(EXPONENTS)):
    return {exponents(rng, ring.k, top): coefficient(rng, ring.field) for _ in range(n)}


def nested_terms(rng, ring, n, top=len(EXPONENTS)):
    coeffs = ring.coeffs
    return {
        exponents(rng, ring.n, top): scalar_terms(rng, coeffs, rng.choice((1, 1, 2, 3)), top)
        for _ in range(n)
    }


def poly_pair(rng, ring, n, top=len(EXPONENTS)):
    """The same polynomial as a MultiPoly and as a NestedPoly."""
    terms = nested_terms(rng, ring, n, top)
    coeffs = ring.coeffs
    return ring.from_terms({e: coeffs.from_terms(c) for e, c in terms.items()}), NestedPoly(ring, terms)


# -- printing ---------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("names", PARAMS, ids=len)
def test_scalar_text_matches_the_tuple_keyed_reference(rng, field, names):
    ring = ParamRing(field, names)
    R = ref.TupleRing(ring)
    widths = set()
    for n in (0, 1, 1, 2, 3, 5, 8) * 4:
        terms = scalar_terms(rng, ring, n)
        x = ring.from_terms(terms)
        widths.add(x.width)
        assert str(x) == str(R.from_terms(terms))
        assert str(-x) == str(-R.from_terms(terms))
    assert widths == ({1} if not names else {1, 2, 4})


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("names", PARAMS, ids=len)
def test_poly_text_matches_the_nested_reference(rng, field, names):
    ring = PolyRing(ParamRing(field, names), VARIABLES)
    widths = set()
    for n in (0, 1, 1, 2, 3, 5, 8) * 4:
        p, q = poly_pair(rng, ring, n)
        widths.add(p.flat.width)
        assert str(p) == str(q)
        assert str(-p) == str(-q)
    assert widths == {1, 2, 4}


def test_one_names_tuple_at_two_widths_prints_alike_cold_and_warm():
    """Rings with the same names share the monomial texts of each width:
    a scalar ring and a flat ring, over two fields, printed interleaved
    from a cleared cache and again from a warm one."""
    scalars = [ParamRing(f, ("c1", "x", "y")) for f in (RATIONALS, prime_field(7))]
    polys = [PolyRing(ParamRing(f, ("c1",)), ("x", "y")) for f in (RATIONALS, prime_field(7))]
    values = []
    for ring in scalars:
        c1, x, y = (ring.var(n) for n in ring.names)
        narrow = ring.const(-2) * c1 * x + y**3 + 1
        values += [narrow, narrow * c1**200, narrow * x**40000]
    for ring in polys:
        c1, x, y = param(ring, "c1"), ring.var("x"), ring.var("y")
        narrow = ring.const(-2) * c1 * x + y**3 + 1
        values += [narrow, narrow * c1**200, narrow * x**40000]
    want = []
    for v in values:
        if isinstance(v, ParamScalar):
            assert v.width == (1, 2, 4)[len(want) % 3]
            want.append(str(ref.TupleRing(v.ring).from_terms(dict(v.terms))))
        else:
            assert v.flat.width == (1, 2, 4)[len(want) % 3]
            want.append(str(NestedPoly(v.ring, {e: dict(c.terms) for e, c in v.terms})))
    _monomial_texts.cache_clear()
    cold = [str(v) for v in values]
    warm = [str(v) for v in reversed(values)][::-1]
    assert cold == warm == want
    assert want[0] == want[6] == "y^3 - 2*c1*x + 1"
    assert want[3] == want[9] == "y^3 + 5*c1*x + 1"


# -- jets ---------------------------------------------------------------------------


def point(rng, field, top):
    """Values of the variables; over Q only 0, 1 and -1 where an exponent
    reaches 32767, so that no power is a huge number."""
    if field.p:
        return {v: rng.randrange(field.p) for v in VARIABLES}
    picks = (0, 1, -1) if top > 7 else (0, 1, -1, 2, Fraction(-1, 2))
    return {v: rng.choice(picks) for v in VARIABLES}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("names", PARAMS, ids=len)
def test_jet_at_is_differentiate_then_evaluate_at_every_width(rng, field, names):
    """Widths 1, 2 and 4 of flat key, with a repeated name among the ones
    asked for; the value and each partial also against naive evaluation."""
    ring = PolyRing(ParamRing(field, names), VARIABLES)
    widths = set()
    for trial in range(24):
        top = (5, 7, 8, 9)[trial % 4]  # exponents up to 3, 128, 32767 and 32768
        p, _ = poly_pair(rng, ring, rng.randint(1, 4), top)
        widths.add(p.flat.width)
        vals = point(rng, field, top)
        asked = list(VARIABLES) + [rng.choice(VARIABLES)]
        rng.shuffle(asked)
        value, partials = p.jet_at(asked, vals)
        assert value == evaluate(p, vals) == naive_evaluate(p, vals)
        assert partials == [evaluate(p.differentiate(v), vals) for v in asked]
        assert partials == [naive_evaluate(p.differentiate(v), vals) for v in asked]
        assert all(d.ring is ring.coeffs for d in [value, *partials])
    assert widths == {1, 2, 4}
    zero = ring.coeffs.zero()
    assert ring.zero().jet_at(("x", "x"), {}) == (zero, [zero, zero])


@pytest.mark.parametrize("big", [1, 200, 40000])
def test_jet_at_reads_and_refuses_values_as_differentiation_does(big):
    """At each width, whatever is asked: a missing value of a variable that
    occurs raises UnknownVariable naming every missing one, even beside a
    value the field cannot hold; a value the field cannot hold, for a
    variable that occurs, raises the field's error; a value that no term
    uses is not read. With every value set the jet is
    differentiate-then-evaluate."""
    f7 = PolyRing(ParamRing(prime_field(7), ("c1",)), ("x", "y", "z", "u"))
    x, y, z, c1 = f7.var("x"), f7.var("y"), f7.var("z"), param(f7, "c1")
    p = c1**big * x * y + 3 * y**big + z
    assert p.flat.width == (1 if big < 128 else 2 if big < 32768 else 4)
    for asked in ((), ("x",), ("y",), ("z",), ("x", "x", "z"), ("u",)):
        for vals, missing in (
            ({"y": 2, "z": 9}, "['x']"),
            ({"z": 1, "u": 0}, "['x', 'y']"),
            ({}, "['x', 'y', 'z']"),
            ({"x": Fraction(1, 7), "z": 0}, "['y']"),  # missing wins over 1/7
        ):
            with pytest.raises(UnknownVariable) as err:
                p.jet_at(asked, vals)
            assert str(err.value) == f"no value for {missing}"
        with pytest.raises(ConstraintViolated):
            p.jet_at(asked, {"x": Fraction(1, 7), "y": 2, "z": 0})
        # u occurs in no term, so the 1/7 that F_7 cannot hold is not read
        vals = {"x": 3, "y": 2, "z": 9, "u": Fraction(1, 7)}
        value, partials = p.jet_at(asked, vals)
        assert value == evaluate(p, vals)
        assert partials == [evaluate(p.differentiate(v), vals) for v in asked]

"""The term reader of polytext against the two parsers it replaced
(polytext_reference.py, test-only) on seeded random strings: the
arithmetic parser, and the reader that matched every factor with a
regex, whose ParseError texts it keeps. Then the guards of the reader,
and curve components read straight into binary forms against the route
through a polynomial."""

import random
import re

import pytest

from cilines.cli import _parse_curve_texts
from cilines.errors import ParseError, ToolkitError
from cilines.fields import RATIONALS, prime_field
from cilines.multipoly import MultiPoly, PolyRing
from cilines.params import ParamRing, ParamScalar
from cilines.polytext import MAX_INT_BITS, parse_poly

import polytext_reference

ALPHABET = (
    *("S", "T", "Z1", "c1", "W", "0", "2", "13"),
    *("+", "-", "*", "^", "^0", "^2", "?", "2S", " "),
)
FIELDS = (RATIONALS, prime_field(7), prime_field(2))
# The reference multiplies a zero base by itself e times and builds b^e
# over Q in full, so strings with an exponent of four or more digits are
# not given to it; test_integer_powers_over_q_stop_at_the_cap and
# test_cli pin the reader on those.
LONG_EXPONENT = re.compile(r"\^\s*\d{4}")


def ring_over(field) -> PolyRing:
    return PolyRing(ParamRing(field, ("c1",)), ("S", "T", "Z1"))


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 9)))


def outcome(parse, text: str, ring: PolyRing):
    try:
        return parse(text, ring)
    except ParseError:
        return ParseError


def assert_agree(text: str, field) -> bool:
    """Both parsers refuse text, or both give one polynomial; over Q the
    reader may also refuse an integer power past MAX_INT_BITS, of a text
    the reference reads. Returns whether the reader accepted."""
    ring = ring_over(field)
    reference = polytext_reference.parse_poly
    try:
        got = parse_poly(text, ring)
    except ParseError as exc:
        if "MAX_INT_BITS" in str(exc):
            assert field.p is None, text
            assert outcome(reference, text, ring_over(FIELDS[1])) is not ParseError
            return False
        got = ParseError
    assert got == outcome(reference, text, ring), text
    return got is not ParseError


def seeded_texts():
    """(text, whether it has a long exponent) until 20,000 texts without."""
    rng = random.Random(20261018)
    kept = 0
    while kept < 20_000:
        text = random_text(rng)
        long = LONG_EXPONENT.search(text) is not None
        kept += not long
        yield text, long


def test_term_reader_agrees_with_the_arithmetic_parser():
    texts = [text for text, long in seeded_texts() if not long]
    accepted = sum(assert_agree(text, field) for text in texts for field in FIELDS)
    assert accepted > 3_000


def verdict(parse, *args):
    """The value, or the type and text of the error."""
    try:
        return parse(*args)
    except ToolkitError as exc:
        return type(exc).__name__, str(exc)


def test_term_reader_agrees_with_the_regex_reader():
    """Values and the exact ParseError text on the seeded texts, long
    exponents included."""
    refused = longs = 0
    for text, long in seeded_texts():
        longs += long
        for field in FIELDS:
            ring = ring_over(field)
            got = verdict(parse_poly, text, ring)
            assert got == verdict(polytext_reference.parse_poly_by_regex, text, ring), text
            refused += isinstance(got, tuple)
    assert longs and 3_000 < refused < 57_000


@pytest.mark.parametrize(
    "text",
    [
        "c1^2*S^3 - 2*c1*S*T*Z1 + c1^2*c1*T^3",  # parameters
        "S^300*c1 + T^255 - c1^256*Z1^2 + 3^2*S^127*T^128",  # past 255: two-byte keys
        "c1^99999999*S*Z1 + T*Z2",
        "Z1^70000 - 2^3*c1^65536",
        " - 3 * S ^ 2 * T + c1 ^2* Z1^ 1 - 0 * T^3 + 0^0*S",  # spaced
        "\u00a0S\u2003^\u20032\t*\nT + \u3000c1",  # whitespace beyond ASCII
        "-S - -T",
        "S^2^3",
        "S^ + T",
        "S**T",
        "*S",
        "S*",
        "",
        "   ",
        "+S",
        "S - ",
        "X1*S",
        "0012*S^007",
    ],
)
def test_term_reader_agrees_with_the_regex_reader_on(text):
    for field in FIELDS:
        ring = PolyRing(ParamRing(field, ("c1",)), ("S", "T", "Z1", "Z2"))
        got = verdict(parse_poly, text, ring)
        assert got == verdict(polytext_reference.parse_poly_by_regex, text, ring)


def test_digits_that_int_reads_and_the_grammar_does_not():
    """int() reads any Unicode decimal digit, underscores and surrounding
    space, and str.isdigit takes superscripts too. The grammar reads the
    decimal digits alone, of any script: Arabic-Indic digits are read,
    and a superscript, an underscore, a fullwidth letter and juxtaposition
    are a bad term, as the regex reader gives them."""
    ring = ring_over(prime_field(7))
    assert str(parse_poly("\u0663*S", ring)) == "3*S"  # ARABIC-INDIC DIGIT THREE
    assert str(parse_poly("S^\u0662", ring)) == "S^2"
    for text in ("\u00b2*S", "S^\u00b2", "1_000*S", "\uff431*S", "3 S"):
        with pytest.raises(ParseError, match="bad term"):
            parse_poly(text, ring)
        assert verdict(parse_poly, text, ring) == verdict(
            polytext_reference.parse_poly_by_regex, text, ring
        )


def test_a_ring_name_outside_the_grammar_is_not_read():
    """A ring may name a variable that the grammar cannot spell; the
    reader refuses it as the regex reader does, and reads the rest."""
    ring = PolyRing(ParamRing(prime_field(7), ()), ("S", "x_1", "12"))
    for text in ("x_1*S", "S^2 + 12", "12*S"):
        got = verdict(parse_poly, text, ring)
        assert got == verdict(polytext_reference.parse_poly_by_regex, text, ring)
    assert verdict(parse_poly, "x_1*S", ring) == ("ParseError", "bad term 'x_1*S' in 'x_1*S'")
    assert str(parse_poly("S^2 + 12", ring)) == "S^2 + 5"


def test_parse_poly_uses_no_polynomial_arithmetic(monkeypatch):
    ring = PolyRing(ParamRing(RATIONALS, ("c1", "c2")), ("S", "T", "Z1"))
    text = "-2*c1^2*S^3 + 3^2*S * T^2 - S^3*c1^2 + c2 + 0^0 - 13*Z1^0*c2"

    def forbidden(*args):
        raise AssertionError("parse_poly used polynomial arithmetic")

    for cls in (MultiPoly, ParamScalar):
        for op in ("add", "radd", "sub", "rsub", "neg", "mul", "rmul", "pow"):
            monkeypatch.setattr(cls, f"__{op}__", forbidden)
    got = parse_poly(text, ring)
    monkeypatch.undo()
    assert got == polytext_reference.parse_poly(text, ring)
    assert str(got) == "-3*c1^2*S^3 + 9*S*T^2 + (-12*c2 + 1)"


def test_integer_powers_over_q_stop_at_the_cap():
    ring = ring_over(RATIONALS)
    for text, value in ((f"2^{MAX_INT_BITS - 1}", 2 ** (MAX_INT_BITS - 1)), ("3^2584", 3**2584)):
        assert value.bit_length() == MAX_INT_BITS
        assert parse_poly(f"{text}*S", ring) == ring.const(value) * ring.var("S")
    for text in (f"2^{MAX_INT_BITS}", "3^2585", "7^99999999*S"):
        with pytest.raises(ParseError, match="MAX_INT_BITS"):
            parse_poly(text, ring)
    # bases 0 and 1 are never refused; over F_p every power is reduced
    assert parse_poly("0^99999999 + 1^99999999*S", ring) == ring.var("S")
    f7 = ring_over(prime_field(7))
    assert parse_poly("3^99999999*S", f7) == parse_poly(f"{pow(3, 99999999, 7)}*S", f7)


def test_an_integer_literal_over_q_stops_at_the_cap_too():
    """The cap holds at exponent 1: a literal of MAX_INT_BITS bits is read,
    one bit more is refused over Q, and over F_p it is reduced."""
    ring, f7 = ring_over(RATIONALS), ring_over(prime_field(7))
    top, over = str(2**MAX_INT_BITS - 1), str(2**MAX_INT_BITS)
    assert parse_poly(f"{top}*S", ring) == ring.const(2**MAX_INT_BITS - 1) * ring.var("S")
    with pytest.raises(ParseError, match="MAX_INT_BITS"):
        parse_poly(f"{over}*S", ring)
    assert parse_poly(f"{over}*S", f7) == parse_poly(f"{pow(2, MAX_INT_BITS, 7)}*S", f7)


def test_integer_factors_over_f_p_are_multiplied_raw(monkeypatch):
    """Over F_p an integer factor is pow(b, e, p), or b at e = 1, in plain
    int arithmetic: the field's pow, mul and add are not called, and make
    once per term of the result, in ParamRing.from_terms."""
    from cilines.fields import Field

    calls = []
    make = Field.make

    def forbidden(*args):
        raise AssertionError("a Field operation in the term reader")

    def counted(self, x):
        calls.append(x)
        return make(self, x)

    for op in ("pow", "mul", "add", "neg"):
        monkeypatch.setattr(Field, op, forbidden)
    monkeypatch.setattr(Field, "make", counted)
    ring = ring_over(prime_field(7))
    text = "-3*5^2*c1*S^3 + 9*S*T^2 - 4*S^3*c1 + 13^99*T^3"
    got = parse_poly(text, ring)
    monkeypatch.undo()
    assert got == polytext_reference.parse_poly(text, ring)
    assert str(got) == "5*c1*S^3 + 2*S*T^2 + 6*T^3"
    assert sorted(calls) == sorted([-3 * pow(5, 2, 7) - 4, 9, pow(13, 99, 7)])


def test_an_overlong_integer_is_a_parse_error():
    for text in ("1" * 5000, "S^" + "1" * 5000):
        for field in (RATIONALS, prime_field(7)):
            with pytest.raises(ParseError, match="too many digits"):
                parse_poly(text, ring_over(field))


CURVE_ALPHABET = ("s", "t", "c1", "S", "0", "2", "7", "+", "-", "*", "^", "^2", "^3", " ")


def random_component(rng: random.Random, b: int) -> str:
    """Mostly a component of degree b, whose terms may cancel, vanish mod
    p, carry the parameter c1 or be of degree b + 1; else zero or a
    random string."""
    roll = rng.random()
    if roll < 0.8:
        terms = [
            f"{rng.randint(-1, 8)}*{rng.choice(('', '', '', 'c1*'))}s^{b - j + (rng.random() < 0.03)}*t^{j}"
            for j in range(b + 1)
            if rng.random() < 0.6
        ]
        return " + ".join(terms) or "0"
    if roll < 0.9:
        return "0"
    return "".join(rng.choice(CURVE_ALPHABET) for _ in range(rng.randint(1, 7)))


def test_curve_components_read_as_through_a_polynomial():
    """Each component read straight into a binary form gives the curve,
    or the error type and text, that parsing it as a polynomial and
    reading that as a form gives."""
    rng = random.Random(20261021)
    kinds = set()
    for _ in range(4_000):
        field = rng.choice(FIELDS)
        coeffs = ParamRing(field, ("c1",) if rng.random() < 0.3 else ())
        b = rng.randint(1, 3)
        texts = [random_component(rng, b) for _ in range(4)]
        got = verdict(_parse_curve_texts, texts, coeffs)
        assert got == verdict(polytext_reference.parse_curve_by_polys, texts, coeffs), texts
        kinds.add(got[0] if isinstance(got, tuple) else "a curve")
    assert kinds == {
        "a curve",
        "ParseError",
        "NotHomogeneous",
        "ParameterPresent",
        "ConstraintViolated",
    }

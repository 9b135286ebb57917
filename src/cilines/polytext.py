"""Text grammar for polynomials, read term by term.

    poly := ["-"] term (("+" | "-") term)*     term := factor ("*" factor)*
    factor := (integer | name) ["^" integer]   name: a variable or parameter

Whitespace may stand between tokens; juxtaposition is not multiplication
and there are no parentheses. Examples: "c1*S^3 - S^2*T", "-s^2*t".

The text is split at + and - into signed terms, each term at * into
factors. An integer factor multiplies the term's coefficient in the
field (F_p reduces its powers modularly), a name adds to the term's
exponent vector, and like terms are summed in one dict. Over Q an
integer power of more than MAX_INT_BITS bits is refused unbuilt.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .fields import Field, Scalar
from .multipoly import MultiPoly, PolyRing
from .params import Exps

#: over Q, the most bits an integer factor b^e may have
MAX_INT_BITS = 4096

_SIGN = re.compile(r"([+-])")
_NAME = "[A-Za-z][A-Za-z0-9]*"  # a variable or parameter name
_FACTOR = re.compile(rf"\s*(?:(\d+)|({_NAME}))\s*(?:\^\s*(\d+)\s*)?")


def parse_poly(text: str, ring: PolyRing) -> MultiPoly:
    field = ring.flat.field
    slots = {name: i for i, name in enumerate(ring.flat.names)}
    pieces = ["+"] + _SIGN.split(text)  # sign, term, sign, term, ...
    if len(pieces) > 3 and not pieces[1].strip() and pieces[2] == "-":
        del pieces[:2]  # only the first term may carry a leading minus
    acc: dict[Exps, Scalar] = {}  # flat exponents: the parameters', then the variables'
    for sign, term in zip(pieces[::2], pieces[1::2]):
        coeff = field.one if sign == "+" else field.neg(field.one)
        exps = [0] * len(slots)
        for factor in term.split("*"):
            m = _FACTOR.fullmatch(factor)
            if m is None:
                raise ParseError(f"bad term {term.strip()!r} in {text!r}")
            base, name, power = m.groups()
            try:
                e = int(power) if power else 1
                b = None if base is None else int(base)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"too many digits in {factor.strip()[:40]!r}...") from None
            if b is not None:
                coeff = field.mul(coeff, _int_power(field, b, e, factor))
            elif name in slots:
                exps[slots[name]] += e
            else:
                raise ParseError(f"unknown name {name!r} (not a variable or parameter)")
        key = tuple(exps)
        acc[key] = field.add(acc[key], coeff) if key in acc else coeff
    return MultiPoly(ring, ring.flat.from_terms(acc))


def _int_power(field: Field, b: int, e: int, factor: str) -> Scalar:
    """b^e in the field. Over Q a power of b > 1 has at least
    (bit_length(b) - 1) * e + 1 bits, so a large one is refused unbuilt."""
    if field.p is not None or b < 2:
        return field.pow(field.make(b), e)
    if (b.bit_length() - 1) * e < MAX_INT_BITS:
        v = b**e
        if v.bit_length() <= MAX_INT_BITS:
            return field.make(v)
    raise ParseError(f"{factor.strip()!r} has more than MAX_INT_BITS = {MAX_INT_BITS} bits")

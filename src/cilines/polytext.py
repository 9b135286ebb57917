"""Text grammar for polynomials, read term by term.

    poly := ["-"] term (("+" | "-") term)*     term := factor ("*" factor)*
    factor := (integer | name) ["^" integer]   name: a variable or parameter

Whitespace may stand between tokens; juxtaposition is not multiplication
and there are no parentheses. Examples: "c1*S^3 - S^2*T", "-s^2*t".

The text is split at + and - into signed terms, each term at * into
factors. An integer factor multiplies the term's raw coefficient (over
F_p as pow(b, e, p), or b at e = 1), a name adds to the term's exponent
vector, and like terms are summed raw in one dict, brought into the field
by from_terms. Over Q a power of more than MAX_INT_BITS bits is refused.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .multipoly import MultiPoly, PolyRing
from .params import Exps

#: over Q, the most bits an integer factor b^e may have
MAX_INT_BITS = 4096

_SIGN = re.compile(r"([+-])")
_NAME = "[A-Za-z][A-Za-z0-9]*"  # a variable or parameter name
_FACTOR = re.compile(rf"\s*(?:(\d+)|({_NAME}))\s*(?:\^\s*(\d+)\s*)?")


def parse_poly(text: str, ring: PolyRing) -> MultiPoly:
    p = ring.flat.field.p
    slots = {name: i for i, name in enumerate(ring.flat.names)}
    pieces = ["+"] + _SIGN.split(text)  # sign, term, sign, term, ...
    if len(pieces) > 3 and not pieces[1].strip() and pieces[2] == "-":
        del pieces[:2]  # only the first term may carry a leading minus
    acc: dict[Exps, int] = {}  # flat exponents: the parameters', then the variables'
    for sign, term in zip(pieces[::2], pieces[1::2]):
        coeff = 1 if sign == "+" else -1
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
            if b is None:
                if name not in slots:
                    raise ParseError(f"unknown name {name!r} (not a variable or parameter)")
                exps[slots[name]] += e
            elif p is None:
                coeff *= _int_power(b, e, factor)
            else:
                coeff *= b if e == 1 else pow(b, e, p)
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + coeff
    return MultiPoly(ring, ring.flat.from_terms(acc))


def _int_power(b: int, e: int, factor: str) -> int:
    """b^e over Q. A power of b > 1 has at least (bit_length(b) - 1) * e + 1
    bits, so a large one is refused unbuilt."""
    if (b.bit_length() - 1) * e < MAX_INT_BITS and (v := b**e).bit_length() <= MAX_INT_BITS:
        return v
    raise ParseError(f"{factor.strip()!r} has more than MAX_INT_BITS = {MAX_INT_BITS} bits")

"""Text grammar for polynomials, read term by term.

    poly := ["-"] term (("+" | "-") term)*     term := factor ("*" factor)*
    factor := (integer | name) ["^" integer]   name: a variable or parameter

Whitespace may stand between tokens; juxtaposition is not multiplication
and there are no parentheses. Examples: "c1*S^3 - S^2*T", "-s^2*t".

read_terms sums like terms raw by exponent vector. A factor of known names
and ASCII digits is read by partition("^"), a slot lookup and int(), any
other by the regex _FACTOR, whose grammar and ParseErrors hold. Over Q an
integer power of more than MAX_INT_BITS bits is refused. parse_poly and
cli._parse_curve_texts bring the sums into the field.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import ParseError
from .multipoly import MultiPoly, PolyRing
from .params import Exps

#: over Q, the most bits an integer factor b^e may have
MAX_INT_BITS = 4096

_SIGN = re.compile(r"([+-])")
_NAME = "[A-Za-z][A-Za-z0-9]*"  # a variable or parameter name
_FACTOR = re.compile(rf"\s*(?:(\d+)|({_NAME}))\s*(?:\^\s*(\d+)\s*)?")


def parse_poly(text: str, ring: PolyRing) -> MultiPoly:
    flat = ring.flat
    return MultiPoly(ring, flat.from_terms(read_terms(text, flat.names, flat.field.p)))


@lru_cache(maxsize=256)
def _slots(names: tuple[str, ...]) -> dict[str, int]:
    """The place in an exponent vector of each name that _FACTOR reads."""
    reads = [_FACTOR.fullmatch(name) for name in names]
    return {name: i for i, (name, m) in enumerate(zip(names, reads)) if m and m[2] == name}


def read_terms(text: str, names: tuple[str, ...], p: int | None) -> dict[Exps, int]:
    """The terms of text as raw sums by exponent vector in `names`, over
    F_p (p prime) or Q (p None); a sum may be zero in the field."""
    slots = _slots(names)
    pieces = ["+"] + _SIGN.split(text)  # sign, term, sign, term, ...
    if len(pieces) > 3 and not pieces[1].strip() and pieces[2] == "-":
        del pieces[:2]  # only the first term may carry a leading minus
    acc: dict[Exps, int] = {}
    for sign, term in zip(pieces[::2], pieces[1::2]):
        coeff = 1 if sign == "+" else -1
        exps = [0] * len(names)
        for factor in term.strip().split("*"):
            head, caret, power = factor.partition("^")
            if not (head in slots or head.isascii() and head.isdigit()) or (
                caret and not (power.isascii() and power.isdigit())
            ):  # spaced, or not of known names and ASCII digits
                m = _FACTOR.fullmatch(factor)
                if m is None:
                    raise ParseError(f"bad term {term.strip()!r} in {text!r}")
                base, name, power = m.groups()
                head = base or name
            slot = slots.get(head)
            try:
                e = int(power) if power else 1
                b = int(head) if slot is None and head.isdecimal() else None
            except ValueError:  # more digits than int() converts
                raise ParseError(f"too many digits in {factor.strip()[:40]!r}...") from None
            if slot is not None:
                exps[slot] += e
            elif b is None:
                raise ParseError(f"unknown name {head!r} (not a variable or parameter)")
            elif p is None:
                coeff *= _int_power(b, e, factor)
            else:
                coeff *= b if e == 1 else pow(b, e, p)
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + coeff
    return acc


def _int_power(b: int, e: int, factor: str) -> int:
    """b^e over Q. A power of b > 1 has at least (bit_length(b) - 1) * e + 1
    bits, so a large one is refused unbuilt."""
    if (b.bit_length() - 1) * e < MAX_INT_BITS and (v := b**e).bit_length() <= MAX_INT_BITS:
        return v
    raise ParseError(f"{factor.strip()!r} has more than MAX_INT_BITS = {MAX_INT_BITS} bits")

"""Test-only references for polytext, each kept verbatim to cross-check
the term reader:

- parse_poly, the recursive-descent parser polytext used before its term
  reader; it builds each form by MultiPoly arithmetic;
- parse_poly_by_regex, the first term reader, which matched every factor
  with the regex _FACTOR and summed like terms by exponent tuple;
- parse_curve_by_polys, the curve reader that parsed each component as a
  polynomial in s and t and read that as a binary form.
"""

from __future__ import annotations

import re

from cilines.cli import MAX_CURVE_DEGREE
from cilines.errors import BudgetExceeded, ParseError, UnknownVariable
from cilines.geometry import RationalCurve
from cilines.multipoly import BinaryForm, MultiPoly, PolyRing
from cilines.params import Exps, ParamRing

from support import binary_form_from_poly, param

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([+\-*^]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r} in {text!r}")
            break
        if m.group(1):
            out.append(("int", m.group(1)))
        elif m.group(2):
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], ring: PolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of polynomial")
        self.pos += 1
        return tok

    def atom(self) -> MultiPoly:
        kind, value = self.take()
        if kind == "int":
            return self.ring.const(int(value))
        if kind == "name":
            if value in self.ring.variables:
                return self.ring.var(value)
            if value in self.ring.coeffs.names:
                return param(self.ring, value)
            raise ParseError(f"unknown name {value!r} (not a variable or parameter)")
        raise ParseError(f"expected a number or name, got {value!r}")

    def factor(self) -> MultiPoly:
        base = self.atom()
        tok = self.peek()
        if tok == ("op", "^"):
            self.take()
            kind, value = self.take()
            if kind != "int":
                raise ParseError(f"exponent must be an integer, got {value!r}")
            return base ** int(value)
        return base

    def term(self) -> MultiPoly:
        acc = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            acc = acc * self.factor()
        return acc

    def expression(self) -> MultiPoly:
        negate = False
        if self.peek() == ("op", "-"):
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.take()
                acc = acc + self.term()
            elif tok == ("op", "-"):
                self.take()
                acc = acc - self.term()
            else:
                break
        return acc


def parse_poly(text: str, ring: PolyRing) -> MultiPoly:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    parser = _Parser(tokens, ring)
    try:
        poly = parser.expression()
    except UnknownVariable as exc:
        raise ParseError(str(exc)) from None
    if parser.peek() is not None:
        raise ParseError(f"trailing input after polynomial: {parser.tokens[parser.pos:]}")
    return poly


# -- the first term reader -------------------------------------------------------

#: over Q, the most bits an integer factor b^e may have
MAX_INT_BITS = 4096

_SIGN = re.compile(r"([+-])")
_NAME = "[A-Za-z][A-Za-z0-9]*"  # a variable or parameter name
_FACTOR = re.compile(rf"\s*(?:(\d+)|({_NAME}))\s*(?:\^\s*(\d+)\s*)?")


def parse_poly_by_regex(text: str, ring: PolyRing) -> MultiPoly:
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


# -- the curve reader through polynomials ------------------------------------------


def parse_curve_by_polys(texts: list[str], coeffs: ParamRing) -> RationalCurve:
    ring = PolyRing(coeffs, ("s", "t"))
    polys = [parse_poly_by_regex(t, ring) for t in texts]
    degs = {p.homogeneous_degree() for p in polys if not p.is_zero}
    degs.discard(None)
    if len(degs) != 1:
        raise ParseError(f"curve components must share one degree, got {sorted(degs)}")
    b = degs.pop()
    if b > MAX_CURVE_DEGREE:  # refused before its coefficient vectors are built
        raise BudgetExceeded(
            f"a curve of degree {b}; a problem file's curve has degree at most "
            f"MAX_CURVE_DEGREE = {MAX_CURVE_DEGREE}"
        )
    comps = []
    for p in polys:
        if p.is_zero:
            comps.append(BinaryForm.zero(coeffs.field, b))
        else:
            comps.append(binary_form_from_poly(p))
    return RationalCurve(tuple(comps))

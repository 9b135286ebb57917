"""Test-only reference: the recursive-descent parser that polytext used
before its term reader, kept verbatim to cross-check the term reader.
It builds each form by MultiPoly arithmetic.
"""

from __future__ import annotations

import re

from cilines.errors import ParseError, UnknownVariable
from cilines.multipoly import MultiPoly, PolyRing

from support import param

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

"""Test-only reference: a polynomial kept nested, as a dict from variable
exponents to a dict from parameter exponents to base-field coefficients,
with schoolbook sums and products and a printer of its own. It
cross-checks MultiPoly, which stores the same polynomial flat: its
`terms` view, its printing and its equality.
"""

from __future__ import annotations

from cilines.fields import Field, Scalar
from cilines.multipoly import PolyRing

Exps = tuple[int, ...]


def _grlex_descending(keys):
    return sorted(keys, key=lambda e: (sum(e), e), reverse=True)


class NestedPoly:
    def __init__(self, ring: PolyRing, terms: dict[Exps, dict[Exps, Scalar]]):
        field = ring.coeffs.field
        self.ring = ring
        self.terms: dict[Exps, dict[Exps, Scalar]] = {}
        for e, coeff in terms.items():
            kept = {pe: v for pe, v in coeff.items() if not field.is_zero(v)}
            if kept:
                self.terms[e] = kept

    @property
    def field(self) -> Field:
        return self.ring.coeffs.field

    def __add__(self, other: "NestedPoly") -> "NestedPoly":
        acc = {e: dict(c) for e, c in self.terms.items()}
        for e, coeff in other.terms.items():
            into = acc.setdefault(e, {})
            for pe, v in coeff.items():
                into[pe] = self.field.add(into[pe], v) if pe in into else v
        return NestedPoly(self.ring, acc)

    def __neg__(self) -> "NestedPoly":
        neg = self.field.neg
        return NestedPoly(
            self.ring, {e: {pe: neg(v) for pe, v in c.items()} for e, c in self.terms.items()}
        )

    def __sub__(self, other: "NestedPoly") -> "NestedPoly":
        return self + (-other)

    def __mul__(self, other: "NestedPoly") -> "NestedPoly":
        field = self.field
        acc: dict[Exps, dict[Exps, Scalar]] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                into = acc.setdefault(tuple(x + y for x, y in zip(e1, e2)), {})
                for pe1, v1 in c1.items():
                    for pe2, v2 in c2.items():
                        pe = tuple(x + y for x, y in zip(pe1, pe2))
                        v = field.mul(v1, v2)
                        into[pe] = field.add(into[pe], v) if pe in into else v
        return NestedPoly(self.ring, acc)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NestedPoly) and self.terms == other.terms

    def sorted_terms(self) -> tuple:
        """((variable exponents, ((parameter exponents, value), ...)), ...),
        both levels in descending graded-lex order."""
        return tuple(
            (e, tuple((pe, self.terms[e][pe]) for pe in _grlex_descending(self.terms[e])))
            for e in _grlex_descending(self.terms)
        )

    def __str__(self) -> str:
        pieces = []
        for e, coeff in self.sorted_terms():
            mono = _monomial(self.ring.variables, e)
            text, neg = self._coefficient(coeff)
            body = text if not mono else mono if text == "1" else f"{text}*{mono}"
            if pieces:
                pieces.append(f"- {body}" if neg else f"+ {body}")
            else:
                pieces.append(f"-{body}" if neg else body)
        return " ".join(pieces) or "0"

    def _coefficient(self, coeff) -> tuple[str, bool]:
        """Text and sign of a coefficient: a constant by its value, a
        coefficient of several terms in parentheses, a one-term one with
        its sign given to the joiner."""
        names = self.ring.coeffs.names
        if len(coeff) == 1 and not any(coeff[0][0]):
            return self._signed(coeff[0][1])
        parts = []
        for pe, v in coeff:
            text, neg = self._signed(v)
            mono = _monomial(names, pe)
            body = text if not mono else mono if text == "1" else f"{text}*{mono}"
            if parts:
                parts.append(f"- {body}" if neg else f"+ {body}")
            else:
                parts.append(f"-{body}" if neg else body)
        if len(coeff) > 1:
            return "(" + " ".join(parts) + ")", False
        return parts[0].lstrip("-"), parts[0].startswith("-")

    def _signed(self, v: Scalar) -> tuple[str, bool]:
        neg = self.field.p is None and v < 0
        return self.field.to_str(-v if neg else v), neg

    def expanded_text(self) -> str:
        """Every (parameter, variable) term written out, in the grammar
        that parse_poly reads; every value must be an integer."""
        names = self.ring.coeffs.names + self.ring.variables
        out = []
        for e, coeff in self.sorted_terms():
            for pe, v in coeff:
                text, neg = self._signed(v)
                mono = _monomial(names, pe + e)
                body = "*".join(x for x in (text, mono) if x)
                out.append(("- " if neg else "+ ") + body if out else ("-" if neg else "") + body)
        return " ".join(out) or "0"


def _monomial(names, exps) -> str:
    return "*".join(f"{n}^{x}" if x > 1 else n for n, x in zip(names, exps) if x)

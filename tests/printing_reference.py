"""Test-only reference: the printers of ParamScalar, MultiPoly and
BinaryForm as they ran before params._sum_text, kept verbatim but for
being functions of the printed object. Each term went through _signed,
which gave the text of |c| and its sign over any field, and _print_sum
placed the signs from (monomial, coefficient text, negative) triples.
"""

from __future__ import annotations

from typing import Iterable

from cilines.fields import Field, Scalar
from cilines.monomials import _field_sum, _monomial, _monomial_texts
from cilines.multipoly import BinaryForm, MultiPoly
from cilines.params import ParamScalar


def _signed(field: Field, c: Scalar) -> tuple[str, bool]:
    """Text of |c| and whether c is negative; only rationals carry a sign."""
    neg = field.p is None and c < 0
    return field.to_str(-c if neg else c), neg


def _term_text(mono: str, cs: str) -> str:
    """A term without its sign: an empty monomial is a constant term, and
    a coefficient "1" before a monomial is left out."""
    return cs if not mono else mono if cs == "1" else f"{cs}*{mono}"


def _print_sum(terms: Iterable[tuple[str, str, bool]]) -> str:
    """Print a sum from (monomial, coefficient text, negative) triples,
    each term as _term_text gives it; a negative term puts its sign in
    the joiner."""
    pieces: list[str] = []
    for mono, cs, neg in terms:
        body = _term_text(mono, cs)
        if pieces:
            pieces.append(f"- {body}" if neg else f"+ {body}")
        else:
            pieces.append(f"-{body}" if neg else body)
    return " ".join(pieces) or "0"


def scalar_text(x: ParamScalar) -> str:
    texts, field = _monomial_texts(x.ring.names, x.width), x.ring.field
    return _print_sum((texts[key], *_signed(field, c)) for key, c in x.packed)


def poly_text(p: MultiPoly) -> str:
    coeffs, flat = p.ring.coeffs, p.flat
    if not coeffs.k:
        return scalar_text(flat)
    field, w = coeffs.field, flat.width
    vbits = 8 * w * p.ring.n
    low, high = (1 << vbits) - 1, (1 << 8 * w * coeffs.k) - 1
    groups: dict[int, list[tuple[int, Scalar]]] = {}
    for key, c in flat.packed:  # within a group, graded-lex on the parameters
        groups.setdefault(key & low, []).append((key >> vbits & high, c))
    texts = _monomial_texts(coeffs.names, w)

    def coefficient(terms: list[tuple[int, Scalar]]) -> tuple[str, bool]:
        if len(terms) > 1:
            return f"({_print_sum((texts[pk], *_signed(field, c)) for pk, c in terms)})", False
        ((pk, c),) = terms
        cs, neg = _signed(field, c)
        return _term_text(texts[pk], cs), neg

    order = sorted(groups, key=lambda vk: (_field_sum(vk, w), vk), reverse=True)
    variables = _monomial_texts(p.ring.variables, w)
    return _print_sum((variables[vk], *coefficient(groups[vk])) for vk in order)


def binary_form_text(f: BinaryForm) -> str:
    return _print_sum(
        (_monomial(("s", "t"), (f.degree - k, k)), *_signed(f.field, c))
        for k, c in enumerate(f.coeffs)
        if c
    )

"""Test-only reference: the scalar kernel with tuple-keyed terms, as
params.ParamScalar ran it before its terms were stored as packed int
keys. Each term is (exponent tuple, coefficient) in descending
graded-lex order; a one-term product adds exponent tuples slot by slot,
sums merge in an exponent-keyed dict and sort on (degree, exponents), and
exact division pops leading exponents from a heap of negated tuples.
sum_of_products packs keys for the length of one call, in the base
1 + max(deg x + deg y).

The oracle tests run the program's kernel and this one on the same
operands, and _bareiss of exactmatrix over both scalar classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add, neg, sub
from typing import Iterable, Sequence

from cilines.errors import InexactDivision, RingMismatch
from cilines.fields import Scalar
from cilines.params import ParamRing, ParamScalar, _sum_text

Exps = tuple[int, ...]


def _term_key(term: tuple[Exps, Scalar]) -> tuple[int, Exps]:
    exps = term[0]
    return (sum(exps), exps)


def _heap_key(exps: Exps) -> tuple[int, Exps, Exps]:
    """Min-heap key that pops exponents in descending grlex order."""
    return (-sum(exps), tuple(map(neg, exps)), exps)


def _pack(terms: Iterable[tuple[Exps, Scalar]], base: int) -> list[tuple[int, Scalar]]:
    out = []
    for e, c in terms:
        key = sum(e)
        for x in e:
            key = key * base + x
        out.append((key, c))
    return out


def _unpack(keys: Sequence[int], base: int, k: int) -> list[Exps]:
    weights = [base**i for i in range(k - 1, -1, -1)]
    return list(zip(*[[key // w % base for key in keys] for w in weights]))


class TupleRing:
    """The ring of a ParamRing, making TupleScalars."""

    def __init__(self, ring: ParamRing) -> None:
        self.ring = ring
        self.field = ring.field
        self.names = ring.names
        self.k = ring.k

    def zero(self) -> "TupleScalar":
        return TupleScalar(self, ())

    def one(self) -> "TupleScalar":
        return TupleScalar(self, (((0,) * self.k, self.field.one),))

    def const(self, value) -> "TupleScalar":
        v = self.field.make(value)
        return self.zero() if v == 0 else TupleScalar(self, (((0,) * self.k, v),))

    def from_terms(self, terms) -> "TupleScalar":
        clean = [t for t in terms.items() if t[1]]
        clean.sort(key=_term_key, reverse=True)
        return TupleScalar(self, tuple(clean))

    def of(self, x: ParamScalar) -> "TupleScalar":
        """The reference scalar with x's terms."""
        return TupleScalar(self, x.terms)


@dataclass(frozen=True)
class TupleScalar:
    ring: TupleRing
    terms: tuple[tuple[Exps, Scalar], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other) -> "TupleScalar":
        if isinstance(other, TupleScalar):
            if other.ring.ring != self.ring.ring:
                raise RingMismatch(f"mixed rings {self.ring.ring} and {other.ring.ring}")
            return other
        return self.ring.const(other)

    def __add__(self, other) -> "TupleScalar":
        return self._merge(self._coerce(other), False)

    def __sub__(self, other) -> "TupleScalar":
        return self._merge(self._coerce(other), True)

    def __neg__(self) -> "TupleScalar":
        f = self.ring.field
        return TupleScalar(self.ring, tuple((e, f.neg(c)) for e, c in self.terms))

    def _merge(self, other: "TupleScalar", negate: bool) -> "TupleScalar":
        if not other.terms:
            return self
        if not self.terms:
            return -other if negate else other
        f = self.ring.field
        op = f.sub if negate else f.add
        acc = dict(self.terms)
        for e, c in other.terms:
            if e in acc:
                acc[e] = op(acc[e], c)
            else:
                acc[e] = f.neg(c) if negate else c
        return self.ring.from_terms(acc)

    def __mul__(self, other) -> "TupleScalar":
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if not a:
            return self
        if not b:
            return other
        f = self.ring.field
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:  # shifting every exponent by e0 keeps their order
            ((e0, c0),) = b
            return TupleScalar(self.ring, tuple((tuple(map(add, e, e0)), f.mul(c, c0)) for e, c in a))
        return sum_of_products(self.ring, ((self, other),))

    def exact_div(self, divisor: "TupleScalar") -> "TupleScalar":
        divisor = self._coerce(divisor)
        if not divisor.terms:
            raise ZeroDivisionError("division by zero polynomial")
        f = self.ring.field
        (de, dc), *rest = divisor.terms
        inv = f.inv(dc)
        if not rest and not any(de):
            return TupleScalar(self.ring, tuple((e, f.mul(c, inv)) for e, c in self.terms))
        tail = [(e, f.neg(c)) for e, c in rest]
        num = dict(self.terms)
        heap = [_heap_key(e) for e, _ in self.terms]
        quo = []
        while heap:
            le = heappop(heap)[2]
            lc = num.pop(le, None)
            if lc is None:
                continue
            qe = tuple(map(sub, le, de))
            if min(qe, default=0) < 0:
                raise InexactDivision(f"{divisor} does not divide exactly")
            qc = f.mul(lc, inv)
            quo.append((qe, qc))
            for e2, c2 in tail:
                e = tuple(map(add, qe, e2))
                if e in num:
                    v = f.add(num[e], f.mul(qc, c2))
                    if v:
                        num[e] = v
                    else:
                        del num[e]
                else:
                    num[e] = f.mul(qc, c2)
                    heappush(heap, _heap_key(e))
        return TupleScalar(self.ring, tuple(quo))

    def __str__(self) -> str:
        return _sum_text(self.ring.names, self.ring.field, self.terms)


def sum_of_products(
    ring: TupleRing, pairs: Sequence[tuple[TupleScalar, TupleScalar]], signs: Sequence[bool] = ()
) -> TupleScalar:
    live = [
        (x.terms, y.terms, negated)
        for (x, y), negated in zip(pairs, signs or (False,) * len(pairs), strict=True)
        if x.terms and y.terms
    ]
    if not ring.k:  # constants, summed raw
        return ring.const(sum(-a[0][1] * b[0][1] if n else a[0][1] * b[0][1] for a, b, n in live))
    if not live:
        return ring.zero()
    base = 1 + max(sum(a[0][0]) + sum(b[0][0]) for a, b, _ in live)
    acc: dict[int, Scalar] = {}
    for a, b, negated in live:
        pb = _pack(b, base)
        for k1, c1 in _pack(a, base):
            if negated:
                c1 = -c1
            for k2, c2 in pb:
                acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
    keys = sorted(acc, reverse=True)
    coeffs = map(ring.field.make, map(acc.__getitem__, keys))
    terms = zip(_unpack(keys, base, ring.k), coeffs)
    return TupleScalar(ring, tuple(t for t in terms if t[1]))


class TupleMatrix:
    """What exactmatrix._bareiss reads of an ExactMatrix, with the entries
    of one as TupleScalars."""

    def __init__(self, m) -> None:
        self.ring = TupleRing(m.ring)
        self.rows, self.cols = m.rows, m.cols
        self.grid = [[self.ring.of(x) for x in row] for row in m.to_lists()]

    def to_lists(self) -> list[list[TupleScalar]]:
        return [list(row) for row in self.grid]

"""Sparse polynomials in named parameters over an exact base field.

These are the scalars of the linear algebra layer. Rank computations run
over the fraction field K(c_1, ..., c_k) of this ring, so genericity
certificates come out as explicit nonzero polynomials in the parameters.
A ring with no names degenerates to the base field itself.

Canonical form: zero is the empty term tuple; terms are kept sorted in
descending graded-lexicographic order (total degree first, ties broken on
the exponent vector), which fixes printing, equality and leading terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add, neg, sub
from typing import Iterable, Mapping, Sequence, TypeVar

from .errors import InexactDivision, ParameterPresent, RingMismatch, UnknownVariable
from .fields import Field, Scalar

Exps = tuple[int, ...]
C = TypeVar("C")


def grlex_key(exps: Exps) -> tuple[int, Exps]:
    return (sum(exps), exps)


def _term_key(term: tuple[Exps, Scalar]) -> tuple[int, Exps]:
    exps = term[0]
    return (sum(exps), exps)


def _pack(terms: Iterable[tuple[Exps, C]], base: int) -> list[tuple[int, C]]:
    """(key, coefficient) pairs, the key holding the total degree and then
    the exponents as digits in `base`. While base exceeds the total degree
    of every product formed, adding keys multiplies monomials, and
    descending keys are descending grlex."""
    out = []
    for e, c in terms:
        key = sum(e)
        for x in e:
            key = key * base + x
        out.append((key, c))
    return out


def _unpack(keys: Sequence[int], base: int, k: int) -> list[Exps]:
    """The k exponents packed in each key, in the order of `keys`."""
    weights = [base**i for i in range(k - 1, -1, -1)]
    return list(zip(*[[key // w % base for key in keys] for w in weights]))


def _heap_key(exps: Exps) -> tuple[int, Exps, Exps]:
    """Min-heap key that pops exponents in descending grlex order."""
    return (-sum(exps), tuple(map(neg, exps)), exps)


@dataclass(frozen=True)
class ParamRing:
    """K[c_1, ..., c_k] for a base field K and ordered parameter names."""

    field: Field
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise RingMismatch(f"duplicate parameter names in {self.names}")

    @property
    def k(self) -> int:
        return len(self.names)

    def zero(self) -> "ParamScalar":
        return ParamScalar(self, ())

    def one(self) -> "ParamScalar":
        return ParamScalar(self, (((0,) * self.k, self.field.one),))

    def const(self, value: int | Scalar) -> "ParamScalar":
        v = self.field.make(value)
        if self.field.is_zero(v):
            return self.zero()
        return ParamScalar(self, (((0,) * self.k, v),))

    def var(self, name: str) -> "ParamScalar":
        try:
            i = self.names.index(name)
        except ValueError:
            raise UnknownVariable(f"parameter {name!r} not in ring {self.names}") from None
        exps = tuple(1 if j == i else 0 for j in range(self.k))
        return ParamScalar(self, ((exps, self.field.one),))

    def from_terms(self, terms: Mapping[Exps, Scalar]) -> "ParamScalar":
        clean = [t for t in terms.items() if t[1]]  # field zeros are falsy
        if len(clean) > 1:
            clean.sort(key=_term_key, reverse=True)
        return ParamScalar(self, tuple(clean))

    def __str__(self) -> str:
        return f"{self.field}[{', '.join(self.names)}]"


@dataclass(frozen=True)
class ParamScalar:
    """A polynomial in the ring's parameters with field coefficients."""

    ring: ParamRing
    terms: tuple[tuple[Exps, Scalar], ...]

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and sum(self.terms[0][0]) == 0)

    def constant_value(self) -> Scalar:
        if not self.terms:
            return self.ring.field.zero
        if not self.is_constant:
            raise ParameterPresent(f"{self} carries parameters")
        return self.terms[0][1]

    # -- ring operations -------------------------------------------------
    #
    # _coerce returns an operand that is a ParamScalar of the very same
    # ring object as it is; anything else is converted or checked there
    # (RingMismatch). Over a ring with no parameters (k = 0) a scalar has at most the one
    # term ((), v), so the constant fast paths work on that term directly.

    def _coerce(self, other) -> "ParamScalar":
        if other.__class__ is ParamScalar and other.ring is self.ring:
            return other
        if isinstance(other, ParamScalar):
            if other.ring != self.ring:
                raise RingMismatch(f"mixed rings {self.ring} and {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "ParamScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge(other, False)

    __radd__ = __add__

    def __neg__(self) -> "ParamScalar":
        f = self.ring.field
        if not self.ring.names:
            return ParamScalar(self.ring, (((), f.neg(self.terms[0][1])),) if self.terms else ())
        return ParamScalar(self.ring, tuple((e, f.neg(c)) for e, c in self.terms))

    def __sub__(self, other) -> "ParamScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge(other, True)

    def _merge(self, other: "ParamScalar", negate: bool) -> "ParamScalar":
        """self + other, or self - other when negate is set."""
        if not other.terms:
            return self
        if not self.terms:
            return -other if negate else other
        ring = self.ring
        f = ring.field
        op = f.sub if negate else f.add
        if not ring.names:
            c = op(self.terms[0][1], other.terms[0][1])
            return ParamScalar(ring, (((), c),) if c else ())
        acc = dict(self.terms)
        for e, c in other.terms:
            if e in acc:
                acc[e] = op(acc[e], c)
            else:
                acc[e] = f.neg(c) if negate else c
        return ring.from_terms(acc)

    def __rsub__(self, other) -> "ParamScalar":
        return (-self) + other

    def __mul__(self, other) -> "ParamScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a:
            return self
        if not b:
            return other
        ring = self.ring
        f = ring.field
        if not ring.names:
            # a field has no zero divisors, so the product term is nonzero
            return ParamScalar(ring, (((), f.mul(a[0][1], b[0][1])),))
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:  # shifting every exponent by e0 keeps their order
            ((e0, c0),) = b
            fmul = f.mul
            return ParamScalar(ring, tuple((tuple(map(add, e, e0)), fmul(c, c0)) for e, c in a))
        return sum_of_products(ring, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamScalar":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) == 1:  # a monomial: (c x^e)^n = c^n x^(n e)
            ((e, c),) = self.terms
            return ParamScalar(self.ring, ((tuple(n * x for x in e), self.ring.field.pow(c, n)),))
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    # -- division ---------------------------------------------------------

    def exact_div(self, divisor: "ParamScalar") -> "ParamScalar":
        """Divide by a polynomial known to divide self exactly.

        Leading-term elimination in graded-lex order; raises
        InexactDivision whenever the division would leave a remainder.
        The exponents of the remainder wait in a heap, so each step pops
        the leading term; an exponent whose coefficient cancelled stays
        in the heap and is skipped when it comes up.
        """
        ring = self.ring
        divisor = self._coerce(divisor)
        if not divisor.terms:
            raise ZeroDivisionError("division by zero polynomial")
        f = ring.field
        fmul = f.mul
        (de, dc), *rest = divisor.terms
        if not ring.names:
            return ParamScalar(ring, (((), f.div(self.terms[0][1], dc)),) if self.terms else ())
        inv = f.inv(dc)
        if not rest and not any(de):  # a constant divisor
            return ParamScalar(ring, tuple((e, fmul(c, inv)) for e, c in self.terms))
        tail = [(e, f.neg(c)) for e, c in rest]
        fadd = f.add
        num = dict(self.terms)
        heap = [_heap_key(e) for e, _ in self.terms]  # sorted, hence a heap
        quo: list[tuple[Exps, Scalar]] = []  # comes out in descending order
        while heap:
            le = heappop(heap)[2]
            lc = num.pop(le, None)
            if lc is None:
                continue
            qe = tuple(map(sub, le, de))
            if min(qe) < 0:
                raise InexactDivision(f"{divisor} does not divide exactly")
            qc = fmul(lc, inv)
            quo.append((qe, qc))
            for e2, c2 in tail:
                e = tuple(map(add, qe, e2))
                if e in num:
                    v = fadd(num[e], fmul(qc, c2))
                    if v:
                        num[e] = v
                    else:
                        del num[e]
                else:
                    num[e] = fmul(qc, c2)
                    heappush(heap, _heap_key(e))
        return ParamScalar(ring, tuple(quo))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, values: Mapping[str, Scalar]) -> Scalar:
        """Evaluate at field values; every occurring parameter must be set."""
        return evaluate_from(self, 0, values).get((), self.ring.field.zero)

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        return _sum_text(self.ring.names, self.ring.field, self.terms)


def sum_of_products(
    ring: ParamRing,
    pairs: Sequence[tuple[ParamScalar, ParamScalar]],
    signs: Sequence[bool] = (),
) -> ParamScalar:
    """The sum of x * y over the pairs (x, y) of `ring`, with the product
    of pair i subtracted where signs[i] is true; empty signs add every
    product.

    All the products share one accumulator keyed by packed exponents in
    base 1 + max(deg x + deg y), read from the leading terms, so adding
    two keys multiplies the monomials. The raw coefficient sums are
    brought into the field once per key, and the keys are sorted and
    unpacked once. Over a ring with no parameters the constants are
    summed raw.
    """
    live = []
    for (x, y), neg in zip(pairs, signs or (False,) * len(pairs), strict=True):
        for v in (x, y):
            if v.ring is not ring and v.ring != ring:
                raise RingMismatch(f"a scalar over {v.ring} in a sum over {ring}")
        if x.terms and y.terms:
            live.append((x.terms, y.terms, neg))
    if not ring.names:
        total = sum(-a[0][1] * b[0][1] if neg else a[0][1] * b[0][1] for a, b, neg in live)
        return ring.const(total)
    if not live:
        return ring.zero()
    base = 1 + max(sum(a[0][0]) + sum(b[0][0]) for a, b, _ in live)
    acc: dict[int, Scalar] = {}
    get = acc.get
    for a, b, neg in live:
        pb = _pack(b, base)
        for k1, c1 in _pack(a, base):
            if neg:
                c1 = -c1
            for k2, c2 in pb:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    keys = sorted(acc, reverse=True)
    coeffs = map(ring.field.make, map(acc.__getitem__, keys))
    terms = zip(_unpack(keys, base, ring.k), coeffs)
    return ParamScalar(ring, tuple(t for t in terms if t[1]))  # field zeros are falsy


def evaluate_from(p: ParamScalar, keep: int, values: Mapping[str, Scalar]) -> dict[Exps, Scalar]:
    """The value part of jet_from: every exponent slot of p from `keep` on
    set to the value of its name, summed by the exponents in the slots
    before it. A value that a term uses and that is missing or not in the
    field raises (_check_reads)."""
    value, _ = jet_from(p, keep, (), values)
    if value is None:
        _check_reads(p, keep, None, values)
    return value  # type: ignore[return-value]


def jet_from(
    p: ParamScalar, keep: int, slots: Sequence[int], values: Mapping[str, Scalar]
) -> tuple[dict[Exps, Scalar] | None, list[dict[Exps, Scalar]]]:
    """The value of p and its partials by `slots` (each `keep` or later),
    with every slot from `keep` on set to the value of its name and the
    terms summed by their exponents in the slots before it: one walk over
    the terms, and no derivative is formed.

    A term's product is taken raw, with a list of powers per slot
    (_power), and it adds that product times x / v_z to the partial by
    each slot z of exponent x, with 1 / v_z taken once per call. A term
    with two or more slots at 0 adds nothing; with one, z, it adds its
    product over the other slots to the partial by z when x = 1. An
    exponent that is 0 mod p adds 0, as in a formal derivative. Each sum
    is raw per key and brought into the field once.

    A value is brought into the field when a term first uses it, so an
    unused value is never checked. When a used value is missing or not in
    the field, the value is None and a partial that reads one raises
    (_check_reads).
    """
    names, f = p.ring.names, p.ring.field
    rows: list = [None] * len(names)  # rows[i][x] = v_i^x, or _UNREAD
    invs: list = [None] * len(names)  # 1 / v_i, for a partial by i
    parts: list = [None] * len(names)
    for i in slots:
        parts[i] = {}
    value: dict[Exps, Scalar] = {}
    unread = False
    for e, c in p.terms:
        key = e[:keep]
        used = [(i, x) for i, x in enumerate(e[keep:], keep) if x]
        odd = None  # the one used slot at 0 or unread, -1 for more
        for i, x in used:
            row = rows[i]
            if row is None:
                row = rows[i] = _read(f, values, names[i])
                if row[1] and parts[i] is not None:
                    invs[i] = f.inv(row[1])
                unread = unread or row is _UNREAD
            if row[1]:
                try:
                    c *= row[x]
                except IndexError:
                    c *= _power(f, row, x)
            else:
                odd = i if odd is None else -1
        if odd is None:
            value[key] = value.get(key, 0) + c
            for i, x in used:
                acc = parts[i]
                if acc is not None:
                    acc[key] = acc.get(key, 0) + c * x * invs[i]
        elif odd >= 0 and e[odd] == 1 and parts[odd] is not None:
            acc = parts[odd]
            acc[key] = acc.get(key, 0) + c
    make = f.make
    if unread:
        for i in slots:
            _check_reads(p, keep, i, values)
    partials = [{key: make(v) for key, v in parts[i].items()} for i in slots]
    return (None if unread else {key: make(v) for key, v in value.items()}), partials


#: the power list of a slot whose value is missing or not in the field;
#: its entry at 1 is falsy, as that of a slot at 0 is
_UNREAD: list = [None, None]


def _read(f: Field, values: Mapping[str, Scalar], name: str) -> list:
    """The power list [1, v] of the value of `name`, or _UNREAD. Any
    failure is deferred to _check_reads, which names a missing value even
    when another value fails first, and raises only for what is read."""
    try:
        return [f.one, f.make(values[name])]
    except Exception:
        return _UNREAD


def _check_reads(p: ParamScalar, keep: int, z: int | None, values: Mapping[str, Scalar]) -> None:
    """Raise when an output of jet_from reads a value that is missing or
    not in the field: the partial by slot z, or the value when z is None.
    The error is UnknownVariable naming every missing value it reads, or
    else the field's error on the first such value."""
    names, f = p.ring.names, p.ring.field
    char = f.characteristic
    reads = set()
    for e, _ in p.terms:
        x = 0 if z is None else e[z]
        if z is None or (x and (not char or x % char)):
            reads.update(i for i, y in enumerate(e[keep:], keep) if y and (i != z or x > 1))
    missing = sorted(names[i] for i in reads if names[i] not in values)
    if missing:
        raise UnknownVariable(f"no value for {missing}")
    for i in sorted(reads):
        f.make(values[names[i]])


#: furthest past the end of a power list that _power extends it
_POWER_STEP = 64


def _power(f: Field, row: list[Scalar], x: int) -> Scalar:
    """row[1]^x for a power list row = [1, v, v^2, ...] that ends before
    x. The list is extended by products up to x, unless x is more than
    _POWER_STEP past its end: such a power, c^99999999 say, is taken by
    square-and-multiply and not kept."""
    if x >= len(row) + _POWER_STEP:
        return f.pow(row[1], x)
    while len(row) <= x:
        row.append(f.mul(row[-1], row[1]))
    return row[x]


# -- printing -------------------------------------------------------------------


def _monomial(names: Sequence[str], exps: Sequence[int]) -> str:
    return "*".join(f"{n}^{x}" if x > 1 else n for n, x in zip(names, exps) if x > 0)


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


def _sum_text(names: Sequence[str], field: Field, terms: Iterable[tuple[Exps, Scalar]]) -> str:
    """The text of a ParamScalar in `names` with these terms."""
    return _print_sum((_monomial(names, e), *_signed(field, c)) for e, c in terms)


def require_constant(values: Iterable[ParamScalar]) -> list[Scalar]:
    """Collapse parameter-free scalars to field elements, or raise."""
    out = []
    for v in values:
        if not v.is_constant:
            raise ParameterPresent(f"{v} carries parameters")
        out.append(v.constant_value())
    return out

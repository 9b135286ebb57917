"""Sparse polynomials in named parameters over an exact base field.

These are the scalars of the linear algebra layer. Rank computations run
over the fraction field K(c_1, ..., c_k) of this ring, so genericity
certificates come out as explicit nonzero polynomials in the parameters.
A ring with no names degenerates to the base field itself.

Stored form: a scalar keeps its terms as (key, coefficient) pairs. A key
is one int holding the total degree and then each exponent, one field of
`width` bytes each, big-endian. Adding two keys multiplies the
monomials, and descending keys are descending graded-lexicographic order
(total degree first, ties broken on the exponent vector), which fixes
printing, equality and leading terms. The top bit of every field is a
guard: no key sets it, so a difference of keys that sets one had a
negative exponent. The width is the least of 1, 2, 4, ... bytes whose
field holds the total degree below the guard; it follows from the value,
and an operation whose result needs a wider field repacks its operands
first. Zero is the empty term tuple. `terms` is the unpacked view, the
(exponent tuple, coefficient) pairs in the same order.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field as dataclass_field
from functools import lru_cache
from heapq import heappop, heappush
from typing import Iterable, Mapping, Sequence, TypeVar

from .errors import InexactDivision, ParameterPresent, RingMismatch, UnknownVariable
from .fields import Field, Scalar

Exps = tuple[int, ...]
C = TypeVar("C")


def grlex_key(exps: Exps) -> tuple[int, Exps]:
    return (sum(exps), exps)


def _width(degree: int) -> int:
    """The least of 1, 2, 4, ... bytes whose field holds `degree` below
    its guard bit."""
    w = 1
    while degree >> (8 * w - 1):
        w *= 2
    return w


@lru_cache(maxsize=256)
def _guards(k: int, w: int) -> int:
    """The guard bits of the k + 1 fields of a key at width w."""
    return sum(1 << 8 * w * i + 8 * w - 1 for i in range(k + 1))


def _pack(exps: Sequence[int], w: int) -> int:
    """The key of an exponent vector at width w."""
    fields = (sum(exps), *exps)
    if w == 1:
        return int.from_bytes(bytes(fields), "big")
    return int.from_bytes(b"".join(x.to_bytes(w, "big") for x in fields), "big")


def _exps(key: int, k: int, w: int) -> Sequence[int]:
    """The k exponents packed in a key at width w: the bytes after the
    degree at width 1, and a tuple at a wider width."""
    raw = key.to_bytes(w * (k + 1), "big")
    if w == 1:
        return raw[1:]
    return tuple(int.from_bytes(raw[i : i + w], "big") for i in range(w, len(raw), w))


def _repack(packed: Sequence[tuple[int, C]], k: int, w: int, to: int) -> tuple[tuple[int, C], ...]:
    """Terms of k exponents at width w, packed at width `to`."""
    return tuple((_pack(_exps(key, k, w), to), c) for key, c in packed)


def _at(x: "ParamScalar", w: int) -> tuple[tuple[int, Scalar], ...]:
    """The terms of x packed at width w, no narrower than x's own."""
    return x.packed if x.width == w else _repack(x.packed, x.ring.k, x.width, w)


def _degree(x: "ParamScalar") -> int:
    """The total degree of a nonzero x, read off its leading key."""
    return x.packed[0][0] >> 8 * x.width * x.ring.k


def _unpacked(x: "ParamScalar") -> list[tuple[Sequence[int], Scalar]]:
    """The terms of x as (exponents, coefficient) pairs, the exponents as
    _exps reads them."""
    k, w = x.ring.k, x.width
    if w == 1:
        return [(key.to_bytes(k + 1, "big")[1:], c) for key, c in x.packed]
    return [(_exps(key, k, w), c) for key, c in x.packed]


def _scalar(ring: "ParamRing", packed: tuple[tuple[int, Scalar], ...], w: int) -> "ParamScalar":
    """The scalar with these sorted terms at width w, repacked at the
    width of its own degree when a cancellation lowered that degree."""
    if w > 1:
        narrow = _width(packed[0][0] >> 8 * w * ring.k) if packed else 1
        if narrow < w:
            packed, w = _repack(packed, ring.k, w, narrow), narrow
    return ParamScalar(ring, packed, w)


@dataclass(frozen=True)
class ParamRing:
    """K[c_1, ..., c_k] for a base field K and ordered parameter names."""

    field: Field
    names: tuple[str, ...] = ()

    # len(names), and the ring's zero and one, shared by every caller
    k: int = dataclass_field(init=False, repr=False, compare=False)
    _zero: "ParamScalar" = dataclass_field(init=False, repr=False, compare=False)
    _one: "ParamScalar" = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise RingMismatch(f"duplicate parameter names in {self.names}")
        object.__setattr__(self, "k", len(self.names))
        object.__setattr__(self, "_zero", ParamScalar(self, (), 1))
        object.__setattr__(self, "_one", ParamScalar(self, ((0, self.field.one),), 1))

    def zero(self) -> "ParamScalar":
        return self._zero

    def one(self) -> "ParamScalar":
        return self._one

    def const(self, value: int | Scalar) -> "ParamScalar":
        v = self.field.make(value)
        if self.field.is_zero(v):
            return self.zero()
        return ParamScalar(self, ((0, v),), 1)

    def var(self, name: str) -> "ParamScalar":
        try:
            i = self.names.index(name)
        except ValueError:
            raise UnknownVariable(f"parameter {name!r} not in ring {self.names}") from None
        key = 1 << 8 * self.k | 1 << 8 * (self.k - 1 - i)  # degree 1, exponent 1 at slot i
        return ParamScalar(self, ((key, self.field.one),), 1)

    def from_terms(self, terms: Mapping[Exps, Scalar]) -> "ParamScalar":
        clean = [t for t in terms.items() if t[1]]  # field zeros are falsy
        if not clean:
            return self.zero()
        if not self.names:  # the one term ((), v)
            return ParamScalar(self, ((0, clean[0][1]),), 1)
        w = _width(max(sum(e) for e, _ in clean))
        packed = [(_pack(e, w), c) for e, c in clean]
        packed.sort(reverse=True)  # the keys differ, so no coefficient is compared
        return ParamScalar(self, tuple(packed), w)

    def __str__(self) -> str:
        return f"{self.field}[{', '.join(self.names)}]"


class ParamScalar:
    """A polynomial in the ring's parameters with field coefficients:
    (key, coefficient) terms at `width` bytes per field (module
    docstring). The width follows from the value, so equality and
    hashing read the ring and the terms alone. Immutable: a class with
    slots whose __init__ writes them past the refusing __setattr__, as a
    frozen dataclass takes two to three times as long to build one
    (Python 3.11)."""

    __slots__ = ("ring", "packed", "width")

    ring: ParamRing
    packed: tuple[tuple[int, Scalar], ...]
    width: int

    def __init__(self, ring: ParamRing, packed: tuple[tuple[int, Scalar], ...], width: int) -> None:
        _set_ring(self, ring)
        _set_packed(self, packed)
        _set_width(self, width)

    def __setattr__(self, name: str, value=None) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not ParamScalar:
            return NotImplemented
        return self.packed == other.packed and (self.ring is other.ring or self.ring == other.ring)

    def __hash__(self) -> int:
        return hash((self.ring, self.packed))

    def __repr__(self) -> str:
        return f"ParamScalar({self.ring!r}, {self.packed!r}, {self.width!r})"

    # -- queries --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Exps, Scalar], ...]:
        """(exponent tuple, coefficient) per term, in descending
        graded-lex order."""
        return tuple((tuple(e), c) for e, c in _unpacked(self))

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def is_constant(self) -> bool:
        p = self.packed
        return not p or (len(p) == 1 and not p[0][0])

    def constant_value(self) -> Scalar:
        if not self.packed:
            return self.ring.field.zero
        if not self.is_constant:
            raise ParameterPresent(f"{self} carries parameters")
        return self.packed[0][1]

    # -- ring operations -------------------------------------------------
    #
    # _coerce returns an operand that is a ParamScalar of the very same
    # ring object as it is; anything else is converted or checked there
    # (RingMismatch). Over a ring with no parameters (k = 0) a scalar has at most the one
    # term (0, v), so the constant fast paths work on that term directly.

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
        fneg = self.ring.field.neg
        return ParamScalar(self.ring, tuple((e, fneg(c)) for e, c in self.packed), self.width)

    def __sub__(self, other) -> "ParamScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge(other, True)

    def _merge(self, other: "ParamScalar", negate: bool) -> "ParamScalar":
        """self + other, or self - other when negate is set."""
        if not other.packed:
            return self
        if not self.packed:
            return -other if negate else other
        ring = self.ring
        f = ring.field
        op = f.sub if negate else f.add
        if not ring.names:
            c = op(self.packed[0][1], other.packed[0][1])
            return ParamScalar(ring, ((0, c),) if c else (), 1)
        w = max(self.width, other.width)
        acc = dict(_at(self, w))
        for e, c in _at(other, w):
            if e in acc:
                acc[e] = op(acc[e], c)
            else:
                acc[e] = f.neg(c) if negate else c
        return _scalar(ring, tuple(sorted([t for t in acc.items() if t[1]], reverse=True)), w)

    def __rsub__(self, other) -> "ParamScalar":
        return (-self) + other

    def __mul__(self, other) -> "ParamScalar":
        if other.__class__ is not ParamScalar or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.packed, other.packed
        if not a:
            return self
        if not b:
            return other
        ring = self.ring
        f = ring.field
        if not ring.names:
            # a field has no zero divisors, so the product term is nonzero
            return ParamScalar(ring, ((0, f.mul(a[0][1], b[0][1])),), 1)
        if len(a) > 1 and len(b) > 1:
            return sum_of_products(ring, ((self, other),))
        w = self.width
        if other.width != w or a[0][0] + b[0][0] >> 8 * w * (ring.k + 1) - 1:  # a guard bit
            w = _width(_degree(self) + _degree(other))
            a, b = _at(self, w), _at(other, w)
        if len(a) == 1:
            a, b = b, a
        ((e0, c0),) = b  # adding e0 to every key keeps their order
        fmul = f.mul
        return ParamScalar(ring, tuple((e + e0, fmul(c, c0)) for e, c in a), w)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamScalar":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n and len(self.packed) == 1:  # a monomial: (c x^e)^n = c^n x^(n e)
            w = _width(n * _degree(self))
            ((e, c),) = _at(self, w)
            return ParamScalar(self.ring, ((n * e, self.ring.field.pow(c, n)),), w)
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    # -- division ---------------------------------------------------------

    def exact_div(self, divisor: "ParamScalar") -> "ParamScalar":
        """Divide by a polynomial known to divide self exactly.

        Leading-term elimination in graded-lex order; raises
        InexactDivision whenever the division would leave a remainder.
        The keys of the remainder wait in a heap, negated, so each step
        pops the leading term; a key whose coefficient cancelled stays in
        the heap and is skipped when it comes up. A quotient key with a
        guard bit set had a negative exponent.
        """
        ring = self.ring
        divisor = self._coerce(divisor)
        if not divisor.packed:
            raise ZeroDivisionError("division by zero polynomial")
        f = ring.field
        fmul = f.mul
        if not ring.names:
            dc = divisor.packed[0][1]
            return ParamScalar(ring, ((0, f.div(self.packed[0][1], dc)),) if self.packed else (), 1)
        w = max(self.width, divisor.width)
        (de, dc), *rest = _at(divisor, w)
        inv = f.inv(dc)
        if not rest and not de:  # a constant divisor
            return ParamScalar(ring, tuple((e, fmul(c, inv)) for e, c in self.packed), self.width)
        guards = _guards(ring.k, w)
        tail = [(e, f.neg(c)) for e, c in rest]
        fadd = f.add
        num = dict(_at(self, w))
        heap = [-e for e in num]  # ascending, hence a heap
        quo: list[tuple[int, Scalar]] = []  # comes out in descending order
        while heap:
            le = -heappop(heap)
            lc = num.pop(le, None)
            if lc is None:
                continue
            qe = le - de
            if qe & guards:
                raise InexactDivision(f"{divisor} does not divide exactly")
            qc = fmul(lc, inv)
            quo.append((qe, qc))
            for e2, c2 in tail:
                e = qe + e2
                if e in num:
                    v = fadd(num[e], fmul(qc, c2))
                    if v:
                        num[e] = v
                    else:
                        del num[e]
                else:
                    num[e] = fmul(qc, c2)
                    heappush(heap, -e)
        return _scalar(ring, tuple(quo), w)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, values: Mapping[str, Scalar]) -> Scalar:
        """Evaluate at field values; every occurring parameter must be set."""
        return evaluate_from(self, 0, values).get((), self.ring.field.zero)

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        return _sum_text(self.ring.names, self.ring.field, _unpacked(self))


_set_ring = ParamScalar.ring.__set__  # type: ignore[attr-defined]
_set_packed = ParamScalar.packed.__set__  # type: ignore[attr-defined]
_set_width = ParamScalar.width.__set__  # type: ignore[attr-defined]


def sum_of_products(
    ring: ParamRing,
    pairs: Sequence[tuple[ParamScalar, ParamScalar]],
    signs: Sequence[bool] = (),
) -> ParamScalar:
    """The sum of x * y over the pairs (x, y) of `ring`, with the product
    of pair i subtracted where signs[i] is true; empty signs add every
    product.

    All the products share one accumulator keyed by their keys, at the
    width of the largest deg x + deg y, so adding two keys multiplies the
    monomials. The raw coefficient sums are brought into the field once
    per key, and the keys are sorted once. Over a ring with no parameters
    the constants are summed raw.
    """
    live = []
    for (x, y), neg in zip(pairs, signs or (False,) * len(pairs), strict=True):
        for v in (x, y):
            if v.ring is not ring and v.ring != ring:
                raise RingMismatch(f"a scalar over {v.ring} in a sum over {ring}")
        if x.packed and y.packed:
            live.append((x, y, neg))
    if not ring.names:
        total = sum(
            -x.packed[0][1] * y.packed[0][1] if neg else x.packed[0][1] * y.packed[0][1]
            for x, y, neg in live
        )
        return ring.const(total)
    if not live:
        return ring.zero()
    w = _width(max(_degree(x) + _degree(y) for x, y, _ in live))
    acc: dict[int, Scalar] = {}
    get = acc.get
    for x, y, neg in live:
        b = _at(y, w)
        for k1, c1 in _at(x, w):
            if neg:
                c1 = -c1
            for k2, c2 in b:
                key = k1 + k2
                acc[key] = get(key, 0) + c1 * c2
    keys = sorted(acc, reverse=True)
    terms = zip(keys, map(ring.field.make, map(acc.__getitem__, keys)))
    return _scalar(ring, tuple(t for t in terms if t[1]), w)  # field zeros are falsy


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
    value: dict = {}  # keyed, as the partials are, by e[:keep] until the end
    unread = False
    for e, c in _unpacked(p):
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
    partials = [{tuple(key): make(v) for key, v in parts[i].items()} for i in slots]
    return (None if unread else {tuple(key): make(v) for key, v in value.items()}), partials


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

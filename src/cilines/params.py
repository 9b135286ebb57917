"""Sparse polynomials in named parameters over an exact base field.

These are the scalars of the linear algebra layer. Rank computations run
over the fraction field K(c_1, ..., c_k) of this ring, so genericity
certificates come out as explicit nonzero polynomials in the parameters.
A ring with no names degenerates to the base field itself.

Stored form: a scalar keeps its terms as (key, coefficient) pairs, each
key a packed monomial (cilines.monomials) at the scalar's `width`, the
least that holds its total degree. Descending keys are descending
graded-lex order, which fixes printing, equality and leading terms, and
an operation whose result needs a wider field repacks its operands
first. Zero is the empty term tuple. Arithmetic, the jet and printing
read the keys; `terms` is the unpacked view, the (exponent tuple,
coefficient) pairs in the same order.

Arithmetic sums and multiplies coefficients raw (ints, and Fractions
over Q) and brings each stored coefficient into the field once with
Field.reduce. mul_sub is the step self*a - head*b of fraction-free
elimination: one sum_of_products when all four operands have two or
more terms, two products and a difference otherwise.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Mapping, Sequence, TypeVar

from .errors import InexactDivision, ParameterPresent, RingMismatch, UnknownVariable
from .fields import Field, Scalar, Value, slot_setters
from .monomials import _exps, _field_sum, _guards, _monomial_texts, _pack, _width

Exps = tuple[int, ...]
C = TypeVar("C")


def grlex_key(exps: Exps) -> tuple[int, Exps]:
    return (sum(exps), exps)


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


class ParamRing(Value, compared=("field", "names")):
    """K[c_1, ..., c_k] for a base field K and ordered parameter names."""

    __slots__ = ("field", "names", "k", "_zero", "_one")

    field: Field
    names: tuple[str, ...]
    # len(names), and the ring's zero and one, shared by every caller
    k: int
    _zero: "ParamScalar"
    _one: "ParamScalar"

    def __init__(self, field: Field, names: tuple[str, ...] = ()) -> None:
        if len(set(names)) != len(names):
            raise RingMismatch(f"duplicate parameter names in {names}")
        _set_field(self, field)
        _set_names(self, names)
        _set_k(self, len(names))
        _set_zero(self, ParamScalar(self, (), 1))
        _set_one(self, ParamScalar(self, ((0, field.one),), 1))

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
        """The scalar with these terms, each coefficient brought into the field."""
        make = self.field.make
        clean = [(e, v) for e, c in terms.items() if (v := make(c))]  # field zeros are falsy
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


class ParamScalar(Value):
    """A polynomial in the ring's parameters with field coefficients:
    (key, coefficient) terms at `width` bytes per field (module
    docstring). The width follows from the value, so equality and
    hashing read the ring and the terms alone. Immutable, as every Value
    is, with its own equality and hash, which are hot."""

    __slots__ = ("ring", "packed", "width")

    ring: ParamRing
    packed: tuple[tuple[int, Scalar], ...]
    width: int

    def __init__(self, ring: ParamRing, packed: tuple[tuple[int, Scalar], ...], width: int) -> None:
        _set_ring(self, ring)
        _set_packed(self, packed)
        _set_width(self, width)

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
        reduce = self.ring.field.reduce
        return ParamScalar(self.ring, tuple((e, reduce(-c)) for e, c in self.packed), self.width)

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
        reduce = ring.field.reduce
        if not ring.names:
            # a field has no zero divisors, so the product term is nonzero
            return ParamScalar(ring, ((0, reduce(a[0][1] * b[0][1])),), 1)
        if len(a) > 1 and len(b) > 1:
            return sum_of_products(ring, ((self, other),))
        w = self.width
        if other.width != w or a[0][0] + b[0][0] >> 8 * w * (ring.k + 1) - 1:  # a guard bit
            w = _width(_degree(self) + _degree(other))
            a, b = _at(self, w), _at(other, w)
        if len(a) == 1:
            a, b = b, a
        ((e0, c0),) = b  # adding e0 to every key keeps their order
        return ParamScalar(ring, tuple((e + e0, reduce(c * c0)) for e, c in a), w)

    __rmul__ = __mul__

    def mul_sub(self, a: "ParamScalar", head: "ParamScalar", b: "ParamScalar") -> "ParamScalar":
        """self*a - head*b, for scalars of self's ring. When all four have
        two or more terms this is one sum_of_products: one accumulation,
        one sort and one pass into the field, where two products and a
        difference take three of each. A one-term factor makes its product
        a shift of keys, which costs less than an accumulation, so such a
        step keeps the two products (fusing every step of exactmatrix's
        Bareiss loop doubled its time on the symbolic families)."""
        if len(self.packed) > 1 and len(a.packed) > 1 and len(head.packed) > 1 and len(b.packed) > 1:
            return sum_of_products(self.ring, ((self, a), (head, b)), (False, True))
        return self * a - head * b

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
        guard bit set had a negative exponent. In any monomial order the
        least term of a product is the product of the least terms, so an
        exact quotient has the least key least(self) - least(divisor): a
        guard bit set there refuses the division at once, and so does a
        quotient key below it. The degree in each parameter adds under
        multiplication too, so an exact quotient's degree in a parameter is
        at most the dividend's (bounded by the OR of its keys) less the
        divisor's. For a divisor of two or more terms these bounds, packed
        as the key `hi` with its degree field capped below the guard,
        refuse the division at once when one is negative, and refuse any
        quotient key that exceeds one of them: (hi - qe) sets a guard bit.
        So a remainder that will not cancel is refused within a few steps,
        not after the whole walk down to lo. A one-term divisor leaves no
        remainder to walk and needs no bound.
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
        if not self.packed:
            return self
        w = max(self.width, divisor.width)
        dterms, nterms = _at(divisor, w), _at(self, w)
        (de, dc), *rest = dterms
        inv = f.inv(dc)
        if not rest and not de:  # a constant divisor
            return ParamScalar(ring, tuple((e, fmul(c, inv)) for e, c in self.packed), self.width)
        guards = _guards(ring.k, w)
        lo = nterms[-1][0] - dterms[-1][0]
        if lo & guards:
            raise InexactDivision(f"{divisor} does not divide exactly")
        hi = ((1 << 8 * w * (ring.k + 1)) - 1) ^ guards  # every field at its largest
        if rest:
            top = map(max, zip(*(e for e, _ in _unpacked(divisor))))
            bound = [u - v for u, v in zip(_used(self), top)]
            if min(bound) < 0:
                raise InexactDivision(f"{divisor} does not divide exactly")
            hi = min(sum(bound), (1 << 8 * w - 1) - 1)  # each bound is below its guard
            for x in bound:
                hi = hi << 8 * w | x
        tail = [(e, f.neg(c)) for e, c in rest]
        fadd = f.add
        num = dict(nterms)
        heap = [-e for e in num]  # ascending, hence a heap
        quo: list[tuple[int, Scalar]] = []  # comes out in descending order
        while heap:
            le = -heappop(heap)
            lc = num.pop(le, None)
            if lc is None:
                continue
            qe = le - de
            if qe < lo or qe & guards or (hi - qe) & guards:
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

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.packed:
            return "0"
        texts = _monomial_texts(self.ring.names, self.width)
        return _sum_text(self.ring.field, [(texts[key], c) for key, c in self.packed])


_set_field, _set_names, _set_k, _set_zero, _set_one = slot_setters(ParamRing)
_set_ring, _set_packed, _set_width = slot_setters(ParamScalar)


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
    monomials. The raw coefficient sums are reduced into the field once
    per key (Field.reduce), and the keys are sorted once. Over a ring with no parameters
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
        total = ring.field.reduce(total)
        return ParamScalar(ring, ((0, total),), 1) if total else ring.zero()
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
    terms = zip(keys, map(ring.field.reduce, map(acc.__getitem__, keys)))
    return _scalar(ring, tuple(t for t in terms if t[1]), w)  # field zeros are falsy


def _used(x: ParamScalar) -> Sequence[int]:
    """Per slot of x's ring, nonzero when some term has a positive
    exponent there: the exponents of the OR of all keys, as no bit carries
    from one field into the next."""
    acc = 0
    for key, _ in x.packed:
        acc |= key
    return _exps(acc, x.ring.k, x.width)


def jet_from(
    p: ParamScalar, out: ParamRing, slots: Sequence[int], values: Mapping[str, Scalar]
) -> tuple[ParamScalar, list[ParamScalar]]:
    """The value of p and its partials by `slots` (each out.k or later),
    every slot from out.k on set to the value of its name, as scalars of
    `out`, the ring of p's first out.k names: one walk over the terms.

    Every name from out.k on that occurs in p needs a value, or
    UnknownVariable names all that have none. A value is brought into the
    field where a term first uses it, so one that no term uses is never
    read.

    A term's raw product (powers per slot, _power) adds itself times
    x / v_z to the partial by each slot z of exponent x. A term with two
    or more slots at 0 adds nothing; with one, z, it adds its product over
    the others to the partial by z when x = 1. An exponent 0 mod p adds 0.
    The sums go into one raw row [value, partial, ...] per parameter
    prefix of the keys, one place per slot however often it is named
    (_from_rows).
    """
    names, f = p.ring.names, p.ring.field
    k, keep, w = p.ring.k, out.k, p.width
    if any(name not in values for name in names[keep:]):
        occurs = _used(p)
        missing = sorted(names[i] for i in range(keep, k) if occurs[i] and names[i] not in values)
        if missing:
            raise UnknownVariable(f"no value for {missing}")
    bits = 8 * w
    cut, mask = bits * (k - keep), (1 << bits * keep) - 1
    place = [0] * k  # place[i]: the row place of the partial by slot i, 0 for none
    cols = dict.fromkeys(slots)
    for j, i in enumerate(cols, 1):
        place[i] = j
    size = 1 + len(cols)
    pows: list = [None] * k  # pows[i][x] = v_i^x
    invs: list = [None] * k  # 1 / v_i, for a partial by i
    rows: dict[int, list] = {}
    for key, c in p.packed:
        # the exponents in the slots from keep on, one to_bytes per term
        e = key.to_bytes(k + 1, "big")[keep + 1 :] if w == 1 else _exps(key, k, w)[keep:]
        used = [(i, x) for i, x in enumerate(e, keep) if x]
        odd, oddx = None, 0  # the one used slot at 0 (-1 for more), and its exponent
        for i, x in used:
            row = pows[i]
            if row is None:
                v = f.make(values[names[i]])
                row = pows[i] = [f.one, v]
                if v and place[i]:
                    invs[i] = f.inv(v)
            if row[1]:
                try:
                    c *= row[x]
                except IndexError:
                    c *= _power(f, row, x)
            else:
                odd, oddx = (i, x) if odd is None else (-1, 0)
        pk = key >> cut & mask
        acc = rows.get(pk)
        if acc is None:
            acc = rows[pk] = [0] * size
        if odd is None:
            acc[0] += c
            for i, x in used:
                j = place[i]
                if j:
                    acc[j] += c * x * invs[i]
        elif oddx == 1 and place[odd]:
            acc[place[odd]] += c
    outs = _from_rows(out, rows, size, w)
    return outs[0], [outs[place[i]] for i in slots]


def _from_rows(out: ParamRing, rows: dict[int, list], size: int, w: int) -> list[ParamScalar]:
    """The `size` scalars of `out` whose raw coefficients at the parameter
    monomial pk (its fields at width w, no degree) stand in rows[pk]: each
    is reduced into the field once (Field.reduce), and keyed by pk under
    its degree."""
    top = 8 * w * out.k
    keyed = sorted(((pk + (_field_sum(pk, w) << top), acc) for pk, acc in rows.items()), reverse=True)
    reduce = out.field.reduce
    terms: list = [[] for _ in range(size)]
    for key, acc in keyed:
        for i, v in enumerate(acc):
            if v and (v := reduce(v)):  # field zeros are falsy
                terms[i].append((key, v))
    zero = out.zero()
    return [_scalar(out, tuple(t), w) if t else zero for t in terms]


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


def _term_text(mono: str, cs: str) -> str:
    """A term without its sign: an empty monomial is a constant term, and
    a coefficient "1" before a monomial is left out."""
    return cs if not mono else mono if cs == "1" else f"{cs}*{mono}"


def _sum_text(field: Field, terms: Iterable[tuple[str, Scalar]]) -> str:
    """The text of a sum of (monomial text, coefficient) terms, in one join.
    Over F_p no coefficient carries a sign, and each prints as its int.
    Over Q a negative term gives its sign to the joiner before it, or
    prints it on the first term."""
    if field.p is not None:
        return " + ".join([_term_text(mono, str(c)) for mono, c in terms]) or "0"
    pieces: list[str] = []
    for mono, c in terms:
        body = _term_text(mono, field.to_str(-c if c < 0 else c))
        if pieces:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return " ".join(pieces) or "0"


def require_constant(values: Iterable[ParamScalar]) -> list[Scalar]:
    """Collapse parameter-free scalars to field elements, or raise."""
    return [v.constant_value() for v in values]

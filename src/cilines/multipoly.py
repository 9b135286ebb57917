"""Sparse multivariate polynomials and binary forms.

MultiPoly carries the geometric objects: homogeneous forms in the ambient
coordinates S, T, Z1..Z{N-1}, chart polynomials in a_j, b_j, and so on.
A polynomial may depend on symbolic parameters c_1..c_k. It is stored
flat, as one ParamScalar over ring.flat: the parameter ring with the
ring's variables adjoined after the parameters, so an exponent vector
holds the parameter exponents and then the variable exponents. Sums,
products and powers are those of ParamScalar. A polynomial prints from
its flat keys: grouped by their variable fields, each group a
coefficient in the parameters, each monomial's text looked up by key.
`jet_at` reads a polynomial's value and first partials at a point from
one walk over the flat keys, with outputs built from the keys of their
parameter fields. `terms` alone is the unpacked view, each coefficient a
ParamScalar in the parameters.

BinaryForm is the dense degree-d form in the line coordinates (s:t),
stored as its vector of base-field coefficients against the monomial
basis s^d, s^{d-1} t, ..., t^d. One walk, _compose_terms, composes forms
and their partials with lines, curves and covers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    AllZero,
    NotHomogeneous,
    ParameterPresent,
    RingMismatch,
    UnknownVariable,
)
from .fields import Field, Scalar, Value, slot_setters
from .monomials import _exps, _field_sum, _monomial, _monomial_texts
from .params import (
    Exps,
    ParamRing,
    ParamScalar,
    _at,
    _scalar,
    _sum_text,
    _unpacked,
    _used,
    grlex_key,
    jet_from,
)


@lru_cache(maxsize=256)
def _flat_ring(coeffs: ParamRing, variables: tuple[str, ...]) -> ParamRing:
    """The parameter ring on (parameters + variables). Equal PolyRings get
    one object, so their polynomials pass ParamScalar's same-ring test by
    identity."""
    return ParamRing(coeffs.field, coeffs.names + variables)


class PolyRing(Value, compared=("coeffs", "variables")):
    """Polynomial ring in named variables over a parameter ring; `flat`
    is the parameter ring on (parameters + variables) that holds its
    polynomials."""

    __slots__ = ("coeffs", "variables", "flat")

    coeffs: ParamRing
    variables: tuple[str, ...]
    flat: ParamRing

    def __init__(self, coeffs: ParamRing, variables: tuple[str, ...]) -> None:
        seen = set(variables) | set(coeffs.names)
        if len(seen) != len(variables) + len(coeffs.names):
            raise RingMismatch("variable and parameter names must be disjoint")
        _set_coeffs(self, coeffs)
        _set_variables(self, variables)
        _set_flat(self, _flat_ring(coeffs, variables))

    @property
    def n(self) -> int:
        return len(self.variables)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, self.flat.zero())

    def one(self) -> "MultiPoly":
        return MultiPoly(self, self.flat.one())

    def const(self, c: ParamScalar | int) -> "MultiPoly":
        if isinstance(c, int):
            return MultiPoly(self, self.flat.const(c))
        if c.ring != self.coeffs:
            raise RingMismatch("constant from a different parameter ring")
        pad = (0,) * self.n
        return MultiPoly(self, self.flat.from_terms({e + pad: v for e, v in c.terms}))

    def var(self, name: str) -> "MultiPoly":
        if name not in self.variables:
            raise UnknownVariable(f"variable {name!r} not in ring {self.variables}")
        return MultiPoly(self, self.flat.var(name))

    def from_terms(self, terms: Mapping[Exps, ParamScalar]) -> "MultiPoly":
        """The polynomial with these (variable exponents, coefficient) terms."""
        acc = {pe + e: v for e, c in terms.items() for pe, v in c.terms}
        return MultiPoly(self, self.flat.from_terms(acc))

    def __str__(self) -> str:
        return f"{self.coeffs}[{', '.join(self.variables)}]"


class MultiPoly(Value):
    """A polynomial of `ring`, held as `flat`, a ParamScalar over ring.flat."""

    __slots__ = ("ring", "flat")

    ring: PolyRing
    flat: ParamScalar

    def __init__(self, ring: PolyRing, flat: ParamScalar) -> None:
        if flat.ring is not ring.flat and flat.ring != ring.flat:
            raise RingMismatch(f"a scalar over {flat.ring} in {ring}")
        _set_ring(self, ring)
        _set_poly_flat(self, flat)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.flat.packed

    @property
    def terms(self) -> tuple[tuple[Exps, ParamScalar], ...]:
        """(variable exponents, coefficient in the parameters) per monomial
        of the variables, in descending graded-lex order of the exponents:
        the unpacked view."""
        coeffs = self.ring.coeffs
        k = coeffs.k
        groups: dict[Exps, dict[Exps, Scalar]] = {}
        for e, c in _unpacked(self.flat):
            groups.setdefault(tuple(e[k:]), {})[tuple(e[:k])] = c
        return tuple(
            (e, coeffs.from_terms(groups[e])) for e in sorted(groups, key=grlex_key, reverse=True)
        )

    def field_terms(self) -> list[tuple[Exps, Scalar]]:
        """(variable exponents, base-field coefficient) per term, in the
        order of `terms`; ParameterPresent when a coefficient carries a
        parameter."""
        if not self.is_parameter_free:
            raise ParameterPresent(f"{self} carries parameters")
        k = self.ring.coeffs.k
        return [(tuple(e[k:]), c) for e, c in _unpacked(self.flat)]

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if mixed. Zero counts
        as homogeneous of every degree and reports None. A term's degree is
        the field sum of its variable fields (monomials._field_sum)."""
        flat = self.flat
        low, base = (1 << 8 * flat.width * self.ring.n) - 1, (1 << 8 * flat.width) - 1
        degs = {(key & low) % base for key, _ in flat.packed}
        return degs.pop() if len(degs) == 1 else None

    def is_homogeneous(self, d: int | None = None) -> bool:
        if self.is_zero:
            return True
        got = self.homogeneous_degree()
        if got is None:
            return False
        return d is None or got == d

    @property
    def is_parameter_free(self) -> bool:
        k = self.ring.coeffs.k
        return not k or not any(_used(self.flat)[:k])

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> ParamScalar:
        """The flat form of an operand: a MultiPoly of this ring, an int or
        a ParamScalar of the parameter ring."""
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatch(f"mixed rings {self.ring} and {other.ring}")
            return other.flat
        if isinstance(other, (int, ParamScalar)):
            return self.ring.const(other).flat
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly(self.ring, self.flat + other)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ring, -self.flat)

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly(self.ring, self.flat - other)

    def __rsub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly(self.ring, other - self.flat)

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly(self.ring, self.flat * other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        return MultiPoly(self.ring, self.flat**n)

    # -- calculus -----------------------------------------------------------

    def _slot(self, v: str) -> int:
        """The place of variable v in a flat exponent vector."""
        try:
            return self.ring.coeffs.k + self.ring.variables.index(v)
        except ValueError:
            raise UnknownVariable(f"variable {v!r} not in ring {self.ring.variables}") from None

    def differentiate(self, v: str) -> "MultiPoly":
        """Formal partial derivative; exponent multiples of the
        characteristic annihilate because the exponent is reduced into
        the base field."""
        flat = self.flat
        bits, slots = 8 * flat.width, flat.ring.k
        shift = bits * (slots - 1 - self._slot(v))
        mask = (1 << bits) - 1
        step = (1 << shift) + (1 << bits * slots)  # one off the exponent and the degree
        reduce = self.ring.coeffs.field.reduce
        terms = []
        for key, c in flat.packed:
            x = key >> shift & mask
            if x:
                c = reduce(c * x)
                if c:  # field zeros are falsy
                    terms.append((key - step, c))
        # taking one step off every key keeps their order
        return MultiPoly(self.ring, _scalar(flat.ring, tuple(terms), flat.width))

    def substitute(self, assignment: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Simultaneous substitution; every occurring variable must be
        assigned, assignments must share one target ring with the same
        coefficient ring, and the result is fully expanded."""
        for key in assignment:
            if key not in self.ring.variables:
                raise UnknownVariable(f"assignment for unknown variable {key!r}")
        used = _used(self.flat)[self.ring.coeffs.k :]
        missing = {v for v, x in zip(self.ring.variables, used) if x and v not in assignment}
        if missing:
            raise UnknownVariable(f"no assignment for {sorted(missing)}")
        targets = {v.ring for v in assignment.values()}
        if len(targets) > 1:
            raise RingMismatch("assignment values live in different rings")
        target = targets.pop() if targets else self.ring
        if target.coeffs != self.ring.coeffs:
            raise RingMismatch("assignment changes the coefficient ring")
        flat = target.flat
        fadd = flat.field.add
        # the terms by their variable fields, each as the key of its
        # parameter fields with zero fields for the target's variables
        w, n, k = self.flat.width, self.ring.n, self.ring.coeffs.k
        bits = 8 * w
        low, shift = (1 << bits * n) - 1, bits * target.n
        groups: dict[int, list[tuple[int, Scalar]]] = {}
        for key, c in self.flat.packed:
            groups.setdefault(key & low, []).append((key >> bits * n, c))
        cache: dict[tuple[str, int], ParamScalar] = {}
        images = []
        for vk, coeff in groups.items():
            e = _exps(vk, n, w)  # the top field of vk is 0
            off = sum(e) << bits * k  # the degree of the variables
            term = _scalar(flat, tuple(((pk - off) << shift, c) for pk, c in coeff), w)
            for name, x in zip(self.ring.variables, e):
                if x == 0:
                    continue
                key = (name, x)
                if key not in cache:
                    cache[key] = assignment[name].flat ** x
                term = term * cache[key]
            images.append(term)
        w = max((t.width for t in images), default=1)
        acc: dict[int, Scalar] = {}
        for term in images:
            for te, tc in _at(term, w):
                acc[te] = fadd(acc[te], tc) if te in acc else tc
        terms = sorted([t for t in acc.items() if t[1]], reverse=True)  # field zeros are falsy
        return MultiPoly(target, _scalar(flat, tuple(terms), w))

    def jet_at(
        self, names: Sequence[str], values: Mapping[str, Scalar]
    ) -> tuple[ParamScalar, list[ParamScalar]]:
        """The value at `values` and the partials by `names` there, from one
        walk over the flat terms (params.jet_from); no derivative is formed.
        Every variable that occurs needs a value (UnknownVariable names all
        that have none), and a value that no term uses is not read."""
        return jet_from(self.flat, self.ring.coeffs, [self._slot(v) for v in names], values)

    def split(self, front: Sequence[str]) -> dict[Exps, "MultiPoly"]:
        """Collect terms by their exponents in `front`, returning
        polynomials in the remaining variables."""
        front = tuple(front)
        variables = self.ring.variables
        sub = PolyRing(self.ring.coeffs, tuple(v for v in variables if v not in front))
        flat, w = self.flat, self.flat.width
        bits, mask = 8 * w, (1 << 8 * w) - 1
        reads = [bits * (flat.ring.k - 1 - self._slot(v)) for v in front]
        cuts = sorted(reads, reverse=True)  # cutting the highest field first keeps the others' places
        top = bits * sub.flat.k  # the degree field of the cut key
        buckets: dict[Exps, list[tuple[int, Scalar]]] = {}
        for key, c in flat.packed:
            fe = tuple([key >> r & mask for r in reads])
            for r in cuts:
                key = (key >> r + bits) << r | key & (1 << r) - 1
            buckets.setdefault(fe, []).append((key - (sum(fe) << top), c))
        # dropping the exponents that a bucket's terms share keeps their order
        return {fe: MultiPoly(sub, _scalar(sub.flat, tuple(b), w)) for fe, b in buckets.items()}

    # -- printing ---------------------------------------------------------------

    def __str__(self) -> str:
        """The terms in descending graded-lex order of their variable
        exponents, each monomial's text looked up by its key
        (monomials._monomial_texts). With no parameters that is the flat
        scalar's text. With parameters the flat terms are grouped by their
        variable fields, `key & low`, and each coefficient prints from the
        parameter fields of its keys: a one-term coefficient as that term,
        giving its sign to the joiner, and one of several terms in
        parentheses."""
        coeffs, flat = self.ring.coeffs, self.flat
        if not coeffs.k:
            return str(flat)
        field, w = coeffs.field, flat.width
        vbits = 8 * w * self.ring.n
        low, high = (1 << vbits) - 1, (1 << 8 * w * coeffs.k) - 1
        groups: dict[int, list[tuple[int, Scalar]]] = {}
        for key, c in flat.packed:  # within a group, graded-lex on the parameters
            groups.setdefault(key & low, []).append((key >> vbits & high, c))
        texts = _monomial_texts(coeffs.names, w)
        variables = _monomial_texts(self.ring.variables, w)

        def term(vk: int) -> tuple[str, Scalar]:
            terms, vm = groups[vk], variables[vk]
            if len(terms) > 1:  # printed as a monomial of coefficient 1
                group = f"({_sum_text(field, [(texts[pk], c) for pk, c in terms])})"
                return f"{group}*{vm}" if vm else group, field.one
            ((pk, c),) = terms
            return f"{texts[pk]}*{vm}" if texts[pk] and vm else texts[pk] or vm, c

        order = sorted(groups, key=lambda vk: (_field_sum(vk, w), vk), reverse=True)
        return _sum_text(field, [term(vk) for vk in order])


# -- binary forms ---------------------------------------------------------------


class BinaryForm(Value):
    """Degree-d form in (s:t) as coefficients against s^d, ..., t^d.

    The coefficients are elements of the base field. Every consumer of a
    binary form (gcds, smoothness minors, section ranks) needs them free of
    parameters, so a parameter is refused where a form is built: by
    restrict_along and cli._parse_curve_texts, with ParameterPresent. The
    zero form is permitted at every degree; `coeffs` always has length
    degree + 1.
    """

    __slots__ = ("field", "degree", "coeffs")

    field: Field
    degree: int
    coeffs: tuple[Scalar, ...]

    def __init__(self, field: Field, degree: int, coeffs: tuple[Scalar, ...]) -> None:
        if degree < 0 or len(coeffs) != degree + 1:
            raise NotHomogeneous(f"coefficient vector of length {len(coeffs)} for degree {degree}")
        _set_field(self, field)
        _set_degree(self, degree)
        _set_form_coeffs(self, coeffs)

    @classmethod
    def zero(cls, field: Field, degree: int) -> "BinaryForm":
        return cls(field, degree, (field.zero,) * (degree + 1))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)  # field zeros are falsy

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if other.degree != self.degree or other.field != self.field:
            raise RingMismatch("binary form addition needs equal degree and field")
        add = self.field.add
        return BinaryForm(self.field, self.degree, tuple(map(add, self.coeffs, other.coeffs)))

    def __neg__(self) -> "BinaryForm":
        return BinaryForm(self.field, self.degree, tuple(map(self.field.neg, self.coeffs)))

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + (-other)

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        """The raw products are summed, and each coefficient of the result
        is reduced into the field once (Field.reduce)."""
        if other.field != self.field:
            raise RingMismatch("mixed fields")
        acc = _times(self.coeffs, other.coeffs)
        return BinaryForm(self.field, len(acc) - 1, tuple(map(self.field.reduce, acc)))

    def compose(self, u: "BinaryForm", w: "BinaryForm") -> "BinaryForm":
        """Substitute s -> u, t -> w for forms u, w of one common degree."""
        if u.degree != w.degree or u.field != self.field or w.field != self.field:
            raise RingMismatch("cover components must share degree and field")
        d, reduce = self.degree, self.field.reduce
        terms = ((0, (d - k, k), c) for k, c in enumerate(self.coeffs) if c)
        acc = _compose_terms(terms, (u.coeffs, w.coeffs), (), d, reduce)[0]
        return BinaryForm(self.field, d * u.degree, tuple(map(reduce, acc)))

    def __str__(self) -> str:
        d = self.degree
        return _sum_text(
            self.field, [(_monomial(("s", "t"), (d - k, k)), c) for k, c in enumerate(self.coeffs) if c]
        )


_set_coeffs, _set_variables, _set_flat = slot_setters(PolyRing)
_set_ring, _set_poly_flat = slot_setters(MultiPoly)
_set_field, _set_degree, _set_form_coeffs = slot_setters(BinaryForm)


def _times(p: Sequence[Scalar], q: Sequence[Scalar]) -> list:
    """The raw product of two binary forms as coefficient lists, s^d first."""
    out = [0] * (len(p) + len(q) - 1)
    nonzero = [(k, v) for k, v in enumerate(q) if v]  # field zeros are falsy
    for i, u in enumerate(p):
        if u:
            for k, v in nonzero:
                out[i + k] += u * v
    return out


def _prefixed_terms(form: MultiPoly) -> Iterator[tuple[int, Sequence[int], Scalar]]:
    """(parameter prefix, coordinate exponents, coefficient) per term of a
    form; the prefix is the key's parameter fields, 0 with no parameters."""
    flat, k = form.flat, form.ring.coeffs.k
    slots, w = flat.ring.k, flat.width
    cut, mask = 8 * w * form.ring.n, (1 << 8 * w * k) - 1
    for key, c in flat.packed:
        e = key.to_bytes(slots + 1, "big")[k + 1 :] if w == 1 else _exps(key, slots, w)[k:]
        yield key >> cut & mask, e, c


def _compose_terms(
    terms: Iterable[tuple], images: Sequence[Sequence], rows: Iterable[int], degree: int, reduce
) -> dict[int, list]:
    """Compose a form of the given degree, by its terms (_prefixed_terms),
    with a curve, by one image per coordinate: a binary form's coefficient
    list, all of one degree b. Each parameter prefix, 0 always, gets one
    raw list: h|_C (b degree + 1 coefficients), then for each W of `rows`
    e_W (term / W)|_C, which is (dh/dW)|_C (b (degree - 1) + 1 each).
    A zero image keeps of a term that uses W only row W, and only when
    e_W = 1. An image v t^p multiplies by v^x and shifts by p x. Any other
    image multiplies by its power, from reduced powers formed once each."""
    b = len(images[0]) - 1
    place, size = {}, b * degree + 1  # place[W]: where row W's block starts
    for w in rows:
        place[w], size = size, size + b * (degree - 1) + 1
    shift, ladders = [], []  # v t^p: p and v; 0: None and None; else None and [1, img, ...]
    for img in images:
        one = len(img) - img.count(0) == 1  # field zeros equal 0
        p = next(p for p, v in enumerate(img) if v) if one else None
        shift.append(p)
        ladders.append(img[p] if one else [[1], list(img)] if any(img) else None)
    out: dict[int, list] = {0: [0] * size}
    for pk, e, c in terms:
        used = [(i, x) for i, x in enumerate(e) if x]
        dead = [(i, x) for i, x in used if ladders[i] is None]
        if not dead:  # (place in the row, multiplier, the coordinate lowered by one)
            targets = [(0, c, -1)] + [(place[i], c * x, i) for i, x in used if i in place]
        elif len(dead) == 1 and dead[0][1] == 1 and dead[0][0] in place:
            targets = [(place[dead[0][0]], c, dead[0][0])]
        else:
            continue
        acc = out.get(pk) or out.setdefault(pk, [0] * size)
        for base, m, low in targets:
            prod = None
            for i, x in used:
                x -= i == low
                if not x:
                    continue
                ladder, p = ladders[i], shift[i]
                if p is not None:
                    base, m = base + p * x, m * ladder**x
                    continue
                while len(ladder) <= x:
                    ladder.append(list(map(reduce, _times(ladder[-1], ladder[1]))))
                prod = ladder[x] if prod is None else _times(prod, ladder[x])
            if prod is None:
                acc[base] += m
            else:
                for k, v in enumerate(prod, base):
                    acc[k] += m * v
    return out


# -- gcd of binary forms -----------------------------------------------------------


def _strip_st(f: BinaryForm) -> tuple[int, int, list[Scalar]]:
    """Split off s^vs * t^vt and return the core as a dense univariate
    coefficient list, highest s-power first."""
    nz = [k for k, v in enumerate(f.coeffs) if v]
    k0, k1 = nz[0], nz[-1]
    return f.degree - k1, k0, list(f.coeffs[k0 : k1 + 1])


def _euclid_gcd(a: list[Scalar], b: list[Scalar], field) -> list[Scalar]:
    """Monic gcd of dense univariate polynomials, highest degree first."""

    def trim(p: list[Scalar]) -> list[Scalar]:
        i = 0
        while i < len(p) and field.is_zero(p[i]):
            i += 1
        return p[i:]

    def monic(p: list[Scalar]) -> list[Scalar]:
        inv = field.inv(p[0])
        return [field.mul(x, inv) for x in p]

    a, b = trim(a), trim(b)
    while b:
        # remainder of a by b
        a = monic(a)
        b = monic(b)
        r = list(a)
        while len(r) >= len(b) and r:
            lead = r[0]
            if field.is_zero(lead):
                r = trim(r)
                continue
            for i, x in enumerate(b):
                r[i] = field.sub(r[i], field.mul(lead, x))
            r = trim(r)
        a, b = b, r
    return monic(a)


def binary_gcd(forms: Sequence[BinaryForm]) -> BinaryForm:
    """Gcd of binary forms over the base field, normalized to leading
    coefficient 1 on the highest s-power. Degree 0 means the forms have
    no common projective zero.
    """
    nonzero = [f for f in forms if not f.is_zero]
    if not nonzero:
        raise AllZero("gcd of all-zero binary forms")
    field = nonzero[0].field
    vs, vt, core = _strip_st(nonzero[0])
    for f in nonzero[1:]:
        if f.field != field:
            raise RingMismatch("mixed fields in gcd")
        fvs, fvt, fcore = _strip_st(f)
        vs, vt = min(vs, fvs), min(vt, fvt)
        core = _euclid_gcd(core, fcore, field)
        if len(core) == 1 and vs == 0 and vt == 0:
            break
    # rehomogenize: the normalized core (highest s-power first) times s^vs t^vt
    inv = field.inv(core[0])
    coeffs = [field.zero] * vt + [field.mul(c, inv) for c in core] + [field.zero] * vs
    return BinaryForm(field, len(coeffs) - 1, tuple(coeffs))

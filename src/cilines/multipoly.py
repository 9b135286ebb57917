"""Sparse multivariate polynomials and binary forms.

MultiPoly carries the geometric objects: homogeneous forms in the ambient
coordinates S, T, Z1..Z{N-1}, chart polynomials in a_j, b_j, and so on.
A polynomial may depend on symbolic parameters c_1..c_k. It is stored
flat, as one ParamScalar over ring.flat: the parameter ring with the
ring's variables adjoined after the parameters, so an exponent vector
holds the parameter exponents and then the variable exponents. Sums,
products and powers are those of ParamScalar. `terms` groups the flat
terms by their variable exponents, each coefficient a ParamScalar in the
parameters alone, which is how a polynomial prints. `jet_at` reads a
polynomial's value and first partials at a point from one walk over the
flat terms.

BinaryForm is the dense degree-d form in the line coordinates (s:t),
stored as its vector of base-field coefficients against the monomial
basis s^d, s^{d-1} t, ..., t^d. Restrictions of forms to lines and rational
curves, and all the one-variable cohomology bookkeeping, live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import (
    AllZero,
    NotHomogeneous,
    ParameterPresent,
    RingMismatch,
    UnknownVariable,
)
from .fields import Field, Scalar
from .params import (
    Exps,
    ParamRing,
    ParamScalar,
    _at,
    _exps,
    _monomial,
    _print_sum,
    _scalar,
    _signed,
    _sum_text,
    _term_text,
    _unpacked,
    evaluate_from,
    grlex_key,
    jet_from,
)


@lru_cache(maxsize=256)
def _flat_ring(coeffs: ParamRing, variables: tuple[str, ...]) -> ParamRing:
    """The parameter ring on (parameters + variables). Equal PolyRings get
    one object, so their polynomials pass ParamScalar's same-ring test by
    identity."""
    return ParamRing(coeffs.field, coeffs.names + variables)


@dataclass(frozen=True)
class PolyRing:
    """Polynomial ring in named variables over a parameter ring; `flat`
    is the parameter ring on (parameters + variables) that holds its
    polynomials."""

    coeffs: ParamRing
    variables: tuple[str, ...]
    flat: ParamRing = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = set(self.variables) | set(self.coeffs.names)
        if len(seen) != len(self.variables) + len(self.coeffs.names):
            raise RingMismatch("variable and parameter names must be disjoint")
        object.__setattr__(self, "flat", _flat_ring(self.coeffs, self.variables))

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

    def param(self, name: str) -> "MultiPoly":
        return self.const(self.coeffs.var(name))

    def from_terms(self, terms: Mapping[Exps, ParamScalar]) -> "MultiPoly":
        """The polynomial with these (variable exponents, coefficient) terms."""
        acc = {pe + e: v for e, c in terms.items() for pe, v in c.terms}
        return MultiPoly(self, self.flat.from_terms(acc))

    def __str__(self) -> str:
        return f"{self.coeffs}[{', '.join(self.variables)}]"


@dataclass(frozen=True)
class MultiPoly:
    """A polynomial of `ring`, held as `flat`, a ParamScalar over ring.flat."""

    ring: PolyRing
    flat: ParamScalar

    def __post_init__(self) -> None:
        if self.flat.ring is not self.ring.flat and self.flat.ring != self.ring.flat:
            raise RingMismatch(f"a scalar over {self.flat.ring} in {self.ring}")

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.flat.packed

    def _groups(self) -> dict[Sequence[int], list[tuple[Sequence[int], Scalar]]]:
        """The flat terms by their variable exponents, as (parameter
        exponents, coefficient) lists, the exponents as params._exps reads
        them. Within a group the flat order is graded-lex on the parameter
        exponents, the canonical order of a ParamScalar."""
        k = self.ring.coeffs.k
        groups: dict[Sequence[int], list[tuple[Sequence[int], Scalar]]] = {}
        for e, c in _unpacked(self.flat):
            groups.setdefault(e[k:], []).append((e[:k], c))
        return groups

    @property
    def terms(self) -> tuple[tuple[Exps, ParamScalar], ...]:
        """(variable exponents, coefficient in the parameters) per monomial
        of the variables, in descending graded-lex order of the exponents."""
        coeffs = self.ring.coeffs
        groups = self._groups()
        return tuple(
            (tuple(e), coeffs.from_terms({tuple(pe): c for pe, c in groups[e]}))
            for e in sorted(groups, key=grlex_key, reverse=True)
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
        as homogeneous of every degree and reports None."""
        k = self.ring.coeffs.k
        degs = {sum(e[k:]) for e, _ in _unpacked(self.flat)}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, d: int | None = None) -> bool:
        if self.is_zero:
            return True
        got = self.homogeneous_degree()
        if got is None:
            return False
        return d is None or got == d

    def _used(self) -> Sequence[int]:
        """Per flat slot, nonzero when some term has a positive exponent
        there: the exponents of the OR of all keys, as no bit carries from
        one field into the next."""
        acc = 0
        for key, _ in self.flat.packed:
            acc |= key
        return _exps(acc, self.flat.ring.k, self.flat.width)

    @property
    def is_parameter_free(self) -> bool:
        k = self.ring.coeffs.k
        return not k or not any(self._used()[:k])

    def variables_present(self) -> set[str]:
        k = self.ring.coeffs.k
        return {v for v, x in zip(self.ring.variables, self._used()[k:]) if x}

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
        field = self.ring.coeffs.field
        terms = []
        for key, c in flat.packed:
            x = key >> shift & mask
            if x:
                c = field.mul(c, field.make(x))
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
        needed = self.variables_present()
        missing = needed - set(assignment)
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

    def evaluate(self, values: Mapping[str, Scalar]) -> ParamScalar:
        """Evaluate every variable at a field element; coefficients
        (hence parameters) survive untouched."""
        coeffs = self.ring.coeffs
        return coeffs.from_terms(evaluate_from(self.flat, coeffs.k, values))

    def jet_at(
        self, names: Sequence[str], values: Mapping[str, Scalar]
    ) -> tuple[ParamScalar | None, list[ParamScalar]]:
        """The value at `values` and the partials by `names` there, from one
        walk over the flat terms (params.jet_from); no derivative is formed.
        A value is read only where a term uses it: the value is None when a
        term uses one that is missing or not in the field, and a partial
        that reads one raises."""
        coeffs = self.ring.coeffs
        slots = [self._slot(v) for v in names]
        value, partials = jet_from(self.flat, coeffs.k, slots, values)
        return (
            None if value is None else coeffs.from_terms(value),
            [coeffs.from_terms(d) for d in partials],
        )

    def gradient_at(
        self, names: Sequence[str], values: Mapping[str, Scalar]
    ) -> list[ParamScalar]:
        """The partials by `names` at `values` (jet_at)."""
        return self.jet_at(names, values)[1]

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

    def permute_variables(self, mapping: Mapping[str, str]) -> "MultiPoly":
        """Rename variables by a bijection of the ring's variable set."""
        variables = self.ring.variables
        if set(mapping) != set(variables) or set(mapping.values()) != set(variables):
            raise UnknownVariable("variable permutation must be a bijection of the ring")
        k = self.ring.coeffs.k
        source = {variables.index(mapping[v]): j for j, v in enumerate(variables)}
        order = [*range(k), *(k + source[i] for i in range(self.ring.n))]
        acc = {tuple(e[i] for i in order): c for e, c in _unpacked(self.flat)}
        return MultiPoly(self.ring, self.ring.flat.from_terms(acc))

    # -- printing ---------------------------------------------------------------

    def __str__(self) -> str:
        """One pass over the terms in descending graded-lex order of their
        variable exponents. With no parameters that is the flat order, and
        each flat term prints as it stands; with parameters the flat terms
        are grouped by their variable exponents first. The text of each
        variable power is formed once (_power_texts)."""
        coeffs = self.ring.coeffs
        k, field = coeffs.k, coeffs.field
        if k:
            terms = sorted(self._groups().items(), key=lambda t: grlex_key(t[0]), reverse=True)
        else:
            terms = _unpacked(self.flat)
        powers = _power_texts(self.ring.variables)
        return _print_sum(
            (
                "*".join([p[x] for p, x in zip(powers, e) if x]),
                *(_coefficient(coeffs, c) if k else _signed(field, c)),
            )
            for e, c in terms
        )


# -- printing -------------------------------------------------------------------


class _Powers(dict):
    """The text of one variable to the power x, under the key x, formed
    when it is first asked for."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def __missing__(self, x: int) -> str:
        text = self[x] = f"{self.name}^{x}" if x > 1 else self.name
        return text


@lru_cache(maxsize=256)
def _power_texts(names: tuple[str, ...]) -> tuple[_Powers, ...]:
    """The power texts of these variables, shared by every polynomial
    printed in them."""
    return tuple(map(_Powers, names))


def _coefficient(coeffs: ParamRing, terms: list[tuple[Exps, Scalar]]) -> tuple[str, bool]:
    """Text and sign of a nonzero term coefficient, given as its
    (parameter exponents, value) terms: a one-term coefficient prints as
    that term and gives its sign to the joiner, and a coefficient of
    several terms is parenthesised."""
    if len(terms) > 1:
        return f"({_sum_text(coeffs.names, coeffs.field, terms)})", False
    ((e, c),) = terms
    cs, neg = _signed(coeffs.field, c)
    return _term_text(_monomial(coeffs.names, e), cs), neg


# -- binary forms ---------------------------------------------------------------


@dataclass(frozen=True)
class BinaryForm:
    """Degree-d form in (s:t) as coefficients against s^d, ..., t^d.

    The coefficients are elements of the base field. Every consumer of a
    binary form (gcds, smoothness minors, section ranks) needs them free of
    parameters, so a parameter is refused where a form is built: by
    from_scalars, from_poly and restrict_along, with ParameterPresent. The
    zero form is permitted at every degree; `coeffs` always has length
    degree + 1.
    """

    field: Field
    degree: int
    coeffs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if self.degree < 0 or len(self.coeffs) != self.degree + 1:
            raise NotHomogeneous(
                f"coefficient vector of length {len(self.coeffs)} for degree {self.degree}"
            )

    @classmethod
    def zero(cls, field: Field, degree: int) -> "BinaryForm":
        return cls(field, degree, (field.zero,) * (degree + 1))

    @classmethod
    def from_scalars(cls, field: Field, values: Sequence[ParamScalar | Scalar]) -> "BinaryForm":
        """The form with these coefficients: an int or Fraction is brought
        into the field, and a ParamScalar must be a constant over it."""
        coeffs = []
        for v in values:
            if isinstance(v, ParamScalar):
                if v.ring.field != field:
                    raise RingMismatch(f"a scalar over {v.ring.field} in a form over {field}")
                v = v.constant_value()
            coeffs.append(field.make(v))
        return cls(field, len(coeffs) - 1, tuple(coeffs))

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "BinaryForm":
        """Read a homogeneous polynomial in s and t as a form."""
        if set(p.ring.variables) != {"s", "t"}:
            raise UnknownVariable("expected a ring in (s, t)")
        d = p.homogeneous_degree()
        if d is None:
            raise NotHomogeneous(f"{p} is not homogeneous")
        field = p.ring.coeffs.field
        coeffs = [field.zero] * (d + 1)
        si = p.ring.variables.index("s")
        for e, c in p.field_terms():
            coeffs[d - e[si]] = c
        return cls(field, d, tuple(coeffs))

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
        is brought into the field once."""
        if other.field != self.field:
            raise RingMismatch("mixed fields")
        acc = [0] * (self.degree + other.degree + 1)
        nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nonzero:
                    acc[i + j] += a * b
        return BinaryForm(self.field, len(acc) - 1, tuple(map(self.field.make, acc)))

    def compose(self, u: "BinaryForm", w: "BinaryForm") -> "BinaryForm":
        """Substitute s -> u, t -> w for forms u, w of one common degree."""
        if u.degree != w.degree or u.field != self.field or w.field != self.field:
            raise RingMismatch("cover components must share degree and field")
        d = self.degree
        terms = (((d - k, k), c) for k, c in enumerate(self.coeffs) if c)
        return _compose_terms(terms, (u, w), d * u.degree)

    def __str__(self) -> str:
        return _print_sum(
            (_monomial(("s", "t"), (self.degree - k, k)), *_signed(self.field, c))
            for k, c in enumerate(self.coeffs)
            if c
        )


def _compose_terms(
    terms: Iterable[tuple[Exps, Scalar]], components: Sequence[BinaryForm], degree: int
) -> BinaryForm:
    """The form sum c * prod_i components[i]^e_i over the terms (e, c), c in
    the components' field, of the given degree. Each power components[i]^x
    is built once; the sum is taken raw and brought into the field once per
    coefficient."""
    field = components[0].field
    ladders = [[comp] for comp in components]  # ladders[i][x - 1] = components[i]^x
    acc = [0] * (degree + 1)
    for e, c in terms:
        piece = None
        for ladder, x in zip(ladders, e):
            if x:
                while len(ladder) < x:
                    ladder.append(ladder[-1] * ladder[0])
                piece = ladder[x - 1] if piece is None else piece * ladder[x - 1]
        if piece is None:  # the constant term of a degree-0 form
            acc[0] += c
            continue
        for k, v in enumerate(piece.coeffs):
            if v:
                acc[k] += c * v
    return BinaryForm(field, degree, tuple(map(field.make, acc)))


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

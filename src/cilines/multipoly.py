"""Sparse multivariate polynomials and binary forms.

MultiPoly carries the geometric objects: homogeneous forms in the ambient
coordinates S, T, Z1..Z{N-1}, chart polynomials in a_j, b_j, and so on.
Its coefficients are ParamScalar values, so a single form can depend on
symbolic parameters c_1..c_k while the geometric variables stay separate.

BinaryForm is the dense degree-d form in the line coordinates (s:t),
stored as its vector of base-field coefficients against the monomial
basis s^d, s^{d-1} t, ..., t^d. Restrictions of forms to lines and rational
curves, and all the one-variable cohomology bookkeeping, live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    AllZero,
    NotHomogeneous,
    RingMismatch,
    UnknownVariable,
)
from .fields import Field, Scalar
from .params import (
    Exps,
    ParamRing,
    ParamScalar,
    _monomial,
    _pack,
    _print_sum,
    _signed,
    _unpack,
    grlex_key,
)


@dataclass(frozen=True)
class PolyRing:
    """Polynomial ring in named variables over a parameter ring."""

    coeffs: ParamRing
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        seen = set(self.variables) | set(self.coeffs.names)
        if len(seen) != len(self.variables) + len(self.coeffs.names):
            raise RingMismatch("variable and parameter names must be disjoint")

    @property
    def n(self) -> int:
        return len(self.variables)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, ())

    def one(self) -> "MultiPoly":
        return self.const(self.coeffs.one())

    def const(self, c: ParamScalar | int) -> "MultiPoly":
        if isinstance(c, int):
            c = self.coeffs.const(c)
        if c.ring != self.coeffs:
            raise RingMismatch("constant from a different parameter ring")
        if c.is_zero:
            return self.zero()
        return MultiPoly(self, (((0,) * self.n, c),))

    def var(self, name: str) -> "MultiPoly":
        try:
            i = self.variables.index(name)
        except ValueError:
            raise UnknownVariable(f"variable {name!r} not in ring {self.variables}") from None
        exps = tuple(1 if j == i else 0 for j in range(self.n))
        return MultiPoly(self, ((exps, self.coeffs.one()),))

    def param(self, name: str) -> "MultiPoly":
        return self.const(self.coeffs.var(name))

    def from_terms(self, terms: Mapping[Exps, ParamScalar]) -> "MultiPoly":
        clean = {e: c for e, c in terms.items() if not c.is_zero}
        ordered = tuple(sorted(clean.items(), key=lambda t: grlex_key(t[0]), reverse=True))
        return MultiPoly(self, ordered)

    def __str__(self) -> str:
        return f"{self.coeffs}[{', '.join(self.variables)}]"


@dataclass(frozen=True)
class MultiPoly:
    ring: PolyRing
    terms: tuple[tuple[Exps, ParamScalar], ...]

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if mixed. Zero counts
        as homogeneous of every degree and reports None."""
        degs = {sum(e) for e, _ in self.terms}
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

    @property
    def is_parameter_free(self) -> bool:
        return all(c.is_constant for _, c in self.terms)

    def variables_present(self) -> set[str]:
        out = set()
        for e, _ in self.terms:
            for name, x in zip(self.ring.variables, e):
                if x:
                    out.add(name)
        return out

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise RingMismatch(f"mixed rings {self.ring} and {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        if isinstance(other, ParamScalar):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for e, c in other.terms:
            prev = acc.get(e)
            acc[e] = c if prev is None else prev + c
        return self.ring.from_terms(acc)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ring, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return self.ring.zero()
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:  # as in ParamScalar.__mul__: a shift keeps the order
            ((e0, c0),) = b
            return MultiPoly(self.ring, tuple((tuple(map(add, e, e0)), c * c0) for e, c in a))
        base = 1 + sum(a[0][0]) + sum(b[0][0])
        pb = _pack(b, base)
        acc: dict[int, ParamScalar] = {}
        get = acc.get
        for k1, c1 in _pack(a, base):
            for k2, c2 in pb:
                k = k1 + k2
                prev = get(k)
                acc[k] = c1 * c2 if prev is None else prev + c1 * c2
        keys = [k for k in sorted(acc, reverse=True) if acc[k].terms]
        exps = _unpack(keys, base, self.ring.n)
        return MultiPoly(self.ring, tuple(zip(exps, map(acc.__getitem__, keys))))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) == 1:  # a monomial: (c X^e)^n = c^n X^(n e)
            ((e, c),) = self.terms
            return MultiPoly(self.ring, ((tuple(n * x for x in e), c**n),))
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    # -- calculus -----------------------------------------------------------

    def differentiate(self, v: str) -> "MultiPoly":
        """Formal partial derivative; exponent multiples of the
        characteristic annihilate because the exponent is reduced into
        the base field."""
        try:
            i = self.ring.variables.index(v)
        except ValueError:
            raise UnknownVariable(f"variable {v!r} not in ring {self.ring.variables}") from None
        acc: dict[Exps, ParamScalar] = {}
        for e, c in self.terms:
            if e[i] == 0:
                continue
            ne = tuple(x - 1 if j == i else x for j, x in enumerate(e))
            coeff = c.scale_int(e[i])
            prev = acc.get(ne)
            acc[ne] = coeff if prev is None else prev + coeff
        return self.ring.from_terms(acc)

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
        acc: dict[Exps, ParamScalar] = {}
        cache: dict[tuple[str, int], MultiPoly] = {}
        for e, c in self.terms:
            term = target.const(c)
            for name, x in zip(self.ring.variables, e):
                if x == 0:
                    continue
                key = (name, x)
                if key not in cache:
                    cache[key] = assignment[name] ** x
                term = term * cache[key]
            for te, tc in term.terms:
                prev = acc.get(te)
                acc[te] = tc if prev is None else prev + tc
        return target.from_terms(acc)

    def evaluate(self, values: Mapping[str, Scalar]) -> ParamScalar:
        """Evaluate every variable at a field element; coefficients
        (hence parameters) survive untouched."""
        needed = self.variables_present()
        missing = needed - set(values)
        if missing:
            raise UnknownVariable(f"no value for {sorted(missing)}")
        coeffs = self.ring.coeffs
        field = coeffs.field
        fmul, fadd = field.mul, field.add
        power = _power_table(self.ring, values)
        acc: dict[Exps, Scalar] = {}
        for e, c in self.terms:
            scale = field.one
            for i, x in enumerate(e):
                if x:
                    scale = fmul(scale, power(i, x))
            for pe, pc in c.terms:
                v = fmul(pc, scale)
                acc[pe] = fadd(acc[pe], v) if pe in acc else v
        return coeffs.from_terms(acc)

    def gradient_at(
        self, names: Sequence[str], values: Mapping[str, Scalar]
    ) -> list[ParamScalar]:
        """[self.differentiate(v).evaluate(values) for v in names], in one
        pass over the terms and without building the derivatives.

        As in differentiate, a term whose exponent in v vanishes in the
        field drops out of the v-derivative, so a variable that occurs
        only in such terms needs no value. The errors are those of the
        first name that has one.
        """
        variables = self.ring.variables
        slots = [variables.index(v) if v in variables else None for v in names]
        coeffs = self.ring.coeffs
        field = coeffs.field
        fmul, fadd = field.mul, field.add
        power = _power_table(self.ring, values)
        accs: list[dict[Exps, Scalar]] = [{} for _ in names]
        lacking: list[set[str]] = [set() for _ in names]
        for e, c in self.terms:
            factors = [(j, x) for j, x in enumerate(e) if x]
            absent = {j for j, _ in factors if variables[j] not in values}
            for acc, lack, i in zip(accs, lacking, slots):
                if i is None or not e[i]:
                    continue
                scale = field.make(e[i])
                if field.is_zero(scale):
                    continue
                gone = absent - {i} if e[i] == 1 else absent
                if gone:
                    lack.update(variables[j] for j in gone)
                    continue
                for j, x in factors:
                    if j == i:
                        x -= 1
                    if x:
                        scale = fmul(scale, power(j, x))
                for pe, pc in c.terms:
                    v = fmul(pc, scale)
                    acc[pe] = fadd(acc[pe], v) if pe in acc else v
        for v, i, lack in zip(names, slots, lacking):
            if i is None:
                raise UnknownVariable(f"variable {v!r} not in ring {variables}")
            if lack:
                raise UnknownVariable(f"no value for {sorted(lack)}")
        return [coeffs.from_terms(acc) for acc in accs]

    def split(self, front: Sequence[str]) -> dict[Exps, "MultiPoly"]:
        """Collect terms by their exponents in `front`, returning
        polynomials in the remaining variables."""
        front = tuple(front)
        idx = [self.ring.variables.index(v) for v in front]
        rest = tuple(v for v in self.ring.variables if v not in front)
        rest_idx = [self.ring.variables.index(v) for v in rest]
        sub = PolyRing(self.ring.coeffs, rest)
        buckets: dict[Exps, dict[Exps, ParamScalar]] = {}
        for e, c in self.terms:
            fe = tuple(e[i] for i in idx)
            re = tuple(e[i] for i in rest_idx)
            bucket = buckets.setdefault(fe, {})
            prev = bucket.get(re)
            bucket[re] = c if prev is None else prev + c
        return {fe: sub.from_terms(b) for fe, b in buckets.items()}

    def permute_variables(self, mapping: Mapping[str, str]) -> "MultiPoly":
        """Rename variables by a bijection of the ring's variable set."""
        if set(mapping) != set(self.ring.variables) or set(mapping.values()) != set(
            self.ring.variables
        ):
            raise UnknownVariable("variable permutation must be a bijection of the ring")
        pos = {v: i for i, v in enumerate(self.ring.variables)}
        acc: dict[Exps, ParamScalar] = {}
        for e, c in self.terms:
            ne = [0] * self.ring.n
            for name, x in zip(self.ring.variables, e):
                ne[pos[mapping[name]]] = x
            acc[tuple(ne)] = c
        return self.ring.from_terms(acc)

    # -- printing ---------------------------------------------------------------

    def __str__(self) -> str:
        return _print_sum(
            (_monomial(self.ring.variables, e), *_coefficient(c)) for e, c in self.terms
        )


def _power_table(ring: PolyRing, values: Mapping[str, Scalar]) -> Callable[[int, int], Scalar]:
    """power(i, x): the value of the i-th variable of `ring` raised to x,
    each (variable, exponent) computed once. A value is brought into the
    field when a power of it is first asked for, so the value of a
    variable that no term uses is never checked."""
    field = ring.coeffs.field
    variables = ring.variables
    cache: dict[tuple[int, int], Scalar] = {}

    def power(i: int, x: int) -> Scalar:
        key = (i, x)
        got = cache.get(key)
        if got is None:
            base = cache.get((i, 1))
            if base is None:
                base = cache[(i, 1)] = field.make(values[variables[i]])
            got = cache[key] = field.pow(base, x)
        return got

    return power


# -- printing -------------------------------------------------------------------


def _coefficient(c: ParamScalar) -> tuple[str, bool]:
    """Text and sign of a nonzero term coefficient: a constant prints from
    its value, a coefficient of several terms is parenthesised, and a
    negative one-term coefficient gives its sign to the joiner."""
    if c.is_constant:
        return _signed(c.ring.field, c.terms[0][1])
    cs = str(c)
    if len(c.terms) > 1:
        return f"({cs})", False
    neg = cs.startswith("-")
    return (cs[1:] if neg else cs), neg


# -- bridging to the flat parameter ring ------------------------------------


def flatten_ring(ring: PolyRing) -> ParamRing:
    """Parameter ring on (parameters + variables), parameters first."""
    return ParamRing(ring.coeffs.field, ring.coeffs.names + ring.variables)


def flatten(p: MultiPoly, flat: ParamRing | None = None) -> ParamScalar:
    """View a MultiPoly as a flat ParamScalar in parameters + variables."""
    flat = flat or flatten_ring(p.ring)
    acc: dict[Exps, Scalar] = {}
    for e, c in p.terms:
        for pe, coeff in c.terms:
            acc[tuple(pe) + tuple(e)] = coeff
    return flat.from_terms(acc)


def unflatten(ps: ParamScalar, ring: PolyRing) -> MultiPoly:
    """Inverse of flatten for the ring's own flat parameter ring."""
    k = ring.coeffs.k
    acc: dict[Exps, dict[Exps, Scalar]] = {}
    for e, coeff in ps.terms:
        pe, ve = tuple(e[:k]), tuple(e[k:])
        acc.setdefault(ve, {})[pe] = coeff
    terms = {ve: ring.coeffs.from_terms(pterms) for ve, pterms in acc.items()}
    return ring.from_terms(terms)


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
    def from_poly(cls, p: MultiPoly, s: str = "s", t: str = "t") -> "BinaryForm":
        """Read a homogeneous polynomial in two variables as a form."""
        if set(p.ring.variables) != {s, t}:
            raise UnknownVariable(f"expected a ring in ({s}, {t})")
        d = p.homogeneous_degree()
        if d is None:
            raise NotHomogeneous(f"{p} is not homogeneous")
        field = p.ring.coeffs.field
        coeffs = [field.zero] * (d + 1)
        si = p.ring.variables.index(s)
        for e, c in p.terms:
            coeffs[d - e[si]] = c.constant_value()
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

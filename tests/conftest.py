import random
from fractions import Fraction

import pytest

from cilines.fields import Field, RATIONALS, prime_field
from cilines.geometry import ambient_variables
from cilines.multipoly import MultiPoly, PolyRing
from cilines.params import ParamRing, ParamScalar


@pytest.fixture
def rng():
    return random.Random(20260810)


def field_of_char(char: int) -> Field:
    return RATIONALS if char == 0 else prime_field(char)


def ambient_ring(field: Field, n: int, params: tuple[str, ...] = ()) -> PolyRing:
    return PolyRing(ParamRing(field, params), ambient_variables(n))


def random_element(field: Field, rng) -> int:
    """A small element of the field, zero included, an int over Q."""
    if field.p is None:
        return rng.randint(-50, 50)
    return rng.randrange(field.p)


def random_nonzero(field: Field, rng) -> int:
    """A small nonzero element of the field, an int over Q as well."""
    if field.p is None:
        n = rng.randint(1, 50)
        return n if rng.random() < 0.5 else -n
    return rng.randint(1, field.p - 1)


def random_scalar(rng, ring: ParamRing, max_deg: int = 3, n_terms: int = 4):
    """Random ParamScalar with small integer coefficients."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * ring.k
        for _ in range(rng.randrange(max_deg + 1)):
            if ring.k:
                exps[rng.randrange(ring.k)] += 1
        terms[tuple(exps)] = ring.field.make(rng.randint(-5, 5))
    return ring.from_terms(terms)


def random_homogeneous(
    rng: random.Random, ring: PolyRing, degree: int, n_terms: int = 6
) -> MultiPoly:
    """A nonzero homogeneous form with random monomials and nonzero
    coefficients (collisions overwrite, never cancel)."""
    field = ring.coeffs.field
    terms = {}
    n = ring.n
    for _ in range(n_terms):
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = ring.coeffs.const(random_nonzero(field, rng))
    return ring.from_terms(terms)


def random_poly(
    rng: random.Random, ring: PolyRing, max_deg: int = 4, n_terms: int = 5
) -> MultiPoly:
    """A polynomial of mixed degree whose coefficients carry the ring's
    parameters; powers of one variable recur across terms."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * ring.n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ring.n)] += 1
        terms[tuple(exps)] = random_scalar(rng, ring.coeffs, 2, 3)
    return ring.from_terms(terms)


def random_point(rng: random.Random, field: Field, names) -> dict:
    """Values for `names`, zeros and ones among them; proper fractions
    over Q."""
    out = {}
    for name in names:
        pick = rng.random()
        if pick < 0.15:
            out[name] = 0
        elif pick < 0.3:
            out[name] = 1
        elif field.p is None:
            out[name] = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
        else:
            out[name] = rng.randrange(field.p)
    return out


def naive_evaluate(p: MultiPoly, values) -> ParamScalar:
    """Test-only reference for MultiPoly.evaluate: each variable power by
    repeated multiplication, and the terms added one at a time."""
    coeffs = p.ring.coeffs
    field = coeffs.field
    out = coeffs.zero()
    for e, c in p.terms:
        scale = field.one
        for name, x in zip(p.ring.variables, e):
            for _ in range(x):
                scale = field.mul(scale, field.make(values[name]))
        out = out + c * coeffs.const(scale)
    return out

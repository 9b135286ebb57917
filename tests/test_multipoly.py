import re
from fractions import Fraction

import pytest

from cilines.errors import (
    AllZero,
    ConstraintViolated,
    ParameterPresent,
    RingMismatch,
    UnknownVariable,
)
from cilines.fields import RATIONALS, prime_field
from cilines.geometry import restrict_along
from cilines.multipoly import BinaryForm, MultiPoly, PolyRing, binary_gcd
from cilines.params import ParamRing
from cilines.polytext import parse_poly

from conftest import (
    ambient_ring,
    field_of_char,
    naive_evaluate,
    random_element,
    random_homogeneous,
    random_point,
    random_poly,
    random_scalar,
)
from multipoly_reference import NestedPoly
from support import (
    binary_form_from_poly,
    evaluate,
    form_from_scalars,
    gradient_at,
    naive_compose_terms,
    naive_mul,
    param,
)


def test_differentiate_examples():
    ring = ambient_ring(RATIONALS, 6)
    t, z4, z5 = ring.var("T"), ring.var("Z4"), ring.var("Z5")
    assert (t ** 2 * z4 * z5).differentiate("Z4") == t ** 2 * z5

    ring2 = ambient_ring(prime_field(2), 3)
    zsq = ring2.var("Z1") * ring2.var("Z1")
    assert zsq.differentiate("Z1").is_zero  # the exponent 2 dies in characteristic 2

    ring3 = PolyRing(ParamRing(RATIONALS, ("c1",)), ("S", "T"))
    p = parse_poly("c1*S^3 - S^2*T", ring3)
    assert p.differentiate("S") == parse_poly("3*c1*S^2 - 2*S*T", ring3)

    with pytest.raises(UnknownVariable):
        p.differentiate("Z9")


CHART_VARIABLES = ("a1", "a2", "a3", "b1", "b2", "b3")


def test_evaluate_matches_a_naive_reference(rng):
    for char in (0, 2, 3, 7):
        field = field_of_char(char)
        for names in ((), ("c1", "c2")):
            ring = PolyRing(ParamRing(field, names), CHART_VARIABLES)
            for _ in range(15):
                p = random_poly(rng, ring)
                vals = random_point(rng, field, CHART_VARIABLES)
                assert evaluate(p, vals) == naive_evaluate(p, vals)
    # one variable at three powers in three terms
    ring = PolyRing(ParamRing(RATIONALS, ()), ("x", "y"))
    p = parse_poly("x^3 + x^2*y + x + y^2", ring)
    assert evaluate(p, {"x": 2, "y": 3}) == ring.coeffs.const(8 + 12 + 2 + 9)


def test_gradient_at_is_differentiate_then_evaluate(rng):
    for char in (0, 2, 3, 7):
        field = field_of_char(char)
        for names in ((), ("c1", "c2")):
            ring = PolyRing(ParamRing(field, names), CHART_VARIABLES)
            for _ in range(15):
                p = random_poly(rng, ring)
                vals = random_point(rng, field, CHART_VARIABLES)
                order = list(CHART_VARIABLES) + [rng.choice(CHART_VARIABLES)]
                rng.shuffle(order)
                assert gradient_at(p, order, vals) == [
                    evaluate(p.differentiate(v), vals) for v in order
                ]
    ring = PolyRing(ParamRing(RATIONALS, ()), ("x", "y"))
    p = parse_poly("x^3*y + 5*x^2", ring)
    const = ring.coeffs.const
    assert gradient_at(p, ("x", "y"), {"x": 2, "y": 3}) == [const(3 * 4 * 3 + 10 * 2), const(8)]
    assert gradient_at(p, (), {"x": 2, "y": 3}) == []
    with pytest.raises(UnknownVariable, match=re.escape("no value for ['x', 'y']")):
        gradient_at(p, (), {})


@pytest.mark.parametrize("char", [0, 2, 3, 7])
@pytest.mark.parametrize("params", [(), ("c1", "c2")])
def test_jet_at_is_the_value_and_the_evaluated_derivatives(rng, char, params):
    """jet_at against evaluate and differentiate-then-evaluate, with terms
    whose exponents are multiples of p, at points with no, one, two or
    every coordinate at 0."""
    field = field_of_char(char)
    ring = PolyRing(ParamRing(field, params), CHART_VARIABLES)
    n = len(CHART_VARIABLES)
    for trial in range(40):
        p = random_poly(rng, ring)
        for _ in range(2):  # x_i^(m p) * x_j, an annihilated exponent over F_p
            exps = [0] * n
            exps[rng.randrange(n)] += (char or 5) * rng.randint(1, 3)
            exps[rng.randrange(n)] += 1
            p = p + ring.from_terms({tuple(exps): random_scalar(rng, ring.coeffs, 2, 2)})
        vals = random_point(rng, field, CHART_VARIABLES)
        zeros = (0, 1, 2, n)[trial % 4]
        for v in rng.sample(CHART_VARIABLES, zeros):
            vals[v] = 0
        names = list(CHART_VARIABLES) + [rng.choice(CHART_VARIABLES)]
        rng.shuffle(names)
        value, partials = p.jet_at(names, vals)
        assert value == evaluate(p, vals)
        assert partials == [evaluate(p.differentiate(v), vals) for v in names]
    zero = ring.coeffs.zero()
    assert ring.zero().jet_at(CHART_VARIABLES[:2], {}) == (zero, [zero, zero])


def test_jet_at_reads_no_value_for_the_value_it_cannot_give():
    """Every variable that occurs needs a value, whatever is asked: the
    value and every partial, one that would not read the missing value
    too, are refused with UnknownVariable naming every missing variable.
    A variable that no term uses needs none. At key widths 1, 2 and 4."""
    ring = PolyRing(ParamRing(RATIONALS, ()), ("a1", "b1", "z"))
    const = ring.coeffs.const
    for big in (1, 200, 40000):
        p = parse_poly(f"a1*b1^{big} + 3*b1", ring)
        assert p.flat.width == (1 if big == 1 else 2 if big == 200 else 4)
        for asked in ((), ("a1",), ("b1",), ("z", "a1")):
            with pytest.raises(UnknownVariable, match=re.escape("no value for ['a1']")):
                p.jet_at(asked, {"b1": 5})
            with pytest.raises(UnknownVariable, match=re.escape("no value for ['a1', 'b1']")):
                p.jet_at(asked, {"z": 1})
        # d/da1 = b1^big, d/db1 = big*a1*b1^(big-1) + 3
        value, partials = p.jet_at(("a1", "b1", "z"), {"a1": 2, "b1": -1})
        sign = (-1) ** big
        assert value == const(2 * sign - 3)
        assert partials == [const(sign), const(-2 * big * sign + 3), const(0)]


def test_a_value_the_field_cannot_hold_is_refused_where_it_is_used():
    f7 = PolyRing(ParamRing(prime_field(7), ()), ("x", "y"))
    p = parse_poly("x^2 + 3*x", f7)
    bad = {"x": 1, "y": Fraction(1, 7)}  # 1/7 has no image in F_7
    with pytest.raises(ConstraintViolated):
        evaluate(p, {"x": Fraction(1, 7), "y": 1})
    with pytest.raises(ConstraintViolated):
        gradient_at(p, ("x",), {"x": Fraction(1, 7)})
    # the value of a variable that no term uses is not brought into the field
    assert evaluate(p, bad) == f7.coeffs.const(4)
    assert gradient_at(p, ("x", "y"), bad) == [f7.coeffs.const(5), f7.coeffs.zero()]


def test_gradient_at_annihilates_and_names_what_is_missing():
    """An exponent 0 in the field annihilates its partial, yet every
    variable that occurs needs a value, the one differentiated away too:
    UnknownVariable names all that are missing, whatever is asked. At key
    widths 1, 2 and 4."""
    f3 = PolyRing(ParamRing(prime_field(3), ()), ("a1", "b1"))
    zero, two = f3.coeffs.zero(), f3.coeffs.const(2)
    for x in (3, 201, 40002):  # multiples of 3, so x*a1^(x-1) vanishes in F_3
        p = parse_poly(f"a1^{x} + 2*b1", f3)
        assert p.flat.width == (1 if x == 3 else 2 if x == 201 else 4)
        assert gradient_at(p, ("a1", "b1"), {"a1": 2, "b1": 1}) == [zero, two]
        assert gradient_at(p, ("a1",), {"a1": 0, "b1": 1}) == [zero]
        for names in ((), ("a1",), ("b1",), ("b1", "a1")):
            with pytest.raises(UnknownVariable, match=re.escape("no value for ['a1']")):
                gradient_at(p, names, {"b1": 1})
            with pytest.raises(UnknownVariable, match=re.escape("no value for ['a1', 'b1']")):
                gradient_at(p, names, {})
        # d/da1 of a1*b1^(x-1) reads b1 alone, but a1 occurs
        r = parse_poly(f"a1*b1^{x - 1}", f3)
        assert gradient_at(r, ("a1",), {"a1": 1, "b1": 2}) == [f3.coeffs.const(pow(2, x - 1, 3))]
        with pytest.raises(UnknownVariable, match=re.escape("no value for ['a1']")):
            gradient_at(r, ("a1",), {"b1": 2})
        with pytest.raises(UnknownVariable, match="not in ring"):
            gradient_at(r, ("a1", "Z9"), {"a1": 1, "b1": 1})


def test_param_scalar_evaluate_matches_a_naive_reference(rng):
    for char in (0, 2, 3, 7):
        field = field_of_char(char)
        names = ("c1", "c2", "c3")
        # the scalars of ParamRing(field, names) are the polynomials of this ring
        ring = PolyRing(ParamRing(field, ()), names)
        for _ in range(15):
            a = random_scalar(rng, ring.flat)
            vals = random_point(rng, field, names)
            assert evaluate(a, vals) == naive_evaluate(MultiPoly(ring, a), vals).constant_value()


def evaluators():
    """x^2 + w + v over F_7 as a ParamScalar in the parameters x, w, v, u
    and as a MultiPoly in the variables x, w, v, u, each with the map from
    a field value to the type its evaluate returns."""
    f7 = prime_field(7)
    scalars = ParamRing(f7, ("x", "w", "v", "u"))
    polys = PolyRing(ParamRing(f7, ("c1",)), ("x", "w", "v", "u"))
    return [
        (scalars.var("x") ** 2 + scalars.var("w") + scalars.var("v"), f7.make),
        (parse_poly("x^2 + w + v", polys), polys.coeffs.const),
    ]


def test_a_missing_value_wins_over_one_the_field_cannot_hold():
    for p, _ in evaluators():
        # x, the first name the walk meets, has no image in F_7
        with pytest.raises(UnknownVariable, match=re.escape("no value for ['v', 'w']")):
            evaluate(p, {"x": Fraction(1, 7)})
        with pytest.raises(ConstraintViolated):
            evaluate(p, {"x": Fraction(1, 7), "w": 1, "v": 2})


def test_an_unused_value_the_field_cannot_hold_is_ignored():
    for p, const in evaluators():
        # u is a name of the ring that no term uses
        assert evaluate(p, {"x": 3, "w": 1, "v": 2, "u": Fraction(1, 7)}) == const(12 % 7)


def test_a_missing_parameter_is_named():
    coeffs = ParamRing(RATIONALS, ("c1", "c2"))
    p = coeffs.var("c1") * coeffs.var("c2") + 1
    with pytest.raises(UnknownVariable, match=re.escape("no value for ['c2']")):
        evaluate(p, {"c1": 2})
    assert evaluate(p, {"c1": 2, "c2": Fraction(1, 4)}) == Fraction(3, 2)


def test_monomial_power_is_repeated_multiplication():
    for field in (RATIONALS, prime_field(5)):
        coeffs = ParamRing(field, ("c1", "c2"))
        c = coeffs.const(-2) * coeffs.var("c1") ** 2 * coeffs.var("c2")
        ring = PolyRing(coeffs, ("S", "T", "Z1"))
        for base in (
            c,
            coeffs.const(3),
            ring.const(c) * ring.var("S") ** 2 * ring.var("Z1"),
            ring.const(coeffs.var("c1") + coeffs.var("c2")) * ring.var("T"),
            ring.const(7),
        ):
            one = base.ring.one()
            for n in (0, 1, 2, 5):
                product = one
                for _ in range(n):
                    product = product * base
                assert base**n == product
    with pytest.raises(ValueError):
        ring.var("S") ** -1


def naive_poly_mul(p, q):
    """Test-only reference for MultiPoly.__mul__: every pair of terms
    multiplied with exponent tuples, summed in a dict, zeros dropped and
    the rest sorted the plain way."""
    acc = {}
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    kept = [(e, c) for e, c in acc.items() if not c.is_zero]
    return tuple(sorted(kept, key=lambda t: (sum(t[0]), t[0]), reverse=True))


def typed_poly(terms):
    """Terms with the class of every base-field coefficient, since an int
    and the Fraction of the same value compare equal."""
    return tuple((e, tuple((pe, v, v.__class__) for pe, v in c.terms)) for e, c in terms)


def assert_poly_product_is_naive(p, q):
    want = typed_poly(naive_poly_mul(p, q))
    assert typed_poly((p * q).terms) == want
    assert typed_poly((q * p).terms) == want


def test_packed_poly_products_match_naive(rng):
    for field in (RATIONALS, prime_field(2), prime_field(7)):
        for n in (1, 3, 12):
            ring = PolyRing(ParamRing(field, ("c1",)), tuple(f"x{i}" for i in range(1, n + 1)))
            for _ in range(8):
                p = random_poly(rng, ring, max_deg=5, n_terms=rng.randint(2, 20))
                q = random_poly(rng, ring, max_deg=5, n_terms=rng.randint(2, 20))
                if field.p is None and rng.random() < 0.5:
                    q = q * ring.const(ring.coeffs.const(Fraction(rng.randint(1, 9), 2)))
                assert_poly_product_is_naive(p, q)
                assert_poly_product_is_naive(p, random_poly(rng, ring, n_terms=1))
                assert_poly_product_is_naive(p, ring.zero())
        ring = PolyRing(ParamRing(field, ("c1",)), ("x", "y", "z"))
        x, y, z = (ring.var(v) for v in ring.variables)
        c1 = param(ring, "c1")
        assert_poly_product_is_naive(x + c1 * y, x - c1 * y)  # the x*y terms cancel
        assert (x + c1 * y) * (x - c1 * y) == x * x - c1 * c1 * y * y
        a, b = x**5 + y * z + c1, x**3 + z + 1  # x^8 fills the top digit of its slot
        assert_poly_product_is_naive(a, b)
        assert (a * b).terms[0][0] == (8, 0, 0)
        huge = x**99999999 * y + c1 * z
        assert_poly_product_is_naive(huge, x + y * y + 1)
        assert (huge * huge).terms[0][0] == (199999998, 2, 0)


def test_substitute_chart_parameterization():
    # T^2 Z4 Z5 composed with the chart line, coefficients against s^4..t^4
    ring = ambient_ring(RATIONALS, 6)
    h = parse_poly("T^2*Z4*Z5", ring)
    full = PolyRing(
        ring.coeffs,
        ("s", "t") + tuple(f"a{j}" for j in range(1, 6)) + tuple(f"b{j}" for j in range(1, 6)),
    )
    s, t = full.var("s"), full.var("t")
    assign = {"S": s, "T": t}
    for j in range(1, 6):
        assign[f"Z{j}"] = s * full.var(f"a{j}") + t * full.var(f"b{j}")
    image = h.substitute(assign)
    pieces = image.split(("s", "t"))
    by_t_deg = {et: str(p) for (es, et), p in pieces.items()}
    assert by_t_deg == {2: "a4*a5", 3: "a4*b5 + a5*b4", 4: "b4*b5"}


def test_substitute_identity_and_errors():
    ring = ambient_ring(RATIONALS, 3)
    p = parse_poly("S*Z1 + T*Z2", ring)
    ident = {v: ring.var(v) for v in ring.variables}
    assert p.substitute(ident) == p
    with pytest.raises(UnknownVariable):
        p.substitute({"S": ring.var("S")})  # occurring variables uncovered
    with pytest.raises(UnknownVariable):
        p.substitute({**ident, "W": ring.var("S")})


def test_substitute_is_ring_homomorphism(rng):
    ring = ambient_ring(prime_field(5), 3)
    target = PolyRing(ring.coeffs, ("u", "v"))
    assign = {
        "S": target.var("u") + target.var("v"),
        "T": target.var("u") * target.var("v"),
        "Z1": target.var("v") ** 2,
        "Z2": target.one(),
    }
    for _ in range(15):
        p = random_homogeneous(rng, ring, rng.randint(1, 3))
        q = random_homogeneous(rng, ring, rng.randint(1, 3))
        assert (p + q).substitute(assign) == p.substitute(assign) + q.substitute(assign)
        assert (p * q).substitute(assign) == p.substitute(assign) * q.substitute(assign)


def test_leibniz_rule(rng):
    for char in (0, 2, 3, 5):
        ring = ambient_ring(field_of_char(char), 4)
        for _ in range(10):
            p = random_homogeneous(rng, ring, rng.randint(1, 4))
            q = random_homogeneous(rng, ring, rng.randint(1, 4))
            v = ring.variables[rng.randrange(ring.n)]
            lhs = (p * q).differentiate(v)
            rhs = p.differentiate(v) * q + p * q.differentiate(v)
            assert lhs == rhs


def test_euler_identity(rng):
    # sum over all coordinates X of X * dh/dX equals deg(h) * h
    for char in (0, 2, 3, 5):
        field = field_of_char(char)
        ring = ambient_ring(field, 5)
        for _ in range(10):
            d = rng.randint(1, 5)
            h = random_homogeneous(rng, ring, d)
            acc = ring.zero()
            for v in ring.variables:
                acc = acc + ring.var(v) * h.differentiate(v)
            assert acc == h * ring.coeffs.const(d)


def test_homogeneity_predicate():
    ring = ambient_ring(RATIONALS, 3)
    p = parse_poly("S*Z1 + T*Z2", ring)
    assert p.is_homogeneous(2) and not p.is_homogeneous(3)
    q = parse_poly("S + T^2", ring)
    assert not q.is_homogeneous()
    assert ring.zero().is_homogeneous(7)


def binform(field, *coeffs):
    return form_from_scalars(field, list(coeffs))


def test_binary_gcd_examples():
    s2t = binform(RATIONALS, 0, 1, 0, 0)  # s^2 t
    st2 = binform(RATIONALS, 0, 0, 1, 0)  # s t^2
    assert binary_gcd([s2t, st2]).coeffs == binform(RATIONALS, 0, 1, 0).coeffs  # s t

    s = binform(RATIONALS, 1, 0)
    t = binform(RATIONALS, 0, 1)
    assert binary_gcd([s, t]).degree == 0

    with pytest.raises(AllZero):
        binary_gcd([BinaryForm.zero(RATIONALS, 2)])

    # a parameter never reaches the gcd: the form is refused where it is built
    pring = ParamRing(RATIONALS, ("c1",))
    with pytest.raises(ParameterPresent):
        form_from_scalars(RATIONALS, [pring.var("c1"), pring.one()])


def test_binary_gcd_divides_and_is_divided(rng):
    field = prime_field(7)

    def random_form(d):
        return form_from_scalars(field, [random_element(field, rng) for _ in range(d + 1)])

    def strip(form):
        # (s-power, t-power, core as dense x-polynomial, highest first)
        vals = list(form.coeffs)
        nz = [k for k, v in enumerate(vals) if not field.is_zero(v)]
        k0, k1 = nz[0], nz[-1]
        return form.degree - k1, k0, vals[k0 : k1 + 1]

    def divides(g, f):
        if f.is_zero:
            return True
        gvs, gvt, gcore = strip(g)
        fvs, fvt, fcore = strip(f)
        if gvs > fvs or gvt > fvt:
            return False
        r = fcore[:]
        while True:
            while r and field.is_zero(r[0]):
                r.pop(0)
            if len(r) < len(gcore):
                break
            lead = field.div(r[0], gcore[0])
            for i in range(len(gcore)):
                r[i] = field.sub(r[i], field.mul(lead, gcore[i]))
        return all(field.is_zero(x) for x in r)

    for _ in range(20):
        common = random_form(rng.randint(0, 2))
        f = random_form(rng.randint(1, 3)) * common
        g = random_form(rng.randint(1, 3)) * common
        if f.is_zero and g.is_zero:
            continue
        gcd = binary_gcd([f, g])
        assert divides(gcd, f) and divides(gcd, g)
        if not common.is_zero:
            assert divides(common, gcd)


def test_compose():
    f = binform(RATIONALS, 1, 0, -1)  # s^2 - t^2
    u = binform(RATIONALS, 1, 0, 0)  # s^2
    w = binform(RATIONALS, 0, 0, 1)  # t^2
    assert f.compose(u, w).coeffs == binform(RATIONALS, 1, 0, 0, 0, -1).coeffs  # s^4 - t^4


def test_restrict_along_and_compose_match_substitution(rng):
    """Both compose through one power ladder per component; a form whose
    variables recur with several exponents checks it against
    MultiPoly.substitute into the ring of (s, t)."""
    field = prime_field(7)
    coeffs = ParamRing(field, ())
    st_ring = PolyRing(coeffs, ("s", "t"))

    def as_poly(form):
        d = form.degree
        terms = {(d - k, k): coeffs.const(c) for k, c in enumerate(form.coeffs)}
        return st_ring.from_terms(terms)

    def random_form(d):
        return form_from_scalars(field, [random_element(field, rng) for _ in range(d + 1)])

    ring = ambient_ring(field, 3)
    for _ in range(10):
        form = random_homogeneous(rng, ring, 4, n_terms=10)
        comps = [random_form(2) for _ in ring.variables]
        want = form.substitute({v: as_poly(c) for v, c in zip(ring.variables, comps)})
        assert as_poly(restrict_along(form, comps)) == want

        f = random_form(3)
        u, w = random_form(2), random_form(2)
        want = as_poly(f).substitute({"s": as_poly(u), "t": as_poly(w)})
        assert as_poly(f.compose(u, w)) == want


# -- binary forms against naive references ------------------------------------------


def random_values(rng, field, k, zeros=0.3):
    """k field values, a share of them zero; over Q proper fractions and
    integers, so products and sums both cancel denominators."""
    out = []
    for _ in range(k):
        if rng.random() < zeros:
            out.append(field.zero)
        elif field.p is None:
            out.append(field.make(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))))
        else:
            out.append(rng.randrange(field.p))
    return out


def same_values(got, want):
    """Equal values of the same class: an integral rational is an int."""
    assert list(got) == list(want)
    assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("char", [0, 2, 7])
def test_binary_form_product_and_compose_match_naive_references(rng, char):
    field = field_of_char(char)
    for _ in range(40):
        f = form_from_scalars(field, random_values(rng, field, rng.randint(1, 6)))
        g = form_from_scalars(field, random_values(rng, field, rng.randint(1, 6)))
        same_values((f * g).coeffs, naive_mul(field, f.coeffs, g.coeffs))
        k = rng.randint(0, 3)
        u = form_from_scalars(field, random_values(rng, field, k + 1))
        w = form_from_scalars(field, random_values(rng, field, k + 1))
        d = f.degree
        terms = [((d - i, i), c) for i, c in enumerate(f.coeffs)]
        want = naive_compose_terms(field, terms, (u.coeffs, w.coeffs), d * k)
        same_values(f.compose(u, w).coeffs, want)
    # (s/2) * (2 t) = s t, an int coefficient over Q
    half = form_from_scalars(field, [Fraction(1, 2) if char != 2 else 1, 0])
    two_t = form_from_scalars(field, [0, 2 if char != 2 else 1])
    same_values((half * two_t).coeffs, [0, 1, 0])


@pytest.mark.parametrize("char", [0, 2, 7])
def test_restrict_along_matches_the_naive_reference(rng, char):
    field = field_of_char(char)
    ring = ambient_ring(field, 3)
    for _ in range(15):
        d = rng.randint(1, 4)
        form = random_homogeneous(rng, ring, d, n_terms=8)
        if field.p is None:  # proper fractions among the coefficients
            form = ring.from_terms(
                {
                    e: ring.coeffs.const(Fraction(c.constant_value(), rng.randint(1, 3)))
                    for e, c in form.terms
                }
            )
        b = rng.randint(1, 3)
        comps = [form_from_scalars(field, random_values(rng, field, b + 1)) for _ in range(4)]
        terms = [(e, c.constant_value()) for e, c in form.terms]
        want = naive_compose_terms(field, terms, [c.coeffs for c in comps], b * d)
        same_values(restrict_along(form, comps).coeffs, want)


def test_binary_forms_refuse_parameters_where_they_are_built():
    coeffs = ParamRing(RATIONALS, ("c1",))
    c1 = coeffs.var("c1")
    with pytest.raises(ParameterPresent):
        form_from_scalars(RATIONALS, [1, c1])
    st_ring = PolyRing(coeffs, ("s", "t"))
    with pytest.raises(ParameterPresent):
        binary_form_from_poly(st_ring.var("s") * param(st_ring, "c1"))
    ring = PolyRing(coeffs, ("S", "T"))
    line = (binform(RATIONALS, 1, 0), binform(RATIONALS, 0, 1))
    with pytest.raises(ParameterPresent):
        restrict_along(ring.var("S") * param(ring, "c1"), line)
    # a constant ParamScalar is read as its value, over its own field only
    assert form_from_scalars(RATIONALS, [coeffs.const(3), 0]).coeffs == (3, 0)
    with pytest.raises(RingMismatch):
        form_from_scalars(prime_field(7), [coeffs.const(3)])


def test_parser_rejects_garbage():
    from cilines.errors import ParseError

    ring = ambient_ring(RATIONALS, 3)
    for bad in (
        *("", "S +", "2S", "S^x", "W + T", "S ? T", "+S", "S - -T", "2 3", "S^2^3"),
        *("S^-1", "S T", "S*", "*S", "S**2", "-S+-T"),
    ):
        with pytest.raises(ParseError):
            parse_poly(bad, ring)


def test_parser_reads_spaces_signs_and_zeroth_powers():
    ring = ambient_ring(RATIONALS, 3)
    S = ring.var("S")
    assert parse_poly("S^ 2", ring) == S * S
    assert parse_poly("- S", ring) == -S
    assert parse_poly("0^0*S", ring) == S
    assert parse_poly("S^0", ring) == ring.one()
    assert parse_poly("S + S - 3*T + T", ring) == 2 * S - 2 * ring.var("T")


def test_parser_str_roundtrip(rng):
    ring = PolyRing(ParamRing(RATIONALS, ("c1", "c2")), ("S", "T", "Z1"))
    for _ in range(15):
        p = random_homogeneous(rng, ring, rng.randint(1, 4))
        assert parse_poly(str(p), ring) == p


def _random_pair(rng, ring, n_terms):
    """A random polynomial as a MultiPoly and as a NestedPoly, from one
    dict of integer coefficients."""
    field, k = ring.coeffs.field, ring.coeffs.k
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.choice((0, 0, 0, 1, 1, 2, 10, 13)) for _ in range(ring.n))
        coeff = terms.setdefault(e, {})
        for _ in range(rng.randint(1, 3) if k else 1):
            coeff[tuple(rng.randint(0, 2) for _ in range(k))] = field.make(rng.randint(-3, 3))
    mine = ring.from_terms({e: ring.coeffs.from_terms(c) for e, c in terms.items()})
    return mine, NestedPoly(ring, terms)


@pytest.mark.parametrize("char", [0, 2, 3, 7])
@pytest.mark.parametrize("params", [(), ("c1", "c2")])
def test_flat_storage_agrees_with_a_nested_reference(rng, char, params):
    """terms, str and == of MultiPolys built by sums, differences and
    products, with exponents of 10 and more among them, agree with the
    nested reference, and parse_poly reads back
    the expanded text of each and, when every coefficient has one term,
    what str prints."""
    ring = PolyRing(ParamRing(field_of_char(char), params), ("x", "y", "z"))
    mine, theirs = [], []
    for _ in range(40):
        if len(mine) < 4 or rng.random() < 0.3:
            p, q = _random_pair(rng, ring, rng.randint(0, 5))
        else:
            i, j = rng.randrange(len(mine)), rng.randrange(len(mine))
            op = rng.choice(("add", "sub", "mul"))
            p = getattr(mine[i], f"__{op}__")(mine[j])
            q = getattr(theirs[i], f"__{op}__")(theirs[j])
        mine.append(p)
        theirs.append(q)
    mine.append(mine[0] - mine[0])
    theirs.append(theirs[0] - theirs[0])
    for p, q in zip(mine, theirs):
        assert tuple((e, c.terms) for e, c in p.terms) == q.sorted_terms()
        assert str(p) == str(q)
        assert parse_poly(q.expanded_text(), ring) == p
        if all(len(c.terms) == 1 for _, c in p.terms):
            assert parse_poly(str(p), ring) == p
    for i in range(len(mine)):
        for j in range(i, len(mine)):
            assert (mine[i] == mine[j]) == (theirs[i] == theirs[j])
    if char == 0:  # proper fractions print as such, in str and in terms
        half = ring.const(ring.coeffs.const(Fraction(1, 2)))
        twin = NestedPoly(ring, {(0, 0, 0): {(0,) * len(params): Fraction(1, 2)}})
        for p, q in zip(mine, theirs):
            assert str(p * half) == str(q * twin)
            assert tuple((e, c.terms) for e, c in (p * half).terms) == (q * twin).sorted_terms()

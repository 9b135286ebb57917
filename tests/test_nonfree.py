from fractions import Fraction

import pytest

from cilines.chart import chart_ring, enumerate_lines_fq, membership_system, nonfree_matrix
from cilines.errors import ConstraintViolated, LineNotContained, NotCorankOne
from cilines.exactmatrix import ExactMatrix, det, rank_exact
from cilines.families import FamilySpec, build_family, family_report
from cilines.fields import RATIONALS, prime_field
from cilines.geometry import CIType, CompleteIntersection, Line, ambient_variables
from cilines.multipoly import PolyRing
from cilines.params import ParamRing
from cilines.nonfree import (
    bordered_minors,
    expected_pair_report,
    jacobian_def_matrix,
)
from cilines.polytext import parse_poly

import families_reference
from conftest import field_of_char, random_scalar
from support import (
    chart_values,
    evaluate,
    local_equations,
    permuted,
    permuted_z,
    same_differential_span,
    scaled,
    specialized,
)
from test_chart import make_ci
from test_exactmatrix import gaussian_rank_oracle


def built_4_6():
    return build_family(FamilySpec("hyp-4-6"), RATIONALS)


def test_local_equations_4_6():
    built = built_4_6()
    eqs = local_equations(built.x, built.line)
    assert eqs.count == 2  # m = N - |d| = 2
    assert eqs.pivot_rows == (0, 1, 2) and eqs.pivot_cols == (0, 1, 2)
    assert str(eqs.pivot_det) == "c3"
    got = sorted(str(g) for g in eqs.minors)
    assert got == ["c2*a4 + c3*b4", "c2*a5 + c3*b5"]


def test_local_equations_span_matches_reference_4_6():
    built = built_4_6()
    eqs = local_equations(built.x, built.line)
    ab = chart_ring(built.x.coeff_ring, built.x.n)
    reference = [
        parse_poly("c2*a4 + c3*b4", ab),
        parse_poly("c2*a5 + c3*b5", ab),
    ]
    assert same_differential_span(built.x, list(eqs.minors), reference, built.line)


def test_local_equations_span_matches_reference_p7():
    built = build_family(FamilySpec("quadrics-general", 7, (2, 2)), RATIONALS)
    eqs = local_equations(built.x, built.line)
    assert eqs.count == 3
    ab = chart_ring(built.x.coeff_ring, built.x.n)
    reference = [
        parse_poly("-a5", ab),
        parse_poly("b6 - a4", ab),
        parse_poly("b5", ab),
    ]
    assert same_differential_span(built.x, list(eqs.minors), reference, built.line)


def test_local_equations_vanish_at_base():
    for spec in (FamilySpec("hyp-4-6"), FamilySpec("quadrics-general", 8, (2, 2))):
        built = build_family(spec, RATIONALS)
        eqs = local_equations(built.x, built.line)
        vals = chart_values(built.line)
        assert all(evaluate(g, vals).is_zero for g in eqs.minors)


def test_local_equations_rejects_free_line():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    with pytest.raises(NotCorankOne):
        local_equations(x, Line.standard(RATIONALS, 3))


def test_local_equations_rejects_off_line():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    with pytest.raises(LineNotContained):
        local_equations(x, Line.chart(RATIONALS, (1, 0), (0, 0)))


def test_local_equations_are_those_of_the_jacobian_matrix():
    """jacobian_def_matrix gives equal local equations from separate
    builds of M(h) at the same line, and refuses a free line and a deeper
    drop by name (a line off X: test_local_equations_rejects_off_line)."""
    for spec in (FamilySpec("hyp-4-6"), FamilySpec("ci-4-3-P9"), FamilySpec("quadrics-general", 7, (2, 2))):
        built = build_family(spec, RATIONALS)
        nf = nonfree_matrix(built.x, at=built.line)
        assert local_equations(built.x, built.line) == jacobian_def_matrix(built.x, nf)[1]
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    with pytest.raises(NotCorankOne, match=r"^corank is 0, not 1 \(the line is free\)$"):
        local_equations(x, Line.standard(RATIONALS, 3))
    forms = ["3*c1*S*Z1 + 5*Z1*Z2 + Z2*Z3", "3*c2*T*Z1 + 5*c2*T*Z3 + c1*Z1*Z2"]
    deep = make_ci(BIG, 4, (2, 2), forms, params=("c1", "c2"))
    with pytest.raises(NotCorankOne, match=r"^corank is 2, not 1 \(deeper drops are unsupported\)$"):
        local_equations(deep, Line.standard(BIG, 4))


def test_bordered_minors_match_the_bordered_det(rng):
    """Each bordered minor, expanded along its extra row with shared
    cofactors, is the determinant of the pivot rows plus that row; the
    pivot block need not be nonsingular, and the bordering rows have
    zeros, in column 0 too, so a skipped column shows."""
    for field in (RATIONALS, prime_field(2), prime_field(7)):
        for names in ((), ("c1", "c2")):
            ring = ParamRing(field, names)
            for size in range(2, 7):
                for _ in range(3 if size < 5 else 1):
                    height = size - 1 + rng.randint(1, 3)
                    grid = [
                        [
                            ring.zero() if rng.random() < 0.3 else random_scalar(rng, ring, 1, 2)
                            for _ in range(size)
                        ]
                        for _ in range(height)
                    ]
                    pivots = tuple(sorted(rng.sample(range(height), size - 1)))
                    extras = [i for i in range(height) if i not in pivots]
                    grid[extras[0]][0] = ring.zero()
                    while grid[extras[-1]][0].is_zero:
                        grid[extras[-1]][0] = random_scalar(rng, ring, 1, 2)
                    got = bordered_minors(ring, grid, pivots)
                    want = [
                        det(ExactMatrix.from_rows(ring, [grid[i] for i in sorted((*pivots, e))]))
                        for e in extras
                    ]
                    assert got == want


def test_jacobian_rank_4_6_is_7():
    built = built_4_6()
    jac, _ = jacobian_def_matrix(built.x, nonfree_matrix(built.x, at=built.line))
    assert jac.rows == 7 and jac.cols == 10
    assert rank_exact(jac).rank == 7


def test_jacobian_rank_ci_4_3_p9_is_11():
    built = build_family(FamilySpec("ci-4-3-P9"), RATIONALS)
    jac, _ = jacobian_def_matrix(built.x, nonfree_matrix(built.x, at=built.line))
    assert rank_exact(jac).rank == 11


@pytest.mark.parametrize("n,d", [(7, 4), (9, 4)])
def test_jacobian_rank_general_family_odd_gap(n, d):
    # with N - d odd the derivative matrix reaches the full N + 1
    assert (n - d) % 2 == 1
    built = build_family(FamilySpec("hyp-general", n, (d,)), RATIONALS)
    jac, _ = jacobian_def_matrix(built.x, nonfree_matrix(built.x, at=built.line))
    assert rank_exact(jac).rank == n + 1


def test_jacobian_f_rows_match_direct_differentiation():
    """f-rows assembled by the coefficient shift agree with literally
    differentiating the membership polynomials."""
    built = build_family(FamilySpec("quadrics-general", 7, (2, 2)), RATIONALS)
    x, point = built.x, built.line
    jac, _ = jacobian_def_matrix(x, nonfree_matrix(x, at=point))
    ms = membership_system(x)
    vals = chart_values(point)
    avars = [f"a{j}" for j in range(1, x.n)]
    bvars = [f"b{j}" for j in range(1, x.n)]
    direct = []
    for sys in ms:
        for f in sys:
            direct.append(
                [evaluate(f.differentiate(v), vals) for v in avars]
                + [evaluate(f.differentiate(v), vals) for v in bvars]
            )
    got = [list(jac.row(i)) for i in range(len(direct))]
    assert got == direct


def test_quadrics_p7_rank_9_against_independent_oracle():
    """The derivative matrix of the (2,2) pair in P^7 has rank 9 (the
    required |d|+r+m), checked with a plain Gaussian elimination that
    shares no code with the fraction-free path."""
    built = build_family(FamilySpec("quadrics-general", 7, (2, 2)), RATIONALS)
    jac, eqs = jacobian_def_matrix(built.x, nonfree_matrix(built.x, at=built.line))
    assert eqs.count == 3
    raw = [[e.constant_value() for e in jac.row(i)] for i in range(jac.rows)]
    assert gaussian_rank_oracle(RATIONALS, raw) == 9
    assert rank_exact(jac).rank == 9


def test_report_4_6_smooth_expected_dim():
    built = built_4_6()
    rep = expected_pair_report(built.x, built.line)
    assert rep.verdict == "SmoothExpectedDim"
    assert rep.corank == 1 and rep.matrix_rank == 3
    assert rep.jacobian_rank == rep.required_rank == 7
    assert rep.local_dimension == 3
    assert not rep.certificate.is_zero
    conds = {str(c) for c in rep.genericity}
    assert "c3" in conds


def test_report_not_contained_and_not_in_j():
    x = make_ci(RATIONALS, 3, (2,), ["S*Z1 + T*Z2"])
    off = expected_pair_report(x, Line.chart(RATIONALS, (1, 0), (0, 0)))
    assert off.verdict == "NotContained" and not off.contained
    on = expected_pair_report(x, Line.standard(RATIONALS, 3))
    assert on.verdict == "NotInJ" and on.corank == 0 and not on.in_nonfree_locus


def test_report_char2_variant_fails_observably():
    f2 = prime_field(2)
    built = families_reference.build_family(FamilySpec("hyp-char-not-2", 6, (4,)), f2, force=True)
    rep = expected_pair_report(built.x, built.line)
    assert rep.verdict == "NotSmoothOrExcess"
    assert rep.corank == 1
    assert rep.jacobian_rank < rep.required_rank
    # the bordered minors degenerate to the zero polynomial
    assert all(g.is_zero for g in rep.equations.minors)


def test_report_scaling_and_permutation_invariance():
    built = build_family(FamilySpec("quadrics-general", 7, (2, 2)), RATIONALS)
    x, point = built.x, built.line
    base = expected_pair_report(x, point)
    rep = expected_pair_report(scaled(x, (5, -2)), point)
    assert (rep.verdict, rep.corank, rep.jacobian_rank) == (
        base.verdict,
        base.corank,
        base.jacobian_rank,
    )
    # swap two coordinates untouched by the forms' tail structure: Z4 <-> Z6
    names = [f"Z{j}" for j in range(1, 7)]
    perm = {z: z for z in names}
    perm["Z4"], perm["Z6"] = "Z6", "Z4"
    x2 = permuted_z(x, perm)
    point2 = permuted(point, (0, 1, 2, 5, 4, 3))
    rep = expected_pair_report(x2, point2)
    assert (rep.verdict, rep.corank, rep.jacobian_rank) == (
        base.verdict,
        base.corank,
        base.jacobian_rank,
    )


def test_certificate_survives_specialization(rng):
    """Substituting parameter values outside the certificate's zero set
    over a large prime field reproduces the symbolic jacobian rank."""
    built = built_4_6()
    rep = expected_pair_report(built.x, built.line)
    big = prime_field(1_000_003)
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        trial = FamilySpec("hyp-4-6", c_mode="sampled", seed=seed)
        b2 = build_family(trial, big)
        values = {k: Fraction(v) for k, v in b2.c_values.items()}
        cert_at = evaluate(rep.certificate, values)
        if big.is_zero(big.make(cert_at)):
            continue
        rep2 = expected_pair_report(b2.x, b2.line)
        assert rep2.jacobian_rank == rep.jacobian_rank == 7
        assert rep2.verdict == "SmoothExpectedDim"
        checked += 1


# -- the genericity claim of a symbolic report, end to end -------------------------

BIG = prime_field(1_000_003)


def random_parametric_ci(rng, ring, degrees):
    """Forms in the ideal (Z1, ..., Z{N-1}), so the standard line is on X,
    with a parameter in about half of their coefficients."""
    n, names = len(ring.variables) - 1, ring.coeffs.names
    forms = []
    for d in degrees:
        terms = {}
        for _ in range(rng.randint(2, 5)):
            e = [0] * (n + 1)
            e[rng.randrange(2, n + 1)] += 1
            for _ in range(d - 1):
                e[rng.randrange(n + 1) if rng.random() < 0.7 else rng.randrange(2)] += 1
            c = ring.coeffs.const(rng.randint(1, 5))
            if rng.random() < 0.5:
                c = c * ring.coeffs.var(rng.choice(names))
            terms[tuple(e)] = c
        forms.append(ring.from_terms(terms))
    return CompleteIntersection(CIType(n, degrees), tuple(forms))


def oracle_cases(rng):
    for spec in (
        FamilySpec("hyp-4-6"),
        FamilySpec("hyp-general", 6, (3,)),
        FamilySpec("hyp-general", 7, (4,)),
        FamilySpec("hyp-char-not-2", 6, (3,)),
        FamilySpec("mixed-general", 8, (3, 2)),
    ):
        built = build_family(spec, BIG)
        yield built.x, built.line
    while True:
        n = rng.randint(4, 6)
        degrees = tuple(sorted((rng.randint(2, 3) for _ in range(rng.randint(1, 2))), reverse=True))
        if len(degrees) + 2 <= n:
            ring = PolyRing(ParamRing(BIG, ("c1", "c2")), ambient_variables(n))
            yield random_parametric_ci(rng, ring, degrees), Line.standard(BIG, n)


def test_a_symbolic_report_holds_wherever_its_genericity_conditions_do(rng):
    """A report with symbolic parameters claims its verdict and ranks for
    every c off the zero set of its genericity conditions. At values of c
    where each condition is nonzero, the report on the forms with c
    substituted must agree, over a large prime field, at small N."""
    seen = set()
    cases = oracle_cases(rng)
    for _ in range(65):
        x, line = next(cases)
        rep = expected_pair_report(x, line)
        conditions = rep.genericity
        while True:
            values = {name: rng.randrange(BIG.p) for name in x.coeff_ring.names}
            if all(not BIG.is_zero(evaluate(c, values)) for c in conditions):
                break
        rep_c = expected_pair_report(specialized(x, values), line)
        assert (rep_c.verdict, rep_c.matrix_rank, rep_c.jacobian_rank, rep_c.local_dimension) == (
            rep.verdict,
            rep.matrix_rank,
            rep.jacobian_rank,
            rep.local_dimension,
        )
        seen.add((rep.verdict, rep.corank, bool(conditions)))
    # the cases reach every verdict a line on X gets, at corank 0, 1 and
    # 2, each with conditions to avoid
    assert {
        ("SmoothExpectedDim", 1, True),
        ("NotSmoothOrExcess", 1, True),
        ("NotSmoothOrExcess", 2, True),
        ("NotInJ", 0, True),
    } <= seen


def test_a_corank_two_report_states_its_rank_certificate():
    """At corank >= 2 the matrix rank holds off the zero set of the M(h)
    rank certificate, and the report states that certificate as its
    genericity condition: here the rank is 2 for generic c and 1 at
    c1 = 0, c2 = 5."""
    forms = ["3*c1*S*Z1 + 5*Z1*Z2 + Z2*Z3", "3*c2*T*Z1 + 5*c2*T*Z3 + c1*Z1*Z2"]
    x = make_ci(BIG, 4, (2, 2), forms, params=("c1", "c2"))
    line = Line.standard(BIG, 4)
    rep = expected_pair_report(x, line)
    assert (rep.verdict, rep.corank, rep.matrix_rank) == ("NotSmoothOrExcess", 2, 2)
    assert rep.certificate is None
    assert [str(c) for c in rep.genericity] == ["15*c1*c2"]
    assert expected_pair_report(specialized(x, {"c1": 0, "c2": 5}), line).matrix_rank == 1


SMALLEST_FAMILIES = [
    FamilySpec("hyp-4-6"),
    FamilySpec("hyp-general", 5, (3,)),
    FamilySpec("hyp-char-not-2", 5, (3,)),
    FamilySpec("mixed-general", 7, (3, 2)),
    FamilySpec("ci-4-3-P9"),
    FamilySpec("quadrics-general", 6, (2, 2)),
]


def test_genericity_is_each_nonconstant_condition_once_in_first_order():
    """A report's genericity conditions are the nonconstant ones among the
    rank certificate of M(h), the pivot minor and the Jacobian certificate,
    each once by its text, in that order; the char-2 hyp-char-not-2 comes
    from the reference builder, which still builds it."""
    repeats = 0
    for char in (0, 2, 3):
        field = field_of_char(char)
        for spec in SMALLEST_FAMILIES:
            if char == 2 and spec.name == "hyp-char-not-2":
                built = families_reference.build_family(spec, field, force=True)
            else:
                built = build_family(spec, field)
            rep = expected_pair_report(built.x, built.line)
            conditions = [rank_exact(rep.matrix).certificate, rep.equations.pivot_det, rep.certificate]
            by_text: dict[str, object] = {}
            for c in conditions:
                if not c.is_constant:
                    by_text.setdefault(str(c), c)
            assert rep.genericity == tuple(by_text.values()), (spec, char)
            repeats += len([c for c in conditions if not c.is_constant]) - len(by_text)
    assert repeats > 0  # some report states one condition twice


def test_sampled_mode_report():
    built, rep = family_report(FamilySpec("hyp-4-6", c_mode="sampled", seed=1), RATIONALS)
    assert rep.verdict == "SmoothExpectedDim"
    assert built.x.coeff_ring.k == 0  # parameters are baked in


def greedy_independent_rows(matrix):
    """Reference: add row i when it raises the rank of the rows chosen so far."""
    chosen = []
    for i in range(matrix.rows):
        cand = chosen + [i]
        if rank_exact(matrix.submatrix(cand, range(matrix.cols))).rank == len(cand):
            chosen = cand
    return tuple(chosen)


def test_lex_first_rows_match_the_greedy_rank_test(rng):
    for field in (RATIONALS, prime_field(2), prime_field(3)):
        for names in ((), ("c1", "c2")):
            ring = ParamRing(field, names)
            for _ in range(30):
                rows, cols, inner = rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 4)
                a = [[random_scalar(rng, ring, 1, 2) for _ in range(inner)] for _ in range(rows)]
                b = [[random_scalar(rng, ring, 1, 2) for _ in range(cols)] for _ in range(inner)]
                zero = ring.zero()
                grid = [
                    [sum((a[i][l] * b[l][j] for l in range(inner)), zero) for j in range(cols)]
                    for i in range(rows)
                ]
                grid.insert(rng.randint(0, rows), grid[rng.randrange(rows)])  # a repeated row
                m = ExactMatrix.from_rows(ring, grid)
                assert rank_exact(m).pivot_rows == greedy_independent_rows(m)
                t = m.transpose()
                assert rank_exact(t).pivot_rows == greedy_independent_rows(t)


def test_corank_one_report_eliminates_each_matrix_once(monkeypatch):
    """M(h), the transposed pivot block and the Jacobian are each eliminated
    once over the coefficient ring: M(h) where nonfree_matrix evaluates it,
    the other two where the report needs them. The pivot rows, the pivot
    columns and the pivot minor take no elimination of their own."""
    import cilines.chart as chart
    import cilines.exactmatrix as exactmatrix
    import cilines.nonfree as nonfree

    built = built_4_6()
    ranks, eliminations = [], []

    def counted_rank(m):
        ranks.append((m.rows, m.cols))
        return rank_exact(m)

    bareiss = exactmatrix._bareiss

    def counted_bareiss(m, *search):
        if m.ring == built.x.coeff_ring:
            eliminations.append((m.rows, m.cols))
        return bareiss(m, *search)

    monkeypatch.setattr(chart, "rank_exact", counted_rank)
    monkeypatch.setattr(nonfree, "rank_exact", counted_rank)
    monkeypatch.setattr(exactmatrix, "_bareiss", counted_bareiss)
    rep = expected_pair_report(built.x, built.line)
    assert rep.corank == 1 and rep.equations.pivot_rows == (0, 1, 2)
    # M(h) is 5 x 4; its pivot rows, transposed, 4 x 3; the Jacobian 7 x 10
    assert ranks == eliminations == [(5, 4), (4, 3), (7, 10)]


def test_local_equations_refuse_m_h_at_a_census_line():
    """jacobian_def_matrix is chart-only, as its equations are in a_j and
    b_j: M(h) at a census line at pivots (0, 1), where S = s and T = t,
    gives the report of the chart line on its rows, and M(h) at a census
    line at other pivots is refused. On the Fermat cubic threefold over
    F_5, 24 lines at pivots (0, 1) and 21 others have corank 1, with
    m = 1 local equation."""
    field = prime_field(5)
    x = make_ci(field, 4, (3,), ["S^3 + T^3 + Z1^3 + Z2^3 + Z3^3"])
    seen = {True: 0, False: 0}
    for line in enumerate_lines_fq(x):
        nf = nonfree_matrix(x, at=line)
        if nf.rank.rank != 2:
            continue
        seen[line.pivots == (0, 1)] += 1
        if line.pivots != (0, 1):
            with pytest.raises(ConstraintViolated, match="S = s and T = t"):
                jacobian_def_matrix(x, nf)
            continue
        chart = Line.chart(field, line.rows[0][2:], line.rows[1][2:])
        jac, eqs = jacobian_def_matrix(x, nf)
        assert (jac, eqs) == jacobian_def_matrix(x, nonfree_matrix(x, at=chart))
        assert eqs.count == 1 and jac.rows == 5
    assert seen == {True: 24, False: 21}

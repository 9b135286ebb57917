"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines; every
expected value here is exact, and the wall-clock budgets are asserted.
"""

import json
import pathlib
import random
import time

from cilines.bundles import (
    degree_nonfree_gate,
    normal_splitting_line,
    precompose,
    tangent_cohomology,
)
from cilines.chart import (
    all_lines_fq,
    chart_image,
    chart_ring,
    enumerate_lines_fq,
    nonfree_matrix,
)
from cilines.exactmatrix import rank_exact
from cilines.families import FamilySpec, build_family
from cilines.fields import RATIONALS, prime_field
from cilines.geometry import CIType, RationalCurve
from cilines.nonfree import expected_pair_report
from cilines.polytext import parse_poly

import families_reference
from conftest import ambient_ring, field_of_char, random_homogeneous
from support import (
    form_from_scalars,
    is_smooth_along_line,
    line_param,
    move_line_to_chart,
    same_differential_span,
)
from test_chart import make_ci
from test_exactmatrix import gaussian_rank_oracle

GOLDEN = pathlib.Path(__file__).parent / "golden"


def passline(num: int, text: str) -> None:
    print(f"\n[criterion {num}] PASS - {text}")


def test_criterion_1_example_4_6():
    started = time.perf_counter()
    built = build_family(FamilySpec("hyp-4-6"), RATIONALS)
    rep = expected_pair_report(built.x, built.line)
    assert rep.corank == 1
    assert rep.equations.count == 2
    ab = chart_ring(built.x.coeff_ring, built.x.n)
    reference = [parse_poly("c2*a4 + c3*b4", ab), parse_poly("c2*a5 + c3*b5", ab)]
    assert same_differential_span(built.x, list(rep.equations.minors), reference, built.line)
    assert rep.jacobian_rank == 7
    assert rep.verdict == "SmoothExpectedDim"
    assert rep.local_dimension == 3
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    passline(1, f"(4,6): corank 1, m=2, span matches, rank 7, dim 3 ({elapsed:.3f}s)")


def test_criterion_2_example_4_3_p9():
    started = time.perf_counter()
    built = build_family(FamilySpec("ci-4-3-P9"), RATIONALS)
    rep = expected_pair_report(built.x, built.line)
    assert rep.jacobian_rank == 11
    assert rep.verdict == "SmoothExpectedDim"
    assert rep.local_dimension == 5
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    passline(2, f"(4,3) in P^9: rank 11, dim 5 ({elapsed:.3f}s)")


def test_criterion_3_example_2_2_p7():
    built = build_family(FamilySpec("quadrics-general", 7, (2, 2)), RATIONALS)
    rep = expected_pair_report(built.x, built.line)
    assert rep.equations.count == 3  # m = 3
    assert rep.verdict == "SmoothExpectedDim" and rep.local_dimension == 3
    # independent brute-force row reduction of the derivative matrix
    from cilines.nonfree import jacobian_def_matrix

    jac, _ = jacobian_def_matrix(built.x, nonfree_matrix(built.x, at=built.line))
    raw = [[e.constant_value() for e in jac.row(i)] for i in range(jac.rows)]
    oracle_rank = gaussian_rank_oracle(RATIONALS, raw)
    assert oracle_rank == 9 == rep.jacobian_rank
    golden = json.loads((GOLDEN / "verify_quadrics_N7_r2_char0.json").read_text())
    assert any("rank 8" in note for note in golden["notes"])
    assert golden["jacobian_rank"] == 9
    passline(3, "(2,2) in P^7: m=3, dim 3, independent rank 9, discrepancy documented")


def _mixed_tuples(n: int):
    out = []
    for d1 in range(3, n - 1):
        for d2 in range(2, d1 + 1):
            if d1 + d2 <= n - 2:
                out.append((d1, d2))
            for d3 in range(2, d2 + 1):
                if d1 + d2 + d3 <= n - 2:
                    out.append((d1, d2, d3))
    return out


def test_criterion_4_family_sweep():
    started = time.perf_counter()
    specs = []
    for n in range(5, 11):
        for d in range(3, n - 1):
            specs.append(FamilySpec("hyp-general", n, (d,)))
        for degrees in _mixed_tuples(n):
            specs.append(FamilySpec("mixed-general", n, degrees))
    for n in range(6, 11):
        for r in range(2, (n - 2) // 2 + 1):
            specs.append(FamilySpec("quadrics-general", n, (2,) * r))
    count = 0
    for char in (0, 2, 3, 5):
        field = field_of_char(char)
        for spec in specs:
            built = build_family(spec, field)
            rep = expected_pair_report(built.x, built.line)
            assert rep.verdict == "SmoothExpectedDim", (spec, char, rep.verdict)
            assert rep.local_dimension == spec.n - len(spec.degrees) - 2, (spec, char)
            count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    passline(4, f"sweep: {count} pairs ({len(specs)} shapes x 4 characteristics) all smooth of expected dimension ({elapsed:.1f}s)")


def test_criterion_5_characteristic_2_sensitivity():
    spec = FamilySpec("hyp-char-not-2", 6, (4,))
    for p in (3, 5):
        built = build_family(spec, prime_field(p))
        assert expected_pair_report(built.x, built.line).verdict == "SmoothExpectedDim"
    forced = families_reference.build_family(spec, prime_field(2), force=True)
    rep = expected_pair_report(forced.x, forced.line)
    assert rep.verdict != "SmoothExpectedDim"
    assert all(g.is_zero for g in rep.equations.minors)  # degenerate derivative rows
    parity = build_family(FamilySpec("hyp-general", 6, (4,)), prime_field(2))
    assert expected_pair_report(parity.x, parity.line).verdict == "SmoothExpectedDim"
    passline(5, "squared tail passes over F_3/F_5, fails observably over F_2; parity tail passes over F_2")


def test_criterion_6_finite_field_censuses():
    started = time.perf_counter()
    assert sum(1 for _ in all_lines_fq(prime_field(2), 3)) == 35

    quadric = make_ci(prime_field(3), 3, (2,), ["S*Z1 + T*Z2"])
    qlines = enumerate_lines_fq(quadric)
    assert len(qlines) == 8
    for ln in qlines:
        x2, point, _ = move_line_to_chart(quadric, ln)
        assert rank_exact(nonfree_matrix(x2, at=point).matrix).rank == 2  # free
        assert normal_splitting_line(x2, nonfree_matrix(x2, at=point).matrix).entries == (0,)

    fermat = make_ci(prime_field(7), 3, (3,), ["S^3 + T^3 + Z1^3 + Z2^3"])
    flines = enumerate_lines_fq(fermat)
    assert len(flines) == 27
    for ln in flines:
        x2, point, _ = move_line_to_chart(fermat, ln)
        assert normal_splitting_line(x2, nonfree_matrix(x2, at=point).matrix).entries == (-1,)
        rank_route_nonfree = rank_exact(nonfree_matrix(x2, at=point).matrix).rank < 3
        mu = line_param(point)
        _, h1 = tangent_cohomology(x2, mu, -1)[-1]
        assert rank_route_nonfree and h1 > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    passline(6, f"censuses: 35 total lines in P^3/F_2, 8 free on the quadric, 27 non-free of type [-1] on the Fermat cubic ({elapsed:.2f}s)")


def test_criterion_7_property_suites():
    started = time.perf_counter()
    rng = random.Random(74)

    # derivative identities and the Euler identity, 100 forms per characteristic
    for char in (0, 2, 3, 5):
        field = field_of_char(char)
        n = 4
        ring = ambient_ring(field, n)
        for _ in range(100):
            d = rng.randint(1, 4)
            h = random_homogeneous(rng, ring, d)
            image = chart_image(h, n)
            s, t = image.ring.var("s"), image.ring.var("t")
            j = rng.randint(1, n - 1)
            partial = chart_image(h.differentiate(f"Z{j}"), n)
            assert image.differentiate(f"a{j}") == s * partial
            assert image.differentiate(f"b{j}") == t * partial
            euler = ring.zero()
            for v in ring.variables:
                euler = euler + ring.var(v) * h.differentiate(v)
            assert euler == h * ring.coeffs.const(d)

    # two-route freeness agreement on the F_3 lines of 5 random cubic threefolds
    field = prime_field(3)
    checked_lines = 0
    built_cis = 0
    seed = 0
    while built_cis < 5:
        seed += 1
        ring = ambient_ring(field, 4)
        cubic = random_homogeneous(random.Random(seed), ring, 3, n_terms=9)
        try:
            x = make_ci(field, 4, (3,), [str(cubic)])
        except Exception:
            continue
        built_cis += 1
        for ln in enumerate_lines_fq(x):
            x2, point, _ = move_line_to_chart(x, ln)
            if not is_smooth_along_line(x2, point):
                continue
            rank = rank_exact(nonfree_matrix(x2, at=point).matrix).rank
            mu = line_param(point)
            twists = tangent_cohomology(x2, mu, 0)
            _, h1 = twists[0]
            split = normal_splitting_line(x2, nonfree_matrix(x2, at=point).matrix)
            assert (rank == 3) == (h1 == 0) == (split.min_entry >= 0)
            # chi bookkeeping at both twists
            for m, (a0, a1) in zip((-1, 0), twists):
                assert a0 - a1 == (5 - 3) + 3 * (m + 1)
            checked_lines += 1
    assert checked_lines >= 5

    # codimension of the space of forms vanishing on the standard line
    import math

    from cilines.exactmatrix import ExactMatrix, kernel_basis
    from cilines.params import ParamRing
    from test_chart import _monomials

    pring = ParamRing(RATIONALS, ())
    for n in range(2, 7):
        for d in range(1, 6):
            monos = list(_monomials(n + 1, d))
            rows = []
            for k in range(d + 1):
                rows.append(
                    [
                        pring.one()
                        if all(x == 0 for x in e[2:]) and e[1] == k
                        else pring.zero()
                        for e in monos
                    ]
                )
            kernel = kernel_basis(ExactMatrix.from_rows(pring, rows))
            assert len(kernel) == math.comb(n + d, d) - (d + 1)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    passline(7, f"properties: 400 derivative/Euler identities, {checked_lines} two-route lines, codimension table ({elapsed:.1f}s)")


def test_criterion_8_nonfree_curve_pipeline():
    field = prime_field(7)
    x = make_ci(field, 3, (5,), ["S^5 + T^5 + Z1^5 + Z2^5"])
    def bf(*cs):
        return form_from_scalars(field, list(cs))

    mu = RationalCurve((bf(1, 0), bf(-1, 0), bf(0, 1), bf(0, -1)))
    h0, h1 = tangent_cohomology(x, mu, -1)[-1]
    assert h1 == 3  # non-free
    mu2 = precompose(mu, (bf(1, 0, 0), bf(0, 0, 1)))
    h0, h1 = tangent_cohomology(x, mu2, 0)[-1]
    assert h1 == 5  # convexity violated after the double cover
    gate = degree_nonfree_gate(CIType(3, (5,)), 1)
    assert gate.verdict == "AllImmersionsNonFree"
    passline(8, "quintic line: h1(-1)=3, double cover h1=5, degree gate triggered")

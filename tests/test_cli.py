import json
import os
import pathlib
import sys
import time
from collections import Counter

import pytest

from cilines.cli import (
    MAX_CURVE_DEGREE,
    MAX_FORM_DEGREE,
    MAX_FORM_TERMS,
    MAX_PROBLEM_N,
    build_parser,
    load_problem,
    main,
)
from cilines.errors import ConstraintViolated
from cilines.families import FamilySpec
from cilines.fields import prime_field
from cilines.multipoly import BinaryForm, MultiPoly

from conftest import ambient_ring, random_homogeneous

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_problem(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


QUADRIC_F3 = """
field: F:3
N: 3
degrees: 2
form: S*Z1 + T*Z2
line: 0, 0 | 0, 0
"""

CUBIC_F7_CORANK_1 = """
field: F:7
N: 3
degrees: 3
form: S^3 + T^3 + Z1^3 + Z2^3
line: 6, 0 | 0, 6
"""

# X is singular along every point of the line (Z1 = Z2 = 0)
DOUBLE_PLANE_Q = """
field: Q
N: 3
degrees: 2
form: Z1^2
line: 0, 0 | 0, 0
"""

# a cubic surface over F_5 with five lines, singular along two of them
CUBIC_F5_SINGULAR = """
field: F:5
N: 3
degrees: 3
form: Z2*S*T - Z2*Z1^2 + S^3 + T^3
"""

# two quadrics in P^4 over F_5 through the chart line a = (1, 3, 0),
# b = (2, 0, 1): M(h) has two column blocks and the S, T columns of the
# restricted Jacobian are nonzero
TWO_QUADRICS_F5 = """
field: F:5
N: 4
degrees: 2, 2
form: 3*S^2 + S*T + S*Z1 + 3*S*Z2 + 3*S*Z3 + 4*T*Z2 + 3*Z2^2 + 4*Z2*Z3
form: 3*S^2 + 4*S*T + 3*S*Z1 + S*Z2 + 2*S*Z3 + 2*T*Z1 + T*Z2 + 4*T*Z3 + Z1^2 + Z1*Z2 + 2*Z1*Z3 + 3*Z2^2 + 2*Z2*Z3 + 4*Z3^2
line: 1, 3, 0 | 2, 0, 1
"""

# the Fermat cubic threefold over F_5 and the line Z1 = -S, Z2 = -T, Z3 = 0,
# where M(h) has corank 1: one bordered 3 x 3 minor
CUBIC_THREEFOLD_F5 = """
field: F:5
N: 4
degrees: 3
form: S^3 + T^3 + Z1^3 + Z2^3 + Z3^3
line: 4, 0, 0 | 0, 4, 0
"""

# a cubic threefold over F_5 through the standard line, also of corank 1,
# whose symbolic M(h) entries all have two or more terms (those of the
# Fermat cubic above have one each)
DENSE_CUBIC_THREEFOLD_F5 = """
field: F:5
N: 4
degrees: 3
form: 2*S^2*Z2 + 2*T^2*Z3 + 3*S*Z1*Z2 + Z1*Z2*Z3 + 2*Z1^2*Z3 + 3*Z2^2*Z3 + 2*Z3^3
line: 0, 0, 0 | 0, 0, 0
"""

# parameters c1, c2, c3 over Q: M(h) has the entry (c1 + c2), and the local
# equations print coefficients of several terms such as (c1*c2 + c2)*a5
PARAMETRIC_Q = """
field: Q
N: 6
degrees: 4
params: c1 c2 c3
form: c1*S^3*Z1 + c2*S^3*Z1 + c2*S^3*Z2 + c3*S^3*Z3 - S^2*T*Z1 - S*T^2*Z2 - T^3*Z3 + T^2*Z4*Z5 + c1*T^2*Z4*Z5
line: 0, 0, 0, 0, 0 | 0, 0, 0, 0, 0
"""

QUINTIC_F7 = """
field: F:7
N: 3
degrees: 5
form: S^5 + T^5 + Z1^5 + Z2^5
curve: s ; -1*s ; t ; -1*t
"""

# Z1 = ... = Z6 = 0 in P^12 over F_7, with the standard line as line and
# as curve: the Jacobian has C(13, 6) = 1,716 maximal minors of 6! terms
LINEAR_SECTION_P12 = (
    "field: F:7\nN: 12\ndegrees: 1, 1, 1, 1, 1, 1\n"
    + "".join(f"form: Z{j}\n" for j in range(1, 7))
    + "line: " + ", ".join(["0"] * 11) + " | " + ", ".join(["0"] * 11) + "\n"
    + "curve: s ; t" + " ; 0" * 11 + "\n"
)

# four quadrics in P^12 over F_7 through the standard line: C(13, 4) = 715
# maximal minors, 17,160 terms in all, under chart.MAX_MINOR_TERMS
FOUR_QUADRICS_P12 = (
    "field: F:7\nN: 12\ndegrees: 2, 2, 2, 2\n"
    "form: S*Z1 + T*Z2 + Z5^2\nform: S*Z3 + T*Z4 + Z6^2\n"
    "form: S*Z5 + T*Z6 + Z7^2\nform: S*Z7 + T*Z8 + Z9^2\n"
    "line: " + ", ".join(["0"] * 11) + " | " + ", ".join(["0"] * 11) + "\n"
    "curve: s ; t" + " ; 0" * 11 + "\n"
)


def check_golden(name: str, got: str):
    path = GOLDEN / name
    if os.environ.get("UPDATE_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(got, encoding="utf-8")
        pytest.skip(f"golden file {name} rewritten")
    assert path.exists(), f"golden file {name} missing; rerun with UPDATE_GOLDEN=1"
    assert got == path.read_text(encoding="utf-8"), f"byte mismatch against golden {name}"


def test_verify_example_hyp_4_6_golden(capsys):
    code, out = run(capsys, "verify-example", "hyp-4-6", "--char", "0")
    assert code == 0
    check_golden("verify_hyp-4-6_char0.json", out)


def test_verify_example_quadrics_p7_golden_flags_rank_discrepancy(capsys):
    code, out = run(capsys, "verify-example", "quadrics-general:N=7,r=2", "--char", "0")
    assert code == 0
    report = json.loads(out)
    assert report["jacobian_rank"] == 9 and report["required_rank"] == 9
    assert any("rank 8" in note for note in report["notes"])
    check_golden("verify_quadrics_N7_r2_char0.json", out)


def test_verify_example_ci_4_3_p9_golden(capsys):
    code, out = run(capsys, "verify-example", "ci-4-3-P9", "--char", "0")
    assert code == 0
    report = json.loads(out)
    assert report["jacobian_rank"] == 11 and report["local_dimension"] == 5
    check_golden("verify_ci-4-3-P9_char0.json", out)


def test_gates_golden(capsys):
    code, out = run(capsys, "gates", "--N", "6", "--degrees", "4")
    assert code == 0
    assert json.loads(out)["case"] == "NonFreeLineViaJ"
    check_golden("gates_N6_d4.json", out)


@pytest.mark.parametrize(
    "name, text, golden",
    [
        ("classify_cubic_F7_corank1.ci", CUBIC_F7_CORANK_1, "classify_cubic_F7_corank1.json"),
        ("double.ci", DOUBLE_PLANE_Q, "classify_double_plane_Q.json"),
        ("two.ci", TWO_QUADRICS_F5, "classify_two_quadrics_F5.json"),
        ("parametric.ci", PARAMETRIC_Q, "classify_parametric_Q.json"),
    ],
    ids=["corank-1", "singular-along-line", "two-quadrics", "parametric"],
)
def test_classify_line_golden(capsys, tmp_path, name, text, golden):
    """classify-line against its golden report. The corank-1 problem, whose
    line has nonzero a and b, is kept beside its golden and holds
    CUBIC_F7_CORANK_1; the others are written from their constants."""
    path = GOLDEN / name
    if path.exists():
        assert path.read_text(encoding="utf-8") == text.lstrip("\n")
    else:
        path = write_problem(tmp_path, name, text)
    code, out = run(capsys, "classify-line", str(path))
    assert code == 0
    check_golden(golden, out)


def test_enumerate_lines_classify_golden(capsys):
    """enumerate-lines --classify on a problem file kept beside its golden
    report; the file holds QUADRIC_F3. Its eight lines have pivots (0, 1),
    (0, 2), (0, 3), (1, 2) and (2, 3), so five are classified off the
    standard chart, each where it lies."""
    path = GOLDEN / "enumerate_quadric_F3.ci"
    assert path.read_text(encoding="utf-8") == QUADRIC_F3.lstrip("\n")
    code, out = run(capsys, "enumerate-lines", str(path), "--classify")
    assert code == 0
    check_golden("enumerate_quadric_F3_classify.json", out)


@pytest.mark.parametrize(
    "problem, text, args, golden",
    [
        (
            "curve_quintic_F7.ci",
            QUINTIC_F7,
            ("--twist", "0", "--cover", "3"),
            "curve_quintic_F7_twist0_cover3.json",
        ),
        (
            "curve_four_quadrics_P12.ci",
            FOUR_QUADRICS_P12,
            ("--twist", "-1", "--cover", "2"),
            "curve_four_quadrics_P12_twist-1_cover2.json",
        ),
    ],
    ids=["quintic-F7", "four-quadrics-P12"],
)
def test_curve_check_golden(capsys, problem, text, args, golden):
    """curve-check on a problem file kept beside its golden report; the
    file holds the text of this module's constant for the same variety."""
    path = GOLDEN / problem
    assert path.read_text(encoding="utf-8") == text.lstrip("\n")
    code, out = run(capsys, "curve-check", str(path), *args)
    assert code == 0
    check_golden(golden, out)


def test_byte_determinism(capsys):
    _, first = run(capsys, "verify-example", "hyp-4-6", "--char", "3")
    _, second = run(capsys, "verify-example", "hyp-4-6", "--char", "3")
    assert first == second
    _, sampled1 = run(capsys, "verify-example", "hyp-4-6:c=sampled", "--seed", "9")
    _, sampled2 = run(capsys, "verify-example", "hyp-4-6:c=sampled", "--seed", "9")
    assert sampled1 == sampled2


def test_classify_line_quadric(capsys, tmp_path):
    path = write_problem(tmp_path, "quadric.ci", QUADRIC_F3)
    code, out = run(capsys, "classify-line", path)
    assert code == 0
    report = json.loads(out)
    assert report["free"] is True
    assert report["verdict"] == "NotInJ"
    assert report["normal_splitting"] == [0]
    assert report["tangent_splitting"] == [2, 0]
    assert report["routes_agree"] is True


def test_one_report_builds_m_h_once(capsys, tmp_path, monkeypatch):
    """M(h) is built once per report and passed on: the Jacobian
    matrix, the printed matrix and the bundle route all reuse it. The
    symbolic M(h) is built only where jacobian_def_matrix reads it, in
    cilines.nonfree, from one chart substitution per form: once for the
    corank-1 verify-example report (m = 1), and not at all at the
    corank-1 line of the cubic surface, where no row borders the pivot
    block (m = N - |d| = 0)."""
    import cilines.chart as chart
    import cilines.nonfree as nonfree

    calls = []
    build = nonfree._nonfree_entries
    images = []
    image = chart.chart_image

    def counted(n, system):
        calls.append(system)
        return build(n, system)

    def counted_image(form, n):
        images.append(form)
        return image(form, n)

    monkeypatch.setattr(nonfree, "_nonfree_entries", counted)
    monkeypatch.setattr(chart, "chart_image", counted_image)

    code, _ = run(capsys, "verify-example", "hyp-4-6")
    assert code == 0 and len(calls) == 1
    assert len(images) == 1

    calls.clear()
    path = write_problem(tmp_path, "cubic.ci", CUBIC_F7_CORANK_1)
    code, out = run(capsys, "classify-line", path)
    report = json.loads(out)
    assert code == 0 and report["corank"] == 1 and "normal_splitting" in report
    assert calls == []


@pytest.mark.parametrize(
    "text,forms", [(CUBIC_F7_CORANK_1, 0), (CUBIC_THREEFOLD_F5, 1)], ids=["m=0", "m=1"]
)
def test_classify_line_substitutes_only_for_the_local_equations(
    capsys, tmp_path, monkeypatch, text, forms
):
    """M(h) at the line needs no chart substitution. A corank-1 line with
    m = N - |d| >= 1 makes one chart_image and one MultiPoly.substitute
    call per form, for its local equations; with m = 0 it makes none."""
    import cilines.chart as chart

    calls = []

    def counting(name, original):
        def counted(*args):
            calls.append(name)
            return original(*args)

        return counted

    monkeypatch.setattr(chart, "chart_image", counting("chart_image", chart.chart_image))
    monkeypatch.setattr(MultiPoly, "substitute", counting("substitute", MultiPoly.substitute))
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "p.ci", text))
    assert code == 0 and json.loads(out)["corank"] == 1
    assert Counter(calls) == Counter({"chart_image": forms, "substitute": forms})


@pytest.mark.parametrize(
    "text,n,total", [(CUBIC_THREEFOLD_F5, 4, 3), (PARAMETRIC_Q, 6, 4)], ids=["F5", "params"]
)
def test_classify_line_walks_each_polynomial_once_at_the_line(
    capsys, tmp_path, monkeypatch, text, n, total
):
    """A classify-line report at a corank-1 line differentiates only to
    build the symbolic M(h) for its local equations. M(h) at the line
    comes from one walk over each form (chart.nonfree_matrix), and the
    values and partials of the bordered minors at the line from one jet
    per minor."""
    calls = []
    differentiate = MultiPoly.differentiate

    def counted(self, *args):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a generator expression
            caller = caller.f_back
        calls.append(caller.f_code.co_name)
        return differentiate(self, *args)

    monkeypatch.setattr(MultiPoly, "differentiate", counted)
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "p.ci", text))
    report = json.loads(out)
    assert code == 0 and report["corank"] == 1 and report["num_local_equations"] >= 1
    assert calls == ["_nonfree_entries"] * ((n - 1) * total)


def test_enumerate_lines_classify_builds_no_symbolic_m_h(capsys, tmp_path, monkeypatch):
    """enumerate-lines --classify reads no local equations, so no line
    builds the symbolic M(h), chart._nonfree_entries: the 27 lines of
    the Fermat cubic surface over F_7 make no differentiate call."""
    calls = []
    differentiate = MultiPoly.differentiate

    def counted(self, *args):
        calls.append(args)
        return differentiate(self, *args)

    monkeypatch.setattr(MultiPoly, "differentiate", counted)
    text = CUBIC_F7_CORANK_1.replace("line: 6, 0 | 0, 6\n", "")
    code, out = run(capsys, "enumerate-lines", write_problem(tmp_path, "f.ci", text), "--classify")
    assert code == 0 and json.loads(out)["count"] == 27
    assert calls == []


def test_classify_line_takes_the_normal_splitting_once(capsys, tmp_path, monkeypatch):
    """The tangent splitting and both tangent twists are read off the
    printed normal splitting: one section-kernel elimination, and no
    tangent_cohomology pass."""
    import cilines.bundles as bundles
    import cilines.cli as cli

    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        return counted

    for name in ("normal_splitting_line", "tangent_cohomology"):
        counted = counting(bundles, name)
        monkeypatch.setattr(bundles, name, counted)
        monkeypatch.setattr(cli, name, counted)
    monkeypatch.setattr(
        bundles, "_section_kernel_dims", counting(bundles, "_section_kernel_dims")
    )
    path = write_problem(tmp_path, "cubic.ci", CUBIC_F7_CORANK_1)
    code, out = run(capsys, "classify-line", path)
    report = json.loads(out)
    assert code == 0
    assert Counter(calls) == {
        "normal_splitting_line": 1,
        "_section_kernel_dims": 1,
    }
    assert report["tangent_splitting"] == sorted([2] + report["normal_splitting"], reverse=True)


def test_classify_line_restricts_nothing(capsys, tmp_path, monkeypatch):
    """One walk (multipoly._compose_terms) composes each form with a line
    or a curve. classify-line hands M(h) at the line to the normal
    splitting, so its only walks are nonfree_matrix's, one per form, and
    nothing is composed along a curve. curve-check composes each form
    with the curve once, in restricted_jacobian's restrict_along, which
    gives the containment check and every row of the Jacobian, and it
    differentiates nothing; a cover composes each curve component in the
    same walk (BinaryForm.compose)."""
    import cilines.chart as chart
    import cilines.geometry as geometry
    import cilines.multipoly as multipoly

    walks, differentiated = [], []
    walk, differentiate = multipoly._compose_terms, MultiPoly.differentiate

    def counted_walk(*args):
        caller = sys._getframe(1).f_code.co_name
        if caller == "restrict_along":
            caller = f"{sys._getframe(2).f_code.co_name}/restrict_along"
        walks.append(caller)
        return walk(*args)

    def counted_differentiate(self, *args):
        differentiated.append(args)
        return differentiate(self, *args)

    for module in (multipoly, geometry, chart):
        monkeypatch.setattr(module, "_compose_terms", counted_walk)
    monkeypatch.setattr(MultiPoly, "differentiate", counted_differentiate)
    for name, text, forms in (("cubic.ci", CUBIC_F7_CORANK_1, 1), ("two.ci", TWO_QUADRICS_F5, 2)):
        code, out = run(capsys, "classify-line", write_problem(tmp_path, name, text))
        assert code == 0 and "tangent_h0_h1_twist_0" in json.loads(out)
        assert walks == ["nonfree_matrix"] * forms
        walks.clear()

    differentiated.clear()  # the corank-1 cubic's local equations differentiate
    code, _ = run(capsys, "curve-check", write_problem(tmp_path, "four.ci", FOUR_QUADRICS_P12))
    assert code == 0
    assert walks == ["restricted_jacobian/restrict_along"] * 4 and differentiated == []
    walks.clear()
    # a cover composes each of the quintic's four curve components in the same walk
    code, _ = run(capsys, "curve-check", write_problem(tmp_path, "q.ci", QUINTIC_F7), "--cover", "2")
    assert code == 0
    assert walks == ["compose"] * 4 + ["restricted_jacobian/restrict_along"]
    assert differentiated == []


def test_smoothness_minors_serve_curve_check_only(capsys, tmp_path, monkeypatch):
    """Along a chart line smoothness is read off the normal splitting's
    section count, so classify-line and enumerate-lines --classify, on
    smooth and singular lines, expand no minors; curve-check takes them
    once."""
    import cilines.bundles as bundles
    import cilines.chart as chart

    calls = []
    smooth = chart.smooth_along_components

    def counted(x, jac):
        calls.append(x)
        return smooth(x, jac)

    for module in (chart, bundles):
        monkeypatch.setattr(module, "smooth_along_components", counted)
    for name, text in (("cubic.ci", CUBIC_F7_CORANK_1), ("two.ci", TWO_QUADRICS_F5)):
        code, _ = run(capsys, "classify-line", write_problem(tmp_path, name, text))
        assert code == 0
    path = write_problem(tmp_path, "c5.ci", CUBIC_F5_SINGULAR)
    code, out = run(capsys, "enumerate-lines", path, "--classify")
    classified = json.loads(out)["classified"]
    assert code == 0 and sum("normal_splitting" not in e for e in classified) == 2
    assert calls == []

    code, _ = run(capsys, "curve-check", write_problem(tmp_path, "quintic.ci", QUINTIC_F7))
    assert code == 0 and len(calls) == 1


def test_classify_line_on_a_large_linear_section_forms_no_minor(capsys, tmp_path):
    """The 1,716 minors of 720 terms took more than a minute; the section
    count takes a fraction of a second and prints the same report."""
    path = write_problem(tmp_path, "lin12.ci", LINEAR_SECTION_P12)
    started = time.perf_counter()
    code, out = run(capsys, "classify-line", path)
    assert time.perf_counter() - started < 1.0
    report = json.loads(out)
    assert code == 0 and report["smooth_along_line"]
    assert report["normal_splitting"] == [1, 1, 1, 1, 1]
    assert report["tangent_h0_h1_twist_minus1"] == [7, 0]
    assert report["tangent_h0_h1_twist_0"] == [13, 0]
    assert (report["matrix_rank"], report["required_rank"]) == (6, 18)
    assert report["verdict"] == "NotInJ"


def test_curve_check_past_the_minor_budget_exits_2_at_once(capsys, tmp_path):
    """curve-check refuses the 1,235,520 Laplace terms of the linear
    section's minors before forming any."""
    path = write_problem(tmp_path, "lin12.ci", LINEAR_SECTION_P12)
    started = time.perf_counter()
    code, out = run(capsys, "curve-check", path)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded" and "MAX_MINOR_TERMS" in report["message"]


def test_curve_check_forms_each_subminor_once(capsys, tmp_path, monkeypatch):
    """Row by row, each k x k minor on the first k rows is formed once from
    k products: sum_{k=2..4} k * C(13, k) = 3,874 products for the 715
    maximal minors of the four quadrics, where expanding each minor on its
    own took 28,600."""
    import cilines.bundles as bundles
    import cilines.chart as chart

    inside, products = [], []
    mul, smooth = BinaryForm.__mul__, chart.smooth_along_components

    def counted_mul(a, b):
        products.extend(inside)
        return mul(a, b)

    def counted_smooth(x, jac):
        inside.append(1)
        try:
            return smooth(x, jac)
        finally:
            inside.pop()

    monkeypatch.setattr(BinaryForm, "__mul__", counted_mul)
    for module in (chart, bundles):
        monkeypatch.setattr(module, "smooth_along_components", counted_smooth)
    code, out = run(capsys, "curve-check", write_problem(tmp_path, "q4.ci", FOUR_QUADRICS_P12))
    report = json.loads(out)
    assert code == 0 and (report["h0"], report["h1"], report["free"]) == (5, 0, True)
    assert len(products) == 3874


def test_corank_one_line_takes_no_determinant_of_full_size(capsys, tmp_path, monkeypatch):
    """The bordered minor is expanded along its extra row: the only
    determinants are the evaluated pivot minor and the 2 x 2 cofactors,
    none of size |d| = 3."""
    import cilines.nonfree as nonfree

    sizes = []
    det = nonfree.det

    def counted(m):
        sizes.append(m.rows)
        return det(m)

    monkeypatch.setattr(nonfree, "det", counted)
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "c3.ci", CUBIC_THREEFOLD_F5))
    report = json.loads(out)
    assert code == 0 and report["corank"] == 1 and report["num_local_equations"] == 1
    assert sizes and max(sizes) == 2


def test_bordered_minor_takes_each_cofactor_in_one_accumulation(capsys, tmp_path, monkeypatch):
    """At this corank-1 cubic-threefold line every entry of the three 2 x 2
    cofactors has two or more terms, so each cofactor is one two-pair
    sum_of_products, and the bordered minor one more: 4 calls, where two
    products and a difference per cofactor took 7."""
    import cilines.nonfree as nonfree
    from cilines import params

    inside, calls = [], []
    plain_sum, bordered = params.sum_of_products, nonfree.bordered_minors

    def counted_sum(*args):
        calls.extend(inside)
        return plain_sum(*args)

    def counted_bordered(*args):
        inside.append(1)
        try:
            return bordered(*args)
        finally:
            inside.pop()

    for module in (params, nonfree):
        monkeypatch.setattr(module, "sum_of_products", counted_sum)
    monkeypatch.setattr(nonfree, "bordered_minors", counted_bordered)
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "c3.ci", DENSE_CUBIC_THREEFOLD_F5))
    report = json.loads(out)
    assert code == 0 and report["corank"] == 1 and report["num_local_equations"] == 1
    assert len(calls) == 4


def test_cofactors_of_a_long_head_pivot_on_its_constants(capsys, monkeypatch):
    """The 13 x 13 cofactors of hyp-general at N=16, d=14 hold c_j in
    column 0 and -1 on the superdiagonal. det pivots on the -1s, which
    fill nothing: 46 products and no division over both cofactors, where
    pivoting on c1 took 443 products and 242 exact divisions."""
    import cilines.nonfree as nonfree
    from cilines.params import ParamScalar

    inside, sizes, products, divisions = [], [], [], []
    mul, exact_div, det = ParamScalar.__mul__, ParamScalar.exact_div, nonfree.det

    def counted_mul(a, b):
        products.extend(inside)
        return mul(a, b)

    def counted_div(a, b):
        divisions.extend(inside)
        return exact_div(a, b)

    def counted_det(m):
        sizes.append(m.rows)
        inside.append(1)
        try:
            return det(m)
        finally:
            inside.pop()

    monkeypatch.setattr(ParamScalar, "__mul__", counted_mul)
    monkeypatch.setattr(ParamScalar, "exact_div", counted_div)
    monkeypatch.setattr(nonfree, "det", counted_det)
    code, out = run(capsys, "verify-example", "hyp-general:N=16,d=14")
    assert code == 0 and json.loads(out)["verdict"] == "SmoothExpectedDim"
    assert (sizes, len(products), len(divisions)) == ([13, 13], 46, 0)


def test_huge_monomial_power_exits_2_at_once(capsys, tmp_path):
    """A one-term power is raised in one step, so the form fails the
    degree check at once instead of multiplying S by itself 10^8 times."""
    text = QUADRIC_F3.replace("form: S*Z1 + T*Z2", "form: S^99999999")
    started = time.perf_counter()
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "huge.ci", text))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert json.loads(out)["error"] == "NotHomogeneous"


def test_huge_integer_power_over_q_exits_1_at_once(capsys, tmp_path):
    """Over Q an integer power past MAX_INT_BITS bits is a parse error,
    refused before the power is computed."""
    text = QUADRIC_F3.replace("field: F:3", "field: Q").replace(
        "form: S*Z1", "form: 7^99999999*S*Z1"
    )
    started = time.perf_counter()
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "huge.ci", text))
    assert time.perf_counter() - started < 1.0
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "ParseError" and "MAX_INT_BITS" in report["message"]


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter prints an int of any length",
)
def test_rational_too_long_to_print_exits_2_at_once(capsys, tmp_path):
    """Each factor is under MAX_INT_BITS, but the coefficient, 4,932 digits,
    is past the 4,300 digits Python converts to text."""
    n = "9" * 1233
    text = QUADRIC_F3.replace("field: F:3", "field: Q").replace(
        "form: S*Z1", f"form: {n}*{n}*{n}*{n}*S*Z1"
    )
    started = time.perf_counter()
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "long.ci", text))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert json.loads(out)["error"] == "BudgetExceeded"


def test_family_past_the_size_budget_exits_2_at_once(capsys):
    started = time.perf_counter()
    for spec in ("hyp-general:N=65,d=3", "quadrics-general:N=7,r=1000000"):
        code, out = run(capsys, "verify-example", spec)
        assert code == 2
        assert json.loads(out)["error"] == "BudgetExceeded"
    assert time.perf_counter() - started < 1.0
    code, _ = run(capsys, "verify-example", "hyp-general:N=64,d=3", "--char", "3")
    assert code == 0


def test_cover_past_the_curve_degree_budget_exits_2_at_once(capsys, tmp_path):
    """The cover is refused before its K + 1 coefficients are built."""
    path = write_problem(tmp_path, "quintic.ci", QUINTIC_F7)
    started = time.perf_counter()
    code, out = run(capsys, "curve-check", path, "--cover", "1000000000")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded" and "MAX_CURVE_DEGREE" in report["message"]
    code, _ = run(capsys, "curve-check", path, "--cover", str(MAX_CURVE_DEGREE + 1))
    assert code == 2


@pytest.mark.parametrize("cover", ["0", "-1"])
def test_non_positive_cover_is_a_parse_error(capsys, tmp_path, cover):
    path = write_problem(tmp_path, "quintic.ci", QUINTIC_F7)
    code, out = run(capsys, "curve-check", path, "--cover", cover)
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "ParseError" and "--cover" in report["message"]


@pytest.mark.parametrize("b", [MAX_CURVE_DEGREE + 1, 1000000000])
def test_curve_past_the_degree_budget_exits_2_at_once(capsys, tmp_path, b):
    """An uncovered curve is refused too, before its coefficient vectors
    are built."""
    text = QUINTIC_F7.replace("s ; -1*s ; t ; -1*t", f"s^{b} ; -1*s^{b} ; t^{b} ; -1*t^{b}")
    path = write_problem(tmp_path, "curve.ci", text)
    started = time.perf_counter()
    code, out = run(capsys, "curve-check", path)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded" and "MAX_CURVE_DEGREE" in report["message"]


# S*Z1 + T*Z2 in P^3 over F_7 with a curve of components {curve}
CURVE_ON_QUADRIC_F7 = "field: F:7\nN: 3\ndegrees: 2\n{params}form: S*Z1 + T*Z2\ncurve: {curve}\n"

# the report of every curve below that reads as (t, s, 0, 0), of degree 1
DEGREE_ONE_REPORT = {
    "chi": 2,
    "command": "curve-check",
    "convex_here": None,
    "cover": None,
    "curve_degree": 1,
    "degree_gate": "NotTriggered",
    "degree_sum": 2,
    "free": True,
    "h0": 2,
    "h1": 0,
    "problem": {
        "N": 3,
        "curve": ["t", "s", "0", "0"],
        "degrees": [2],
        "field": "F:7",
        "forms": ["S*Z1 + T*Z2"],
        "params": [],
    },
    "twist": -1,
}


def error_report(error: str, message: str) -> dict:
    return {"error": error, "message": message}


@pytest.mark.parametrize(
    "params, curve, code, report",
    [
        # a curve's degree is that of the terms left after reduction
        ("", "s^2 - s^2 + t ; s ; 0 ; 0", 0, DEGREE_ONE_REPORT),
        ("", "7*s^2 + t ; s ; 0 ; 0", 0, DEGREE_ONE_REPORT),
        (
            "",
            "s^2 + t ; s^2 ; 0 ; 0",
            2,
            error_report("NotHomogeneous", "s^2 + t is not homogeneous"),
        ),
        # a component of mixed degree gives no degree; the error prints it
        (
            "params: c1\n",
            "c1*s + t^2 ; s^2 ; 0 ; 0",
            2,
            error_report("NotHomogeneous", "t^2 + c1*s is not homogeneous"),
        ),
        (
            "",
            "s + t^2 ; s^3 + t ; 0 ; 0",
            1,
            error_report("ParseError", "curve components must share one degree, got []"),
        ),
        (
            "",
            "0 ; 0 ; 0 ; 0",
            1,
            error_report("ParseError", "curve components must share one degree, got []"),
        ),
        (
            "",
            "s ; s^2 ; 0 ; 0",
            1,
            error_report("ParseError", "curve components must share one degree, got [1, 2]"),
        ),
        (
            "params: c1\n",
            "c1*s ; t ; 0 ; 0",
            2,
            error_report("ParameterPresent", "c1*s carries parameters"),
        ),
        (
            "",
            "S ; t ; 0 ; 0",
            1,
            error_report("ParseError", "unknown name 'S' (not a variable or parameter)"),
        ),
        (
            "",
            "s^99999999 ; t^99999999 ; 0 ; 0",
            2,
            error_report(
                "BudgetExceeded",
                "a curve of degree 99999999; a problem file's curve has degree at most "
                "MAX_CURVE_DEGREE = 400",
            ),
        ),
        (
            "",
            "s ; s ; 0 ; 0",
            2,
            error_report("ConstraintViolated", "components share the projective zero locus of s"),
        ),
    ],
)
def test_curve_component_reports(capsys, tmp_path, params, curve, code, report):
    """Whole reports, errors included, of curves whose components cancel,
    vanish mod p, mix degrees, carry parameters or unknown names."""
    text = CURVE_ON_QUADRIC_F7.format(params=params, curve=curve)
    started = time.perf_counter()
    got = run(capsys, "curve-check", write_problem(tmp_path, "curve.ci", text))
    assert time.perf_counter() - started < 1.0
    assert got == (code, json.dumps(report, sort_keys=True, indent=2) + "\n")


def test_curve_check_error_golden(capsys):
    """An error report kept as a golden: a curve component that is not
    homogeneous exits 2 with NotHomogeneous."""
    path = GOLDEN / "curve_not_homogeneous.ci"
    text = CURVE_ON_QUADRIC_F7.format(params="", curve="s^2 + t ; s^2 ; 0 ; 0")
    assert path.read_text(encoding="utf-8") == text
    code, out = run(capsys, "curve-check", str(path))
    assert code == 2
    check_golden("curve_not_homogeneous.json", out)


BINOMIAL_F7 = """
field: F:7
N: 3
degrees: {d}
form: Z1*S^{e} + Z2*T^{e}
line: 0, 0 | 0, 0
"""


def binomial_problem(d: int) -> str:
    """Z1*S^(d-1) + Z2*T^(d-1) over F_7 and the line Z1 = Z2 = 0, whose
    normal bundle is O(2 - d)."""
    return BINOMIAL_F7.format(d=d, e=d - 1)


@pytest.mark.parametrize("d", [MAX_FORM_DEGREE + 1, 1000000000])
def test_form_past_the_degree_budget_exits_2_at_once(capsys, tmp_path, d):
    path = write_problem(tmp_path, "binomial.ci", binomial_problem(d))
    started = time.perf_counter()
    code, out = run(capsys, "classify-line", path)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded" and "MAX_FORM_DEGREE" in report["message"]


def test_classify_line_past_the_section_kernel_budget_exits_2_at_once(capsys, tmp_path):
    """Z1*S^399 + Z2*T^399 over F_7 in P^16 is within MAX_PROBLEM_N and
    MAX_FORM_DEGREE, but the normal splitting's section kernel is
    799 x 6,000 with at least 5,201 basis vectors: 36 million entries,
    refused before its grid is built."""
    zeros = ", ".join(["0"] * 15)
    text = binomial_problem(400).replace("N: 3", "N: 16").replace("0, 0 | 0, 0", f"{zeros} | {zeros}")
    started = time.perf_counter()
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "binomial.ci", text))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded" and "MAX_SECTION_ENTRIES" in report["message"]
    assert "799 x 6000" in report["message"]


def test_curve_check_past_the_section_kernel_budget_exits_2_at_once(capsys, tmp_path):
    """A quadric in P^20 along (s^400, t^400, 0, ...): one 2 x 2 minor
    term per pair, but the section kernel at twist 0 is 801 x 8,421."""
    zeros = " ; 0" * 19
    text = f"field: F:7\nN: 20\ndegrees: 2\nform: S*Z1 + T*Z2\ncurve: s ; t{zeros}\n"
    path = write_problem(tmp_path, "wide_curve.ci", text)
    started = time.perf_counter()
    code, out = run(capsys, "curve-check", path, "--twist", "0", "--cover", "400")
    assert time.perf_counter() - started < 2.0
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded" and "MAX_SECTION_ENTRIES" in report["message"]
    assert "801 x 8421" in report["message"]


def dense_problem(terms: int) -> str:
    """A surface over F_7 whose form is the sum of the first `terms`
    monomials in S, T, Z1, Z2 of the least degree that has that many."""
    d = 0
    while (d + 1) * (d + 2) * (d + 3) // 6 < terms:
        d += 1
    monomials = [
        f"S^{d - i - j - k}*T^{i}*Z1^{j}*Z2^{k}"
        for i in range(d + 1)
        for j in range(d + 1 - i)
        for k in range(d + 1 - i - j)
    ]
    form = " + ".join(monomials[:terms])
    return f"field: F:7\nN: 3\ndegrees: {d}\nform: {form}\nline: 0, 0 | 0, 0\n"


def test_form_past_the_term_budget_exits_2_at_once(capsys, tmp_path):
    path = write_problem(tmp_path, "dense.ci", dense_problem(MAX_FORM_TERMS + 1))
    started = time.perf_counter()
    code, out = run(capsys, "classify-line", path)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded" and "MAX_FORM_TERMS" in report["message"]


def test_form_at_the_term_budget_is_read(tmp_path):
    problem = load_problem(write_problem(tmp_path, "dense.ci", dense_problem(MAX_FORM_TERMS)))
    assert len(problem.x.forms[0].flat.terms) == MAX_FORM_TERMS


def test_classify_line_reads_every_twist_of_a_degree_200_form_at_once(capsys, tmp_path):
    """The normal splitting O(-198) needs the section counts at 200 twists;
    one elimination gives them all (a descent of one elimination per twist
    took about 20 s)."""
    path = write_problem(tmp_path, "binomial.ci", binomial_problem(200))
    started = time.perf_counter()
    code, out = run(capsys, "classify-line", path)
    assert time.perf_counter() - started < 5.0
    assert code == 0
    report = json.loads(out)
    assert report["normal_splitting"] == [-198] and report["tangent_splitting"] == [2, -198]


def test_huge_parameter_power_is_multiplied_at_once(capsys, tmp_path):
    """Packed product keys hold an exponent of 99999999 as one digit."""
    text = QUADRIC_F3.replace("field: F:3", "field: Q\nparams: c1").replace(
        "form: S*Z1", "form: c1^99999999*S*Z1"
    )
    started = time.perf_counter()
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "huge.ci", text))
    assert time.perf_counter() - started < 1.0
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "NotInJ" and report["certificate"] == "c1^99999999"


def test_huge_integer_power_over_f5_is_reduced_at_once(capsys, tmp_path):
    """Over F_5, 7^99999999 = 2^3 = 3: the report is that of coefficient 3."""
    text = QUADRIC_F3.replace("field: F:3", "field: F:5")
    huge_path = write_problem(tmp_path, "huge.ci", text.replace("S*Z1", "7^99999999*S*Z1"))
    three_path = write_problem(tmp_path, "three.ci", text.replace("S*Z1", "3*S*Z1"))
    started = time.perf_counter()
    huge = run(capsys, "classify-line", huge_path)
    assert time.perf_counter() - started < 1.0
    assert huge == run(capsys, "classify-line", three_path) and huge[0] == 0


def test_a_reused_parser_prints_what_a_fresh_one_does(capsys, tmp_path):
    calls = [
        ("gates", "--N", "5", "--degrees", "2,2"),
        ("classify-line", write_problem(tmp_path, "quadric.ci", QUADRIC_F3)),
        ("nonsense-command",),
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert build_parser() is build_parser()
    assert [run(capsys, *argv) for argv in calls] == fresh


def test_classify_line_not_contained_exits_2(capsys, tmp_path):
    text = QUADRIC_F3.replace("line: 0, 0 | 0, 0", "line: 1, 0 | 0, 0")
    path = write_problem(tmp_path, "off.ci", text)
    code, out = run(capsys, "classify-line", path)
    assert code == 2
    assert json.loads(out)["error"] == "LineNotContained"


def test_enumerate_lines_counts(capsys, tmp_path):
    path = write_problem(tmp_path, "quadric.ci", QUADRIC_F3)
    code, out = run(capsys, "enumerate-lines", path)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 8 and len(report["lines"]) == 8


def test_enumerate_lines_classified(capsys, tmp_path):
    path = write_problem(tmp_path, "quadric.ci", QUADRIC_F3)
    code, out = run(capsys, "enumerate-lines", path, "--classify")
    assert code == 0
    report = json.loads(out)
    assert all(d["free"] and d["normal_splitting"] == [0] for d in report["classified"])


def test_singular_lines_get_no_splitting_type(capsys, tmp_path):
    """Along a line where X is singular the bundle routes are skipped:
    classify-line says so and prints no splitting or cohomology, and
    enumerate-lines --classify leaves the splitting type out."""
    path = write_problem(tmp_path, "double.ci", DOUBLE_PLANE_Q)
    code, out = run(capsys, "classify-line", path)
    assert code == 0
    report = json.loads(out)
    assert report["smooth_along_line"] is False
    assert report["verdict"] == "NotSmoothOrExcess" and report["corank"] == 2
    assert not {
        "normal_splitting",
        "tangent_splitting",
        "tangent_h0_h1_twist_minus1",
        "tangent_h0_h1_twist_0",
        "routes_agree",
    } & set(report)

    path = write_problem(tmp_path, "cubic.ci", CUBIC_F5_SINGULAR)
    code, out = run(capsys, "enumerate-lines", path, "--classify")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 5
    split = [d.get("normal_splitting") for d in report["classified"]]
    assert split == [[-1], [-1], [-1], None, None]


def test_enumerate_lines_over_q_exits_2(capsys, tmp_path):
    path = write_problem(tmp_path, "q.ci", QUADRIC_F3.replace("field: F:3", "field: Q"))
    code, out = run(capsys, "enumerate-lines", path)
    assert code == 2
    assert json.loads(out)["error"] == "InfiniteField"


def test_enumerate_lines_over_budget_exits_2_at_once(capsys, tmp_path):
    path = write_problem(tmp_path, "big.ci", QUADRIC_F3.replace("field: F:3", "field: F:1000003"))
    started = time.perf_counter()
    code, out = run(capsys, "enumerate-lines", path)
    assert time.perf_counter() - started < 0.5
    assert code == 2
    assert json.loads(out)["error"] == "BudgetExceeded"


@pytest.mark.parametrize("field, n", [("F:2305843009213693951", 300), ("F:7", 6000)])
def test_enumerate_lines_past_a_point_count_too_long_to_print_exits_2(capsys, tmp_path, field, n):
    """P^N(F_q) has more points than a census tabulates, a count of more
    digits than Python prints (4,300): the refusal prints no such count.
    N = 6000 is past MAX_PROBLEM_N as well."""
    text = f"field: {field}\nN: {n}\ndegrees: 2\nform: S*Z1 + T*Z2\n"
    code, out = run(capsys, "enumerate-lines", write_problem(tmp_path, "huge.ci", text))
    assert code == 2
    assert json.loads(out)["error"] == "BudgetExceeded"


@pytest.mark.parametrize("command", ["classify-line", "enumerate-lines", "curve-check"])
def test_a_problem_file_that_is_not_utf8_exits_1(capsys, tmp_path, command):
    """A byte no UTF-8 text holds (0xff, in a comment) is a ParseError
    report, not a UnicodeDecodeError traceback."""
    path = tmp_path / "latin1.ci"
    path.write_bytes(QUADRIC_F3.encode("utf-8") + b"# \xff\n")
    code, out = run(capsys, command, str(path))
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "ParseError" and "UTF-8" in report["message"]


def test_a_problem_file_with_a_byte_order_mark_is_read(capsys, tmp_path):
    """A UTF-8 file may start with the byte-order mark EF BB BF, as some
    editors write it: the mark is dropped, and the report is that of the
    file without it."""
    plain = GOLDEN / "curve_quintic_F7.ci"
    marked = tmp_path / "curve_quintic_F7.ci"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    args = ("--twist", "0", "--cover", "3")
    code, out = run(capsys, "curve-check", str(marked), *args)
    assert code == 0
    assert (code, out) == run(capsys, "curve-check", str(plain), *args)


@pytest.mark.parametrize("literal", ["1/7", "1/0"])
def test_a_line_entry_with_no_value_in_the_field_exits_1(capsys, tmp_path, literal):
    """Over F_7, 1/7 has no value, as 1/0 has none: each is a ParseError
    naming the literal."""
    text = CUBIC_F7_CORANK_1.replace("line: 6, 0 | 0, 6", f"line: {literal}, 0 | 0, 6")
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "cubic.ci", text))
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "ParseError" and repr(literal) in report["message"]


def standard_line_problem(n: int) -> str:
    """S*Z1 + T*Z2 + Z3*Z4 over F_7 in P^n, n >= 5, and the standard line."""
    zeros = ", ".join(["0"] * (n - 1))
    return f"field: F:7\nN: {n}\ndegrees: 2\nform: S*Z1 + T*Z2 + Z3*Z4\nline: {zeros} | {zeros}\n"


def test_problem_at_the_n_budget_is_classified(capsys, tmp_path):
    path = write_problem(tmp_path, "wide.ci", standard_line_problem(MAX_PROBLEM_N))
    code, out = run(capsys, "classify-line", path)
    assert code == 0
    report = json.loads(out)
    assert report["problem"]["N"] == MAX_PROBLEM_N and report["free"]


@pytest.mark.parametrize("n", [MAX_PROBLEM_N + 1, 10**6])
def test_problem_past_the_n_budget_exits_2_at_once(capsys, tmp_path, n):
    """Refused before the line is read: its rows, of length 4, would be a
    ParseError at this N."""
    text = standard_line_problem(5).replace("N: 5", f"N: {n}")
    started = time.perf_counter()
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "wide.ci", text))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded" and "MAX_PROBLEM_N" in report["message"]


def test_curve_check_quintic(capsys, tmp_path):
    path = write_problem(tmp_path, "quintic.ci", QUINTIC_F7)
    code, out = run(capsys, "curve-check", path, "--twist", "-1")
    assert code == 0
    report = json.loads(out)
    assert (report["h0"], report["h1"]) == (2, 3)
    assert report["free"] is False
    assert report["degree_gate"] == "AllImmersionsNonFree"

    code, out = run(capsys, "curve-check", path, "--twist", "0", "--cover", "2")
    assert code == 0
    report = json.loads(out)
    assert report["h1"] == 5 and report["curve_degree"] == 2


def test_verify_example_char2_forbidden_exits_2(capsys):
    code, out = run(capsys, "verify-example", "hyp-char-not-2:N=6,d=4", "--char", "2")
    assert code == 2
    assert json.loads(out)["error"] == "CharTwoForbidden"


def test_a_hypersurface_family_with_two_degrees_exits_2(capsys):
    """It once reported the hypersurface of the first degree alone."""
    code, out = run(capsys, "verify-example", "hyp-general:N=9,degrees=3+2")
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "ConstraintViolated" and "one degree" in report["message"]
    with pytest.raises(ConstraintViolated, match="one degree"):
        FamilySpec("hyp-general", 9, (3, 2))


@pytest.mark.parametrize(
    "spec",
    [
        "hyp-4-6:N=9,d=5",  # once built N = 6, d = 4
        "quadrics-general:N=8,r=3,d=3",  # once dropped d
        "hyp-general:N=9,d=4,d=5",  # once kept the last d
        "hyp-general:N=6,d=4,seed=3",  # once built the symbolic family
    ],
    ids=["size-of-a-fixed-family", "second-size-key", "repeated-key", "seed-in-symbolic-mode"],
)
def test_a_family_spec_key_that_would_be_dropped_exits_1(capsys, spec):
    code, out = run(capsys, "verify-example", spec)
    assert code == 1 and json.loads(out)["error"] == "ParseError"


def test_seed_option_on_a_symbolic_spec_exits_1(capsys):
    """--seed is read in sampled mode only; a symbolic spec once dropped it."""
    for spec in ("hyp-general:N=6,d=4", "hyp-4-6:c=symbolic"):
        code, out = run(capsys, "verify-example", spec, "--seed", "3")
        assert code == 1 and json.loads(out)["error"] == "ParseError"
    code, out = run(capsys, "verify-example", "hyp-4-6:c=sampled", "--seed", "3")
    assert code == 0 and json.loads(out)["family"] == "hyp-4-6:c=sampled,seed=3"


def test_a_seed_in_the_spec_and_the_option_exits_1(capsys):
    """--seed once replaced the spec's seed without a word."""
    code, out = run(capsys, "verify-example", "hyp-4-6:c=sampled,seed=1", "--seed", "2")
    report = json.loads(out)
    assert code == 1 and report["error"] == "ParseError"
    assert "seed=1" in report["message"] and "--seed 2" in report["message"]
    code, out = run(capsys, "verify-example", "hyp-4-6:c=sampled,seed=1")
    assert code == 0 and json.loads(out)["family"] == "hyp-4-6:c=sampled,seed=1"


@pytest.mark.parametrize(
    "command, problem, name",
    [
        ("classify-line", QUADRIC_F3, "a1"),
        ("classify-line", QUADRIC_F3, "S"),
        ("curve-check", QUINTIC_F7, "s"),
    ],
    ids=["classify-line-a1", "classify-line-S", "curve-check-s"],
)
def test_a_parameter_named_as_a_coordinate_exits_1(capsys, tmp_path, command, problem, name):
    """Such a name once exited 2 with RingMismatch, naming neither the
    parameter nor the coordinate."""
    text = problem.replace("degrees:", f"params: c1 {name}\ndegrees:")
    code, out = run(capsys, command, write_problem(tmp_path, "clash.ci", text))
    report = json.loads(out)
    assert code == 1 and report["error"] == "ParseError"
    assert f"params ['{name}'] are coordinate names" in report["message"]


@pytest.mark.parametrize(
    "params, bad",
    [("c1,c2", ["c1,c2"]), ("c1 2x", ["2x"]), ("c^1", ["c^1"]), ("c1 c2 c1", ["c1"])],
    ids=["commas", "leading-digit", "caret", "duplicate"],
)
def test_a_parameter_the_grammar_cannot_write_exits_1(capsys, tmp_path, params, bad):
    """Such an entry was once declared as given: 'c1,c2' as one name, so a
    form using c1 failed on an unknown name and one using no parameter
    passed; a duplicate exited 2 with RingMismatch."""
    text = QUADRIC_F3.replace("degrees:", f"params: {params}\ndegrees:")
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "names.ci", text))
    report = json.loads(out)
    assert code == 1 and report["error"] == "ParseError"
    assert f"params {bad} are not distinct names" in report["message"]
    assert "separate names by whitespace" in report["message"]


@pytest.mark.parametrize(
    "text, key, why",
    [
        (QUADRIC_F3 + "N: 4\n", "N", "given twice"),
        (QUADRIC_F3.replace("field: F:3", "field: F:3\nField: F:5"), "Field", "given twice"),
        (QUADRIC_F3.replace("line:", "lnie:"), "lnie", "unknown problem key"),
    ],
    ids=["second-N", "second-field-other-case", "misspelt-line"],
)
def test_a_problem_key_that_would_be_dropped_exits_1(capsys, tmp_path, text, key, why):
    """A second N once replaced the first without a word, and a misspelt
    key was dropped, so classify-line said the file had no line."""
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "keys.ci", text))
    report = json.loads(out)
    assert code == 1 and report["error"] == "ParseError"
    assert why in report["message"] and repr(key) in report["message"]


def test_readme_problem_file_runs_under_every_problem_command(capsys, tmp_path):
    """The problem-file example in README.md once named a line off its
    cubic, so classify-line exited 2 on it."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Problem files", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    path = write_problem(tmp_path, "readme.ci", block)
    for command in ("classify-line", "curve-check", "enumerate-lines"):
        code, out = run(capsys, command, path)
        assert code == 0, (command, out)


def test_parse_errors_exit_1(capsys, tmp_path):
    code, out = run(capsys, "verify-example", "no-such-family")
    assert code == 1
    bad = write_problem(tmp_path, "bad.ci", "field: Q\nN: 3\n")
    code, out = run(capsys, "classify-line", bad)
    assert code == 1
    code, out = run(capsys, "nonsense-command")
    assert code == 1


def test_report_echo_refeeds_to_same_verdict(capsys, tmp_path):
    path = write_problem(tmp_path, "quadric.ci", QUADRIC_F3)
    _, out = run(capsys, "classify-line", path)
    echo = json.loads(out)["problem"]
    rebuilt = "\n".join(
        [
            f"field: {echo['field']}",
            f"N: {echo['N']}",
            "degrees: " + ",".join(str(d) for d in echo["degrees"]),
        ]
        + [f"form: {f}" for f in echo["forms"]]
        + [
            "line: "
            + ", ".join(echo["line"]["a"])
            + " | "
            + ", ".join(echo["line"]["b"])
        ]
    )
    path2 = write_problem(tmp_path, "rebuilt.ci", rebuilt)
    _, out2 = run(capsys, "classify-line", path2)
    a, b = json.loads(out), json.loads(out2)
    assert a["verdict"] == b["verdict"] and a["free"] == b["free"]


def test_census_free_agrees_with_the_normal_splitting(capsys, tmp_path, rng):
    """On random small varieties through the line Z1 = ... = Z_{N-1} = 0,
    every line enumerate-lines --classify gives a normal splitting is free
    (M(h) of full rank) exactly when every entry of the splitting is >= 0."""
    seen = set()
    for q in (2, 3, 5):
        field = prime_field(q)
        for _ in range(2):
            for n, degrees in ((3, (2,)), (3, (3,)), (4, (3,)), (4, (2, 2))):
                ring = ambient_ring(field, n)
                forms = []
                for d in degrees:
                    form = ring.zero()
                    while form.is_zero:  # keep the terms that vanish on the line
                        g = random_homogeneous(rng, ring, d, 8)
                        form = ring.from_terms({e: c for e, c in g.terms if any(e[2:])})
                    forms.append(f"form: {form}\n")
                text = f"field: F:{q}\nN: {n}\ndegrees: {','.join(map(str, degrees))}\n"
                path = write_problem(tmp_path, "random.ci", text + "".join(forms))
                code, out = run(capsys, "enumerate-lines", path, "--classify")
                assert code == 0
                for entry in json.loads(out)["classified"]:
                    if "normal_splitting" in entry:
                        nonneg = min(entry["normal_splitting"]) >= 0
                        assert entry["free"] == nonneg, (text, entry)
                        seen.add(nonneg)
    assert seen == {True, False}

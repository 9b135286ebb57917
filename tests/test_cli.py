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
        ("cubic.ci", CUBIC_F7_CORANK_1, "classify_cubic_F7_corank1.json"),
        ("double.ci", DOUBLE_PLANE_Q, "classify_double_plane_Q.json"),
        ("two.ci", TWO_QUADRICS_F5, "classify_two_quadrics_F5.json"),
        ("parametric.ci", PARAMETRIC_Q, "classify_parametric_Q.json"),
    ],
    ids=["corank-1", "singular-along-line", "two-quadrics", "parametric"],
)
def test_classify_line_golden(capsys, tmp_path, name, text, golden):
    code, out = run(capsys, "classify-line", write_problem(tmp_path, name, text))
    assert code == 0
    check_golden(golden, out)


def test_enumerate_lines_classify_golden(capsys, tmp_path):
    path = write_problem(tmp_path, "quadric.ci", QUADRIC_F3)
    code, out = run(capsys, "enumerate-lines", path, "--classify")
    assert code == 0
    check_golden("enumerate_quadric_F3_classify.json", out)


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
    matrix, the printed matrix and the bundle route all reuse it. It is
    read off the membership system, so a verify-example report makes
    one chart substitution per form."""
    import cilines.chart as chart

    calls = []
    build = chart._nonfree_entries
    images = []
    image = chart.chart_image

    def counted(ms):
        calls.append(ms)
        return build(ms)

    def counted_image(form, n):
        images.append(form)
        return image(form, n)

    monkeypatch.setattr(chart, "_nonfree_entries", counted)
    monkeypatch.setattr(chart, "chart_image", counted_image)

    code, _ = run(capsys, "verify-example", "hyp-4-6")
    assert code == 0 and len(calls) == 1
    assert len(images) == 1

    calls.clear()
    path = write_problem(tmp_path, "cubic.ci", CUBIC_F7_CORANK_1)
    code, out = run(capsys, "classify-line", path)
    report = json.loads(out)
    assert code == 0 and report["corank"] == 1 and "normal_splitting" in report
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text,n,total", [(CUBIC_THREEFOLD_F5, 4, 3), (PARAMETRIC_Q, 6, 4)], ids=["F5", "params"]
)
def test_classify_line_walks_each_polynomial_once_at_the_line(
    capsys, tmp_path, monkeypatch, text, n, total
):
    """A classify-line report at a corank-1 line evaluates no polynomial
    and differentiates only to build the symbolic M(h): the values and
    partials at the line come from one jet per polynomial."""
    calls = []
    for name in ("evaluate", "differentiate"):
        original = getattr(MultiPoly, name)

        def counted(self, *args, _name=name, _original=original):
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):  # a generator expression
                caller = caller.f_back
            calls.append((_name, caller.f_code.co_name))
            return _original(self, *args)

        monkeypatch.setattr(MultiPoly, name, counted)
    code, out = run(capsys, "classify-line", write_problem(tmp_path, "p.ci", text))
    report = json.loads(out)
    assert code == 0 and report["corank"] == 1 and report["num_local_equations"] >= 1
    assert calls == [("differentiate", "_nonfree_entries")] * ((n - 1) * total)


def test_enumerate_lines_classify_builds_no_symbolic_m_h(capsys, tmp_path, monkeypatch):
    """enumerate-lines --classify reads no local equations, so no line
    builds the symbolic M(h), NonFreeMatrix.entries_ab: the 27 lines of
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
    """The tangent splitting is read off the printed normal splitting, and
    both tangent twists come from one tangent_cohomology pass: one
    section-kernel elimination per presentation."""
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
        "tangent_cohomology": 1,
        "_section_kernel_dims": 2,
    }
    assert report["tangent_splitting"] == sorted([2] + report["normal_splitting"], reverse=True)


def test_classify_line_restricts_nothing(capsys, tmp_path, monkeypatch):
    """classify-line reads the restricted Jacobian off M(h) and hands
    it to the bundle routes, so no form is ever restricted along the
    line; curve-check, along a general curve, still restricts."""
    import cilines.bundles as bundles
    import cilines.chart as chart
    import cilines.geometry as geometry

    calls = []
    restrict = geometry.restrict_along

    def counted(*args, **kwargs):
        calls.append(args[0])
        return restrict(*args, **kwargs)

    for module in (geometry, chart, bundles):
        monkeypatch.setattr(module, "restrict_along", counted)
    for name, text in (("cubic.ci", CUBIC_F7_CORANK_1), ("two.ci", TWO_QUADRICS_F5)):
        code, out = run(capsys, "classify-line", write_problem(tmp_path, name, text))
        assert code == 0 and "tangent_h0_h1_twist_0" in json.loads(out)
    assert calls == []

    code, _ = run(capsys, "curve-check", write_problem(tmp_path, "quintic.ci", QUINTIC_F7))
    assert code == 0 and calls


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

"""Batch front end.

Subcommands:
    verify-example <family-spec> [--char C] [--seed S]
    classify-line <problem-file>
    enumerate-lines <problem-file> [--classify]
    curve-check <problem-file> [--twist {-1,0}] [--cover K]
    gates --N n --degrees d1,d2,...

Reports are JSON with sorted keys on standard output and are byte-stable
for a fixed invocation; wall-clock timing goes to standard error. Exit
status: 0 for any definitive verdict (non-free is an answer, not an
error), 1 for parse errors, 2 for named library preconditions.

Problem files are UTF-8 text, one 'key: value' per line, '#' comments:

    field: F:7            # or Q
    N: 3
    degrees: 3            # comma-separated, one per form
    params: c1 c2         # optional symbolic parameters
    form: S^3 + T^3 + Z1^3 + Z2^3
    line: 0, 0 | 0, 0     # optional: a-row | b-row
    curve: s ; -1*s ; t ; -1*t    # optional: N+1 binary forms in s, t
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass

from .bundles import (
    SplittingType,
    degree_nonfree_gate,
    normal_splitting_line,
    precompose,
    tangent_cohomology,
    tangent_splitting_from_normal,
)
from .chart import (
    enumerate_lines_fq,
    line_jacobian,
    line_param,
    move_line_to_chart,
    nonfree_matrix,
)
from .errors import BudgetExceeded, LineNotContained, ParseError, SingularAlongLine, ToolkitError
from .exactmatrix import ExactMatrix
from .families import FamilySpec, family_report, hypothesis_gates, parse_family_spec
from .fields import Field, RATIONALS, field_from_str, prime_field
from .geometry import (
    CIType,
    CompleteIntersection,
    LineChartPoint,
    RationalCurve,
    ambient_variables,
)
from .multipoly import BinaryForm, PolyRing
from .nonfree import SmoothnessReport, expected_pair_report
from .params import ParamRing
from .polytext import parse_poly


#: the largest curve degree: of a problem file's curve, and b * K of its
#: cover in curve-check. At degree 400 curve-check on a Fermat cubic
#: surface over F_7 takes about 2 s, and the time grows about as the cube
#: of the degree (11.7 s at 1000)
MAX_CURVE_DEGREE = 400
#: the largest degree a problem file declares for a form. classify-line on
#: Z1*S^(d-1) + Z2*T^(d-1) over F_7 takes 0.6 s at d = 400 and 3.2 s at 800;
#: a dense form is slow far below this bound, so MAX_FORM_TERMS bounds it
MAX_FORM_DEGREE = 400
#: the most terms a problem file's form may have. classify-line on
#: Z1*A + Z2*B over F_7, with A and B dense of degree d - 1 in S, T, Z1, Z2,
#: takes 1.9 s at d = 30 (9,920 terms) and 4.0 s at d = 35 (15,540 terms)
#: on one Xeon core (Python 3.11)
MAX_FORM_TERMS = 10000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); parse errors are exit 1
        raise ParseError(message)


def _positive_int(text: str) -> int:
    """argparse type of --cover: a cover (s^k, t^k) needs k >= 1."""
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return k


@dataclass
class ProblemFile:
    field: Field
    x: CompleteIntersection
    line: LineChartPoint | None
    curve: RationalCurve | None
    echo: dict


def _parse_curve_texts(texts: list[str], coeffs: ParamRing) -> RationalCurve:
    ring = PolyRing(coeffs, ("s", "t"))
    polys = [parse_poly(t, ring) for t in texts]
    degs = {p.homogeneous_degree() for p in polys if not p.is_zero}
    degs.discard(None)
    if len(degs) != 1:
        raise ParseError(f"curve components must share one degree, got {sorted(degs)}")
    b = degs.pop()
    if b > MAX_CURVE_DEGREE:  # refused before its coefficient vectors are built
        raise BudgetExceeded(
            f"a curve of degree {b}; a problem file's curve has degree at most "
            f"MAX_CURVE_DEGREE = {MAX_CURVE_DEGREE}"
        )
    comps = []
    for p in polys:
        if p.is_zero:
            comps.append(BinaryForm.zero(coeffs.field, b))
        else:
            comps.append(BinaryForm.from_poly(p))
    return RationalCurve(tuple(comps))


def load_problem(path: str) -> ProblemFile:
    entries: list[tuple[str, str]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                stripped = raw.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if ":" not in stripped:
                    raise ParseError(f"bad problem line {raw.strip()!r}")
                key, val = stripped.split(":", 1)
                entries.append((key.strip().lower(), val.strip()))
    except OSError as exc:
        raise ParseError(f"cannot read problem file: {exc}") from None

    data: dict[str, str] = {}
    forms: list[str] = []
    for key, val in entries:
        if key == "form":
            forms.append(val)
        else:
            data[key] = val

    missing = [k for k in ("field", "n", "degrees") if k not in data]
    if missing:
        raise ParseError(f"problem file lacks keys: {missing}")
    field = field_from_str(data["field"])
    try:
        n = int(data["n"])
        degrees = tuple(int(d) for d in data["degrees"].split(","))
    except ValueError as exc:
        raise ParseError(f"bad N or degrees: {exc}") from None
    if max(degrees) > MAX_FORM_DEGREE:  # refused before any form is read
        raise BudgetExceeded(
            f"a form of degree {max(degrees)}; a problem file declares degrees of at most "
            f"MAX_FORM_DEGREE = {MAX_FORM_DEGREE}"
        )
    params = tuple(data.get("params", "").split()) if data.get("params") else ()
    if len(forms) != len(degrees):
        raise ParseError(f"{len(degrees)} degrees but {len(forms)} forms")

    coeffs = ParamRing(field, params)
    ring = PolyRing(coeffs, ambient_variables(n))
    polys = tuple(parse_poly(t, ring) for t in forms)
    for p in polys:
        if len(p.flat.packed) > MAX_FORM_TERMS:
            raise BudgetExceeded(
                f"a form of {len(p.flat.packed)} terms; a problem file's form has at most "
                f"MAX_FORM_TERMS = {MAX_FORM_TERMS}"
            )
    x = CompleteIntersection(CIType(n, degrees), polys)

    line = None
    if "line" in data:
        halves = data["line"].split("|")
        if len(halves) != 2:
            raise ParseError("line must be 'a1,..| b1,..'")
        a = tuple(field.parse(v) for v in halves[0].split(","))
        b = tuple(field.parse(v) for v in halves[1].split(","))
        if len(a) != n - 1 or len(b) != n - 1:
            raise ParseError(f"line rows must have {n - 1} entries")
        line = LineChartPoint(field, a, b)

    curve = None
    if "curve" in data:
        texts = [t.strip() for t in data["curve"].split(";")]
        if len(texts) != n + 1:
            raise ParseError(f"curve needs {n + 1} components")
        curve = _parse_curve_texts(texts, coeffs)

    echo = {
        "field": str(field),
        "N": n,
        "degrees": list(degrees),
        "params": list(params),
        "forms": [str(p) for p in polys],
    }
    if line is not None:
        echo["line"] = {
            "a": [field.to_str(v) for v in line.a],
            "b": [field.to_str(v) for v in line.b],
        }
    if curve is not None:
        echo["curve"] = [str(c) for c in curve.components]
    return ProblemFile(field, x, line, curve, echo)


# -- report assembly -------------------------------------------------------------


def _report_from(rep: SmoothnessReport) -> dict:
    out = {
        "contained": rep.contained,
        "in_nonfree_locus": rep.in_nonfree_locus,
        "matrix_rank": rep.matrix_rank,
        "corank": rep.corank,
        "required_rank": rep.required_rank,
        "jacobian_rank": rep.jacobian_rank,
        "verdict": rep.verdict,
        "local_dimension": rep.local_dimension,
        "certificate": str(rep.certificate) if rep.certificate is not None else None,
        "genericity_conditions": [str(c) for c in rep.genericity.conditions]
        if rep.genericity
        else [],
    }
    if rep.contained:
        out["matrix"] = rep.matrix.str_rows()
    if rep.equations is not None:
        out["pivot_rows"] = list(rep.equations.pivot_rows)
        out["pivot_cols"] = list(rep.equations.pivot_cols)
        out["pivot_det"] = str(rep.equations.pivot_det)
        out["local_equations"] = [str(g) for g in rep.equations.minors]
        out["num_local_equations"] = rep.equations.count
    return out


def _line_splitting(
    x: CompleteIntersection, point: LineChartPoint, m_h: ExactMatrix
) -> tuple[list[list[BinaryForm]], SplittingType | None]:
    """The restricted Jacobian along a chart line on X, read off M(h) at the
    line, and the normal splitting type; None when X is singular along the
    line, which then has no splitting type."""
    jac = line_jacobian(x, point, m_h)
    try:
        return jac, normal_splitting_line(x, jac)
    except SingularAlongLine:
        return jac, None


def _cmd_verify_example(args) -> dict:
    spec = parse_family_spec(args.family)
    if args.seed is not None:
        if spec.c_mode != "sampled":
            raise ParseError("--seed is read only with c=sampled")
        spec = FamilySpec(spec.name, spec.n, spec.degrees, spec.c_mode, args.seed)
    field = RATIONALS if args.char == 0 else prime_field(args.char)
    built, rep = family_report(spec, field)
    out = {
        "command": "verify-example",
        "family": str(built.spec),
        "field": str(field),
        "N": built.x.n,
        "degrees": list(built.x.ci_type.degrees),
        "forms": [str(f) for f in built.x.forms],
        "line": {
            "a": [field.to_str(v) for v in built.line.a],
            "b": [field.to_str(v) for v in built.line.b],
        },
        "notes": list(built.notes),
    }
    out.update(_report_from(rep))
    return out


def _cmd_classify_line(args) -> dict:
    problem = load_problem(args.problem)
    if problem.line is None:
        raise ParseError("problem file has no line")
    x, point = problem.x, problem.line
    rep = expected_pair_report(x, point)
    if not rep.contained:
        raise LineNotContained("the given line is not on X")
    out = {"command": "classify-line", "problem": problem.echo}
    out.update(_report_from(rep))
    out["free"] = rep.corank == 0
    if x.is_parameter_free:
        jac, normal = _line_splitting(x, point, rep.matrix)
        out["smooth_along_line"] = normal is not None
        if normal is not None:
            out["normal_splitting"] = list(normal.entries)
            out["tangent_splitting"] = list(tangent_splitting_from_normal(normal).entries)
            h0m1, h00 = tangent_cohomology(x, line_param(point), 0, jac)
            out["tangent_h0_h1_twist_minus1"] = list(h0m1)
            out["tangent_h0_h1_twist_0"] = list(h00)
            out["routes_agree"] = (
                (rep.corank == 0) == (h0m1[1] == 0) == (normal.min_entry >= 0)
            )
    return out


def _cmd_enumerate_lines(args) -> dict:
    problem = load_problem(args.problem)
    x = problem.x
    lines = enumerate_lines_fq(x)
    field = x.field
    out = {
        "command": "enumerate-lines",
        "problem": problem.echo,
        "count": len(lines),
        "lines": [
            [[field.to_str(v) for v in row] for row in ln.rows] for ln in lines
        ],
    }
    if args.classify:
        detail = []
        for ln in lines:
            x2, point, _ = move_line_to_chart(x, ln)
            nf = nonfree_matrix(x2, at=point)
            rank = nf.rank.rank
            entry = {
                "free": rank == x.ci_type.total_degree,
                "matrix_rank": rank,
            }
            _, normal = _line_splitting(x2, point, nf.matrix)
            if normal is not None:
                entry["normal_splitting"] = list(normal.entries)
            detail.append(entry)
        out["classified"] = detail
    return out


def _cmd_curve_check(args) -> dict:
    problem = load_problem(args.problem)
    if problem.curve is None:
        raise ParseError("problem file has no curve")
    x, mu = problem.x, problem.curve
    cover_k = args.cover
    if cover_k is not None:
        if mu.degree * cover_k > MAX_CURVE_DEGREE:  # refused before the cover is built
            raise BudgetExceeded(
                f"cover {cover_k} of a degree-{mu.degree} curve has degree "
                f"{mu.degree * cover_k}; curve-check takes at most "
                f"MAX_CURVE_DEGREE = {MAX_CURVE_DEGREE}"
            )
        zeros = (0,) * cover_k
        u = BinaryForm(x.field, cover_k, (1,) + zeros)
        w = BinaryForm(x.field, cover_k, zeros + (1,))
        mu = precompose(mu, (u, w))
    h0, h1 = tangent_cohomology(x, mu, args.twist)[-1]
    gate = degree_nonfree_gate(x.ci_type, mu.degree)
    return {
        "command": "curve-check",
        "problem": problem.echo,
        "twist": args.twist,
        "cover": cover_k,
        "curve_degree": mu.degree,
        "h0": h0,
        "h1": h1,
        "chi": h0 - h1,
        "free": h1 == 0 if args.twist == -1 else None,
        "convex_here": h1 == 0 if args.twist == 0 else None,
        "degree_gate": gate.verdict,
        "degree_sum": gate.degree_sum,
    }


def _cmd_gates(args) -> dict:
    try:
        degrees = tuple(int(d) for d in args.degrees.split(","))
    except ValueError as exc:
        raise ParseError(f"bad degrees: {exc}") from None
    rep = hypothesis_gates(args.N, degrees)
    gate = degree_nonfree_gate(CIType(args.N, degrees), 1)
    return {
        "command": "gates",
        "N": rep.n,
        "degrees": list(rep.degrees),
        "fano": rep.fano,
        "line_exists_iv": rep.line_exists_iv,
        "j_equals_i": rep.j_equals_i,
        "product_gt_2": rep.product_gt_2,
        "case": rep.case,
        "degree_sum_b1": gate.degree_sum,
        "degree_gate": gate.verdict,
    }


@functools.cache  # one parser per process; parse_args keeps no state in it
def build_parser() -> _Parser:
    parser = _Parser(prog="cilines", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify-example", help="rebuild a named family and verify the expected pair")
    p.add_argument("family", help="family spec, e.g. hyp-4-6 or quadrics-general:N=7,r=2")
    p.add_argument("--char", type=int, default=0, help="field characteristic (0 for Q)")
    p.add_argument("--seed", type=int, default=None, help="seed for c=sampled; refused otherwise")
    p.set_defaults(run=_cmd_verify_example)

    p = sub.add_parser("classify-line", help="freeness and splitting data of a given line")
    p.add_argument("problem")
    p.set_defaults(run=_cmd_classify_line)

    p = sub.add_parser("enumerate-lines", help="all F_q-rational lines on X")
    p.add_argument("problem")
    p.add_argument("--classify", action="store_true", help="add per-line freeness data")
    p.set_defaults(run=_cmd_enumerate_lines)

    p = sub.add_parser("curve-check", help="tangent cohomology along a given curve")
    p.add_argument("problem")
    p.add_argument("--twist", type=int, choices=(-1, 0), default=-1)
    p.add_argument(
        "--cover", type=_positive_int, default=None, help="precompose with (s^k, t^k), k >= 1"
    )
    p.set_defaults(run=_cmd_curve_check)

    p = sub.add_parser("gates", help="numeric hypothesis gates on (N, degrees)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--degrees", required=True, help="comma-separated degree list")
    p.set_defaults(run=_cmd_gates)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        report = args.run(args)
    except ParseError as exc:
        print(json.dumps({"error": "ParseError", "message": str(exc)}, sort_keys=True, indent=2))
        return 1
    except ToolkitError as exc:
        print(
            json.dumps(
                {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True, indent=2
            )
        )
        return 2
    print(json.dumps(report, sort_keys=True, indent=2))
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

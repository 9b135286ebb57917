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

Problem files are UTF-8 text, one 'key: value' per line, '#' comments.
Any other key, or a second copy of a key but form, is a parse error:

    field: F:7            # or Q
    N: 3
    degrees: 3            # comma-separated, one per form
    params: c1 c2         # optional symbolic parameters
    form: S^3 + T^3 + Z1^3 + Z2^3
    line: -1, 0 | 0, -1   # optional: a-row | b-row
    curve: s ; -1*s ; t ; -1*t    # optional: N+1 binary forms in s, t
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

from .bundles import (
    SplittingType,
    degree_nonfree_gate,
    normal_splitting_line,
    precompose,
    tangent_cohomology,
    tangent_splitting_from_normal,
)
from .chart import chart_variables, enumerate_lines_fq, nonfree_matrix
from .errors import (
    BudgetExceeded,
    LineNotContained,
    NotHomogeneous,
    ParameterPresent,
    ParseError,
    SingularAlongLine,
    ToolkitError,
)
from .exactmatrix import ExactMatrix
from .families import family_report, hypothesis_gates, parse_family_spec
from .fields import Field, RATIONALS, Value, field_from_str, prime_field, slot_setters
from .geometry import (
    CIType,
    CompleteIntersection,
    LineChartPoint,
    RationalCurve,
    ambient_variables,
)
from .multipoly import BinaryForm, MultiPoly, PolyRing
from .nonfree import SmoothnessReport, expected_pair_report
from .params import ParamRing
from .polytext import _NAME, parse_poly, read_terms


#: the largest N a problem file declares, refused before any name, ring or
#: line row is built. classify-line on S*Z1 + T*Z2 + Z3*Z4 over F_7 at the
#: standard line takes 0.35 s and 48 MB max RSS at N = 1024, and 1.1 s and
#: 145 MB at N = 2048, on one Xeon core (Python 3.11)
MAX_PROBLEM_N = 1024
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


class ProblemFile(Value):
    """A problem file as read, and the echo of it that a report prints."""

    __slots__ = ("field", "x", "line", "curve", "echo")

    field: Field
    x: CompleteIntersection
    line: LineChartPoint | None
    curve: RationalCurve | None
    echo: dict

    def __init__(
        self,
        field: Field,
        x: CompleteIntersection,
        line: LineChartPoint | None,
        curve: RationalCurve | None,
        echo: dict,
    ) -> None:
        _set_field(self, field)
        _set_x(self, x)
        _set_line(self, line)
        _set_curve(self, curve)
        _set_echo(self, echo)


_set_field, _set_x, _set_line, _set_curve, _set_echo = slot_setters(ProblemFile)


def _parse_curve_texts(texts: list[str], coeffs: ParamRing) -> RationalCurve:
    """Each component's raw sums (polytext.read_terms), reduced once, at the
    index of their t-power; the degree is that of the terms left."""
    field, k = coeffs.field, coeffs.k
    names, reduce = coeffs.names + ("s", "t"), field.reduce
    comps = []
    for text in texts:
        terms = {e: v for e, c in read_terms(text, names, field.p).items() if (v := reduce(c))}
        comps.append((terms, {e[k] + e[k + 1] for e in terms}))
    degs = sorted({min(d) for _, d in comps if len(d) == 1})
    if len(degs) != 1:
        raise ParseError(f"curve components must share one degree, got {degs}")
    b = degs[0]
    if b > MAX_CURVE_DEGREE:  # refused before its coefficient vectors are built
        raise BudgetExceeded(
            f"a curve of degree {b}; a problem file's curve has degree at most "
            f"MAX_CURVE_DEGREE = {MAX_CURVE_DEGREE}"
        )
    forms = []
    for terms, d in comps:
        if len(d) > 1 or k and any(any(e[:k]) for e in terms):
            ring = PolyRing(coeffs, ("s", "t"))
            poly = MultiPoly(ring, ring.flat.from_terms(terms))
            if len(d) > 1:
                raise NotHomogeneous(f"{poly} is not homogeneous")
            raise ParameterPresent(f"{poly} carries parameters")
        at = {e[k + 1]: v for e, v in terms.items()}  # by t-power
        forms.append(BinaryForm(field, b, tuple(at.get(j, field.zero) for j in range(b + 1))))
    return RationalCurve(tuple(forms))


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
                entries.append((key.strip(), val.strip()))
    except OSError as exc:
        raise ParseError(f"cannot read problem file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"problem file is not UTF-8 text: {exc}") from None

    data: dict[str, str] = {}
    forms: list[str] = []
    for key, val in entries:
        name = key.lower()
        if name == "form":
            forms.append(val)
        elif name not in ("field", "n", "degrees", "params", "line", "curve"):
            raise ParseError(
                f"unknown problem key {key!r}; the keys are field, N, degrees, params, form, line, curve"
            )
        elif name in data:
            raise ParseError(f"problem key {key!r} given twice; only form may repeat")
        else:
            data[name] = val

    missing = [k for k in ("field", "n", "degrees") if k not in data]
    if missing:
        raise ParseError(f"problem file lacks keys: {missing}")
    field = field_from_str(data["field"])
    try:
        n = int(data["n"])
        degrees = tuple(int(d) for d in data["degrees"].split(","))
    except ValueError as exc:
        raise ParseError(f"bad N or degrees: {exc}") from None
    if n > MAX_PROBLEM_N:
        raise BudgetExceeded(
            f"N = {n}; a problem file declares N of at most MAX_PROBLEM_N = {MAX_PROBLEM_N}"
        )
    if max(degrees) > MAX_FORM_DEGREE:  # refused before any form is read
        raise BudgetExceeded(
            f"a form of degree {max(degrees)}; a problem file declares degrees of at most "
            f"MAX_FORM_DEGREE = {MAX_FORM_DEGREE}"
        )
    params = tuple(data.get("params", "").split())
    bad = [c for c in dict.fromkeys(params) if params.count(c) > 1 or not re.fullmatch(_NAME, c)]
    if bad:
        raise ParseError(f"params {bad} are not distinct names {_NAME}; separate names by whitespace")
    avars, bvars = chart_variables(n)
    clash = [c for c in params if c in ("s", "t", *ambient_variables(n), *avars, *bvars)]
    if clash:
        raise ParseError(
            f"params {clash} are coordinate names: S, T, Z1..Z{n - 1}, s, t, "
            f"a1..a{n - 1} and b1..b{n - 1} are reserved"
        )
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
        "genericity_conditions": [str(c) for c in rep.genericity],
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


def _line_splitting(x: CompleteIntersection, m_h: ExactMatrix) -> SplittingType | None:
    """The normal splitting type of a line on X, from M(h) at the line;
    None when X is singular along the line, which then has none."""
    try:
        return normal_splitting_line(x, m_h)
    except SingularAlongLine:
        return None


def _tangent_pairs(tangent: SplittingType, k: int) -> list[int]:
    """[h^0, h^1] of a split bundle on the line twisted by k."""
    return [
        sum(max(0, a + k + 1) for a in tangent.entries),
        sum(max(0, -a - k - 1) for a in tangent.entries),
    ]


def _cmd_verify_example(args) -> dict:
    spec = parse_family_spec(args.family, args.seed)
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
        normal = _line_splitting(x, rep.matrix)
        out["smooth_along_line"] = normal is not None
        if normal is not None:
            tangent = tangent_splitting_from_normal(normal)
            out["normal_splitting"] = list(normal.entries)
            out["tangent_splitting"] = list(tangent.entries)
            out["tangent_h0_h1_twist_minus1"] = _tangent_pairs(tangent, -1)
            out["tangent_h0_h1_twist_0"] = _tangent_pairs(tangent, 0)
            out["routes_agree"] = (rep.corank == 0) == (normal.min_entry >= 0)
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
            nf = nonfree_matrix(x, at=ln)
            rank = nf.rank.rank
            entry = {
                "free": rank == x.ci_type.total_degree,
                "matrix_rank": rank,
            }
            normal = _line_splitting(x, nf.matrix)
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
    except ToolkitError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True, indent=2))
        return 1 if isinstance(exc, ParseError) else 2
    print(json.dumps(report, sort_keys=True, indent=2))
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Generators for the explicit families of expected pairs, and the
numeric hypothesis gates of the ambient classification argument.

Every family is built so that its forms lie in the ideal (Z1..Z{N-1}),
hence the standard line lies on the variety by construction, and so that
the matrix M(h) drops rank by exactly one there. The head of the leading
form encodes a linear functional with coefficients 1, c_1, ..., c_{d-1}
annihilating every restricted partial; the c_j stay symbolic by default
and can be sampled instead. Each form is written from its terms, one
coefficient per monomial, and made in one PolyRing.from_terms call.

Family names are frozen identifiers used by golden tests; new behaviour
gets a new name.
"""

from __future__ import annotations

import random
from typing import Literal, Mapping

from .errors import BudgetExceeded, CharTwoForbidden, ConstraintViolated, ParseError
from .fields import Field, Scalar, Value, slot_setters
from .geometry import CIType, CompleteIntersection, Line, ambient_variables
from .multipoly import MultiPoly, PolyRing
from .params import Exps, ParamRing, ParamScalar

FAMILY_NAMES = (
    "hyp-4-6",
    "hyp-general",
    "hyp-char-not-2",
    "mixed-general",
    "ci-4-3-P9",
    "quadrics-general",
)

CMode = Literal["symbolic", "sampled"]

#: largest N a family is built for; every degree is at most N - 2, so N
#: bounds the whole build. Measured on one core (Python 3.11), a
#: verify-example report at N = 64 takes up to 1.0 s (hyp-general, d=62)
#: and at N = 128 up to 6.7 s (d=126)
MAX_FAMILY_N = 64
#: seeds a sampled-mode report tries before it keeps a verdict other than
#: SmoothExpectedDim
SAMPLED_ATTEMPTS = 3


class FamilySpec(Value):
    __slots__ = ("name", "n", "degrees", "c_mode", "seed")

    name: str
    n: int | None
    degrees: tuple[int, ...] | None
    c_mode: CMode
    seed: int

    def __init__(
        self,
        name: str,
        n: int | None = None,
        degrees: tuple[int, ...] | None = None,
        c_mode: CMode = "symbolic",
        seed: int = 0,
    ) -> None:
        if name not in FAMILY_NAMES:
            raise ParseError(f"unknown family {name!r}; known: {FAMILY_NAMES}")
        if name == "hyp-4-6":
            n, degrees = 6, (4,)
        if name == "ci-4-3-P9":
            n, degrees = 9, (4, 3)
        if name.startswith("hyp-") and degrees is not None and len(degrees) != 1:
            raise ConstraintViolated(f"{name} needs N and d: one degree, not {len(degrees)}")
        if n is not None and n > MAX_FAMILY_N:
            raise BudgetExceeded(f"N = {n} exceeds MAX_FAMILY_N = {MAX_FAMILY_N}")
        _set_name(self, name)
        _set_n(self, n)
        _set_degrees(self, degrees)
        _set_c_mode(self, c_mode)
        _set_seed(self, seed)

    def __str__(self) -> str:
        opts = []
        if self.name in ("hyp-general", "hyp-char-not-2") and self.degrees:
            opts += [f"N={self.n}", f"d={self.degrees[0]}"]
        elif self.name == "mixed-general" and self.degrees:
            opts += [f"N={self.n}", "degrees=" + "+".join(map(str, self.degrees))]
        elif self.name == "quadrics-general" and self.degrees:
            opts += [f"N={self.n}", f"r={len(self.degrees)}"]
        opts.append(f"c={self.c_mode}")
        if self.c_mode == "sampled":
            opts.append(f"seed={self.seed}")
        return self.name + ":" + ",".join(opts)


_set_name, _set_n, _set_degrees, _set_c_mode, _set_seed = slot_setters(FamilySpec)


def parse_family_spec(text: str, seed: int | None = None) -> FamilySpec:
    """Parse 'name' or 'name:key=value,...' with keys N, d, degrees
    ('+'-separated), r, c (symbolic|sampled), seed; `seed`, when given,
    is one more seed key. A key given twice, more than one of d, degrees
    and r, a size key on a fixed family, a seed without c=sampled and any
    other key are refused (ParseError)."""
    text = text.strip()
    name, _, tail = text.partition(":")
    fixed = name in ("hyp-4-6", "ci-4-3-P9")
    known = ("c", "seed") if fixed else ("N", "d", "degrees", "r", "c", "seed")
    opts: dict[str, str] = {}
    if tail:
        for piece in tail.split(","):
            if "=" not in piece:
                raise ParseError(f"bad family option {piece!r}")
            key, val = (part.strip() for part in piece.split("=", 1))
            if key in opts:
                raise ParseError(f"family option {key!r} given twice")
            if key not in known:
                raise ParseError(f"{name} reads the keys {', '.join(known)}, not {key!r}")
            opts[key] = val
    if sum(key in opts for key in ("d", "degrees", "r")) > 1:
        raise ParseError("a family spec takes at most one of d, degrees and r")
    try:
        n = int(opts["N"]) if "N" in opts else None
        degrees: tuple[int, ...] | None = None
        if "d" in opts:
            degrees = (int(opts["d"]),)
        elif "degrees" in opts:
            degrees = tuple(int(x) for x in opts["degrees"].split("+"))
        elif "r" in opts:
            r = int(opts["r"])
            if r > MAX_FAMILY_N:  # refused before the tuple is built
                raise BudgetExceeded(f"r = {r} exceeds MAX_FAMILY_N = {MAX_FAMILY_N}")
            degrees = (2,) * r
        c_mode = opts.get("c", "symbolic")
        if c_mode not in ("symbolic", "sampled"):
            raise ParseError(f"bad c mode {c_mode!r}")
        if "seed" in opts and c_mode != "sampled":
            raise ParseError("a family spec reads seed only with c=sampled")
        if seed is None:
            seed = int(opts.get("seed", "0"))
        elif c_mode != "sampled":
            raise ParseError("--seed is read only with c=sampled")
        elif "seed" in opts:
            raise ParseError(f"seed={opts['seed']} in the family spec and --seed {seed} both")
    except ValueError as exc:
        raise ParseError(f"bad family option value: {exc}") from None
    return FamilySpec(name, n, degrees, c_mode, seed)  # type: ignore[arg-type]


class BuiltFamily(Value):
    __slots__ = ("spec", "x", "line", "notes", "c_values")

    spec: FamilySpec
    x: CompleteIntersection
    line: Line
    notes: tuple[str, ...]
    c_values: dict[str, Scalar] | None

    def __init__(
        self,
        spec: FamilySpec,
        x: CompleteIntersection,
        line: Line,
        notes: tuple[str, ...] = (),
        c_values: dict[str, Scalar] | None = None,
    ) -> None:
        _set_spec(self, spec)
        _set_x(self, x)
        _set_line(self, line)
        _set_notes(self, notes)
        _set_c_values(self, c_values)


_set_spec, _set_x, _set_line, _set_notes, _set_c_values = slot_setters(BuiltFamily)


def _require(cond: bool, inequality: str) -> None:
    if not cond:
        raise ConstraintViolated(f"family constraint violated: {inequality}")


def _coeff_ring(field: Field, spec: FamilySpec, n_params: int):
    """Symbolic parameters c_1..c_k, or sampled nonzero values."""
    if spec.c_mode == "symbolic":
        ring = ParamRing(field, tuple(f"c{j}" for j in range(1, n_params + 1)))
        values = None
    else:
        rng = random.Random(spec.seed)
        ring = ParamRing(field, ())
        values = {}
        for j in range(1, n_params + 1):
            if field.is_finite:
                values[f"c{j}"] = field.make(rng.randint(1, field.p - 1))
            else:
                values[f"c{j}"] = field.make(rng.randint(1, 10**6))
    return ring, values


def _mono(ring: PolyRing, s: int, t: int, *zs: int) -> Exps:
    """The exponents of S^s T^t Z_zs[0] Z_zs[1] ... in the ring's variables."""
    e = [s, t] + [0] * (ring.n - 2)
    for j in zs:
        e[j + 1] += 1
    return tuple(e)


def _hyp_head(ring: PolyRing, values, d: int, tail: Mapping[Exps, ParamScalar] = {}) -> MultiPoly:
    """Sum over j of (c_j S^{d-1} - S^{d-1-j} T^j) Z_j, plus the terms `tail`."""
    coeffs, terms = ring.coeffs, dict(tail)
    minus = -coeffs.one()
    for j in range(1, d):
        c = coeffs.var(f"c{j}") if values is None else coeffs.const(values[f"c{j}"])
        terms[_mono(ring, d - 1, 0, j)] = c
        terms[_mono(ring, d - 1 - j, j, j)] = minus
    return ring.from_terms(terms)


def _scroll(ring: PolyRing, d: int, start: int, tail: Mapping[Exps, ParamScalar] = {}) -> MultiPoly:
    """Sum over k < d of S^{d-1-k} T^k Z_{start+k}, plus the terms `tail`."""
    terms, one = dict(tail), ring.coeffs.one()
    for k in range(d):
        terms[_mono(ring, d - 1 - k, k, start + k)] = one
    return ring.from_terms(terms)


def _pair_sum(ring: PolyRing, t: int, lo: int, hi: int) -> dict[Exps, ParamScalar]:
    """T^t (Z_lo Z_{lo+1} + Z_{lo+2} Z_{lo+3} + ... ending at Z_{hi})."""
    return {_mono(ring, 0, t, j, j + 1): ring.coeffs.one() for j in range(lo, hi, 2)}


def _hyp_tail(ring: PolyRing, d: int, top: int) -> dict[Exps, ParamScalar]:
    """Quadric-in-Z tail occupying Z_d..Z_top, branching on the parity of
    the number of slots so that no coordinate is wasted."""
    if (top - d + 1) % 2 == 0:
        return _pair_sum(ring, d - 2, d, top)
    _require(d >= 3, "d >= 3")
    head = _mono(ring, 1, d - 3, d, d + 1)
    return {head: ring.coeffs.one(), **_pair_sum(ring, d - 2, d + 1, top)}


def build_family(spec: FamilySpec, field: Field) -> BuiltFamily:
    """Construct the named family over the given field."""
    notes: list[str] = []
    if spec.name == "quadrics-general":
        if spec.n is None or spec.degrees is None:
            raise ConstraintViolated("quadrics-general needs N and r")
        n, r = spec.n, len(spec.degrees)
        _require(r >= 2, "r >= 2")
        _require(2 * r <= n - 2, "2r <= N-2")
        _require(all(d == 2 for d in spec.degrees), "all d^i = 2")
        values = None
        ring = PolyRing(ParamRing(field, ()), ambient_variables(n))
        mid = 2 * r + (n - 2 * r) % 2  # Z_{2r} Z_{2r+1} goes to the second form when N is odd
        tail1, tail2 = _pair_sum(ring, 0, mid, n - 1), _pair_sum(ring, 0, 2 * r, mid)
        forms = [_scroll(ring, 2, 1, tail1), _scroll(ring, 2, 2, tail2)]
        forms += [_scroll(ring, 2, 2 * i - 2) for i in range(3, r + 1)]
        x = CompleteIntersection(CIType(n, (2,) * r), tuple(forms))
        if (n, r) == (7, 2):
            notes.append(
                "known discrepancy: this configuration is sometimes quoted "
                "with the derivative matrix at rank 8 alongside codimension 9; "
                "the smoothness criterion needs rank |d|+r+m = 9, and "
                "independent row reduction of the nine derivative rows gives 9"
            )

    else:  # the head-form families; a hyp-* family has one degree
        if spec.name == "ci-4-3-P9":
            notes.append(
                "the published middle term of h^2 reads T*Z7, which is not "
                "homogeneous of degree 3; the builder uses S*T*Z7, the form "
                "whose derivative rows match the published ones"
            )
        if spec.n is None or not spec.degrees:  # r=0 leaves no degree
            raise ConstraintViolated(f"{spec.name} needs N and degrees")
        n, degrees = spec.n, spec.degrees
        d1 = degrees[0]
        _require(d1 >= 3, "d^1 >= 3")
        _require(all(d >= 2 for d in degrees), "all d^i >= 2")
        _require(sum(degrees) <= n - 2, "|d| <= N-2")
        coeffs, values = _coeff_ring(field, spec, d1 - 1)
        ring = PolyRing(coeffs, ambient_variables(n))
        top1 = n - 1 - sum(degrees[1:])
        if spec.name == "hyp-char-not-2":
            if field.characteristic == 2:
                raise CharTwoForbidden("this tail squares coordinates; use hyp-general in characteristic 2")
            tail = {_mono(ring, 0, d1 - 2, j, j): coeffs.one() for j in range(d1, top1 + 1)}
        else:
            tail = _hyp_tail(ring, d1, top1)
        forms = [_hyp_head(ring, values, d1, tail)]
        for i in range(2, len(degrees) + 1):
            forms.append(_scroll(ring, degrees[i - 1], n - sum(degrees[i - 1 :])))
        x = CompleteIntersection(CIType(n, degrees), tuple(forms))

    line = Line.standard(field, x.n)
    return BuiltFamily(spec, x, line, tuple(notes), values)


# -- hypothesis gates ---------------------------------------------------------


CaseLabel = Literal["DegreeLE2-Homogeneous", "NonFreeLineViaJ", "NonFreeByDegreeBound"]


class HypothesisReport(Value):
    """Pure numeric flags on (N, degrees) and the case split they select."""

    __slots__ = ("n", "degrees", "fano", "line_exists_iv", "j_equals_i", "product_gt_2", "case")

    n: int
    degrees: tuple[int, ...]
    fano: bool                # |d| <= N
    line_exists_iv: bool      # 2N - 2 - r >= |d|
    j_equals_i: bool          # N <= |d|: every line on X is non-free
    product_gt_2: bool        # deg X > 2
    case: CaseLabel

    def __init__(
        self,
        n: int,
        degrees: tuple[int, ...],
        fano: bool,
        line_exists_iv: bool,
        j_equals_i: bool,
        product_gt_2: bool,
        case: CaseLabel,
    ) -> None:
        _set_gates_n(self, n)
        _set_gates_degrees(self, degrees)
        _set_fano(self, fano)
        _set_line_exists_iv(self, line_exists_iv)
        _set_j_equals_i(self, j_equals_i)
        _set_product_gt_2(self, product_gt_2)
        _set_case(self, case)


(
    _set_gates_n, _set_gates_degrees, _set_fano, _set_line_exists_iv, _set_j_equals_i,
    _set_product_gt_2, _set_case,
) = slot_setters(HypothesisReport)


def hypothesis_gates(n: int, degrees: tuple[int, ...]) -> HypothesisReport:
    if any(d < 1 for d in degrees) or not degrees:
        raise ConstraintViolated("degrees must be a nonempty list of positive integers")
    r = len(degrees)
    total = sum(degrees)
    product = 1
    for d in degrees:
        product *= d
    if product <= 2:
        case: CaseLabel = "DegreeLE2-Homogeneous"
    elif 2 * n - 2 - r >= total:
        case = "NonFreeLineViaJ"
    else:
        case = "NonFreeByDegreeBound"
    return HypothesisReport(
        n=n,
        degrees=tuple(degrees),
        fano=total <= n,
        line_exists_iv=2 * n - 2 - r >= total,
        j_equals_i=n <= total,
        product_gt_2=product > 2,
        case=case,
    )


def family_report(spec: FamilySpec, field: Field):
    """Build the family and run the expected-pair verdict; in sampled
    mode retry with successive seeds when the draw hits the certificate's
    zero set (up to SAMPLED_ATTEMPTS attempts)."""
    from .nonfree import expected_pair_report

    attempts = 1 if spec.c_mode == "symbolic" else SAMPLED_ATTEMPTS
    last = None
    for k in range(attempts):
        trial = FamilySpec(spec.name, spec.n, spec.degrees, spec.c_mode, spec.seed + k)
        built = build_family(trial, field)
        report = expected_pair_report(built.x, built.line)
        last = (built, report)
        if report.verdict == "SmoothExpectedDim":
            return last
    return last

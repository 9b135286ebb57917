"""Test-only reference: the family builder as cilines.families ran it
when each form was assembled from MultiPoly products, powers and sums,
kept verbatim to cross-check the builder that writes each form straight
from its terms. build_family here must give the same forms, notes and
sampled values as cilines.families.build_family.
"""

from __future__ import annotations

from cilines.errors import CharTwoForbidden, ConstraintViolated
from cilines.families import BuiltFamily, FamilySpec, _coeff_ring, _require
from cilines.fields import Field, Scalar
from cilines.geometry import CIType, CompleteIntersection, LineChartPoint, ambient_variables
from cilines.multipoly import MultiPoly, PolyRing
from cilines.params import ParamRing

from support import param


def _c(ring: PolyRing, values: dict[str, Scalar] | None, j: int) -> MultiPoly:
    if values is None:
        return param(ring, f"c{j}")
    return ring.const(ring.coeffs.const(values[f"c{j}"]))


def _hyp_head(ring: PolyRing, values, d: int) -> MultiPoly:
    """Sum over j of (c_j S^{d-1} - S^{d-1-j} T^j) Z_j."""
    s, t = ring.var("S"), ring.var("T")
    acc = ring.zero()
    for j in range(1, d):
        hj = _c(ring, values, j) * s ** (d - 1) - s ** (d - 1 - j) * t ** j
        acc = acc + hj * ring.var(f"Z{j}")
    return acc


def _pair_sum(ring: PolyRing, lo: int, hi: int) -> MultiPoly:
    """Z_lo Z_{lo+1} + Z_{lo+2} Z_{lo+3} + ... ending at Z_{hi}."""
    acc = ring.zero()
    j = lo
    while j < hi:
        acc = acc + ring.var(f"Z{j}") * ring.var(f"Z{j+1}")
        j += 2
    return acc


def _hyp_tail(ring: PolyRing, d: int, top: int) -> MultiPoly:
    """Quadric-in-Z tail occupying Z_d..Z_top, branching on the parity of
    the number of slots so that no coordinate is wasted."""
    s, t = ring.var("S"), ring.var("T")
    slots = top - d + 1
    if slots % 2 == 0:
        return t ** (d - 2) * _pair_sum(ring, d, top)
    _require(d >= 3, "d >= 3")
    head = s * t ** (d - 3) * ring.var(f"Z{d}") * ring.var(f"Z{d+1}")
    return head + t ** (d - 2) * _pair_sum(ring, d + 1, top)


def build_family(spec: FamilySpec, field: Field, force: bool = False) -> BuiltFamily:
    """Construct the named family over the given field.

    `force` is a test hook: it builds hyp-char-not-2 even over a field of
    characteristic 2, where the construction observably fails.
    """
    notes: list[str] = []
    if spec.name == "quadrics-general":
        if spec.n is None or spec.degrees is None:
            raise ConstraintViolated("quadrics-general needs N and r")
        n, r = spec.n, len(spec.degrees)
        _require(r >= 2, "r >= 2")
        _require(2 * r <= n - 2, "2r <= N-2")
        _require(all(d == 2 for d in spec.degrees), "all d^i = 2")
        coeffs = ParamRing(field, ())
        values = None
        ring = PolyRing(coeffs, ambient_variables(n))
        s, t = ring.var("S"), ring.var("T")
        z = lambda j: ring.var(f"Z{j}")
        if (n - 2 * r) % 2 == 1:
            tail1 = _pair_sum(ring, 2 * r + 1, n - 1)
            tail2 = z(2 * r) * z(2 * r + 1)
        else:
            tail1 = _pair_sum(ring, 2 * r, n - 1)
            tail2 = ring.zero()
        forms = [s * z(1) + t * z(2) + tail1, s * z(2) + t * z(3) + tail2]
        for i in range(3, r + 1):
            forms.append(s * z(2 * i - 2) + t * z(2 * i - 1))
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
        s, t = ring.var("S"), ring.var("T")
        top1 = n - 1 - sum(degrees[1:])
        if spec.name == "hyp-char-not-2":
            if field.characteristic == 2 and not force:
                raise CharTwoForbidden("this tail squares coordinates; use hyp-general in characteristic 2")
            if field.characteristic == 2:
                notes.append("forced build in characteristic 2; expected to fail the smoothness criterion")
            squares = (ring.var(f"Z{j}") * ring.var(f"Z{j}") for j in range(d1, top1 + 1))
            tail = t ** (d1 - 2) * sum(squares, ring.zero())
        else:
            tail = _hyp_tail(ring, d1, top1)
        forms = [_hyp_head(ring, values, d1) + tail]
        for i in range(2, len(degrees) + 1):
            di = degrees[i - 1]
            start = n - sum(degrees[i - 1 :])
            acc = ring.zero()
            for k in range(di):
                acc = acc + s ** (di - 1 - k) * t ** k * ring.var(f"Z{start + k}")
            forms.append(acc)
        x = CompleteIntersection(CIType(n, degrees), tuple(forms))

    line = LineChartPoint.standard(field, x.n)
    return BuiltFamily(spec, x, line, tuple(notes), values)

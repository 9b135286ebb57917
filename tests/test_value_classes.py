"""Value semantics of the package's value classes (cilines.fields.Value):
equality within one class from the compared fields, a hash that agrees
with it, fields that refuse assignment and deletion, pickle and copy,
the excluded fields left out of equality, hash and repr, and
construction by keyword with the defaults."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cilines.bundles import DegreeGateReport, SplittingType, degree_nonfree_gate
from cilines.chart import NonFreeMatrix, nonfree_matrix
from cilines.cli import ProblemFile
from cilines.exactmatrix import ExactMatrix, RankResult, rank_exact
from cilines.families import (
    BuiltFamily,
    FamilySpec,
    HypothesisReport,
    build_family,
    hypothesis_gates,
)
from cilines.fields import RATIONALS, Field, prime_field
from cilines.geometry import CIType, CompleteIntersection, Line, RationalCurve
from cilines.multipoly import BinaryForm, MultiPoly, PolyRing
from cilines.nonfree import LocalEquations, SmoothnessReport, expected_pair_report
from cilines.params import ParamRing, ParamScalar

from support import line_param, local_equations

F7 = prime_field(7)


def _family(name: str, *sizes) -> BuiltFamily:
    return build_family(FamilySpec(name, *sizes), RATIONALS)


def _pair_objects(built: BuiltFamily) -> dict[type, object]:
    """One instance of each class met on the way to a pair's report."""
    x, line = built.x, built.line
    nf = nonfree_matrix(x, at=line)
    return {
        BuiltFamily: built,
        FamilySpec: built.spec,
        CompleteIntersection: x,
        CIType: x.ci_type,
        MultiPoly: x.forms[0],
        PolyRing: x.ring,
        ParamRing: x.coeff_ring,
        Line: line,
        NonFreeMatrix: nf,
        ExactMatrix: nf.matrix,
        RankResult: nf.rank,
        SmoothnessReport: expected_pair_report(x, line),
        LocalEquations: local_equations(x, line),
        HypothesisReport: hypothesis_gates(x.n, x.ci_type.degrees),
        DegreeGateReport: degree_nonfree_gate(x.ci_type, 2),
        ProblemFile: ProblemFile(x.field, x, line, None, {"family": built.spec.name}),
    }


def _small_objects(p: int) -> dict[type, object]:
    field = prime_field(p)
    ring = ParamRing(field, ("c1",))
    return {
        Field: field,
        ParamScalar: ring.var("c1") + 1,
        BinaryForm: BinaryForm(field, 1, (1, 2)),
        RationalCurve: line_param(Line.chart(field, (1, 2), (3, 4))),
        SplittingType: SplittingType((p, 1)),
    }


def _instances() -> list[tuple[object, object, object]]:
    """(a, b, c) per value class: a and b built apart and equal, c unequal."""
    a = {**_pair_objects(_family("hyp-4-6")), **_small_objects(7)}
    b = {**_pair_objects(_family("hyp-4-6")), **_small_objects(7)}
    c = {**_pair_objects(_family("quadrics-general", 7, (2, 2))), **_small_objects(11)}
    return [(a[cls], b[cls], c[cls]) for cls in a]


CASES = _instances()
IDS = [type(a).__name__ for a, _, _ in CASES]


def test_every_value_class_is_covered():
    assert len(CASES) == 21  # the 20 former dataclasses still in use, and ParamScalar
    assert all(type(a) is type(b) is type(c) for a, b, c in CASES)


@pytest.mark.parametrize("a,b,c", CASES, ids=IDS)
def test_equal_values_compare_and_hash_equal(a, b, c):
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    if isinstance(a, ProblemFile):  # its echo is a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    # equality is within one class only
    other_class = CIType(6, (4,)) if isinstance(a, Field) else RATIONALS
    assert a.__eq__(object()) is NotImplemented and a.__eq__(other_class) is NotImplemented


@pytest.mark.parametrize("a,b,c", CASES, ids=IDS)
def test_fields_refuse_assignment_and_deletion(a, b, c):
    for name in type(a).__slots__:
        before = getattr(a, name, None)
        with pytest.raises(AttributeError):
            setattr(a, name, c)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name, None) is before
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == b


@pytest.mark.parametrize("a,b,c", CASES, ids=IDS)
def test_pickle_and_copy_rebuild_an_equal_value(a, b, c):
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is type(a) and twin == a and twin != c


def test_assignment_is_refused_without_asserts():
    """Under python -O too, which strips asserts."""
    code = (
        "from cilines.fields import RATIONALS\n"
        "from cilines.geometry import CIType\n"
        "for obj, name in ((RATIONALS, 'p'), (CIType(6, (4,)), 'degrees')):\n"
        "    for act in (lambda: setattr(obj, name, 5), lambda: delattr(obj, name)):\n"
        "        try:\n"
        "            act()\n"
        "        except AttributeError:\n"
        "            continue\n"
        "        raise SystemExit('changed ' + name)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_excluded_fields_stay_out_of_equality_hash_and_repr():
    r1, r2 = ParamRing(F7, ("c1",)), ParamRing(F7, ("c1",))
    assert r1.zero() is not r2.zero() and r1 == r2 and hash(r1) == hash(r2)
    assert repr(r1) == "ParamRing(field=Field(p=7), names=('c1',))"
    assert r1.k == 1
    ring = PolyRing(r1, ("x",))
    assert ring.flat.names == ("c1", "x")
    assert repr(ring) == f"PolyRing(coeffs={r1!r}, variables=('x',))"
    built = _family("hyp-4-6")
    n1 = nonfree_matrix(built.x, at=built.line)
    n2 = nonfree_matrix(built.x, at=built.line)
    assert n1 == n2 and hash(n1) == hash(n2)


def test_repr_and_patterns_read_the_compared_fields():
    assert repr(CIType(6, (4,))) == str(CIType(6, (4,))) == "CIType(ambient_dim=6, degrees=(4,))"
    matched = None
    match ParamRing(F7, ("c1",)):  # positional patterns read the compared fields
        case ParamRing(field, names):
            matched = (field, names)
    assert matched == (F7, ("c1",))
    assert repr(RATIONALS) == "Field(p=None)" and str(RATIONALS) == "Q"
    assert repr(SplittingType((1, 0))) == "SplittingType(entries=(1, 0))"


def test_keyword_construction_with_defaults():
    assert Field() == RATIONALS and Field().p is None
    assert ParamRing(F7).names == () and ParamRing(field=F7, names=("c1",)).k == 1
    spec = FamilySpec(name="hyp-general", n=9, degrees=(3,))
    assert (spec.c_mode, spec.seed) == ("symbolic", 0)
    assert FamilySpec("hyp-4-6", c_mode="sampled", seed=2) == FamilySpec(
        "hyp-4-6", 6, (4,), "sampled", 2
    )
    built = _family("hyp-4-6")
    bare = BuiltFamily(spec=built.spec, x=built.x, line=built.line)
    assert (bare.notes, bare.c_values) == ((), None)
    report = SmoothnessReport(verdict="NotContained", required_rank=3)
    assert (report.matrix, report.matrix_rank, report.corank, report.equations) == (None,) * 4
    assert (report.jacobian_rank, report.local_dimension, report.certificate) == (None,) * 3
    assert report.genericity == () and not report.contained
    one = ParamRing(F7).one()
    assert rank_exact(ExactMatrix(one.ring, 1, 1, (one,))) == RankResult(
        rank=1, certificate=one, pivot_rows=(0,), pivot_cols=(0,)
    )


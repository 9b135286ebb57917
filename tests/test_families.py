import pytest

from cilines.errors import CharTwoForbidden, ConstraintViolated, NotHomogeneous, ParseError
from cilines.families import (
    FamilySpec,
    build_family,
    hypothesis_gates,
    parse_family_spec,
)
from cilines.fields import RATIONALS, prime_field
from cilines.geometry import CIType, CompleteIntersection

import families_reference
from support import ci_4_3_p9_literal_forms


def test_hyp_4_6_is_the_worked_example():
    built = build_family(FamilySpec("hyp-4-6"), RATIONALS)
    assert (
        str(built.x.forms[0])
        == "c1*S^3*Z1 + c2*S^3*Z2 + c3*S^3*Z3 - S^2*T*Z1 - S*T^2*Z2 - T^3*Z3 + T^2*Z4*Z5"
    )
    assert built.x.ci_type == CIType(6, (4,))
    assert all(v == 0 for v in built.line.a + built.line.b)


def test_hyp_4_6_equals_hyp_general_6_4():
    a = build_family(FamilySpec("hyp-4-6"), RATIONALS)
    b = build_family(FamilySpec("hyp-general", 6, (4,)), RATIONALS)
    assert a.x.forms == b.x.forms


def test_hyp_char_not_2_squares_its_tail():
    built = build_family(FamilySpec("hyp-char-not-2", 9, (5,)), RATIONALS)
    assert [str(f) for f in built.x.forms] == [
        "c1*S^4*Z1 + c2*S^4*Z2 + c3*S^4*Z3 + c4*S^4*Z4 - S^3*T*Z1 - S^2*T^2*Z2"
        " - S*T^3*Z3 - T^4*Z4 + T^3*Z5^2 + T^3*Z6^2 + T^3*Z7^2 + T^3*Z8^2"
    ]
    assert built.x.ci_type == CIType(9, (5,)) and built.notes == ()


def test_quadrics_7_2_is_the_worked_example():
    built = build_family(FamilySpec("quadrics-general", 7, (2, 2)), RATIONALS)
    assert [str(f) for f in built.x.forms] == [
        "S*Z1 + T*Z2 + Z5*Z6",
        "S*Z2 + T*Z3 + Z4*Z5",
    ]


def test_quadrics_even_gap_and_extra_forms():
    built = build_family(FamilySpec("quadrics-general", 10, (2, 2, 2)), RATIONALS)
    forms = [str(f) for f in built.x.forms]
    assert forms[0] == "S*Z1 + T*Z2 + Z6*Z7 + Z8*Z9"  # N - 2r = 4, even branch
    assert forms[1] == "S*Z2 + T*Z3"
    assert forms[2] == "S*Z4 + T*Z5"


def test_mixed_9_4_3_middle_term():
    built = build_family(FamilySpec("mixed-general", 9, (4, 3)), RATIONALS)
    assert str(built.x.forms[1]) == "S^2*Z6 + S*T*Z7 + T^2*Z8"


def test_ci_4_3_p9_uses_homogeneous_middle_term_and_notes_it():
    built = build_family(FamilySpec("ci-4-3-P9"), RATIONALS)
    assert str(built.x.forms[1]) == "S^2*Z6 + S*T*Z7 + T^2*Z8"
    assert any("T*Z7" in note for note in built.notes)
    mixed = build_family(FamilySpec("mixed-general", 9, (4, 3)), RATIONALS)
    assert built.x.forms == mixed.x.forms


def test_ci_4_3_p9_literal_is_rejected_as_inhomogeneous():
    h1, h2 = ci_4_3_p9_literal_forms(RATIONALS)
    assert not h2.is_homogeneous(3)
    with pytest.raises(NotHomogeneous):
        CompleteIntersection(CIType(9, (4, 3)), (h1, h2))


def test_parity_branches_of_hyp_general():
    even = build_family(FamilySpec("hyp-general", 8, (4,)), RATIONALS)  # N-d = 4
    text = str(even.x.forms[0])
    assert "T^2*Z4*Z5" in text and "T^2*Z6*Z7" in text and "S*T*Z4*Z5" not in text
    odd = build_family(FamilySpec("hyp-general", 9, (4,)), RATIONALS)  # N-d = 5
    text = str(odd.x.forms[0])
    assert "S*T*Z4*Z5" in text and "T^2*Z5*Z6" in text and "T^2*Z7*Z8" in text


def test_constraint_violations_are_named():
    with pytest.raises(ConstraintViolated, match="d\\^1 >= 3"):
        build_family(FamilySpec("hyp-general", 6, (2,)), RATIONALS)
    with pytest.raises(ConstraintViolated, match="\\|d\\| <= N-2"):
        build_family(FamilySpec("hyp-general", 5, (4,)), RATIONALS)
    with pytest.raises(ConstraintViolated, match="d\\^1 >= 3"):
        build_family(FamilySpec("mixed-general", 9, (2, 2)), RATIONALS)
    with pytest.raises(ConstraintViolated, match="\\|d\\| <= N-2"):
        build_family(FamilySpec("mixed-general", 8, (4, 3)), RATIONALS)
    with pytest.raises(ConstraintViolated, match="r >= 2"):
        build_family(FamilySpec("quadrics-general", 7, (2,)), RATIONALS)
    with pytest.raises(ConstraintViolated, match="2r <= N-2"):
        build_family(FamilySpec("quadrics-general", 5, (2, 2)), RATIONALS)
    # r=0 leaves an empty degree list, which once escaped as an IndexError
    for name in ("hyp-general", "mixed-general"):
        with pytest.raises(ConstraintViolated, match="needs N and d"):
            build_family(parse_family_spec(f"{name}:N=8,r=0"), RATIONALS)


def test_char_two_gate():
    f2 = prime_field(2)
    with pytest.raises(CharTwoForbidden):
        build_family(FamilySpec("hyp-char-not-2", 6, (4,)), f2)
    forced = families_reference.build_family(FamilySpec("hyp-char-not-2", 6, (4,)), f2, force=True)
    assert any("characteristic 2" in n for n in forced.notes)
    # fine over other characteristics
    build_family(FamilySpec("hyp-char-not-2", 6, (4,)), prime_field(3))
    build_family(FamilySpec("hyp-char-not-2", 6, (4,)), prime_field(5))


def test_sampled_mode_is_reproducible():
    a = build_family(FamilySpec("hyp-4-6", c_mode="sampled", seed=3), RATIONALS)
    b = build_family(FamilySpec("hyp-4-6", c_mode="sampled", seed=3), RATIONALS)
    c = build_family(FamilySpec("hyp-4-6", c_mode="sampled", seed=4), RATIONALS)
    assert a.x.forms == b.x.forms
    assert a.x.forms != c.x.forms
    assert a.c_values is not None and all(v != 0 for v in a.c_values.values())


def test_family_spec_text_roundtrip():
    cases = [
        "hyp-4-6",
        "ci-4-3-P9",
        "hyp-general:N=8,d=3",
        "hyp-char-not-2:N=7,d=4",
        "mixed-general:N=9,degrees=4+3",
        "quadrics-general:N=7,r=2",
        "quadrics-general:N=7,r=2,c=sampled,seed=5",
    ]
    for text in cases:
        spec = parse_family_spec(text)
        again = parse_family_spec(str(spec))
        assert spec == again
    with pytest.raises(ParseError):
        parse_family_spec("no-such-family")
    with pytest.raises(ParseError):
        parse_family_spec("hyp-general:N=8,d=3,c=banana")


@pytest.mark.parametrize(
    "text,sampled",
    [
        ("hyp-general:N=6,d=4,seed=3", "hyp-general:N=6,d=4,c=sampled,seed=3"),
        ("hyp-4-6:seed=0", "hyp-4-6:seed=0,c=sampled"),
        ("ci-4-3-P9:c=symbolic,seed=2", "ci-4-3-P9:c=sampled,seed=2"),
    ],
)
def test_a_seed_without_sampled_mode_is_refused(text, sampled):
    """A symbolic family draws nothing, so a seed given to it would be dropped."""
    with pytest.raises(ParseError, match="seed only with c=sampled"):
        parse_family_spec(text)
    assert parse_family_spec(sampled).c_mode == "sampled"


@pytest.mark.parametrize(
    "n,degrees,fano,iv,jei,prod,case",
    [
        (6, (4,), True, True, False, True, "NonFreeLineViaJ"),
        (3, (5,), False, False, True, True, "NonFreeByDegreeBound"),
        (5, (2,), True, True, False, False, "DegreeLE2-Homogeneous"),
        (4, (2, 2), True, True, True, True, "NonFreeLineViaJ"),
        (3, (4,), False, False, True, True, "NonFreeByDegreeBound"),
    ],
)
def test_hypothesis_gates(n, degrees, fano, iv, jei, prod, case):
    rep = hypothesis_gates(n, degrees)
    assert rep.fano == fano
    assert rep.line_exists_iv == iv
    assert rep.j_equals_i == jei
    assert rep.product_gt_2 == prod
    assert rep.case == case


def test_gates_flags_are_definitional_not_exclusive():
    # N = |d| with small r: both the line-existence bound and J = I hold
    rep = hypothesis_gates(4, (2, 2))
    assert rep.line_exists_iv and rep.j_equals_i


def test_gates_reject_bad_degrees():
    with pytest.raises(ConstraintViolated):
        hypothesis_gates(4, (0, 2))


def _specs_up_to_16():
    """Every family at every N from its least to 16: each d for the hyp-*
    families (both tail parities), each pair of degrees for mixed-general,
    each r for quadrics-general (both parities of N - 2r)."""
    yield FamilySpec("hyp-4-6")
    yield FamilySpec("ci-4-3-P9")
    for n in range(5, 17):
        for d in range(3, n - 1):
            yield FamilySpec("hyp-general", n, (d,))
            yield FamilySpec("hyp-char-not-2", n, (d,))
            for d2 in range(2, n - 1 - d):
                yield FamilySpec("mixed-general", n, (d, d2))
        for r in range(2, n // 2):
            yield FamilySpec("quadrics-general", n, (2,) * r)


def test_forms_built_from_terms_match_the_arithmetic_reference():
    built = refused = 0
    for field in (RATIONALS, prime_field(2), prime_field(3)):
        for spec in _specs_up_to_16():
            for mode, seed in (("symbolic", 0), ("sampled", 1), ("sampled", 5), ("sampled", 9)):
                trial = FamilySpec(spec.name, spec.n, spec.degrees, mode, seed)
                if field.characteristic == 2 and spec.name == "hyp-char-not-2":
                    with pytest.raises(CharTwoForbidden):
                        build_family(trial, field)
                    refused += 1
                    continue
                got = build_family(trial, field)
                want = families_reference.build_family(trial, field)
                assert [f.flat.terms for f in got.x.forms] == [f.flat.terms for f in want.x.forms]
                assert [str(f) for f in got.x.forms] == [str(f) for f in want.x.forms]
                assert (got.x.ci_type, got.notes, got.c_values) == (want.x.ci_type, want.notes, want.c_values)
                built += 1
    assert (built, refused) == (4656, 312)  # 4968 specs; hyp-char-not-2 over F_2 is refused

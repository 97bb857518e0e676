"""Words, the operation builders, closed forms, and the named models."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from twoflags.atlas import enumerate_words
from twoflags.cli import draw_constants
from twoflags.ekr import (
    EkrSpec,
    Word,
    appendix_b_spec,
    bcd_chart,
    build_ekr,
    closed_form_F,
    closed_form_L,
    model,
    model_build,
    model_spec,
)
from twoflags.errors import (
    BadModelName,
    BadSyntax,
    ChartMismatch,
    ConstantNotAdmitted,
    IndexOutOfRange,
    RuleViolation,
)
from twoflags.exactalg import Poly, primitive_tuple
from twoflags.geometry import Chart, VectorField, annihilator_at, value_at

F = Fraction


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", ["1", "1.1", "1.2.1.3", "1.2.3.3", "1.2.2.1.3"])
def test_valid_words(text):
    assert str(Word.parse(text)) == text


@pytest.mark.parametrize("text", ["1.1.3", "2", "1.3", "3", "1.1.1.3"])
def test_rule_violations(text):
    with pytest.raises(RuleViolation):
        Word.parse(text)


@pytest.mark.parametrize("text", ["", "1..2", "1.a", "1,2", ".1", "1.02", "1.\u0662", "1.\u00b2", "1.+2"])
def test_bad_syntax(text):
    with pytest.raises(BadSyntax):
        Word.parse(text)


def test_letters_outside_alphabet():
    with pytest.raises(RuleViolation):
        Word.parse("1.2.3.4")
    with pytest.raises(RuleViolation):
        Word.parse("0")


def oracle_word_error(letters):
    """The message the least-upward-jumps rule gives for ``letters``, or None
    for a valid word: the running-maximum loop, kept as the reference."""
    if not letters:
        return "a word needs at least one letter"
    for letter in letters:
        if letter not in (1, 2, 3):
            return f"letter {letter} is outside the alphabet 1..3"
    if letters[0] != 1:
        return f"first letter must be 1, got {letters[0]}"
    running_max = 1
    for pos, letter in enumerate(letters[1:], start=2):
        if letter > running_max + 1:
            return f"letter {letter} at position {pos} jumps past {running_max + 1}"
        running_max = max(running_max, letter)
    return None


def test_word_validator_matches_the_running_maximum_oracle():
    checked = 0
    for length in range(7):
        for letters in itertools.product(range(5), repeat=length):
            expected = oracle_word_error(letters)
            if expected is None:
                assert Word(letters).letters == letters
            else:
                with pytest.raises(RuleViolation) as exc:
                    Word(letters)
                assert str(exc.value) == expected, letters
            checked += 1
    assert checked == 19531


@pytest.mark.parametrize(
    "letters, bad",
    [((True, 2), True), ((1.0, 2), 1.0), ((Fraction(1), 2, 3.0), Fraction(1)), ((1, 2, False), False)],
    ids=["bool", "float", "fraction", "late-bool"],
)
def test_word_rejects_a_letter_that_is_not_an_int(letters, bad):
    # each equals an int letter, so its word would equal a word of ints that prints otherwise
    with pytest.raises(RuleViolation, match=f"^letter {re.escape(repr(bad))} is not an int but a {type(bad).__name__}$"):
        Word(letters)


def test_word_prefix():
    word = Word.parse("1.2.1.3")
    assert str(word.prefix(2)) == "1.2"


@pytest.mark.parametrize("s", [True, 1.0, 0, -1, 4], ids=["bool", "float", "zero", "negative", "past-the-end"])
@pytest.mark.parametrize(
    "prefix",
    [
        lambda word, s: word.prefix(s),
        lambda word, s: EkrSpec(word).prefix(s),
        lambda word, s: build_ekr(EkrSpec(word)).prefix_build(s),
    ],
    ids=["Word.prefix", "EkrSpec.prefix", "EkrBuild.prefix_build"],
)
def test_prefix_length_is_an_int_from_one_to_the_length(prefix, s):
    # True would give the length-1 prefix, -1 would drop the last letter and 4 would give the whole word
    word = Word.parse("1.2.1")
    if type(s) is int:
        with pytest.raises(IndexOutOfRange, match=f"^prefix length {s} outside 1..3$"):
            prefix(word, s)
    else:
        with pytest.raises(ChartMismatch, match=f"^prefix length {s!r} is not an int but a {type(s).__name__}$"):
            prefix(word, s)


# ---------------------------------------------------------------------------
# Constants bookkeeping
# ---------------------------------------------------------------------------


def test_constants_admission():
    word = Word.parse("1.2.1.3")
    EkrSpec(word, b={1: F(1), 3: F(2)}, c={1: F(1), 2: F(2), 3: F(3)})
    with pytest.raises(ConstantNotAdmitted):
        EkrSpec(word, b={2: F(1)})  # op 2 admits no b
    with pytest.raises(ConstantNotAdmitted):
        EkrSpec(word, c={4: F(1)})  # op 3 admits no constants
    with pytest.raises(ConstantNotAdmitted):
        EkrSpec(word, b={9: F(1)})  # outside the word


def test_spec_rejects_float_constants():
    word = Word.parse("1.2")
    with pytest.raises(BadSyntax, match=r"inexact value 0\.3"):
        EkrSpec(word, {1: 0.3})
    with pytest.raises(BadSyntax, match=r"inexact value 0\.25"):
        EkrSpec(word, c={2: 0.25})


@pytest.mark.parametrize("step", ["\u0661", " 1 ", True, 1.0, "1_0"], ids=["arabic-indic", "spaces", "bool", "float", "underscore"])
def test_spec_rejects_a_step_that_is_not_an_int(step):
    # int() would move each of these to step 1, or "1_0" to step 10
    word = Word.parse("1.2.1.2.1.2.1.2.1.2")
    for kind in ("b", "c"):
        with pytest.raises(BadSyntax, match=f"^{kind} constant at step {re.escape(repr(step))}: a step is an int, not a {type(step).__name__}$"):
            EkrSpec(word, **{kind: {step: F(1)}})


def test_spec_json_roundtrip():
    spec = EkrSpec.from_json('{"word": "1.2.1.3", "b": {"3": "1/2"}, "c": {"3": "-2"}}')
    assert str(spec.word) == "1.2.1.3"
    assert spec.b_at(3) == F(1, 2)
    assert spec.c_at(3) == F(-2)
    assert spec.c_at(1) == 0
    assert EkrSpec.from_json(spec.to_json()) == spec


def test_spec_json_rejects_unknown_and_non_admitted():
    with pytest.raises(ConstantNotAdmitted):
        EkrSpec.from_json('{"word": "1.2", "d": {}}')
    with pytest.raises(ConstantNotAdmitted):
        EkrSpec.from_json('{"word": "1.2.1.3", "c": {"4": "5"}}')
    with pytest.raises(BadSyntax):
        EkrSpec.from_json('{"b": {}}')


@pytest.mark.parametrize("word", ["1.2", (1, 2), None])
def test_a_spec_takes_a_word(word):
    # text was taken, and build_ekr then failed on word.length with an AttributeError
    message = re.escape(f"spec word {word!r} is not a Word but a {type(word).__name__}: parse text with Word.parse")
    with pytest.raises(BadSyntax, match=message):
        EkrSpec(word)


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------


def test_build_single_letter():
    build = build_ekr(EkrSpec(Word.parse("1")))
    chart = build.chart
    n = chart.dim
    expected_lead = (
        VectorField.versor(chart, 0)
        + VectorField.versor(chart, chart.x_index(0)).scaled(Poly.variable(n, chart.x_index(1)))
        + VectorField.versor(chart, chart.y_index(0)).scaled(Poly.variable(n, chart.y_index(1)))
    )
    assert build.distribution.generators == (
        expected_lead,
        VectorField.versor(chart, chart.x_index(1)),
        VectorField.versor(chart, chart.y_index(1)),
    )


def test_leading_fields_depend_on_early_variables_only():
    spec = EkrSpec(Word.parse("1.2.1.3"), b={3: F(2)}, c={2: F(1, 2)})
    build = build_ekr(spec)
    for step, lead in enumerate(build.leading, start=1):
        top = build.chart.y_index(step)
        for index, comp in enumerate(lead.components):
            if index > top:
                assert comp.is_zero()
            for mono, _ in comp.terms.items():
                assert all(var <= top for var, _ in mono)


def test_jet_bundle_annihilated_by_pfaffian_system():
    # words 1, 1.1, ..., 1.1.1.1.1 with zero constants
    for r in range(1, 6):
        build = build_ekr(EkrSpec(Word((1,) * r)))
        chart = build.chart
        n = chart.dim
        expected = set()
        for j in range(r):
            for kind in ("x", "y"):
                coeffs = [Poly.zero(n) for _ in range(n)]
                coeffs[chart.index(f"{kind}{j}")] = Poly.const(n, 1)
                coeffs[0] = -Poly.variable(n, chart.index(f"{kind}{j + 1}"))
                expected.add(tuple(p.signature() for p in primitive_tuple(coeffs)))
        forms = annihilator_at(build.distribution, chart.origin())
        assert len(forms) == 2 * r
        computed = {tuple(p.signature() for p in form.coefficients) for form in forms}
        assert computed == expected


def test_build_family_D_matches_displayed_generators():
    b3, c3, c4 = F(1, 2), F(-2), F(5, 3)
    build = build_ekr(appendix_b_spec("D", b3, c3, c4))
    chart = build.chart
    n = chart.dim
    var = lambda name: Poly.variable(n, chart.index(name))
    versor = lambda name: VectorField.versor(chart, chart.index(name))
    inner = (
        (versor("t") + versor("x0").scaled(var("x1")) + versor("y0").scaled(var("y1"))).scaled(var("x2"))
        + versor("x1")
        + versor("y1").scaled(var("y2"))
        + versor("x2").scaled(var("x3") + b3)
        + versor("y2").scaled(var("y3") + c3)
    )
    lead = inner.scaled(var("x4")) + versor("x3") + versor("y3").scaled(var("y4") + c4)
    assert build.distribution.generators == (lead, versor("x4"), versor("y4"))


def test_build_family_E_matches_displayed_generators():
    b3, c3 = F(1, 2), F(-2)
    build = build_ekr(appendix_b_spec("E", b3, c3))
    chart = build.chart
    n = chart.dim
    var = lambda name: Poly.variable(n, chart.index(name))
    versor = lambda name: VectorField.versor(chart, chart.index(name))
    inner = (
        (versor("t") + versor("x0").scaled(var("x1")) + versor("y0").scaled(var("y1"))).scaled(var("x2"))
        + versor("x1")
        + versor("y1").scaled(var("y2"))
        + versor("x2").scaled(var("x3") + b3)
        + versor("y2").scaled(var("y3") + c3)
    )
    lead = inner.scaled(var("x4")) + versor("x3").scaled(var("y4")) + versor("y3")
    assert build.distribution.generators == (lead, versor("x4"), versor("y4"))


def oracle_build_ekr(spec):
    """The operations as whole-field arithmetic on (Z1, Z2, Z3): the leading
    fields and the final generators."""
    r = spec.word.length
    chart = Chart.for_length(r)
    n = chart.dim

    def versor(index):
        return VectorField.versor(chart, index)

    def coordinate(index):
        return Poly.variable(n, index)

    z1 = versor(0)
    z2 = versor(chart.x_index(0))
    z3 = versor(chart.y_index(0))
    leading = []
    for step, letter in enumerate(spec.word.letters, start=1):
        x_l = coordinate(chart.x_index(step))
        y_l = coordinate(chart.y_index(step))
        if letter == 1:
            shift_x = x_l + spec.b_at(step)
            shift_y = y_l + spec.c_at(step)
            z1 = z1 + z2.scaled(shift_x) + z3.scaled(shift_y)
        elif letter == 2:
            shift_y = y_l + spec.c_at(step)
            z1 = z1.scaled(x_l) + z2 + z3.scaled(shift_y)
        else:
            z1 = z1.scaled(x_l) + z2.scaled(y_l) + z3
        z2 = versor(chart.x_index(step))
        z3 = versor(chart.y_index(step))
        leading.append(z1)
    return tuple(leading), (z1, z2, z3)


def oracle_bcd_model(m, n):
    """The bcd generators as whole-field arithmetic."""
    chart = bcd_chart(m, n)
    dim = chart.dim
    lead = VectorField.versor(chart, chart.index("x0"))
    for i in range(1, m + 1):
        y_i = Poly.variable(dim, chart.index(f"y{i}"))
        lead = lead + VectorField.versor(chart, chart.index(f"x{i}")).scaled(y_i)
    return tuple([lead] + [VectorField.versor(chart, chart.index(f"y{j}")) for j in range(1, n + 1)])


def signatures(fields):
    return [field.signature() for field in fields]


def on_prefix_charts(leading):
    """The oracle's step-l field on Chart.for_length(l), for each l: every
    component past that chart is zero, and each one on it is rewrapped at
    arity 2l + 3 by Poly's constructor, which refuses a later variable."""
    fields = []
    for l, field in enumerate(leading, start=1):
        chart = Chart.for_length(l)
        n = chart.dim
        assert not any(c.terms for c in field.components[n:]), l
        fields.append(VectorField(chart, [Poly(n, c.terms) for c in field.components[:n]]))
    return fields


def test_build_matches_the_field_arithmetic_oracle():
    words = [word for r in range(1, 8) for word in enumerate_words(r)]
    assert len(words) == 550
    for word in words:
        for spec in (EkrSpec(word), draw_constants(word, random.Random(f"build|{word}"))):
            build = build_ekr(spec)
            leading, generators = oracle_build_ekr(spec)
            assert signatures(build.leading) == signatures(on_prefix_charts(leading)), spec
            assert signatures(build.distribution.generators) == signatures(generators), spec
    for n in range(1, 5):
        for m in range(1, n + 1):
            assert signatures(model("bcd", m=m, n=n).generators) == signatures(oracle_bcd_model(m, n)), (m, n)


def assert_canonical_support(field, n, label):
    """build_ekr forms its fields with VectorField._of and Poly._of, which
    check nothing: the support is in strictly increasing index order with no
    zero component, each Poly is of the chart's arity with canonical
    monomials, and each coefficient is canonical, an int when integral (a
    signature alone would pass Fraction(2, 1))."""
    indices = [j for j, _ in field.support]
    assert indices == sorted(set(indices)) and all(0 <= j < n for j in indices), label
    for j, comp in field.support:
        assert type(comp) is Poly and comp.arity == n and comp.terms, (label, j)
        for mono, coeff in comp.terms.items():
            variables = [var for var, _ in mono]
            assert variables == sorted(set(variables)) and all(0 <= var < n for var in variables), (label, j, mono)
            assert all(type(exp) is int and exp >= 1 for _, exp in mono), (label, j, mono)
            assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1), (label, j, coeff)
            assert coeff, (label, j, mono)


def test_the_unchecked_build_forms_canonical_supports():
    words = [word for r in range(1, 8) for word in enumerate_words(r)]
    assert len(words) == 550
    for word in words:
        for spec in (EkrSpec(word), draw_constants(word, random.Random(f"build|{word}"))):
            build = build_ekr(spec)
            for l, field in enumerate(build.leading, start=1):
                assert_canonical_support(field, 2 * l + 3, spec)
    # a gap of 40 letters 1 with seeded constants: Fraction coefficients on a long word
    for last in ("3", "2"):
        word = Word.parse(".".join(["1", "2"] + ["1"] * 40 + [last]))
        spec = draw_constants(word, random.Random(f"build|{word}"))
        assert spec.b and spec.c
        build = build_ekr(spec)
        leading, generators = oracle_build_ekr(spec)
        assert signatures(build.leading) == signatures(on_prefix_charts(leading)), spec
        assert signatures(build.distribution.generators) == signatures(generators), spec
        for l, field in enumerate(build.leading, start=1):
            assert_canonical_support(field, 2 * l + 3, spec)


def test_top_flag_member_is_the_stored_distribution():
    for r in range(1, 5):
        for word in enumerate_words(r):
            build = build_ekr(draw_constants(word, random.Random(f"top|{word}")))
            chart = build.chart
            assert build.flag_member(r) is build.distribution
            versors = [VectorField.versor(chart, chart.index(f"{kind}{r}")) for kind in "xy"]
            assert signatures(build.distribution.generators) == signatures([build.leading[-1], *versors])


def test_flag_member_takes_only_an_int():
    # True == 1 and 1.0 == 1, but neither is a member number
    build = build_ekr(EkrSpec(Word.parse("1.2.3")))
    for j in (True, 1.0, Fraction(1)):
        with pytest.raises(ChartMismatch, match=re.escape(f"flag member {j!r} is not an int but a {type(j).__name__}")):
            build.flag_member(j)
    # leading[0] lives on the length-1 chart; member 1 lifts it onto the build's
    n = build.chart.dim
    lifted = VectorField(build.chart, [Poly(n, c.terms) for c in build.leading[0].components] + [Poly.zero(n)] * (n - 5))
    assert build.flag_member(1).generators[0] == lifted


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_closed_form_F_rank():
    for r in range(1, 7):
        dist = closed_form_F(r)
        assert len(dist.generators) == 2 * r
        assert value_at(dist, dist.chart.origin()).dim == 2 * r


def test_closed_form_L_examples():
    dist = closed_form_L(1, 2)
    chart = dist.chart
    assert {g.components.index(next(c for c in g.components if not c.is_zero())) for g in dist.generators} == {
        chart.index("x2"),
        chart.index("y2"),
    }
    assert value_at(dist, chart.origin()).dim == 2


def test_closed_form_L_range():
    with pytest.raises(IndexOutOfRange):
        closed_form_L(0, 3)
    with pytest.raises(IndexOutOfRange):
        closed_form_L(3, 3)
    with pytest.raises(IndexOutOfRange):
        closed_form_F(0)


def test_closed_form_L_takes_only_an_int():
    # True == 1 would give L of member 1, and 2.0 would reach range()
    for j in (True, 2.0):
        with pytest.raises(ChartMismatch, match=re.escape(f"flag member {j!r} is not an int but a {type(j).__name__}")):
            closed_form_L(j, 4)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def test_model_ca2_components():
    dist = model("ca_2")
    chart = dist.chart
    n = chart.dim
    lead = dist.generators[0]
    expected = (
        VectorField.versor(chart, 0)
        + VectorField.versor(chart, chart.x_index(0)).scaled(Poly.variable(n, chart.x_index(1)))
        + VectorField.versor(chart, chart.y_index(0)).scaled(Poly.variable(n, chart.y_index(1)))
        + VectorField.versor(chart, chart.x_index(1)).scaled(Poly.variable(n, chart.x_index(2)))
        + VectorField.versor(chart, chart.y_index(1)).scaled(Poly.variable(n, chart.y_index(2)))
    )
    assert lead == expected


def test_model_ex2_components():
    dist = model("ex_2")
    chart = dist.chart
    n = chart.dim
    lead = dist.generators[0]
    core = (
        VectorField.versor(chart, 0)
        + VectorField.versor(chart, chart.x_index(0)).scaled(Poly.variable(n, chart.x_index(1)))
        + VectorField.versor(chart, chart.y_index(0)).scaled(Poly.variable(n, chart.y_index(1)))
    )
    expected = (
        core.scaled(Poly.variable(n, chart.x_index(2)))
        + VectorField.versor(chart, chart.x_index(1))
        + VectorField.versor(chart, chart.y_index(1)).scaled(Poly.variable(n, chart.y_index(2)))
    )
    assert lead == expected


def test_model_bcd_components():
    dist = model("bcd", m=2, n=3)
    chart = dist.chart
    assert chart.names == ("x0", "x1", "x2", "y1", "y2", "y3")
    lead = dist.generators[0]
    n = chart.dim
    expected = (
        VectorField.versor(chart, 0)
        + VectorField.versor(chart, 1).scaled(Poly.variable(n, chart.index("y1")))
        + VectorField.versor(chart, 2).scaled(Poly.variable(n, chart.index("y2")))
    )
    assert lead == expected
    assert len(dist.generators) == 4


def test_builds_behind_length_two_models():
    # both length-2 models are themselves zero-constant builds
    assert model_build("ex_2").distribution.generators == model("ex_2").generators
    assert model_build("ca_2").distribution.generators == model("ca_2").generators


def test_model_unknown_name():
    with pytest.raises(BadModelName):
        model("nope")


def test_model_constants_go_through_the_spec_parser():
    spec = model_spec("appxB_D", {"b": {"3": "1/2"}, "c": {3: F(-2), "4": "5/3"}})
    assert spec == appendix_b_spec("D", F(1, 2), F(-2), F(5, 3))
    assert appendix_b_spec("E", c4=F(0)) == model_spec("appxB_E")


@pytest.mark.parametrize(
    "name, constants",
    [
        ("ex_2", {"b": {"1": "2"}}),  # the word admits b1, the model does not
        ("ca_2", {"c": {"2": "1"}}),
        ("appxB_E", {"c": {"4": "5"}}),
        ("appxB_D", {"b": {"1": "1"}}),
        ("appxB_D", {"word": "1.2.1.3"}),
        ("appxB_D", {"d": {}}),
        ("bcd", {"b": {"1": "2"}}),
    ],
)
def test_model_rejects_constants_it_does_not_admit(name, constants):
    with pytest.raises(ConstantNotAdmitted):
        model(name, constants)


def test_appendix_family_E_rejects_a_nonzero_c4():
    with pytest.raises(ConstantNotAdmitted):
        appendix_b_spec("E", c4=F(1))
    with pytest.raises(BadModelName):
        appendix_b_spec("F")


@pytest.mark.parametrize(
    "data",
    [
        {"word": "1.2", "b": {"\u0661": "1"}},
        {"word": "1.2", "b": {"01": "1"}},
        {"word": "1.2", "b": {" 1": "1"}},
        {"word": "1.2", "b": ["1"]},
        ["1.2"],
        '{"word": "1.2", "c": {"1": "2", "1": "5"}}',
        '{"word": "1.2", "word": "1.1"}',
        '{"word": 1.10}',  # JSON reads the word as the float 1.1
        {"word": 12},
    ],
)
def test_spec_json_rejects_malformed_steps_and_shapes(data):
    with pytest.raises(BadSyntax):
        EkrSpec.from_json(data)


def test_builds_are_special_flags():
    from twoflags.geometry import big_flag

    rng = random.Random(17)
    for text in ("1", "1.2", "1.1.2", "1.2.3", "1.2.1.3"):
        word = Word.parse(text)
        for _ in range(2):
            spec = EkrSpec(
                word,
                b={l: F(rng.randint(-4, 4)) for l, j in enumerate(word.letters, 1) if j == 1},
                c={l: F(rng.randint(-4, 4), 3) for l, j in enumerate(word.letters, 1) if j in (1, 2)},
            )
            build = build_ekr(spec)
            tower = big_flag(build.distribution, build.chart.origin())
            ranks = [value_at(d, build.chart.origin()).dim for d in tower]
            assert ranks == list(range(3, build.chart.dim + 1, 2))

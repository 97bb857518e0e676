"""Sandwich and singularity classification, locus equations, report format."""

import json
import random
import re
from fractions import Fraction

import pytest

from twoflags.atlas import enumerate_words
from twoflags.classify import (
    SandwichWord,
    _ClosedGeometry,
    _closed_target,
    singularity_class_at,
    singularity_locus_equations,
)
from twoflags.cli import draw_constants
from twoflags.ekr import EkrSpec, Word, appendix_b_spec, build_ekr, closed_form_F, model, model_build
from twoflags.errors import BadSyntax, ChartMismatch, GeneratorBlowup, NotSpecialFlag
from twoflags.geometry import (
    DEFAULT_GENERATOR_CAP,
    Chart,
    Distribution,
    Subspace,
    VectorField,
    big_flag,
    lie_square,
    small_flag,
    small_flag_vectors_at,
    value_at,
)
from twoflags.exactalg import Poly, span_includes

from test_readoff import stress_point

F = Fraction


def random_spec(word: Word, seed) -> EkrSpec:
    return draw_constants(word, random.Random(f"classify-test|{seed}"))


# ---------------------------------------------------------------------------
# Sandwich classes
# ---------------------------------------------------------------------------


def test_sandwich_of_length_two_models():
    ca = model_build("ca_2")
    ex = model_build("ex_2")
    assert str(singularity_class_at(ca, ca.chart.origin()).sandwich) == "1.1"
    assert str(singularity_class_at(ex, ex.chart.origin()).sandwich) == "1.2"
    off = ex.chart.point(x2=1)
    assert str(singularity_class_at(ex, off).sandwich) == "1.1"


def test_sandwich_word_validation():
    with pytest.raises(Exception):
        SandwichWord((2, 1))


@pytest.mark.parametrize(
    "letters, bad",
    [((True, 2), True), ((1.0, 2.0), 1.0), ((Fraction(1), 2), Fraction(1)), ((1, 2, True), True)],
    ids=["bool", "float", "fraction", "late-bool"],
)
def test_sandwich_word_rejects_a_letter_that_is_not_an_int(letters, bad):
    # each equals an int letter, so its word would equal a word of ints that prints otherwise
    pattern = f"^sandwich letter {re.escape(repr(bad))} is not an int but a {type(bad).__name__}$"
    with pytest.raises(ChartMismatch, match=pattern):
        SandwichWord(letters)


def test_letter_one_correspondence_at_origin():
    # the sandwich word at the origin has letter 1 exactly where the label
    # does, for every word of length <= 4 (zero and one random draw)
    from twoflags.atlas import enumerate_words

    for r in range(1, 5):
        for word in enumerate_words(r):
            for spec in (EkrSpec(word), random_spec(word, str(word))):
                build = build_ekr(spec)
                sandwich = singularity_class_at(build, build.chart.origin()).sandwich
                assert [min(j, 2) for j in word.letters] == list(sandwich.letters)


# ---------------------------------------------------------------------------
# Singularity classes
# ---------------------------------------------------------------------------


def test_singular_model_class_at_points():
    ex = model_build("ex_2")
    assert str(singularity_class_at(ex, ex.chart.origin()).word) == "1.2"
    assert str(singularity_class_at(ex, ex.chart.point(x2=1)).word) == "1.1"
    assert str(singularity_class_at(ex, ex.chart.point(x2=F(-2, 3), y2=F(1))).word) == "1.1"


def test_family_D_report():
    spec = appendix_b_spec("D", b3=F(1, 2), c3=F(-2), c4=F(5, 3))
    build = build_ekr(spec)
    report = singularity_class_at(build, build.chart.origin())
    assert str(report.word) == "1.2.1.2"
    assert str(report.sandwich) == "1.2.1.2"
    (ev,) = report.evidence
    assert (ev.position, ev.nu, ev.l, ev.member, ev.included) == (4, 2, 1, 5, False)


def test_family_E_report():
    spec = appendix_b_spec("E", b3=F(1, 2), c3=F(-2))
    build = build_ekr(spec)
    report = singularity_class_at(build, build.chart.origin())
    assert str(report.word) == "1.2.1.3"
    (ev,) = report.evidence
    assert (ev.position, ev.nu, ev.l, ev.member, ev.included) == (4, 2, 1, 5, True)


def test_family_witness_vectors_in_small_flag():
    c4 = F(5, 3)
    build_d = build_ekr(appendix_b_spec("D", b3=F(1, 2), c3=F(-2), c4=c4))
    chart = build_d.chart
    origin = chart.origin()
    v5 = small_flag(build_d.distribution, 5)[4]
    v5_value = value_at(v5, origin)
    # d/dt + x1 d/dx0 + y1 d/dy0 + (c4 + y4) d/dy1 at the origin
    witness = [F(0)] * chart.dim
    witness[chart.index("t")] = F(1)
    witness[chart.index("y1")] = c4
    assert v5_value.contains_vector(witness)
    f_value = value_at(closed_form_F(4), origin)
    assert not f_value.contains_vector(witness)
    assert not f_value.includes(v5_value)

    build_e = build_ekr(appendix_b_spec("E", b3=F(1, 2), c3=F(-2)))
    v5e_value = value_at(small_flag(build_e.distribution, 5)[4], origin)
    assert f_value.includes(v5e_value)
    # the same inclusion via the raw matrix test
    assert span_includes(v5e_value.basis, f_value.basis)


def test_all_ones_word_classifies_everywhere():
    build = build_ekr(EkrSpec(Word.parse("1.1.1")))
    rng = random.Random(4)
    for _ in range(4):
        p = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(build.chart.dim))
        assert str(singularity_class_at(build, p).word) == "1.1.1"


@pytest.mark.parametrize("generic", [False, True])
def test_class_rejects_a_float_point(generic):
    # the length-1 closed route reads no flag value at the point
    build = build_ekr(EkrSpec(Word.parse("1")))
    with pytest.raises(BadSyntax, match=r"inexact value 0\.5"):
        singularity_class_at(build, (0, 0.5, 0, 0, 0), generic=generic)


@pytest.mark.parametrize("generic", [False, True])
@pytest.mark.parametrize("point", ["0000010", b"0000010", (0 for _ in range(7))], ids=["str", "bytes", "generator"])
def test_a_point_that_is_not_a_sequence_of_coordinates_is_refused(point, generic):
    # text was read a character per coordinate: "0000010" classified as 1.1 at
    # x2 = 1, and a generator raised a bare TypeError from len()
    build = build_ekr(EkrSpec(Word.parse("1.2")))
    message = re.escape(f"a point is a sequence of coordinates, not a {type(point).__name__}")
    with pytest.raises(ChartMismatch, match=message):
        singularity_class_at(build, point, generic=generic)
    with pytest.raises(ChartMismatch, match=message):
        value_at(build.distribution, point)
    # any other sequence is a point
    assert str(singularity_class_at(build, [0] * 7, generic=generic).word) == "1.2"


@pytest.mark.parametrize("generic", ["False", 1, 0.0, None])
def test_the_route_flag_is_a_bool(generic):
    # any truthy value took the generic route: "False" and 1 ran out of the
    # cap of 1 on it, while 0.0 classified on the closed route
    build = build_ekr(EkrSpec(Word.parse("1.1.1")))
    message = re.escape(f"generic {generic!r} is not a bool but a {type(generic).__name__}")
    with pytest.raises(ChartMismatch, match=message):
        singularity_class_at(build, build.chart.origin(), generic=generic, cap=1)


def test_a_length_zero_germ_has_no_class():
    # TM on a 3-dimensional chart: the tower is D^0 alone, with no Lie square to read
    chart = Chart(("a", "b", "c"))
    with pytest.raises(NotSpecialFlag, match="^chart dimension 3 carries a flag of length 0"):
        singularity_class_at(Distribution.frame(chart), chart.origin())


def test_a_germ_without_a_covariant_subdistribution_is_not_a_special_flag():
    # D = <X, d/dx2, d/dy2> with X = d/dt + (x1 + x2 y2) d/dx0 + (y1 + y1 y2) d/dy0 + x2 d/dx1 + y2 d/dy1
    # passes big_flag, but the covariant covectors of D^1 span only 2 dimensions
    chart = Chart.for_length(2)
    n = chart.dim
    u = {name: Poly.variable(n, chart.index(name)) for name in chart.names}
    components = [Poly.zero(n)] * n
    for name, component in (("t", Poly.const(n, 1)), ("x0", u["x1"] + u["x2"] * u["y2"]),
                            ("y0", u["y1"] + u["y1"] * u["y2"]), ("x1", u["x2"]), ("y1", u["y2"])):
        components[chart.index(name)] = component
    generators = (VectorField(chart, tuple(components)),) + tuple(
        VectorField.versor(chart, chart.index(name)) for name in ("x2", "y2")
    )
    dist = Distribution(chart, generators)
    for point in (chart.origin(), (0, -2, 0, 1, 2, 1, 1)):
        assert len(big_flag(dist, point)) == 3
        with pytest.raises(NotSpecialFlag, match="^covariant covector space has dimension 2, expected 3$"):
            singularity_class_at(dist, point, generic=True)


@pytest.mark.parametrize("r", [2, 3])
def test_a_first_square_that_is_not_locally_free_is_named(r):
    # D = <d0, d1 + u0 d3, d2 + u0 d4 + u0 u1 d5 + u3 d6 (+ u5 d7 + u6 d8)>:
    # [D, D] adds d3, d4 + u1 d5 and u0 (d5 + d6), so the first square has
    # rank 5 at the origin, as a special 2-flag's must, but rank 6 off u0 = 0
    chart = Chart.for_length(r)
    n = chart.dim
    u = [Poly.variable(n, i) for i in range(n)]
    versor = lambda i: VectorField.versor(chart, i)
    third = versor(2) + versor(4).scaled(u[0]) + versor(5).scaled(u[0] * u[1]) + versor(6).scaled(u[3])
    if r == 3:
        third = third + versor(7).scaled(u[5]) + versor(8).scaled(u[6])
    dist = Distribution(chart, (versor(0), versor(1) + versor(3).scaled(u[0]), third))
    square = lie_square(dist)
    assert value_at(square, chart.origin()).dim == 5
    assert value_at(square, chart.point(t=1)).dim == 6
    with pytest.raises(NotSpecialFlag, match="^Lie square number 1 is not locally free at the point$"):
        singularity_class_at(dist, chart.origin(), generic=True)


def test_generic_mode_agrees_on_models():
    for name in ("ca_2", "ex_2"):
        build = model_build(name)
        dist = model(name)
        origin = build.chart.origin()
        closed = singularity_class_at(build, origin)
        generic = singularity_class_at(dist, origin)
        assert closed.word == generic.word
        assert closed.sandwich.letters == generic.sandwich.letters


def test_generic_mode_agrees_on_appendix_families():
    for which, expected in (("D", "1.2.1.2"), ("E", "1.2.1.3")):
        spec = appendix_b_spec(which, b3=F(1, 3), c3=F(2), c4=F(-1) if which == "D" else F(0))
        build = build_ekr(spec)
        origin = build.chart.origin()
        generic = singularity_class_at(build, origin, generic=True)
        assert str(generic.word) == expected


def test_generic_mode_agrees_on_full_reports_up_to_length_four():
    # sandwich, word and refinement evidence of the two routes, for every word
    # of length <= 4 with seeded constants, at the origin and at a seeded
    # point with no zero coordinate
    from twoflags.atlas import enumerate_words

    for r in range(1, 5):
        for word in enumerate_words(r):
            build = build_ekr(random_spec(word, f"agree|{word}"))
            rng = random.Random(f"agree-point|{word}")
            point = tuple(
                F(rng.randint(1, 7), rng.randint(1, 5)) * rng.choice((1, -1)) for _ in range(build.chart.dim)
            )
            for p in (build.chart.origin(), point):
                closed = singularity_class_at(build, p)
                generic = singularity_class_at(build, p, generic=True)
                assert closed.to_json() == generic.to_json(), (str(word), p)


def test_generic_mode_agrees_on_full_reports_at_length_five():
    # every one of the 41 words of length 5: zero constants at the origin, and
    # seeded constants at a seeded point on the word's locus (x_k = 0 at the
    # letters 2 and 3, y_k = 0 at the letters 3, every other coordinate
    # nonzero), where the class is the word itself and the refinements run
    from twoflags.atlas import enumerate_words

    words = list(enumerate_words(5))
    assert len(words) == 41
    refined = 0
    for word in words:
        zero = build_ekr(EkrSpec(word))
        seeded = build_ekr(draw_constants(word, random.Random(f"locus|{word}")))
        rng = random.Random(f"locus-point|{word}")
        locus = [F(rng.randint(1, 7), rng.randint(1, 5)) * rng.choice((1, -1)) for _ in range(seeded.chart.dim)]
        for k, letter in enumerate(word.letters, start=1):
            if letter >= 2:
                locus[seeded.chart.index(f"x{k}")] = F(0)
            if letter == 3:
                locus[seeded.chart.index(f"y{k}")] = F(0)
        for build, point in ((zero, zero.chart.origin()), (seeded, tuple(locus))):
            closed = singularity_class_at(build, point)
            generic = singularity_class_at(build, point, generic=True)
            assert closed.to_json() == generic.to_json(), (str(word), point)
        assert closed.word == word, str(word)
        refined += bool(closed.evidence)
    assert refined == 36


def test_generic_mode_agrees_on_full_reports_at_length_six():
    # every one of the 122 words of length 6 at the origin with zero constants;
    # the generic towers are frames, so the whole sweep takes about 2 s
    from twoflags.atlas import enumerate_words

    words = list(enumerate_words(6))
    assert len(words) == 122
    for word in words:
        build = build_ekr(EkrSpec(word))
        origin = build.chart.origin()
        closed = singularity_class_at(build, origin)
        generic = singularity_class_at(build, origin, generic=True)
        assert closed.to_json() == generic.to_json(), str(word)


def test_generic_route_decides_with_a_cap_below_the_polynomial_last_square():
    # the frames D^3, D^2, D^1 of 1.2.3.3 come from squares of 5, 8 and 13
    # fields, and [D^1, D^1] of its frame of 9 has 22; the last square is
    # decided at the point, so only the squares that big_flag builds count
    # against the cap
    build = build_ekr(EkrSpec(Word.parse("1.2.3.3")))
    point = build.chart.origin()
    tower = big_flag(build.distribution, point)
    built = [len(lie_square(member).generators) for member in tower[:-2]]
    d1 = tower[-2]
    cap, square = max(built), len(lie_square(d1).generators)
    assert (built, len(d1.generators), square) == ([5, 8, 13], 9, 22)
    expected = singularity_class_at(build, point)
    for c in (cap, square - 1):
        assert singularity_class_at(build, point, generic=True, cap=c) == expected, c
    with pytest.raises(GeneratorBlowup):
        singularity_class_at(build, point, generic=True, cap=cap - 1)


@pytest.mark.parametrize("cap", [2.5, True, Fraction(3)], ids=["float", "bool", "fraction"])
@pytest.mark.parametrize("text, generic", [("1.1.1", False), ("1.2.2", False), ("1.1", True)])
def test_a_cap_that_is_not_an_int_is_refused_on_every_route_and_word(text, generic, cap):
    # closed 1.1.1 forms no generator, so the cap must be checked on entry, not where it bites
    build = build_ekr(EkrSpec(Word.parse(text)))
    pattern = f"^cap {re.escape(repr(cap))} is not an int but a {type(cap).__name__}$"
    with pytest.raises(ChartMismatch, match=pattern):
        singularity_class_at(build, build.chart.origin(), generic=generic, cap=cap)


@pytest.mark.parametrize("cap", [0, -3])
@pytest.mark.parametrize("text, generic", [("1.1.1", False), ("1.2.2", False), ("1.1", True)])
def test_a_cap_below_one_is_refused_on_every_route_and_word(text, generic, cap):
    # as the CLI refuses --cap 0: a bad argument, not a generator blowup, and
    # refused by closed 1.1.1 too, which forms no generator
    build = build_ekr(EkrSpec(Word.parse(text)))
    with pytest.raises(ChartMismatch, match=f"^cap must be >= 1, got {cap}$"):
        singularity_class_at(build, build.chart.origin(), generic=generic, cap=cap)


def test_report_json_shape():
    build = build_ekr(appendix_b_spec("E", b3=F(1), c3=F(1)))
    report = singularity_class_at(build, build.chart.origin())
    payload = json.loads(report.to_json_text())
    assert payload["word"] == "1.2.1.3"
    assert payload["sandwich"] == "1.2.1.2"
    assert payload["point"] == ["0"] * 11
    assert payload["evidence"] == [
        {"position": 4, "nu": 2, "l": 1, "member": "V_5", "included": True}
    ]


# ---------------------------------------------------------------------------
# Locus equations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1.2.1.3", ("x2=0", "x4=0", "y4=0")),
        ("1.1.1.1", ()),
        ("1.2.2.1", ("x2=0", "x3=0")),
        ("1.2.3.3", ("x2=0", "x3=0", "y3=0", "x4=0", "y4=0")),
    ],
)
def test_locus_equations(text, expected):
    assert singularity_locus_equations(Word.parse(text)) == expected


def test_truncated_refinement_matches_full_chart():
    # factoring out the variables past position s must change neither the
    # sandwich verdict (member 1 at s = nu = j) nor the refinement verdict:
    # compare the truncated small flag against the full-chart small flag of
    # the structural member, on length <= 3 words
    from twoflags.ekr import closed_form_L

    rng = random.Random(77)
    for text in ("1.2.2", "1.2.3", "1.1.2"):
        word = Word.parse(text)
        for seed in (0, 1):
            build = build_ekr(random_spec(word, f"{text}|{seed}"))
            chart = build.chart
            r = word.length
            points = [chart.origin()] + [
                tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(chart.dim))
                for _ in range(3)
            ]
            non_one = [pos for pos, j in enumerate(word.letters, 1) if j != 1]
            checks = [(j, j, 1) for j in range(2, r + 1)]
            checks += [(s, prev, 2 * (s - prev - 1) + 3) for prev, s in zip(non_one, non_one[1:])]
            for s, prev, member in checks:
                prefix = build.prefix_build(s)
                full = small_flag(build.flag_member(s), member)[-1]
                truncated = small_flag(prefix.distribution, member)[-1]
                for p in points:
                    target_full = value_at(
                        closed_form_F(r) if prev == 2 else closed_form_L(prev - 2, r), p
                    )
                    verdict_full = target_full.includes(value_at(full, p))
                    sub_point = p[: prefix.chart.dim]
                    target_trunc = value_at(
                        closed_form_F(s) if prev == 2 else closed_form_L(prev - 2, s), sub_point
                    )
                    verdict_trunc = target_trunc.includes(value_at(truncated, sub_point))
                    assert verdict_full == verdict_trunc, (text, s, member, p)


def test_closed_members_are_the_prefix_distributions():
    # flag member j of the closed route is the distribution of the length-j
    # prefix build, for every word of length 1-6 with zero and seeded constants
    from twoflags.atlas import enumerate_words

    checked = 0
    for r in range(1, 7):
        for word in enumerate_words(r):
            for spec in (EkrSpec(word), random_spec(word, f"members|{word}")):
                build = build_ekr(spec)
                geo = _ClosedGeometry(build, build.chart.origin(), DEFAULT_GENERATOR_CAP)
                for j in range(1, r + 1):
                    assert geo.member(j) == build.prefix_build(j).distribution, (str(word), j)
                    checked += 1
    assert checked == 2026


def test_closed_targets_hold_the_last_two_versors_of_their_chart():
    # the target of position nu is {v : v_i = 0 for i < 2 nu - 1} on chart
    # nu, its annihilator the unit covectors e_0, ..., e_(2 nu - 2).  So it
    # holds d/dx_nu and d/dy_nu, the premise of _ClosedGeometry.value, and on
    # every chart s >= nu those covectors cut out the target of nu, the
    # premise of testing a refinement's chart-s vectors against them
    for nu in range(2, 41):
        assert _closed_target(nu).basis.annihilator == tuple(((i, 1),) for i in range(2 * nu - 1)), nu


def test_leading_fields_use_only_the_variables_of_their_prefix_charts_up_to_length_seven():
    # build_ekr wraps the step-j leading field on Chart.for_length(j) with
    # VectorField._of and Poly._of, which check nothing: every component has
    # arity 2j + 3, and no component or variable lies past the chart.  The
    # 43-letter words 1.2.1^40.3 and 1.2.1^40.2, with zero constants and with
    # the seeded constants of the CI long-gap step, pin this past length 7
    specs = [
        spec
        for r in range(1, 8)
        for word in enumerate_words(r)
        for spec in (EkrSpec(word), random_spec(word, f"prefix-chart|{word}"))
    ]
    for last in (3, 2):
        word = Word((1, 2) + (1,) * 40 + (last,))
        b = {s: F(s % 7 + 1, s % 5 + 2) for s, letter in enumerate(word.letters, 1) if letter == 1}
        c = {s: -F(s % 3 + 1, s % 4 + 1) for s, letter in enumerate(word.letters, 1) if letter in (1, 2)}
        specs += [EkrSpec(word), EkrSpec(word, b, c)]
    checked = 0
    for spec in specs:
        build = build_ekr(spec)
        for j, lead in enumerate(build.leading, start=1):
            n = 2 * j + 3
            assert lead.chart == Chart.for_length(j), (str(spec.word), j)
            assert all(i < n and c.arity == n for i, c in lead.support), (str(spec.word), j)
            used = {var for _, c in lead.support for mono in c.terms for var, _ in mono}
            assert all(var < n for var in used), (str(spec.word), j, used)
            checked += 1
    assert checked == 2 * sum(r * len(enumerate_words(r)) for r in range(1, 8)) + 4 * 43


def test_classification_on_and_off_locus():
    # spot checks; the full length-4 sweep runs in the acceptance suite
    rng = random.Random(12)
    for text in ("1.2.1.2", "1.2.3"):
        word = Word.parse(text)
        build = build_ekr(random_spec(word, text))
        chart = build.chart
        locus_names = [eq.split("=")[0] for eq in singularity_locus_equations(word)]
        point = [F(rng.randint(1, 7), rng.randint(1, 5)) * rng.choice((1, -1)) for _ in range(chart.dim)]
        for name in locus_names:
            point[chart.index(name)] = F(0)
        assert singularity_class_at(build, tuple(point)).word == word
        # pushing one locus coordinate off zero lowers the letter at that position
        for name in locus_names:
            moved = list(point)
            moved[chart.index(name)] = F(1, 2)
            new_word = singularity_class_at(build, tuple(moved)).word
            position = int(name[1:])
            assert new_word.letters[position - 1] < word.letters[position - 1]


def test_pointwise_last_round_spans_the_small_flag_value_up_to_length_five():
    # V_k(p) from the values and 1-jets at p of V_(k-1)'s generators equals
    # the value of the polynomial V_k, for k = 2..2l+3 at every refinement
    # the classification makes, on closed members and generic tower members,
    # at the origin and at a stress point, with zero and seeded constants
    checked = 0
    for r in range(3, 6):
        for word in enumerate_words(r):
            for spec in (EkrSpec(word), random_spec(word, f"last-round|{word}")):
                build = build_ekr(spec)
                rng = random.Random(f"last-round-points|{word}")
                for point in (build.chart.origin(), stress_point(spec, rng)):
                    evidence = singularity_class_at(build, point).evidence
                    if not evidence:
                        continue
                    closed = _ClosedGeometry(build, point, DEFAULT_GENERATOR_CAP)
                    tower = big_flag(build.distribution, point)
                    for e in evidence:
                        for dist in (closed.member(e.position), tower[r - e.position]):
                            p = point[: dist.chart.dim]
                            for k in range(2, e.member + 1):
                                pointwise = Subspace.from_vectors(dist.chart.dim, list(small_flag_vectors_at(dist, k, p)))
                                assert pointwise == value_at(small_flag(dist, k)[-1], p), (str(spec.to_json()), point, e, k)
                                checked += 1
    assert checked == 1376
    with pytest.raises(ChartMismatch, match="steps must be >= 2"):
        next(small_flag_vectors_at(build.distribution, 1, build.chart.origin()))


def test_pointwise_last_two_rounds_span_the_small_flag_value_up_to_length_four():
    # V_k(p) from the 2-jets at p of V_(k-2)'s generators, bracketed to the
    # 1-jets that stand for V_(k-1), equals the value of the polynomial V_k
    # for k = 3..5, on every closed member and generic tower member, at the
    # origin, at a random point and at a random point with some zero
    # coordinates
    checked = 0
    for r in range(2, 5):
        for word in enumerate_words(r):
            build = build_ekr(EkrSpec(word))
            n = build.chart.dim
            rng = random.Random(f"two-rounds|{word}")
            points = [
                build.chart.origin(),
                tuple(F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(n)),
                tuple(F(rng.randint(-2, 2)) if rng.random() < 0.5 else F(0) for _ in range(n)),
            ]
            for point in points:
                closed = _ClosedGeometry(build, point, DEFAULT_GENERATOR_CAP)
                tower = big_flag(build.distribution, point)
                for j in range(1, r + 1):
                    for dist in (closed.member(j), tower[r - j]):
                        p = point[: dist.chart.dim]
                        for k in range(3, 6):
                            pointwise = Subspace.from_vectors(dist.chart.dim, list(small_flag_vectors_at(dist, k, p)))
                            assert pointwise == value_at(small_flag(dist, k)[-1], p), (str(word), point, j, k)
                            checked += 1
    assert checked == 1350


@pytest.mark.parametrize("last", ["3", "2"])
def test_pointwise_rounds_span_the_small_flag_value_after_a_gap_of_six(last):
    # V_15 of member 9 of 1.2.1^6.3 and 1.2.1^6.2, the refinement after a gap
    # l = 6, at the origin and at t = 1, y0 = 2, y1 = -1, where y1 enters the
    # leading fields, so the jets read terms that do not vanish at the point
    build = build_ekr(EkrSpec(Word.parse(".".join(["1", "2"] + ["1"] * 6 + [last]))))
    member = build.flag_member(9)
    n = build.chart.dim
    shifted = [F(0)] * n
    for name, value in (("t", 1), ("y0", 2), ("y1", -1)):
        shifted[build.chart.index(name)] = F(value)
    for p in (build.chart.origin(), tuple(shifted)):
        pointwise = Subspace.from_vectors(n, list(small_flag_vectors_at(member, 15, p)))
        assert pointwise == value_at(small_flag(member, 15)[-1], p), p

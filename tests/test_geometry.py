"""Brackets, flags, exterior derivatives and the pointwise Cauchy and
covariant subspaces, checked against hand computations, closed forms and
dense oracles.

The length-6 sweeps of the Cauchy and covariant targets against the dense
pairing oracle, at the origin and at stress points, run when the environment
variable TWOFLAGS_GENERIC_LEN6 is set."""

import gc
import hashlib
import os
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twoflags.geometry as geometry
from twoflags.atlas import enumerate_words
from twoflags.classify import _ClosedGeometry, singularity_class_at
from twoflags.cli import draw_constants, run_verification
from twoflags.ekr import EkrSpec, Word, build_ekr, closed_form_F, closed_form_L, model
from twoflags.errors import (
    BadSyntax,
    ChartMismatch,
    GeneratorBlowup,
    NotSpecialFlag,
    TwoflagsError,
    UnexpectedCovariantDimension,
)
from twoflags.exactalg import (
    Poly,
    RationalMatrix,
    column_space_basis,
    parse_rational,
    polynomial_nullspace,
    primitive_tuple,
    rank_and_nullspace,
    _independent,
    _integer_rows,
)
from twoflags.geometry import (
    DEFAULT_GENERATOR_CAP,
    Chart,
    Distribution,
    OneForm,
    Subspace,
    VectorField,
    annihilator_at,
    big_flag,
    cauchy_char_at,
    covariant_at,
    lie_bracket,
    lie_square,
    small_flag,
    small_flag_vectors_at,
    value_at,
    _Dedup,
    _bracket_value,
    _integral,
    _integer_gradient,
    _integer_pairing,
)

from test_readoff import stress_point

F = Fraction


def flag_point(chart: Chart, rng: random.Random) -> tuple:
    return tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(chart.dim))


def versor_subspace(chart: Chart, names: list[str]) -> Subspace:
    dim = chart.dim
    cols = []
    for name in names:
        vec = [F(0)] * dim
        vec[chart.index(name)] = F(1)
        cols.append(tuple(vec))
    return Subspace.from_vectors(dim, cols)


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------


def test_flag_chart_layout():
    chart = Chart.for_length(2)
    assert chart.names == ("t", "x0", "y0", "x1", "y1", "x2", "y2")
    assert chart.dim == 7 and chart.length == 2
    # x_k and y_k sit at 2k + 1 and 2k + 2
    assert all(chart.index(f"x{k}") == 2 * k + 1 and chart.index(f"y{k}") == 2 * k + 2 for k in range(3))


def test_one_chart_and_one_versor_tuple_per_length():
    # builds and closed members of one length share their chart and versors,
    # so the versors' occurrence tables are worked out once
    for r in range(1, 7):
        assert Chart.for_length(r) is Chart.for_length(r)
        assert Chart.for_length(r) == Chart(Chart.for_length(r).names)
    builds = [build_ekr(EkrSpec(Word.parse(text), b)) for text, b in (("1.2.1.3", {}), ("1.1.2.1", {4: F(2, 7)}))]
    assert builds[0].chart is builds[1].chart is Chart.for_length(4)
    for j in range(1, 5):
        flag_members = [build.flag_member(j) for build in builds]
        closed_members = [_ClosedGeometry(build, build.chart.origin(), DEFAULT_GENERATOR_CAP).member(j) for build in builds]
        assert closed_members[0].chart is Chart.for_length(j)
        for first, second in (flag_members, closed_members):
            assert first.chart is second.chart
            assert len(first.generators) == len(second.generators) > 1
            assert all(a is b for a, b in zip(first.generators[1:], second.generators[1:])), j
    versor = builds[0].distribution.generators[1]
    assert versor.occurrences is builds[1].distribution.generators[1].occurrences


def test_point_builder():
    chart = Chart.for_length(1)
    p = chart.point(x1=F(1, 2))
    assert p == (0, 0, 0, F(1, 2), 0)
    with pytest.raises(ChartMismatch):
        chart.point(x9=1)


@pytest.mark.parametrize(
    "make",
    [
        lambda chart: chart.point(x1=0.5),
        lambda chart: VectorField.versor(chart, 0).eval_at((0, 0, 0, 0.5, 0)),
        lambda chart: value_at(Distribution(chart, (VectorField.versor(chart, 0),)), (0, 0, 0, 0.5, 0)),
        lambda chart: Poly.variable(2, 0).eval_at((0.5, 0)),
        lambda chart: Poly.variable(3, 1).jet_at((0, 0.5, 0), 0),
        lambda chart: polynomial_nullspace([[Poly.variable(2, 0)], [Poly.const(2, 1)]], (0.5, 0)),
    ],
    ids=["Chart.point", "VectorField.eval_at", "value_at", "Poly.eval_at", "Poly.jet_at", "polynomial_nullspace"],
)
def test_points_reject_floats(make):
    with pytest.raises(BadSyntax, match=r"inexact value 0\.5"):
        make(Chart.for_length(1))


@pytest.mark.parametrize(
    "make",
    [
        lambda: RationalMatrix.from_rows([[0.1, 1]]),
        lambda: RationalMatrix.from_columns([(0.1, 1)]),
        lambda: Subspace.from_vectors(2, [(0.1, 1)]),
        lambda: RationalMatrix(2, 1, (0.1, 1)),
        lambda: column_space_basis([(0.1, 1)], 2),
    ],
    ids=[
        "RationalMatrix.from_rows",
        "RationalMatrix.from_columns",
        "Subspace.from_vectors",
        "RationalMatrix",
        "column_space_basis",
    ],
)
def test_pointwise_matrices_reject_floats(make):
    with pytest.raises(BadSyntax, match=r"inexact value 0\.1"):
        make()


@pytest.mark.parametrize(
    "make, value",
    [
        (lambda chart: chart.point(t=True), True),
        (lambda chart: Poly.const(3, True), True),
        (lambda chart: VectorField.versor(chart, 0).eval_at((True, 0, 0, 0, 0)), True),
        (lambda chart: Poly(3, {((0, 1),): 2}).eval_at((True, 0, 0)), True),
        (lambda chart: Poly(3, {((0, 1),): 2}).jet_at((True, 0, 0), 1), True),
        (lambda chart: (Poly.variable(3, 0) * Poly.variable(3, 1)).jet_at((0, True, 0), 2), True),
        (lambda chart: EkrSpec(Word.parse("1"), {1: True}), True),
        (lambda chart: EkrSpec(Word.parse("1"), c={1: False}), False),
    ],
    ids=[
        "Chart.point", "Poly.const", "VectorField.eval_at", "Poly.eval_at", "Poly.jet_at",
        "Poly.jet_at-after-a-vanishing-factor", "EkrSpec-b", "EkrSpec-c",
    ],
)
def test_a_bool_is_not_a_rational(make, value):
    # True == 1, so Fraction(True) is 1; every int argument already refuses it
    with pytest.raises(BadSyntax, match=f"^bool value {value}: "):
        make(Chart.for_length(1))


@pytest.mark.parametrize(
    "coefficients, j",
    [
        ((1, 2, 3, 4, 5), 0),
        (tuple(Poly.variable(7, i) for i in range(5)), 0),
        ((Poly.zero(5),) * 4 + (Poly.variable(7, 6),), 4),
    ],
    ids=["ints", "arity-7", "last-of-arity-7"],
)
def test_a_one_form_checks_its_coefficients(coefficients, j):
    with pytest.raises(ChartMismatch, match=f"^coefficient {j} is not a polynomial on the 5-dimensional chart$"):
        OneForm(Chart.for_length(1), coefficients)


# each entry point that admits a rational from text, on the text
RATIONAL_TEXT_ENTRIES = {
    "EkrSpec": lambda text: EkrSpec(Word.parse("1.1"), {1: text}).b[1],
    "EkrSpec.from_json": lambda text: EkrSpec.from_json({"word": "1.1", "b": {"1": text}}).b[1],
    "Chart.point": lambda text: Chart.for_length(1).point(t=text)[0],
    "Poly": lambda text: Poly(2, {(): text}).terms[()],
    "RationalMatrix.from_rows": lambda text: RationalMatrix.from_rows([[text, 1]]).at(0, 0),
}


@pytest.mark.parametrize("entry", RATIONAL_TEXT_ENTRIES)
@pytest.mark.parametrize("text", ["1e3", "0.1", " 1_0 ", "1e2", "2/0", "9" * 5000], ids=lambda t: t if len(t) < 9 else f"{len(t)} digits")
def test_rational_text_has_the_one_grammar_of_parse_rational(entry, text):
    # Fraction() would take "1e3" as 1000, "0.1" as 1/10 and "1_0" as 10, and
    # refuse 5,000 digits without naming the bound
    with pytest.raises(ValueError) as refused:
        parse_rational(text)
    with pytest.raises(BadSyntax, match=f"^{re.escape(str(refused.value))}$"):
        RATIONAL_TEXT_ENTRIES[entry](text)


@pytest.mark.parametrize("entry", RATIONAL_TEXT_ENTRIES)
def test_rational_text_in_the_grammar_still_parses(entry):
    assert RATIONAL_TEXT_ENTRIES[entry]("3/4") == F(3, 4)
    assert RATIONAL_TEXT_ENTRIES[entry]("-2") == -2


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: RationalMatrix(-1, -1, (1,)), "rows must be >= 0, got -1"),
        (lambda: RationalMatrix(0, -5, ()), "cols must be >= 0, got -5"),
        (lambda: RationalMatrix(True, 1, (1,)), "rows True is not an int but a bool"),
        (lambda: RationalMatrix.from_columns([], ambient=-2), "rows must be >= 0, got -2"),
        (lambda: Subspace.from_vectors(-2, []), "rows must be >= 0, got -2"),
    ],
    ids=["negative", "negative cols", "bool rows", "from_columns", "Subspace.from_vectors"],
)
def test_matrix_dimensions_are_ints_at_least_zero(make, message):
    with pytest.raises(ChartMismatch, match=f"^{message}$"):
        make()


# ---------------------------------------------------------------------------
# Lie brackets
# ---------------------------------------------------------------------------


def test_bracket_self_is_zero():
    chart = Chart.for_length(1)
    n = chart.dim
    x = VectorField(
        chart,
        tuple(Poly.variable(n, (i + 1) % n) * Poly.variable(n, i) for i in range(n)),
    )
    assert lie_bracket(x, x).is_zero()


def test_bracket_constant_coefficient():
    # [d/dx1, x1 d/dt] = d/dt
    chart = Chart.for_length(1)
    n = chart.dim
    dx1 = VectorField.versor(chart, chart.index("x1"))
    x1_dt = VectorField.versor(chart, 0).scaled(Poly.variable(n, chart.index("x1")))
    assert lie_bracket(dx1, x1_dt) == VectorField.versor(chart, 0)


def test_bracket_with_singular_model_lead():
    # bracketing d/dx2 against the lead of the singular length-2 model
    # recovers d/dt + x1 d/dx0 + y1 d/dy0
    dist = model("ex_2")
    chart = dist.chart
    n = chart.dim
    dx2 = VectorField.versor(chart, chart.index("x2"))
    bracket = lie_bracket(dx2, dist.generators[0])
    expected = (
        VectorField.versor(chart, 0)
        + VectorField.versor(chart, chart.index("x0")).scaled(Poly.variable(n, chart.index("x1")))
        + VectorField.versor(chart, chart.index("y0")).scaled(Poly.variable(n, chart.index("y1")))
    )
    assert bracket == expected


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def fields(draw, chart=Chart.for_length(1), max_terms=2, max_exp=2):
    n = chart.dim
    comps = []
    for _ in range(n):
        terms = {}
        for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
            exps = draw(st.lists(st.integers(min_value=0, max_value=max_exp), min_size=n, max_size=n))
            if sum(exps) > 3:
                exps = [0] * n
            mono = tuple((v, e) for v, e in enumerate(exps) if e > 0)
            terms[mono] = draw(coeffs)
        comps.append(Poly(n, terms))
    return VectorField(chart, tuple(comps))


@settings(max_examples=100, deadline=None)
@given(fields(), fields())
def test_bracket_antisymmetry(x, y):
    assert lie_bracket(x, y) == -lie_bracket(y, x)


@settings(max_examples=100, deadline=None)
@given(fields(max_terms=1), fields(max_terms=1), fields(max_terms=1))
def test_jacobi_identity(x, y, z):
    total = (
        lie_bracket(x, lie_bracket(y, z))
        + lie_bracket(y, lie_bracket(z, x))
        + lie_bracket(z, lie_bracket(x, y))
    )
    assert total.is_zero()


@settings(max_examples=100, deadline=None)
@given(fields(), fields())
def test_bracket_leibniz(x, y):
    f = Poly.variable(x.chart.dim, 1) * Poly.variable(x.chart.dim, 3) + Poly.const(x.chart.dim, 2)
    lhs = lie_bracket(x, y.scaled(f))
    rhs = lie_bracket(x, y).scaled(f) + y.scaled(x.apply_to(f))
    assert lhs == rhs


def dense_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X,Y] from all n^2 partial derivatives of both fields, skipping nothing."""
    n = x.chart.dim
    comps = []
    for j in range(n):
        out = Poly.zero(n)
        for i in range(n):
            out = out + x.components[i] * y.components[j].partial(i) - y.components[i] * x.components[j].partial(i)
        comps.append(out)
    return VectorField(x.chart, tuple(comps))


@st.composite
def sparse_components(draw, chart=Chart.for_length(2)):
    """Components with many zeros and some constants (no variable at all)."""
    n = chart.dim
    comps = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "zero", "constant", "poly"]))
        if kind == "zero":
            comps.append(Poly.zero(n))
        elif kind == "constant":
            comps.append(Poly.const(n, draw(coeffs.filter(bool))))
        else:
            terms = {}
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                variables = draw(st.sets(st.integers(0, n - 1), max_size=3))
                mono = tuple((v, draw(st.integers(1, 2))) for v in sorted(variables))
                terms[mono] = draw(coeffs)
            comps.append(Poly(n, terms))
    return tuple(comps)


@st.composite
def sparse_fields(draw, chart=Chart.for_length(2)):
    """Fields of sparse_components."""
    return VectorField(chart, draw(sparse_components(chart)))


@settings(max_examples=200, deadline=None)
@given(sparse_components(), sparse_fields(), st.lists(st.sampled_from((F(0), F(1), F(-2), F(1, 3))), min_size=7, max_size=7))
def test_a_field_is_its_support_and_its_value_is_that_of_its_components(comps, other, point):
    chart = Chart.for_length(2)
    field = VectorField(chart, comps)
    assert field.support == tuple((j, comp) for j, comp in enumerate(comps) if comp.terms)
    assert all(a is b for (_, a), b in zip(field.support, (comp for comp in comps if comp.terms)))
    assert vars(field) == {"chart": chart, "support": field.support}
    # the dense view gives the field back, with one shared zero in every empty slot
    again = VectorField(chart, field.components)
    assert again == field and hash(again) == hash(field)
    assert len({id(comp) for comp in field.components if not comp.terms}) <= 1
    assert field.eval_at(point) == tuple(comp.eval_at(tuple(point)) for comp in comps)
    for made in (lie_bracket(field, other), lie_bracket(other, field), _integral(field), _integral(lie_bracket(field, other))):
        indices = [j for j, _ in made.support]
        assert indices == sorted(set(indices))
        assert all(comp.terms for _, comp in made.support)
        assert made == VectorField(chart, made.components)


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda chart: VectorField(chart, (Poly.zero(3), Poly(5, {((4, 1),): 1}), Poly.zero(3))), "component 1"),
        (lambda chart: VectorField(chart, (Poly.zero(3), Poly.zero(3), 1)), "component 2"),
        (lambda chart: Distribution(chart, (VectorField.versor(chart, 0), 1)), "generator 1"),
        (lambda chart: Distribution(chart, (1,)), "generator 0"),
    ],
    ids=["a component of another arity", "an int component", "an int generator", "an int alone"],
)
def test_fields_and_distributions_refuse_parts_that_are_not_on_their_chart(make, named):
    # a component of another arity, an int component and an int generator each
    # built, and failed later with a bare IndexError or AttributeError
    with pytest.raises(ChartMismatch, match=named):
        make(Chart.for_length(0))


def test_charts_distributions_and_forms_hold_their_sequences_as_tuples():
    # a list was kept as given: the chart was unequal to its tuple twin, and
    # annihilator_at and cauchy_char_at raised TypeError: unhashable type: 'list'
    dist = build_ekr(EkrSpec(Word.parse("1.2.1"))).distribution
    chart = Chart(list(dist.chart.names))
    assert chart.names == dist.chart.names and type(chart.names) is tuple
    assert chart == dist.chart and hash(chart) == hash(dist.chart)
    listed = Distribution(chart, list(dist.generators))
    assert type(listed.generators) is tuple and listed == dist
    point = chart.point(y0=F(1, 2))
    forms = annihilator_at(listed, point)
    assert forms == annihilator_at(dist, point)
    assert cauchy_char_at(listed, point) == cauchy_char_at(dist, point)
    form = OneForm(chart, list(forms[0].coefficients))
    assert type(form.coefficients) is tuple and form == forms[0] and hash(form) == hash(forms[0])


@settings(max_examples=200, deadline=None)
@given(sparse_fields(), sparse_fields())
def test_bracket_matches_the_dense_formula(x, y):
    assert lie_bracket(x, y) == dense_bracket(x, y)


@settings(max_examples=200, deadline=None)
@given(sparse_fields(), sparse_fields())
def test_bracket_coefficients_are_canonical(x, y):
    # integral coefficients are ints and no coefficient is 0, as for every Poly
    for comp in lie_bracket(x, y).components:
        for coeff in comp.terms.values():
            assert coeff != 0
            assert type(coeff) is int or (type(coeff) is F and coeff.denominator > 1), repr(coeff)


@settings(max_examples=200, deadline=None)
@given(sparse_fields(), sparse_fields())
def test_bracket_differentiates_only_the_pairs_of_the_occurrence_tables(x, y):
    n = x.chart.dim
    for field in (x, y):
        scan = {}
        for var in range(n):
            holders = [(j, comp) for j, comp in enumerate(field.components) if any(var in dict(m) for m in comp.terms)]
            if holders:
                scan[var] = holders
        assert field.occurrences == scan
        assert field.occurrences is field.occurrences  # worked out once per field
    # one partial per X_i of the support and component Y_j that contains u_i, and back
    pairs = sum(len(y.occurrences.get(i, ())) for i, _ in x.support)
    pairs += sum(len(x.occurrences.get(i, ())) for i, _ in y.support)
    calls = []
    partial = Poly.partial
    Poly.partial = lambda poly, var: calls.append(var) or partial(poly, var)
    try:
        lie_bracket(x, y)
    finally:
        Poly.partial = partial
    assert len(calls) == pairs


@settings(max_examples=200, deadline=None)
@given(sparse_fields(), st.lists(st.sampled_from((F(0), F(0), F(1), F(-2), F(1, 3), F(-3, 2))), min_size=7, max_size=7))
def test_value_and_partials_match_the_evaluated_partials(field, point):
    # zero coordinates exercise the vanishing factors: a term adds to a
    # partial only when at most one simple factor vanishes at the point
    point = tuple(point)
    for comp in field.components:
        jet = comp.jet_at(point, 1)
        assert jet.get((), 0) == comp.eval_at(point)
        expected = {((i, 1),): comp.partial(i).eval_at(point) for i in range(len(point))}
        assert {m: c for m, c in jet.items() if m} == {m: d for m, d in expected.items() if d}


# ---------------------------------------------------------------------------
# Lie squares and big flags
# ---------------------------------------------------------------------------


def test_lie_square_of_commuting_versors():
    chart = Chart.for_length(0)
    dist = Distribution(chart, tuple(VectorField.versor(chart, i) for i in range(3)))
    squared = lie_square(dist)
    assert value_at(squared, chart.origin()) == value_at(dist, chart.origin())


def test_lie_square_length_one_build():
    build = build_ekr(EkrSpec(Word.parse("1")))
    squared = lie_square(build.distribution)
    rng = random.Random(1)
    for _ in range(5):
        p = flag_point(build.chart, rng)
        assert value_at(squared, p).dim == 5


def test_lie_square_singular_model_at_origin():
    dist = model("ex_2")
    squared = lie_square(dist)
    assert value_at(squared, dist.chart.origin()).dim == 5


def test_big_flag_ranks_1_1():
    build = build_ekr(EkrSpec(Word.parse("1.1")))
    tower = big_flag(build.distribution, build.chart.origin())
    ranks = [value_at(d, build.chart.origin()).dim for d in tower]
    assert ranks == [3, 5, 7]


def test_big_flag_ranks_appendix_family():
    spec = EkrSpec(Word.parse("1.2.1.2"), b={3: F(1, 3)}, c={3: F(2), 4: F(-1, 2)})
    build = build_ekr(spec)
    tower = big_flag(build.distribution, build.chart.origin())
    ranks = [value_at(d, build.chart.origin()).dim for d in tower]
    assert ranks == [3, 5, 7, 9, 11]


def test_big_flag_full_tangent_r3():
    chart = Chart.for_length(0)
    dist = Distribution(chart, tuple(VectorField.versor(chart, i) for i in range(3)))
    tower = big_flag(dist, chart.origin())
    assert len(tower) == 1
    assert value_at(tower[0], chart.origin()).dim == 3


def test_big_flag_rejects_wrong_rank():
    dist = model("bcd", m=2, n=3)
    with pytest.raises(NotSpecialFlag):
        big_flag(dist, dist.chart.origin())


def test_big_flag_rank_profiles_all_words_up_to_length_five():
    # one random draw per word; ranks at the origin and 10 random points
    from twoflags.atlas import enumerate_words
    from twoflags.cli import draw_constants

    # D^0 is the frame, so the polynomial square [D^1, D^1] stands in for it
    rng = random.Random(99)
    for r in range(1, 6):
        for word in enumerate_words(r):
            spec = draw_constants(word, random.Random(f"bf|{word}"))
            build = build_ekr(spec)
            tower = big_flag(build.distribution, build.chart.origin())
            top = lie_square(tower[-2])
            points = [build.chart.origin()] + [flag_point(build.chart, rng) for _ in range(10)]
            expected = list(range(3, build.chart.dim + 1, 2))
            for p in points:
                assert [value_at(m, p).dim for m in tower[:-1] + [top]] == expected, (word, p)


def test_structural_flag_members_match_brute_force():
    rng = random.Random(5)
    for text in ("1.2", "1.2.3", "1.1.2"):
        word = Word.parse(text)
        spec = EkrSpec(
            word,
            b={l: F(rng.randint(1, 5)) for l, j in enumerate(word.letters, 1) if j == 1},
            c={l: F(rng.randint(1, 5), 2) for l, j in enumerate(word.letters, 1) if j in (1, 2)},
        )
        build = build_ekr(spec)
        tower = big_flag(build.distribution, build.chart.origin())
        r = word.length
        # D^0 is the frame on both sides; the polynomial square [D^1, D^1] is
        # compared with it instead
        members = tower[:-1] + [lie_square(tower[-2])]
        for j in range(r + 1):
            for _ in range(3):
                p = flag_point(build.chart, rng)
                assert value_at(members[r - j], p) == value_at(build.flag_member(j), p)


# ---------------------------------------------------------------------------
# Small flags
# ---------------------------------------------------------------------------


def hand_built_family(which: str, b3, c3, c4=None) -> Distribution:
    """Transcribe the two length-4 families directly, bypassing the builder."""
    chart = Chart.for_length(4)
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
    if which == "D":
        lead = inner.scaled(var("x4")) + versor("x3") + versor("y3").scaled(var("y4") + c4)
    else:
        lead = inner.scaled(var("x4")) + versor("x3").scaled(var("y4")) + versor("y3")
    return Distribution(chart, (lead, versor("x4"), versor("y4")))


def normal_form(field: VectorField) -> VectorField:
    """The oracles' normal form of a field: content 1, first nonzero leading
    coefficient positive.  Two nonzero fields are scalar multiples of each
    other exactly when their normal forms are equal."""
    return VectorField(field.chart, primitive_tuple(field.components))


def proportional(a: VectorField, b: VectorField) -> bool:
    return normal_form(a) == normal_form(b)


def test_a_normal_form_is_its_own_normal_form():
    chart = Chart.for_length(0)
    n = chart.dim
    field = VectorField(chart, (Poly(n, {((1, 1),): -4}), Poly.zero(n), Poly(n, {(): 6})))
    normal = normal_form(field)
    assert normal == VectorField(chart, (Poly(n, {((1, 1),): 2}), Poly.zero(n), Poly(n, {(): -3})))
    assert all(a is b for a, b in zip(normal_form(normal).components, normal.components))
    assert normal_form(field.scaled(F(-5, 3))) == normal


def test_family_D_small_flag_generator():
    # the bracket of the first two generators of the second member yields
    # d/dx2 + (c4 + y4) d/dy2
    c4 = F(5, 3)
    dist = hand_built_family("D", b3=F(1, 2), c3=F(-2), c4=c4)
    chart = dist.chart
    n = chart.dim
    flag = small_flag(dist, 3)
    expected = VectorField.versor(chart, chart.index("x2")) + VectorField.versor(
        chart, chart.index("y2")
    ).scaled(Poly.variable(n, chart.index("y4")) + c4)
    assert any(proportional(g, expected) for g in flag[2].generators)
    assert value_at(flag[2], chart.origin()).contains_vector(expected.eval_at(chart.origin()))


def test_family_E_small_flag_generator():
    dist = hand_built_family("E", b3=F(1, 2), c3=F(-2))
    chart = dist.chart
    n = chart.dim
    flag = small_flag(dist, 3)
    expected = VectorField.versor(chart, chart.index("x2")).scaled(
        Poly.variable(n, chart.index("y4"))
    ) + VectorField.versor(chart, chart.index("y2"))
    assert any(proportional(g, expected) for g in flag[2].generators)
    assert value_at(flag[2], chart.origin()).contains_vector(expected.eval_at(chart.origin()))


def test_small_flag_of_involutive_distribution_is_stationary():
    dist = closed_form_F(2)
    flag = small_flag(dist, 2)
    rng = random.Random(3)
    for _ in range(5):
        p = flag_point(dist.chart, rng)
        assert value_at(flag[0], p) == value_at(flag[1], p)


def test_small_flag_generator_cap():
    build = build_ekr(EkrSpec(Word.parse("1.2.1.2")))
    with pytest.raises(GeneratorBlowup):
        small_flag(build.distribution, 5, cap=4)


def test_raw_small_flag_is_the_normal_one_up_to_scaling_up_to_length_five():
    # small_flag keeps its fields as formed: its members keep as many
    # generators as the oracle's normal ones, each raw generator normalizes to
    # the oracle's, and the values agree at the origin and at a stress point.
    # Every raw field has int coefficients, though the seeded constants put
    # Fractions into the leading fields of the closed members.  Closed members
    # are checked for k <= 5; generic tower members too, but for k <= 2 at
    # length 5, where their V_3 alone takes seconds per word
    checked = fractional = 0
    for r in range(1, 6):
        for word in enumerate_words(r):
            spec = draw_constants(word, random.Random(f"raw|{word}"))
            build = build_ekr(spec)
            origin = build.chart.origin()
            points = (origin, stress_point(spec, random.Random(f"raw-points|{word}")))
            closed = [_ClosedGeometry(build, origin, DEFAULT_GENERATOR_CAP).member(j) for j in range(1, r + 1)]
            tower = big_flag(build.distribution, origin)[1:-1]
            for dist, k in [(m, 5) for m in closed] + [(m, 5 if r < 5 else 2) for m in tower]:
                raw, normal = small_flag(dist, k), oracle_small_flag(dist, k)
                assert [len(m.generators) for m in raw] == [len(m.generators) for m in normal], word
                raw_coefficients = [c for g in raw[-1].generators for comp in g.components for c in comp.terms.values()]
                assert all(type(c) is int for c in raw_coefficients), word
                fractional += any(type(c) is not int for g in dist.generators for comp in g.components for c in comp.terms.values())
                for m_raw, m_normal in zip(raw, normal):
                    assert normal_signatures(m_raw) == signatures(m_normal), word
                for point in points:
                    p = point[: dist.chart.dim]
                    assert value_at(raw[-1], p) == value_at(normal[-1], p), (word, point)
                checked += 1
    assert checked == 499
    assert fractional > 100


class oracle_dedup:
    """The rule _Dedup kept before it bucketed fields by support: normalize every
    nonzero candidate and keep it unless its signature has been seen."""

    def __init__(self, cap: int):
        self.cap = cap
        self.fields: list[VectorField] = []
        self.seen: set[tuple] = set()

    def add(self, candidate: VectorField) -> None:
        if candidate.is_zero():
            return
        normal = normal_form(candidate)
        if normal.signature() in self.seen:
            return
        self.seen.add(normal.signature())
        self.fields.append(normal)
        if len(self.fields) > self.cap:
            raise GeneratorBlowup(f"generator count exceeded the cap of {self.cap}")

    def extend(self, candidates) -> None:
        for candidate in candidates:
            self.add(candidate)


def field_of(chart: Chart, *components: dict) -> VectorField:
    """A field from term maps of its first components; the rest are zero."""
    n = chart.dim
    comps = [Poly(n, terms) for terms in components] + [Poly.zero(n)] * (n - len(components))
    return VectorField(chart, tuple(comps))


def test_dedup_drops_scalar_multiples_and_keeps_the_first_normalized_field():
    chart = Chart.for_length(1)
    u = ((1, 1),)
    first = field_of(chart, {(): -2, u: 4}, {u: 6})
    candidates = [first, first.scaled(-1), first.scaled(F(-3, 7)), first.scaled(F(5, 2)), first.scaled(0)]
    pool = _Dedup(10)
    pool.extend(candidates)
    # the first candidate itself is kept; its normal form has content 1 and a
    # positive leading (highest-degree) coefficient
    assert len(pool.fields) == 1 and pool.fields[0] is first
    assert [normal_form(g).signature() for g in pool.fields] == [field_of(chart, {(): -1, u: 2}, {u: 3}).signature()]


def test_dedup_keeps_fields_that_share_a_support_or_the_term_counts():
    chart = Chart.for_length(1)
    u, v = ((1, 1),), ((2, 1),)
    first = field_of(chart, {(): 1, u: 2}, {u: 3})
    same_support = field_of(chart, {(): 2, u: 4}, {u: 5})  # proportional in the first component only
    same_counts = field_of(chart, {(): 1, v: 2}, {u: 3})  # u becomes v in the first component
    swapped = field_of(chart, {u: 3}, {(): 1, u: 2})  # the same terms in other components
    candidates = [first, same_support, same_counts, swapped]
    pool, oracle = _Dedup(10), oracle_dedup(10)
    pool.extend(candidates)
    oracle.extend(candidates)
    assert all(kept is g for kept, g in zip(pool.fields, candidates, strict=True))
    assert [normal_form(g).signature() for g in pool.fields] == [g.signature() for g in oracle.fields]
    assert _Dedup(10, candidates).fields == pool.fields


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1, 2, F(-1, 3), F(5, 2)])), max_size=12))
def test_dedup_keeps_what_the_normalize_then_signature_oracle_keeps(picks):
    # multiples of four fields, two of which share their support
    chart = Chart.for_length(1)
    u, v = ((1, 1),), ((2, 1),)
    bases = [
        field_of(chart, {(): 1, u: 2}),
        field_of(chart, {(): 1, u: 3}),
        field_of(chart, {(): 1}, {v: -1}),
        field_of(chart, {}, {(): 2, v: 1}),
    ]
    candidates = [bases[i].scaled(factor) for i, factor in picks]
    pool, oracle = _Dedup(10), oracle_dedup(10)
    pool.extend(candidates)
    oracle.extend(candidates)
    assert [normal_form(g).signature() for g in pool.fields] == [g.signature() for g in oracle.fields]
    # the first candidate of each kept multiple is itself kept
    firsts = [next(g for g in candidates if normal_form(g).signature() == kept.signature()) for kept in oracle.fields]
    assert all(a is b for a, b in zip(pool.fields, firsts, strict=True))


# The ordered-pair loops that lie_square and small_flag ran before small_flag
# became the one bracket loop and formed each unordered pair once, on the
# normalize-then-signature rule of oracle_dedup.


def oracle_lie_square(dist: Distribution, cap: int = DEFAULT_GENERATOR_CAP) -> Distribution:
    pool = oracle_dedup(cap)
    pool.extend(dist.generators)
    gens = list(pool.fields)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            pool.add(lie_bracket(gens[i], gens[j]))
    return Distribution(dist.chart, tuple(pool.fields))


def oracle_small_flag(dist: Distribution, steps: int, cap: int = DEFAULT_GENERATOR_CAP) -> list[Distribution]:
    pool = oracle_dedup(cap)
    pool.extend(dist.generators)
    base = list(pool.fields)
    flag = [Distribution(dist.chart, tuple(pool.fields))]
    fresh = list(pool.fields)
    for _ in range(steps - 1):
        before = len(pool.fields)
        for g in base:
            for h in fresh:
                pool.add(lie_bracket(g, h))
        fresh = pool.fields[before:]
        flag.append(Distribution(dist.chart, tuple(pool.fields)))
    return flag


def signatures(dist: Distribution) -> list[tuple]:
    return [g.signature() for g in dist.generators]


def normal_signatures(dist: Distribution) -> list[tuple]:
    """The signatures of the normal forms of the generators: small_flag keeps
    each field as it was formed, and the oracles keep normal forms."""
    return [normal_form(g).signature() for g in dist.generators]


def test_flags_match_the_ordered_pair_oracle_up_to_length_four():
    from twoflags.atlas import enumerate_words
    from twoflags.cli import draw_constants

    for r in range(1, 5):
        for word in enumerate_words(r):
            for spec in (EkrSpec(word), draw_constants(word, random.Random(f"pairs|{word}"))):
                build = build_ekr(spec)
                for j in range(r + 1):
                    member = build.flag_member(j)
                    assert normal_signatures(lie_square(member)) == signatures(oracle_lie_square(member)), (spec, j)
                    got = [normal_signatures(m) for m in small_flag(member, 5)]
                    assert got == [signatures(m) for m in oracle_small_flag(member, 5)], (spec, j)
                point = build.chart.origin()
                assert_tower_matches_the_oracle(big_flag(build.distribution, point), build.distribution, point, spec)


@pytest.mark.parametrize("l", [6, 8, 10])
def test_long_gaps_classify_as_the_word_and_their_refined_small_flags_match_the_oracle(l, monkeypatch):
    # 1.2.1^l.3 and 1.2.1^l.2 refine member l + 3 by V_(2l+3) after a gap of
    # l letters 1, where V_(2l+2) holds about 2l^2 fields; no other tier-1 test
    # or CI digest reaches a gap beyond l = 5.  Every kept field of V_(2l+2)
    # is the first candidate of its multiples, as it was formed
    add = _Dedup.add
    for last in ("3", "2"):
        word = Word.parse(".".join(["1", "2"] + ["1"] * l + [last]))
        for spec in (EkrSpec(word), draw_constants(word, random.Random(f"long-gap|{word}"))):
            build = build_ekr(spec)
            origin = build.chart.origin()
            assert singularity_class_at(build, origin).word == word, spec
            member = _ClosedGeometry(build, origin, DEFAULT_GENERATOR_CAP).member(l + 3)
            candidates = []
            monkeypatch.setattr(_Dedup, "add", lambda pool, field: (candidates.append(field), add(pool, field)))
            raw = small_flag(member, 2 * l + 2)
            monkeypatch.undo()
            normal = oracle_small_flag(member, 2 * l + 2)
            assert [len(m.generators) for m in raw] == [len(m.generators) for m in normal], spec
            assert [normal_signatures(m) for m in raw] == [signatures(m) for m in normal], spec
            first: dict[tuple, VectorField] = {}
            for field in candidates:
                if not field.is_zero():
                    first.setdefault(normal_form(field).signature(), field)
            assert all(g is first[normal_form(g).signature()] for g in raw[-1].generators), spec


@pytest.mark.parametrize(
    "l, count, digest",
    [
        (6, 82, "e462daba1f66b910c72be92f17d40bbee00c3cb487bd854d5e7e5d6f420442b3"),
        (10, 214, "31087f792002d7c5d9c1e736343b9e5e90bf2b632e3067136ddcfbeceacf2074"),
        (20, 824, "9b20e1c1ce09f4beec157f78f815df00fcc68a2b1a6f88d35a161f39fc6d2411"),
    ],
)
def test_the_fields_of_a_long_gap_keep_their_count_order_and_text(l, count, digest):
    # V_(2l+1) of member l + 3 of 1.2.1^l.3 at the origin, the fields that a
    # refinement after a gap of l letters 1 builds, pinned by the sha256 of
    # their printed forms in order
    build = build_ekr(EkrSpec(Word.parse(".".join(["1", "2"] + ["1"] * l + ["3"]))))
    member = _ClosedGeometry(build, build.chart.origin(), DEFAULT_GENERATOR_CAP).member(l + 3)
    generators = small_flag(member, 2 * l + 1)[-1].generators
    assert len(generators) == count
    assert hashlib.sha256("|".join(map(str, generators)).encode()).hexdigest() == digest


def count_dead_pairs(cases, rounds) -> int:
    """The pairs of the last rounds of small_flag_vectors_at over ``cases``
    whose two values vanish at the point, each checked to have the zero
    bracket value; the other pairs' values are checked to be the last vectors
    yielded, in order.  ``rounds`` collects the pairs of each round."""
    dead = 0
    for dist, k, point, label in cases:
        rounds.clear()
        vectors = list(small_flag_vectors_at(dist, k, point))
        kept = []
        # the last round's pairs, each item a jet with whether its value is nonzero
        for (g, g_live), (h, h_live) in rounds[-1]:
            assert (g_live, h_live) == (any(g[0]), any(h[0])), (label, k)
            value = _bracket_value(g, h, dist.chart.dim)
            if g_live or h_live:
                kept.append(value)
            else:
                assert not any(value), (label, k)
                dead += 1
        assert vectors[len(vectors) - len(kept) :] == kept, (label, k)
    return dead


def test_the_last_pointwise_round_skips_exactly_the_pairs_whose_bracket_vanishes(monkeypatch):
    # [g, h](p) = 0 when g(p) = 0 and h(p) = 0, so the last round of
    # small_flag_vectors_at forms no vector for such a pair; every pair it
    # skips is checked to have the zero bracket value, and the vectors it
    # yields to be the values of the other pairs in order.  The cases are V_2
    # to V_5 of D^r and its full Lie squares D^(r-1), ..., D^1 of the words
    # of lengths 2 to 4 at the origin, and V_(2l+3) of member l + 3 of
    # 1.2.1^l.3 and 1.2.1^l.2 for tier-1's long gaps l = 6, 8, 10.  Every
    # pair takes one of D's fields, so the frames D^(r-1), ..., D^1 of
    # big_flag, whose fields are independent at the point, have no such pair
    rounds = []
    pairs = geometry._pairs

    def recording(items, base, start):
        rounds.append(list(pairs(items, base, start)))
        return iter(rounds[-1])

    cases, frames = [], []
    for r in range(2, 5):
        for word in enumerate_words(r):
            build = build_ekr(EkrSpec(word))
            point = build.chart.origin()
            members = [build.distribution]
            for _ in range(r - 1):
                members.append(lie_square(members[-1]))
            cases += [(dist, k, point, str(word)) for dist in members for k in range(2, 6)]
            frames += [(dist, k, point, str(word)) for dist in big_flag(build.distribution, point)[1:-1] for k in range(2, 6)]
    for l in (6, 8, 10):
        for last in ("3", "2"):
            build = build_ekr(EkrSpec(Word.parse(".".join(["1", "2"] + ["1"] * l + [last]))))
            cases.append((build.flag_member(l + 3), 2 * l + 3, build.chart.origin(), str(build.word)))
    monkeypatch.setattr(geometry, "_pairs", recording)
    assert count_dead_pairs(frames, rounds) == 0
    assert len(cases) == 306
    assert count_dead_pairs(cases, rounds) == 3202


@pytest.mark.parametrize("value", [True, 2.0, F(3)])
def test_a_cap_step_count_or_chart_length_that_is_not_an_int_is_named_with_its_type(value):
    # True == 1 and 2.0 == 2 pass a bound check, and True would share the
    # memo entry of Chart.for_length(1), which exists here
    dist = build_ekr(EkrSpec(Word.parse("1.2.1"))).distribution
    point = dist.chart.origin()
    assert Chart.for_length(1).dim == 5
    # on the 3-dimensional chart the tower is the frame alone, so no square meets the cap
    frame = Distribution.frame(Chart.for_length(0))
    calls = [
        lambda: big_flag(dist, point, cap=value),
        lambda: big_flag(frame, frame.chart.origin(), cap=value),
        lambda: lie_square(dist, cap=value),
        lambda: small_flag(dist, value),
        lambda: small_flag(dist, 2, cap=value),
        lambda: list(small_flag_vectors_at(dist, value, point)),
        lambda: Chart.for_length(value),
    ]
    message = re.escape(f"{value!r} is not an int but a {type(value).__name__}")
    for call in calls:
        with pytest.raises(ChartMismatch, match=message):
            call()


@pytest.mark.parametrize("cap", [0, -3])
def test_a_cap_below_one_is_refused_by_every_flag_function(cap):
    dist = build_ekr(EkrSpec(Word.parse("1.2.1"))).distribution
    point = dist.chart.origin()
    frame = Distribution.frame(Chart.for_length(0))
    assert big_flag(frame, frame.chart.origin()) == [frame]
    calls = [
        lambda: big_flag(dist, point, cap=cap),
        lambda: big_flag(frame, frame.chart.origin(), cap=cap),
        lambda: lie_square(dist, cap=cap),
        lambda: small_flag(dist, 2, cap=cap),
        lambda: list(small_flag_vectors_at(dist, 2, point, cap=cap)),
        lambda: _Dedup(cap),
    ]
    for call in calls:
        with pytest.raises(ChartMismatch, match=f"^cap must be >= 1, got {cap}$"):
            call()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda chart: VectorField.versor(chart, -1), "versor index -1 out of range for a 5-dimensional chart"),
        (lambda chart: VectorField.versor(chart, 5), "versor index 5 out of range for a 5-dimensional chart"),
        (lambda chart: VectorField.versor(chart, True), "versor index True is not an int but a bool"),
        (lambda chart: VectorField.versor(chart, 1.0), "versor index 1.0 is not an int but a float"),
        (lambda chart: Poly.variable(3, True), "variable index True is not an int but a bool"),
        (lambda chart: Poly(2.0, {}), "arity 2.0 is not an int but a float"),
        # partial(True) and partial(1.0) differentiated by u1
        (lambda chart: Poly.variable(3, 1).partial(True), "variable index True is not an int but a bool"),
        (lambda chart: Poly.variable(3, 1).partial(1.0), "variable index 1.0 is not an int but a float"),
    ],
    ids=[
        "versor-negative", "versor-past-the-chart", "versor-bool", "versor-float", "variable-bool", "arity-float",
        "partial-bool", "partial-float",
    ],
)
def test_a_versor_or_variable_index_or_arity_is_an_int_in_range(build, message):
    with pytest.raises(ChartMismatch, match=f"^{re.escape(message)}$"):
        build(Chart.for_length(1))


def assert_tower_matches_the_oracle(tower: list[Distribution], dist: Distribution, point: tuple, label) -> None:
    """D^r is ``dist``, and each frame D^(r-1), ..., D^1 matches the oracle's
    square of the member before it where the answer lives: the same value at
    the point, with the frame's fields independent there; the frame's fields
    among the square's, normal signature for normal signature; and every
    field of the square annihilated identically by the frame's covectors,
    pivoted at the point.  The last square is decided at the point, so D^0 is
    the coordinate frame, and the oracle's square of D^1 has full rank there."""
    assert tower[0] is dist, label
    chart = dist.chart
    for member, frame in zip(tower[:-2], tower[1:-1]):
        square = oracle_lie_square(member)
        value = value_at(frame, point)
        assert value == value_at(square, point) and value.dim == len(frame.generators), label
        assert set(normal_signatures(frame)) <= set(signatures(square)), label
        matrix = [list(column) for column in zip(*(g.components for g in frame.generators))]
        forms = [OneForm(chart, cov) for cov in polynomial_nullspace(matrix, point)]
        assert all(pair_with(form, g).is_zero() for form in forms for g in square.generators), label
    assert signatures(tower[-1]) == [VectorField.versor(chart, i).signature() for i in range(chart.dim)], label
    assert value_at(oracle_lie_square(tower[-2]), point).dim == chart.dim, label


def test_big_flag_matches_the_ordered_pair_oracle_at_length_five():
    # each square brackets a generator only with later fields
    words = enumerate_words(5)
    assert len(words) == 41
    for word in words:
        build = build_ekr(draw_constants(word, random.Random(f"tower5|{word}")))
        point = build.chart.origin()
        assert_tower_matches_the_oracle(big_flag(build.distribution, point), build.distribution, point, str(word))


@pytest.mark.parametrize("text", ["1.2.1", "1.2.3", "1.1.2"])
def test_big_flag_of_repeated_and_zero_generators_matches_the_oracle(text):
    # the first square keeps 3 of the 5 raw generators (g0, 2 g0, 0, g1, g2)
    build = build_ekr(EkrSpec(Word.parse(text)))
    g0, g1, g2 = build.distribution.generators
    zero = VectorField(build.chart, (Poly.zero(build.chart.dim),) * build.chart.dim)
    dist = Distribution(build.chart, (g0, g0.scaled(2), zero, g1, g2))
    tower = big_flag(dist, build.chart.origin())
    assert tower[0] is dist
    assert len(tower) == 4
    assert_tower_matches_the_oracle(tower, dist, build.chart.origin(), text)


@settings(max_examples=150, deadline=None)
@given(
    st.permutations(range(5)),
    st.lists(sparse_fields(Chart.for_length(1)), min_size=3, max_size=3),
    st.lists(st.sampled_from((F(0), F(0), F(1), F(-2), F(1, 3))), min_size=5, max_size=5),
)
def test_the_last_square_has_the_pointwise_rank_of_the_lie_square(order, perturbations, point):
    # three versors plus sparse fields: the square at p has rank 3, 4 or 5
    chart = Chart.for_length(1)
    point = tuple(point)
    dist = Distribution(chart, tuple(VectorField.versor(chart, i) + f for i, f in zip(order, perturbations)))
    assume(value_at(dist, point).dim == 3)
    rank = value_at(lie_square(dist), point).dim
    if rank == 5:
        assert len(big_flag(dist, point)) == 2
    else:
        with pytest.raises(NotSpecialFlag, match=f"^Lie square number 1 has pointwise rank {rank}, expected 5$"):
            big_flag(dist, point)


def test_a_deficient_last_square_names_its_pointwise_rank():
    # X1 = d/du0 + u2 d/du3, X2 = d/du2, X3 = d/du4: only [X1, X2] = -d/du3 is new
    chart = Chart.for_length(1)
    versor = lambda i: VectorField.versor(chart, i)
    x1 = versor(0) + versor(3).scaled(Poly.variable(chart.dim, 2))
    dist = Distribution(chart, (x1, versor(2), versor(4)))
    with pytest.raises(NotSpecialFlag, match="^Lie square number 1 has pointwise rank 4, expected 5$"):
        big_flag(dist, chart.origin())


def generic_tower_members(r: int, salt: str):
    """(spec, j, D^j, a fresh copy of D^j) for each frame D^j, 0 < j < r,
    of fields that lie_square built, in the generic tower of every length-r
    word, with zero and seeded constants; the copy is a new Distribution
    with the same generators."""
    for word in enumerate_words(r):
        for spec in (EkrSpec(word), draw_constants(word, random.Random(f"{salt}|{word}"))):
            build = build_ekr(spec)
            tower = big_flag(build.distribution, build.chart.origin())
            for j in range(1, r):
                member = tower[j]
                yield spec, j, member, Distribution(member.chart, member.generators)


def test_semi_naive_lie_square_equals_the_plain_one_up_to_length_four():
    for r in range(1, 5):
        for spec, j, member, plain in generic_tower_members(r, "semi"):
            assert signatures(lie_square(member)) == signatures(lie_square(plain)), (spec, j)


def test_lie_square_and_small_flag_leave_the_member_as_they_found_it_up_to_length_four():
    # the square and the flag are functions of D's generators alone: they
    # write nothing on D, and the square carries only its two fields
    for r in range(1, 5):
        for spec, j, member, _ in generic_tower_members(r, "pure"):
            before = dict(vars(member))
            square = lie_square(member)
            small_flag(member, 3)
            assert vars(member) == before, (spec, j)
            assert set(vars(square)) == {"chart", "generators"}, (spec, j)


def test_the_square_of_a_tower_member_starts_with_its_very_fields_up_to_length_four():
    # a tower member's fields have int coefficients, which _integral returns
    # as they are and _Dedup keeps: each field keeps its object, and its
    # occurrence table, from one square to the next
    for r in range(1, 5):
        for spec, j, member, _ in generic_tower_members(r, "same"):
            head = lie_square(member).generators[: len(member.generators)]
            assert all(a is b for a, b in zip(head, member.generators, strict=True)), (spec, j)


def test_the_square_of_a_tower_member_is_its_small_flag_member_as_formed_up_to_length_four():
    # lie_square returns the second member of small_flag itself, with no
    # rescaling of its fields, and every tower field has int coefficients
    for r in range(1, 5):
        for spec, j, member, _ in generic_tower_members(r, "as-formed"):
            assert signatures(lie_square(member)) == signatures(small_flag(member, 2)[-1]), (spec, j)
            assert all(int_coefficients(g.components) for g in member.generators), (spec, j)


def test_small_flags_of_tower_members_equal_the_plain_ones_up_to_length_four():
    # a tower member and its fresh copy give the same flag: every member of
    # the flag, and the cap at which it blows up, are those of the copy
    for r in range(1, 5):
        for spec, j, member, plain in generic_tower_members(r, "semi-flag"):
            expected = [signatures(m) for m in small_flag(plain, 5)]
            for k in range(1, 6):
                assert [signatures(m) for m in small_flag(member, k)] == expected[:k], (spec, j, k)
            # the blowup cap is the copy's: the flag fits a cap of its size and
            # no smaller one, and a cap of the member's size, hit on the first step
            total = len(expected[-1])
            assert flags_or_blowup(lambda: small_flag(member, 5, total)) == expected, (spec, j)
            assert flags_or_blowup(lambda: small_flag(member, 5, total - 1)) == "blowup", (spec, j)
            cap = len(member.generators)
            assert flags_or_blowup(lambda: small_flag(member, 5, cap)) == flags_or_blowup(lambda: small_flag(plain, 5, cap))


def int_coefficients(polys) -> bool:
    return all(type(c) is int for p in polys for c in p.terms.values())


def test_flag_generators_and_annihilators_have_int_coefficients_up_to_length_four():
    # small_flag clears the denominators of D's generators, and primitive_tuple
    # leaves each covector content 1, so brackets and eliminations run on int
    # coefficients even when the constants are fractions
    from twoflags.atlas import enumerate_words
    from twoflags.cli import draw_constants

    for r in range(1, 5):
        for word in enumerate_words(r):
            build = build_ekr(draw_constants(word, random.Random(f"ints|{word}")))
            for j in range(r + 1):
                for member in small_flag(build.flag_member(j), 5):
                    assert all(int_coefficients(g.components) for g in member.generators), (word, j)
            point = build.chart.origin()
            tower = big_flag(build.distribution, point)
            # tower[0] is the input distribution itself, whose fields carry the constants
            for member in tower[1:]:
                assert all(int_coefficients(g.components) for g in member.generators), word
            for member in tower:
                for form in annihilator_at(member, point):
                    assert int_coefficients(form.coefficients), word


def flags_or_blowup(flags, signed=signatures) -> list | str:
    try:
        return [signed(m) for m in flags()]
    except GeneratorBlowup:
        return "blowup"


@pytest.mark.parametrize("text, j", [("1.2.1.2", 0), ("1.2.3.3", 2)])
def test_generator_cap_is_hit_where_the_oracle_hits_it(text, j):
    # D^j of the tower: D^2 of 1.2.3.3 has 8 generators, 15 in its Lie square
    dist = build_ekr(EkrSpec(Word.parse(text))).distribution
    for _ in range(j):
        dist = oracle_lie_square(dist)
    square = len(oracle_lie_square(dist).generators)
    for cap in range(1, square + 1):
        got = flags_or_blowup(lambda: [lie_square(dist, cap)], normal_signatures)
        assert got == flags_or_blowup(lambda: [oracle_lie_square(dist, cap)]), cap
        assert (got == "blowup") == (cap < square), cap
    total = len(oracle_small_flag(dist, 5)[-1].generators)
    # every cap reached on the first step, where pairs are dropped, and the last two
    for cap in [*range(1, square + 1), total - 1, total]:
        got = flags_or_blowup(lambda: small_flag(dist, 5, cap), normal_signatures)
        assert got == flags_or_blowup(lambda: oracle_small_flag(dist, 5, cap)), cap
        assert (got == "blowup") == (cap < total), cap


# ---------------------------------------------------------------------------
# Pointwise values
# ---------------------------------------------------------------------------


def test_value_full_tangent():
    chart = Chart.for_length(0)
    dist = Distribution(chart, tuple(VectorField.versor(chart, i) for i in range(3)))
    assert value_at(dist, chart.origin()).dim == 3


def test_value_singular_model_at_origin():
    dist = model("ex_2")
    expected = versor_subspace(dist.chart, ["x1", "x2", "y2"])
    assert value_at(dist, dist.chart.origin()) == expected


def test_value_closed_form_F():
    dist = closed_form_F(2)
    rng = random.Random(11)
    expected_names = ["x1", "y1", "x2", "y2"]
    for _ in range(4):
        p = flag_point(dist.chart, rng)
        assert value_at(dist, p) == versor_subspace(dist.chart, expected_names)


def test_value_is_kept_for_the_last_point_only():
    build = build_ekr(draw_constants(Word.parse("1.2.3"), random.Random("value-cache")))
    rng = random.Random(31)
    p, q = build.chart.origin(), flag_point(build.chart, rng)
    for member in big_flag(build.distribution, p):
        for point in (p, q, p):
            fresh = Distribution(member.chart, member.generators)
            assert value_at(member, point).basis == value_at(fresh, point).basis, point
        assert value_at(member, p) is value_at(member, p)


def test_a_generic_classification_evaluates_each_member_once(monkeypatch):
    import twoflags.classify as classify

    towers, evaluated = [], []
    original_big_flag, original_basis = classify.big_flag, geometry.column_space_basis

    def kept_tower(dist, point, cap):
        towers.append(original_big_flag(dist, point, cap))
        return towers[-1]

    def counted(columns, ambient):
        evaluated.append(tuple(map(tuple, columns)))
        return original_basis(columns, ambient)

    for text, seeded in product(("1.2.1.3", "1.2.3.2.3"), (False, True)):
        word = Word.parse(text)
        rng = random.Random(f"evaluate-{text}")
        build = build_ekr(draw_constants(word, rng) if seeded else EkrSpec(word))
        p = flag_point(build.chart, rng) if seeded else build.chart.origin()
        closed = singularity_class_at(build, p)
        towers.clear()
        evaluated.clear()
        with monkeypatch.context() as patch:
            patch.setattr(classify, "big_flag", kept_tower)
            patch.setattr(geometry, "column_space_basis", counted)
            assert singularity_class_at(build, p, generic=True) == closed
        [tower] = towers
        # one value for each of D^r, ..., D^1, whichever reader asks first, and none for D^0
        members = [tuple(tuple(g.eval_at(p)) for g in member.generators) for member in tower[:-1]]
        assert len(evaluated) == word.length, (text, seeded)
        assert sorted(evaluated) == sorted(members), (text, seeded)


def test_covariant_then_cauchy_of_one_member_derive_its_covectors_once(monkeypatch):
    build = build_ekr(draw_constants(Word.parse("1.2.1.3"), random.Random("pairings")))
    rng = random.Random(33)
    p, q = flag_point(build.chart, rng), flag_point(build.chart, rng)
    member = big_flag(build.distribution, p)[-2]  # D^1, of corank 2
    fresh = Distribution(member.chart, member.generators)
    expected = covariant_at(fresh, p), cauchy_char_at(fresh, p), cauchy_char_at(fresh, q)
    nullspaces = []
    counted_derivations(monkeypatch, nullspaces, [])
    # big_flag's certificate derived the tower member's covectors at p, and keeps them on it
    assert (covariant_at(member, p), cauchy_char_at(member, p)) == expected[:2]
    assert nullspaces == []
    again = Distribution(member.chart, member.generators)
    assert (covariant_at(again, p), cauchy_char_at(again, p)) == expected[:2]
    assert nullspaces == [p]
    forms = annihilator_at(again, p)
    assert type(forms) is tuple and forms is annihilator_at(again, p)
    # the covectors are kept for the last point only
    assert cauchy_char_at(again, q) == expected[2]
    assert nullspaces == [p, q]


# ---------------------------------------------------------------------------
# Exterior derivative
# ---------------------------------------------------------------------------


def exterior_derivative_at(form: OneForm, point) -> RationalMatrix:
    """The dense d(omega) oracle: entry (i, j) is (da_j/du_i - da_i/du_j)(p),
    from each coefficient's partial derivatives as polynomials."""
    n = form.chart.dim
    partials = [[a.partial(i).eval_at(point) for i in range(n)] for a in form.coefficients]
    return RationalMatrix.from_rows([[partials[j][i] - partials[i][j] for j in range(n)] for i in range(n)])


def constant_form(chart: Chart, name: str) -> OneForm:
    coeffs = [Poly.zero(chart.dim) for _ in range(chart.dim)]
    coeffs[chart.index(name)] = Poly.const(chart.dim, 1)
    return OneForm(chart, tuple(coeffs))


def test_exterior_derivative_of_closed_forms():
    chart = Chart.for_length(1)
    n = chart.dim
    zero = RationalMatrix(n, n, tuple(F(0) for _ in range(n * n)))
    assert exterior_derivative_at(constant_form(chart, "x0"), chart.origin()) == zero
    # x0 dx0 is closed as well
    coeffs = [Poly.zero(n) for _ in range(n)]
    coeffs[chart.index("x0")] = Poly.variable(n, chart.index("x0"))
    assert exterior_derivative_at(OneForm(chart, tuple(coeffs)), chart.origin()) == zero


@settings(max_examples=50, deadline=None)
@given(fields())
def test_exterior_derivative_is_antisymmetric(field):
    form = OneForm(field.chart, field.components)
    matrix = exterior_derivative_at(form, field.chart.origin())
    n = field.chart.dim
    for i in range(n):
        for j in range(n):
            assert matrix.at(i, j) == -matrix.at(j, i)


def test_exterior_derivative_contact_form():
    # d(dx1 - y1 dx0) has entries +/-1 exactly in the (y1, x0) slots
    chart = Chart.for_length(1)
    n = chart.dim
    coeffs = [Poly.zero(n) for _ in range(n)]
    coeffs[chart.index("x1")] = Poly.const(n, 1)
    coeffs[chart.index("x0")] = -Poly.variable(n, chart.index("y1"))
    rng = random.Random(2)
    for _ in range(3):
        p = flag_point(chart, rng)
        matrix = exterior_derivative_at(OneForm(chart, tuple(coeffs)), p)
        i, j = chart.index("y1"), chart.index("x0")
        for a in range(n):
            for b in range(n):
                expected = F(0)
                if (a, b) == (i, j):
                    expected = F(-1)
                elif (a, b) == (j, i):
                    expected = F(1)
                assert matrix.at(a, b) == expected


def gradient_at(form: OneForm, point) -> list[list[Fraction]]:
    """The dense gradient oracle: G[i][j] = da_j/du_i (p), from each
    coefficient's partial derivatives as polynomials."""
    n = form.chart.dim
    return [[form.coefficients[j].partial(i).eval_at(point) for j in range(n)] for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(sparse_fields(), st.lists(coeffs, min_size=7, max_size=7))
def test_integer_gradient_is_the_dense_gradient_times_its_lcm(field, point):
    form = OneForm(field.chart, field.components)
    dense = gradient_at(form, tuple(point))
    m = lcm(*(v.denominator for row in dense for v in row))
    grad = _integer_gradient(form, tuple(point))
    n = field.chart.dim
    # sparse rows of the nonzero entries, in integers, each m times the dense entry
    assert all(grad[i] and all(type(v) is int and v for _, v in grad[i]) for i in grad)
    assert {(i, j): v for i in grad for j, v in grad[i]} == {
        (i, j): dense[i][j] * m for i in range(n) for j in range(n) if dense[i][j]
    }
    # d(omega)(p) = G - G^T
    w = exterior_derivative_at(form, tuple(point))
    assert all(w.at(i, j) == dense[i][j] - dense[j][i] for i in range(n) for j in range(n))


# ---------------------------------------------------------------------------
# Cauchy characteristics and the covariant subspace
# ---------------------------------------------------------------------------


def pair_with(form: OneForm, x: VectorField) -> Poly:
    """The function omega(X)."""
    assert form.chart == x.chart
    out = Poly.zero(form.chart.dim)
    for a, comp in zip(form.coefficients, x.components):
        out = out + a * comp
    return out


def test_annihilator_of_bcd_model():
    # corank 2: the covectors represent dx1 - y1 dx0 and dx2 - y2 dx0
    dist = model("bcd", m=2, n=3)
    chart = dist.chart
    n = chart.dim
    forms = annihilator_at(dist, chart.origin())
    assert len(forms) == 2
    expected = set()
    for k in (1, 2):
        coeffs = [Poly.zero(n) for _ in range(n)]
        coeffs[chart.index(f"x{k}")] = Poly.const(n, 1)
        coeffs[chart.index("x0")] = -Poly.variable(n, chart.index(f"y{k}"))
        expected.add(tuple(p.signature() for p in primitive_tuple(coeffs)))
    assert {tuple(p.signature() for p in f.coefficients) for f in forms} == expected
    # and each output annihilates every generator identically
    for form in forms:
        for gen in dist.generators:
            assert pair_with(form, gen).is_zero()


def test_annihilator_raises_where_the_distribution_drops_rank():
    # u0 d/du0 and d/du1 have structural rank 2 but rank 1 at the origin
    from twoflags.errors import DegeneratePivot
    from twoflags.geometry import annihilator_at

    chart = Chart(("u0", "u1", "u2"))
    n = chart.dim
    drop = VectorField(chart, (Poly.variable(n, 0), Poly.zero(n), Poly.zero(n)))
    dist = Distribution(chart, (drop, VectorField.versor(chart, 1)))
    with pytest.raises(DegeneratePivot):
        annihilator_at(dist, chart.origin())
    assert len(annihilator_at(dist, chart.point(u0=1))) == 1


def test_a_generic_sweep_leaves_no_germs_covectors_behind():
    # the length-4 generic sweep classifies 28 germs at the origin; each
    # member's covectors are kept on the member, so none outlives its germ:
    # the memo name caches nothing, and what the sweep leaves is under
    # 400 KiB, where all 56 members' generators and covectors take about 800 KiB
    tracemalloc.start()
    try:
        assert all(outcome.passed for outcome in run_verification(4, 1, 0, True, generic=True))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert geometry._structural_annihilator.cache_info().currsize == 0
    assert kept < 400 * 2**10, kept


def counted_derivations(monkeypatch, nullspaces: list, calls: list) -> None:
    """Record the point of each polynomial_nullspace call in ``nullspaces``,
    and for each annihilator_at call the number of nullspaces it ran, and
    whether its n - dim D(p) covectors are independent at p, in ``calls``."""
    original_nullspace, original_annihilator = geometry.polynomial_nullspace, geometry.annihilator_at

    def counted_nullspace(matrix, point):
        nullspaces.append(point)
        return original_nullspace(matrix, point)

    def counted_annihilator(dist, point):
        before = len(nullspaces)
        forms = original_annihilator(dist, point)
        values = [tuple(c.eval_at(point) for c in form.coefficients) for form in forms]
        independent = len(forms) == dist.chart.dim - value_at(dist, point).dim == len(_independent(values))
        calls.append((len(nullspaces) - before, independent))
        return forms

    monkeypatch.setattr(geometry, "polynomial_nullspace", counted_nullspace)
    monkeypatch.setattr(geometry, "annihilator_at", counted_annihilator)


def test_a_germ_classified_at_two_points_derives_its_frame_covectors_at_each(monkeypatch):
    # a length-4 germ at the origin and at a seeded point: big_flag's
    # certificate of each frame D^3, D^2 and D^1 derives its covectors through
    # annihilator_at, and the targets' calls derive none: the covariant and
    # Cauchy targets of D^1 and the Cauchy target of D^2 read the covectors
    # kept on the tower's frames
    build = build_ekr(draw_constants(Word.parse("1.2.1.3"), random.Random("memo")))
    nullspaces, calls = [], []
    counted_derivations(monkeypatch, nullspaces, calls)
    for point in (build.chart.origin(), flag_point(build.chart, random.Random(34))):
        nullspaces.clear()
        calls.clear()
        singularity_class_at(build, point, generic=True)
        assert nullspaces == [point] * 3, point
        assert calls == [(1, True)] * 3 + [(0, True)] * 3, point


def test_each_frame_annihilator_is_one_nullspace_pivoted_at_the_point(monkeypatch):
    # every word of lengths 2-5, zero constants at the origin and seeded
    # constants at one stress point: one generic classification runs
    # polynomial_nullspace r - 1 times, once in the certificate of each frame
    # D^(r-1), ..., D^1, no annihilator_at call of its targets runs one, and
    # the n - dim D^j(p) covectors of every call are independent at p
    nullspaces, calls = [], []
    counted_derivations(monkeypatch, nullspaces, calls)
    germs = 0
    for r in range(2, 6):
        for word in enumerate_words(r):
            seeded = draw_constants(word, random.Random(f"one-nullspace-constants|{word}"))
            stress = stress_point(seeded, random.Random(f"one-nullspace-point|{word}"))
            for spec, point in ((EkrSpec(word), None), (seeded, stress)):
                build = build_ekr(spec)
                nullspaces.clear()
                calls.clear()
                singularity_class_at(build, point or build.chart.origin(), generic=True)
                assert len(nullspaces) == r - 1, (str(word), point)
                targets = len(calls) - (r - 1)
                assert targets > 0 and calls == [(1, True)] * (r - 1) + [(0, True)] * targets, (str(word), point, calls)
                germs += 1
    assert germs == 124, germs


def test_big_flag_writes_nothing_on_the_germ_it_is_given():
    # big_flag reads D^r's rank from its generators' values; D^r(p) is kept
    # by its first reader, sandwich letter r, not by big_flag
    for text in ("1.2", "1.2.1.3", "1.2.3.2.3"):
        rng = random.Random(f"untouched-{text}")
        build = build_ekr(draw_constants(Word.parse(text), rng))
        dist = build.distribution
        for point in (build.chart.origin(), flag_point(build.chart, rng)):
            before = dict(vars(dist))
            tower = big_flag(dist, point)
            assert tower[0] is dist and vars(dist) == before, (text, point)


def test_cauchy_bcd_model():
    dist = model("bcd", m=2, n=3)
    assert cauchy_char_at(dist, dist.chart.origin()) == versor_subspace(dist.chart, ["y3"])


def test_cauchy_full_tangent():
    chart = Chart.for_length(0)
    dist = Distribution(chart, tuple(VectorField.versor(chart, i) for i in range(3)))
    assert cauchy_char_at(dist, chart.origin()).dim == 3


def test_cauchy_of_first_member_matches_closed_form():
    build = build_ekr(EkrSpec(Word.parse("1.1")))
    tower = big_flag(build.distribution, build.chart.origin())
    d1 = tower[1]
    assert cauchy_char_at(d1, build.chart.origin()) == versor_subspace(build.chart, ["x2", "y2"])


def test_covariant_bcd_model():
    dist = model("bcd", m=2, n=3)
    cov = covariant_at(dist, dist.chart.origin())
    assert cov == versor_subspace(dist.chart, ["y1", "y2", "y3"])
    cau = cauchy_char_at(dist, dist.chart.origin())
    assert cov.includes(cau)
    assert cov.dim - cau.dim == 2


def test_covariant_of_first_member_is_F():
    # D^1 of the brute-force tower of every word of length 2-4, with seeded
    # constants, at one seeded point per word: its covariant space is F, and
    # its Cauchy space lies in F with codimension 2
    for r in range(2, 5):
        for word in enumerate_words(r):
            rng = random.Random(f"covariant-F|{word}")
            build = build_ekr(draw_constants(word, rng))
            d1 = big_flag(build.distribution, build.chart.origin())[r - 1]
            p = flag_point(build.chart, rng)
            cov = covariant_at(d1, p)
            assert cov == value_at(closed_form_F(r), p), (str(word), p)
            cau = cauchy_char_at(d1, p)
            assert cov.includes(cau) and cov.dim - cau.dim == 2, (str(word), p)


@pytest.mark.parametrize(
    "generators, message",
    [
        (range(5), "covariant subspace needs corank 2, got corank 0"),
        (range(3), "covariant covector space has dimension 5, expected 3"),
    ],
    ids=["full-tangent", "involutive-span-of-t-x0-y0"],
)
def test_covariant_rejects_the_wrong_dimensions(generators, message):
    chart = Chart.for_length(1)
    dist = Distribution(chart, tuple(VectorField.versor(chart, i) for i in generators))
    with pytest.raises(UnexpectedCovariantDimension) as raised:
        covariant_at(dist, chart.origin())
    assert str(raised.value) == message


def test_generic_targets_match_the_closed_forms_at_length_five():
    rng = random.Random(505)
    checked = 0
    for word in enumerate_words(5):
        build = build_ekr(draw_constants(word, random.Random(f"len5|{word}")))
        for p in (build.chart.origin(), flag_point(build.chart, rng)):
            assert covariant_at(build.flag_member(1), p) == value_at(closed_form_F(5), p), (word, p)
            for j in range(1, 5):
                assert cauchy_char_at(build.flag_member(j), p) == value_at(closed_form_L(j, 5), p), (word, j, p)
            checked += 5
    assert checked == 410


# ---------------------------------------------------------------------------
# Integer curvature pairings against the dense formula
# ---------------------------------------------------------------------------


def dense_pairing(form: OneForm, point, columns) -> list[list[Fraction]]:
    """P[a][b] = v_b^T W v_a with W = exterior_derivative_at(form, point), in Fractions."""
    w = exterior_derivative_at(form, point)
    n = w.rows
    rows = [w.row(i) for i in range(n)]
    images = []
    for v in columns:
        support = [j for j in range(n) if v[j]]
        images.append([sum((row[j] * v[j] for j in support), F(0)) for row in rows])
    return [[sum((u[i] * image[i] for i in range(n) if u[i]), F(0)) for u in columns] for image in images]


def integer_columns(value: Subspace) -> list[list[Fraction]]:
    """The basis columns of D(p), each scaled to a primitive integer column:
    times the lcm of its denominators, over the gcd of the numerators."""
    columns = []
    for col in value.basis.columns():
        scaled = [x * lcm(*(y.denominator for y in col)) for x in col]
        g = gcd(*(x.numerator for x in scaled))
        columns.append([x / g for x in scaled])
    return columns


def dense_pairings(dist: Distribution, point) -> tuple[Subspace, list, list]:
    """D(p), its basis in integer columns, and their dense pairing under each annihilating form."""
    value = value_at(dist, point)
    columns = integer_columns(value)
    return value, columns, [dense_pairing(form, point, columns) for form in annihilator_at(dist, point)]


def dense_kernel_image(columns, rows) -> Subspace:
    n = len(columns[0])
    _, kernel = rank_and_nullspace(RationalMatrix.from_rows(rows) if rows else RationalMatrix(0, len(columns), ()))
    images = []
    for lam in kernel:
        terms = [(x, col) for x, col in zip(lam, columns) if x]
        images.append([sum((x * col[i] for x, col in terms), F(0)) for i in range(n)])
    return Subspace(RationalMatrix.from_columns(images, ambient=n))


def oracle_cauchy_char_at(value: Subspace, columns, pairings) -> Subspace:
    """cauchy_char_at from the dense Fraction pairings of every annihilating form."""
    if not pairings:
        return value
    return dense_kernel_image(columns, [row for pair in pairings for row in pair])


def oracle_covariant_at(value: Subspace, columns, pairings) -> Subspace:
    """covariant_at from the dense Fraction pairings, with the same checks and messages."""
    n, d = value.ambient, value.dim
    if n - d != 2:
        raise UnexpectedCovariantDimension(f"covariant subspace needs corank 2, got corank {n - d}")
    rows = []
    for pair in pairings:
        for a in range(d):
            for b in range(a + 1, d):
                for c in range(b + 1, d):
                    if pair[b][c] or pair[a][c] or pair[a][b]:
                        row = [F(0)] * d
                        row[a], row[b], row[c] = pair[b][c], -pair[a][c], pair[a][b]
                        rows.append(row)
    _, solutions = rank_and_nullspace(RationalMatrix.from_rows(rows) if rows else RationalMatrix(0, d, ()))
    if len(solutions) != 1:
        raise UnexpectedCovariantDimension(
            f"covariant covector space has dimension {len(solutions) + 2}, expected 3"
        )
    return dense_kernel_image(columns, solutions)


def entries_or_error(target, *args):
    try:
        return target(*args).basis.entries
    except TwoflagsError as error:
        return type(error), str(error)


def check_targets_against_the_dense_oracle(words, constants, points, tag: str) -> int:
    """For each word, spec and point, every big-flag member D^1, ..., D^(r-1):
    cauchy_char_at and, at corank 2, covariant_at give the oracle's basis
    entries or raise its error.  ``constants`` names the specs of a word,
    "zero" and a "seeded" draw, and ``points`` the points of each spec, the
    "origin" and a "stress" point, each stress point a new draw of the
    word's stream.  Returns the number of members checked."""
    checked = 0
    for word in words:
        specs = [EkrSpec(word)] if "zero" in constants else []
        if "seeded" in constants:
            specs.append(draw_constants(word, random.Random(f"{tag}-constants|{word}")))
        rng = random.Random(f"{tag}-points|{word}")
        for spec in specs:
            build = build_ekr(spec)
            for kind in points:
                point = stress_point(spec, rng) if kind == "stress" else build.chart.origin()
                for member in big_flag(build.distribution, point)[1:-1]:
                    targets = [(cauchy_char_at, oracle_cauchy_char_at)]
                    if member.chart.dim - value_at(member, point).dim == 2:
                        targets.append((covariant_at, oracle_covariant_at))
                    try:
                        dense = dense_pairings(member, point)
                    except TwoflagsError as error:
                        expected = [(type(error), str(error))] * len(targets)
                    else:
                        expected = [entries_or_error(oracle, *dense) for _, oracle in targets]
                    got = [entries_or_error(target, member, point) for target, _ in targets]
                    assert got == expected, (str(spec.to_json()), point)
                    checked += 1
    return checked


def test_targets_match_the_dense_oracle_up_to_length_five():
    words = [word for r in range(3, 6) for word in enumerate_words(r)]
    checked = check_targets_against_the_dense_oracle(
        words, constants=("zero", "seeded"), points=("origin", "stress"), tag="pairing-oracle"
    )
    assert checked == 864


def test_generic_targets_are_coordinate_subspaces_up_to_length_four():
    # the generic route's target of position nu, covariant_at(D^1, p) for
    # nu = 2 and cauchy_char_at(D^(nu-2), p) above, is {v : v_i = 0 for
    # i < 2 nu - 1}, like _closed_target(nu): its annihilator is the unit
    # covectors e_0, ..., e_(2 nu - 2), each one entry, which is all that
    # span_includes and annihilates then read
    checked = 0
    for r in range(2, 5):
        for word in enumerate_words(r):
            rng = random.Random(f"coordinate-targets|{word}")
            for spec in (EkrSpec(word), draw_constants(word, rng)):
                build = build_ekr(spec)
                for point in (build.chart.origin(), stress_point(spec, rng)):
                    tower = big_flag(build.distribution, point)  # [D^r, ..., D^0]
                    targets = {2: covariant_at(tower[r - 1], point)}
                    for nu in range(3, r + 1):
                        targets[nu] = cauchy_char_at(tower[r - nu + 2], point)
                    for nu, target in targets.items():
                        units = tuple(((i, 1),) for i in range(2 * nu - 1))
                        assert target.basis.annihilator == units, (str(spec.to_json()), point, nu)
                        checked += 1
    assert checked == 216


@pytest.mark.skipif(
    not os.environ.get("TWOFLAGS_GENERIC_LEN6"),
    reason="the length-6 pairing oracle sweep is opt-in (set TWOFLAGS_GENERIC_LEN6=1)",
)
def test_targets_match_the_dense_oracle_at_length_six():
    # all 122 words of length 6 at the origin with zero constants, D^1 to D^5
    words = list(enumerate_words(6))
    assert len(words) == 122
    assert check_targets_against_the_dense_oracle(words, constants=("zero",), points=("origin",), tag="pairing-oracle") == 610


@pytest.mark.skipif(
    not os.environ.get("TWOFLAGS_GENERIC_LEN6"),
    reason="the length-6 pairing oracle sweep is opt-in (set TWOFLAGS_GENERIC_LEN6=1)",
)
def test_targets_match_the_dense_oracle_at_length_six_at_stress_points():
    # all 122 words of length 6 with one seeded draw of constants at one stress
    # point, D^1 to D^5: off the origin the basis columns of D(p) have
    # denominators, which the origin's integral tower members never give
    words = list(enumerate_words(6))
    checked = check_targets_against_the_dense_oracle(words, constants=("seeded",), points=("stress",), tag="pairing-oracle")
    assert checked == 610


@st.composite
def scaled_pairing_inputs(draw, chart=Chart.for_length(2)):
    """A sparse polynomial one-form, a rational point and up to 5 sparse
    columns whose entries have mixed denominators."""
    n = chart.dim
    form = OneForm(chart, draw(sparse_fields(chart)).components)
    point = tuple(draw(st.lists(coeffs, min_size=n, max_size=n)))
    entries = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6))
    d = draw(st.integers(min_value=1, max_value=5))
    columns = [tuple(draw(st.lists(entries, min_size=n, max_size=n))) for _ in range(d)]
    return form, point, columns


@settings(max_examples=100, deadline=None)
@given(scaled_pairing_inputs())
def test_integer_pairing_scales_back_to_the_dense_formula(inputs):
    form, point, columns = inputs
    d = len(columns)
    integer = _integer_rows(columns)
    # u_a is an integer column, a positive multiple of v_a
    for u, v in zip(integer, columns):
        assert all(type(x) is int for x in u)
        k = next((i for i, x in enumerate(v) if x), None)
        if k is None:
            assert not any(u)
        else:
            assert u[k] / v[k] > 0 and list(u) == [x * (u[k] / v[k]) for x in v]
    pairing = _integer_pairing(_integer_gradient(form, point), integer)
    m = lcm(*(v.denominator for row in gradient_at(form, point) for v in row))
    dense = dense_pairing(form, point, integer)
    for a in range(d):
        assert pairing[a][a] == 0
        for b in range(d):
            assert type(pairing[a][b]) is int
            assert pairing[b][a] == -pairing[a][b]
            assert F(pairing[a][b], m) == dense[a][b], (a, b)

"""Acceptance suite: one test per criterion, every check exact (no tolerances).

Each test prints one PASS line when its criterion holds; a failed assertion
is the FAIL line.  The optional length-6 classification sweep runs when the
environment variable TWOFLAGS_SWEEP_LEN6 is set.
"""

import os
import random
from fractions import Fraction

import pytest

from twoflags.atlas import adjacencies, codimension, count_classes, enumerate_words
from twoflags.classify import singularity_class_at, singularity_locus_equations
from twoflags.cli import draw_constants, draw_nonzero_rational, run_verification
from twoflags.ekr import (
    EkrSpec,
    Word,
    appendix_b_spec,
    build_ekr,
    closed_form_F,
    closed_form_L,
    model,
    model_build,
)
from twoflags.geometry import (
    VectorField,
    annihilator_at,
    big_flag,
    cauchy_char_at,
    covariant_at,
    lie_bracket,
    lie_square,
    small_flag,
    value_at,
)
from twoflags.exactalg import Poly, primitive_tuple

F = Fraction


def random_point(chart, rng, forced=()):
    point = [F(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1)) for _ in range(chart.dim)]
    for name, value in forced:
        point[chart.index(name)] = F(value)
    return tuple(point)


def test_criterion_1_theorem_sweep():
    """Every pseudo-normal form of length 1..5 classifies to its own word."""
    expected_counts = [(1 + 3 ** (r - 1)) // 2 for r in range(1, 6)]
    for r, expected in zip(range(1, 6), expected_counts):
        outcomes = run_verification(length=r, trials=3, seed=0, zero_constants=True)
        assert len({o.word for o in outcomes}) == expected
        assert len(outcomes) == 4 * expected  # zero draw + 3 random draws
        failures = [o for o in outcomes if not o.passed]
        assert not failures, failures[:5]
    print("PASS criterion 1: classification sweep, lengths 1-5, zero + 3 random draws")


@pytest.mark.skipif(
    not os.environ.get("TWOFLAGS_SWEEP_LEN6"),
    reason="length-6 sweep is opt-in (set TWOFLAGS_SWEEP_LEN6=1)",
)
def test_criterion_1_optional_length_six():
    outcomes = run_verification(length=6, trials=3, seed=0, zero_constants=True)
    assert len({o.word for o in outcomes}) == (1 + 3 ** 5) // 2
    assert all(o.passed for o in outcomes)
    print("PASS criterion 1 (opt-in): classification sweep, length 6")


def test_criterion_2_counting_table():
    assert [count_classes(m, 7) for m in range(1, 7)] == [32, 365, 715, 855, 876, 877]
    for r in range(1, 11):
        assert count_classes(2, r) == (1 + 3 ** (r - 1)) // 2
    fourteen = [
        "1.1.1.1", "1.1.1.2", "1.1.2.1", "1.1.2.2", "1.1.2.3",
        "1.2.1.1", "1.2.1.2", "1.2.1.3", "1.2.2.1", "1.2.2.2",
        "1.2.2.3", "1.2.3.1", "1.2.3.2", "1.2.3.3",
    ]
    assert {str(w) for w in enumerate_words(4)} == set(fourteen)
    print("PASS criterion 2: class counts (widths 1-6 at length 7, closed formula, length-4 set)")


def test_criterion_3_length_two_models():
    ca = model_build("ca_2")
    ex = model_build("ex_2")
    assert str(singularity_class_at(ca, ca.chart.origin()).word) == "1.1"
    assert str(singularity_class_at(ex, ex.chart.origin()).word) == "1.2"
    rng = random.Random(3)
    for trial in range(10):
        x2 = draw_nonzero_rational(rng)
        off = random_point(ex.chart, rng, forced=[("x2", x2)])
        assert str(singularity_class_at(ex, off).word) == "1.1", off
        on = random_point(ex.chart, rng, forced=[("x2", 0)])
        assert str(singularity_class_at(ex, on).word) == "1.2", on
    print("PASS criterion 3: ca_2 -> 1.1, ex_2 -> 1.2 on {x2=0} and 1.1 off it")


def test_criterion_4_appendix_b_families():
    rng = random.Random(41)
    b3, c3, c4 = (draw_nonzero_rational(rng) for _ in range(3))

    build_d = build_ekr(appendix_b_spec("D", b3=b3, c3=c3, c4=c4))
    chart = build_d.chart
    origin = chart.origin()
    report = singularity_class_at(build_d, origin)
    assert str(report.word) == "1.2.1.2"
    flag_d = small_flag(build_d.distribution, 5)
    v3_value = value_at(flag_d[2], origin)
    v5_value = value_at(flag_d[4], origin)
    f_value = value_at(closed_form_F(4), origin)
    # d/dx2 + (c4 + y4) d/dy2 at 0
    d3_witness = [F(0)] * chart.dim
    d3_witness[chart.index("x2")] = F(1)
    d3_witness[chart.index("y2")] = c4
    assert v3_value.contains_vector(d3_witness)
    # d/dt + x1 d/dx0 + y1 d/dy0 + (c4 + y4) d/dy1 at 0, escaping F(0)
    v5_witness = [F(0)] * chart.dim
    v5_witness[chart.index("t")] = F(1)
    v5_witness[chart.index("y1")] = c4
    assert v5_value.contains_vector(v5_witness)
    assert not f_value.contains_vector(v5_witness)
    assert not f_value.includes(v5_value)

    build_e = build_ekr(appendix_b_spec("E", b3=b3, c3=c3))
    report = singularity_class_at(build_e, origin)
    assert str(report.word) == "1.2.1.3"
    flag_e = small_flag(build_e.distribution, 5)
    e3_witness = [F(0)] * chart.dim
    e3_witness[chart.index("y2")] = F(1)  # y4 d/dx2 + d/dy2 at 0
    assert value_at(flag_e[2], origin).contains_vector(e3_witness)
    assert f_value.includes(value_at(flag_e[4], origin))
    print("PASS criterion 4: families D -> 1.2.1.2 and E -> 1.2.1.3 with small-flag witnesses")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(55)
    for r in range(1, 5):
        for word in enumerate_words(r):
            for spec in (EkrSpec(word), draw_constants(word, random.Random(f"c5|{word}"))):
                build = build_ekr(spec)
                chart = build.chart
                points = [chart.origin()] + [random_point(chart, rng) for _ in range(5)]
                for p in points:
                    d1 = build.flag_member(1)
                    cov = covariant_at(d1, p)
                    assert cov == value_at(closed_form_F(r), p)
                    assert cov.dim == 2 * r
                    cau = cauchy_char_at(d1, p)
                    assert cov.includes(cau) and cov.dim - cau.dim == 2
                    for j in range(1, r):
                        l_generic = cauchy_char_at(build.flag_member(j), p)
                        assert l_generic == value_at(closed_form_L(j, r), p)
    bcd = model("bcd", m=2, n=3)
    origin = bcd.chart.origin()
    cov = covariant_at(bcd, origin)
    assert cov.dim == 3
    for name in ("y1", "y2", "y3"):
        versor = [F(0)] * bcd.chart.dim
        versor[bcd.chart.index(name)] = F(1)
        assert cov.contains_vector(versor)
    cau = cauchy_char_at(bcd, origin)
    versor = [F(0)] * bcd.chart.dim
    versor[bcd.chart.index("y3")] = F(1)
    assert cau.dim == 1 and cau.contains_vector(versor)
    print("PASS criterion 5: generic covariant/Cauchy match the closed forms (words <= 4, model bcd)")


def test_criterion_6_locus_equations():
    rng = random.Random(6)
    for word in enumerate_words(4):
        equations = singularity_locus_equations(word)
        assert len(equations) == codimension(word)
        spec = draw_constants(word, random.Random(f"c6|{word}"))
        build = build_ekr(spec)
        chart = build.chart
        locus_names = [eq.split("=")[0] for eq in equations]
        on_locus = list(random_point(chart, rng, forced=[(n, 0) for n in locus_names]))
        assert singularity_class_at(build, tuple(on_locus)).word == word, word
        for name in locus_names:
            moved = list(on_locus)
            moved[chart.index(name)] = draw_nonzero_rational(rng)
            new_word = singularity_class_at(build, tuple(moved)).word
            position = int(name[1:])
            assert new_word.letters[position - 1] < word.letters[position - 1], (word, name)
    print("PASS criterion 6: length-4 locus points classify back; perturbations drop the letter")


def test_criterion_7_structural_invariants():
    rng = random.Random(7)

    # randomized bracket identities, exact
    def random_field(chart):
        n = chart.dim
        comps = []
        for _ in range(n):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                mono = tuple(
                    sorted((rng.randrange(n), rng.randint(1, 2)) for _ in range(rng.randint(1, 2)))
                )
                if len({v for v, _ in mono}) < len(mono):
                    continue
                terms[mono] = F(rng.randint(-4, 4), rng.randint(1, 3))
            comps.append(Poly(n, terms))
        return VectorField(chart, tuple(comps))

    chart = build_ekr(EkrSpec(Word.parse("1"))).chart
    for _ in range(40):
        x, y, z = (random_field(chart) for _ in range(3))
        assert lie_bracket(x, y) == -lie_bracket(y, x)
        jac = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert jac.is_zero()
        f = Poly.variable(chart.dim, 1) * Poly.variable(chart.dim, 3) + Poly.const(chart.dim, 2)
        assert lie_bracket(x, y.scaled(f)) == lie_bracket(x, y).scaled(f) + y.scaled(x.apply_to(f))

    # brute-force big flags: rank profile 3, 5, ..., 2r+3 at 10 points each;
    # big_flag decides the last square at the origin only, so the polynomial
    # square [D^1, D^1] is checked for full rank at every point
    for r in range(1, 5):
        for word in enumerate_words(r):
            spec = draw_constants(word, random.Random(f"c7|{word}"))
            build = build_ekr(spec)
            tower = big_flag(build.distribution, build.chart.origin())
            top = lie_square(tower[-2])
            points = [build.chart.origin()] + [random_point(build.chart, rng) for _ in range(10)]
            for p in points:
                ranks = [value_at(member, p).dim for member in tower[:-1]] + [value_at(top, p).dim]
                assert ranks == list(range(3, build.chart.dim + 1, 2)), (word, p)

            # sandwich diagram: vertical inclusions of codimension 1,
            # horizontal inclusions of codimension 2
            for p in points[:4]:
                f_val = value_at(closed_form_F(r), p)
                d_vals = {j: value_at(build.flag_member(j), p) for j in range(1, r + 1)}
                l_vals = {j: value_at(closed_form_L(j, r), p) for j in range(1, r)}
                assert d_vals[1].includes(f_val) and d_vals[1].dim - f_val.dim == 1
                for j in range(1, r):
                    assert d_vals[j + 1].includes(l_vals[j])
                    assert d_vals[j + 1].dim - l_vals[j].dim == 1
                if r >= 2:
                    assert f_val.includes(l_vals[1]) and f_val.dim - l_vals[1].dim == 2
                for j in range(2, r):
                    assert l_vals[j - 1].includes(l_vals[j])
                    assert l_vals[j - 1].dim - l_vals[j].dim == 2

    # jet-bundle annihilator: the Pfaffian system, lengths 1..5
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
        assert {tuple(p.signature() for p in f.coefficients) for f in forms} == expected
    print("PASS criterion 7: bracket identities, rank profiles, sandwich diagram, jet annihilator")


def test_criterion_8_adjacencies():
    chain = ["1.2.3", "1.2.2", "1.1.2", "1.1.1"]
    for here, there in zip(chain, chain[1:]):
        assert Word.parse(there) in adjacencies(Word.parse(here))
    chain = ["1.2.3.2", "1.2.3.1", "1.2.2.1"]
    for here, there in zip(chain, chain[1:]):
        assert Word.parse(there) in adjacencies(Word.parse(here))
    for r in range(1, 6):
        for word in enumerate_words(r):
            for target in adjacencies(word):
                assert codimension(target) == codimension(word) - 1
    print("PASS criterion 8: adjacency chains and codimension drop of exactly 1")

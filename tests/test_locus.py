"""Each class's locus and codimension, certified by its own flag.

The locus of a word w in the chart of EKR(w) is the coordinate subspace S
that singularity_locus_equations(w) writes: x_k = 0 at each letter 2 and
x_s = y_s = 0 at each letter 3.  Near the origin the class of w is the
common zero set Z of its closed conditions, the polynomials that vanish
where an inclusion of the flag holds:

- at each non-1 sandwich position j, the components of the step-j leading
  field outside the versors of the target of j;
- at each letter 3 at s, with nu the nearest non-1 letter to its left and
  l = s - nu - 1, the components outside the target of nu of every field of
  the small flag member V_(2l+3).

The other conditions of class w are non-inclusions, which are open and hold
at 0.  If (i) every monomial of every condition contains a variable that S
sets to 0, then S lies in Z; if (ii) the gradients of the conditions at 0
have rank codimension(w), then c of them cut out a smooth submanifold M of
codimension c with S in Z in M, so S = Z = M near 0.

The opt-in lengths 7 and 8 run when the environment variable
TWOFLAGS_LOCUS_LONG is set.
"""

import os
import random
from fractions import Fraction

import pytest

from twoflags.atlas import codimension, enumerate_words
from twoflags.classify import _ClosedGeometry, _closed_target, singularity_class_at, singularity_locus_equations
from twoflags.cli import draw_constants
from twoflags.ekr import EkrSpec, Word, build_ekr
from twoflags.exactalg import RationalMatrix, rank_and_nullspace
from twoflags.geometry import DEFAULT_GENERATOR_CAP, Chart, small_flag


def _outside(nu: int, s: int, field) -> list:
    """The components of ``field`` off the coordinate versors that span the target of nu on the length-s chart."""
    inside = set()
    for column in _closed_target(nu, s).basis.columns():
        (index,) = [i for i, v in enumerate(column) if v]
        inside.add(index)
    return [c for i, c in enumerate(field.components) if i not in inside and c.terms]


def closed_conditions(build) -> list:
    """The closed conditions of the class of EKR(w), as polynomials on prefix charts of the chart."""
    geo = _ClosedGeometry(build, build.chart.origin(), DEFAULT_GENERATOR_CAP)
    letters = build.spec.word.letters
    conditions = []
    nu = None
    for s, letter in enumerate(letters, start=1):
        if letter == 1:
            continue
        conditions += _outside(s, s, geo.member(s).generators[0])
        if letter == 3:
            l = s - nu - 1
            for field in small_flag(geo.member(s), 2 * l + 3)[-1].generators:
                conditions += _outside(nu, s, field)
        nu = s
    return conditions


def locus_variables(word: Word) -> set[int]:
    """The chart indices of the variables that singularity_locus_equations(word) sets to 0."""
    chart = Chart.for_length(word.length)
    return {chart.index(eq.removesuffix("=0")) for eq in singularity_locus_equations(word)}


def gradient_rank(conditions: list, point: tuple[Fraction, ...]) -> int:
    """The rank of the conditions' gradients at a point of the chart."""
    if not conditions:
        return 0
    rows = []
    for poly in conditions:
        partials = poly.value_and_partials_at(point[: poly.arity])[1]
        rows.append([partials.get(i, 0) for i in range(len(point))])
    return rank_and_nullspace(RationalMatrix.from_rows(rows))[0]


def uncovered(conditions: list, variables: set[int]) -> list:
    """The monomials of the conditions that contain no variable of ``variables``."""
    return [mono for poly in conditions for mono in poly.terms if not any(var in variables for var, _ in mono)]


def specs(word: Word) -> tuple[EkrSpec, EkrSpec]:
    """Zero constants and one seeded draw."""
    return EkrSpec(word), draw_constants(word, random.Random(f"locus|{word}"))


def certify(lengths) -> int:
    germs = 0
    for r in lengths:
        origin = Chart.for_length(r).origin()
        for word in enumerate_words(r):
            variables = locus_variables(word)
            for spec in specs(word):
                conditions = closed_conditions(build_ekr(spec))
                context = (str(spec.to_json()),)
                assert uncovered(conditions, variables) == [], context
                assert gradient_rank(conditions, origin) == codimension(word), context
                germs += 1
    return germs


def test_locus_and_codimension_are_certified_up_to_length_six():
    # 185 words, zero and seeded constants
    assert certify(range(1, 7)) == 370


@pytest.mark.skipif(
    not os.environ.get("TWOFLAGS_LOCUS_LONG"),
    reason="the length-7 and length-8 locus certification is opt-in (set TWOFLAGS_LOCUS_LONG=1)",
)
def test_locus_and_codimension_are_certified_at_lengths_seven_and_eight():
    # 365 + 1,094 words, zero and seeded constants
    assert certify([7, 8]) == 2918


def test_each_locus_variable_is_needed_up_to_length_five():
    # not vacuous: dropping any one variable from the locus leaves a monomial
    # of some condition with no variable set to 0, in all 184 cases of the
    # 58 words of lengths 2-5 that hold a 2 or a 3, for each constant draw
    cases = 0
    for r in range(2, 6):
        for word in enumerate_words(r):
            variables = locus_variables(word)
            for spec in specs(word):
                conditions = closed_conditions(build_ekr(spec))
                for var in variables:
                    assert uncovered(conditions, variables - {var}), (str(spec.to_json()), var)
                    cases += 1
    assert cases == 2 * 184


def test_locus_points_carry_the_class_and_the_rank():
    # at seeded points of S, the other coordinates random, the closed class
    # is w and the conditions' gradients still have rank codimension(w)
    rng = random.Random("locus-points")
    for r in range(1, 6):
        for word in enumerate_words(r):
            variables = locus_variables(word)
            for spec in specs(word):
                build = build_ekr(spec)
                conditions = closed_conditions(build)
                point = tuple(
                    Fraction(0) if i in variables else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for i in range(build.chart.dim)
                )
                context = (str(spec.to_json()), point)
                assert singularity_class_at(build, point).word == word, context
                assert gradient_rank(conditions, point) == codimension(word), context

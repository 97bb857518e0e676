"""The class of a pseudo-normal-form germ read straight off the operation
table, as an oracle for both classification routes.

The read-off takes O(r) exact steps and no Lie bracket.  With (x_k, y_k)
the fiber coordinates of the point and b_k, c_k the constants, level k of
the word has the direction d_k = (alpha : beta : gamma), the coefficients
of the new Z1 on (Z1, d/dx_(k-1), d/dy_(k-1)) at the point.  alpha = 0 is
the vertical line, and delta is the point of that line a 3 must hit: the
tangent of the vertical line after a vertical level, and after a regular
level the tangent at d_k of the line through d_k and the previous delta,
written in the new chart.  The stress sampler puts points on the strata
where these cases occur.

The opt-in sweeps (closed route at length 7, generic route at length 5)
run when the environment variable TWOFLAGS_READOFF_LONG is set.
"""

import os
import random
from fractions import Fraction

import pytest

from twoflags.atlas import enumerate_words
from twoflags.classify import singularity_class_at
from twoflags.cli import draw_constants
from twoflags.ekr import EkrSpec, Word, build_ekr

F = Fraction


def _direction(letter: int, x: Fraction, y: Fraction, b: Fraction, c: Fraction) -> tuple[Fraction, ...]:
    """d_k = (alpha, beta, gamma) of one level at the point."""
    if letter == 1:
        return (F(1), b + x, c + y)
    if letter == 2:
        return (x, F(1), c + y)
    return (x, y, F(1))


def _read_level(k, letter, x, y, b, c, delta):
    """Class letter k and the delta after level k, from the delta before it (None: undefined)."""
    alpha, beta, gamma = _direction(letter, x, y, b, c)
    if k == 1 or alpha:
        read = 1
    elif delta is None:
        read = 2
    else:
        read = 3 if beta * delta[1] == gamma * delta[0] else 2
    if k >= 2 and not alpha:
        delta = (F(0), F(1))
    elif delta is not None and letter == 2:
        delta = (-x * delta[0], delta[1] - (c + y) * delta[0])
    elif delta is not None and letter == 3:
        delta = (-x * delta[1], delta[0] - y * delta[1])
    return read, delta


def oracle_read_class(spec: EkrSpec, point: tuple[Fraction, ...]) -> Word:
    """The singularity class of EKR(spec) at ``point``, read off the operation table."""
    letters = []
    delta = None
    for k, letter in enumerate(spec.word.letters, start=1):
        x, y = point[2 * k + 1], point[2 * k + 2]
        read, delta = _read_level(k, letter, x, y, spec.b_at(k), spec.c_at(k), delta)
        letters.append(read)
    return Word(tuple(letters))


def _small(rng: random.Random) -> Fraction:
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def stress_point(spec: EkrSpec, rng: random.Random) -> tuple[Fraction, ...]:
    """A point on the chart of EKR(spec) that hits the strata of the read-off.

    Per level one of three: a random small rational pair (x_k, y_k), x_k = 0,
    or x_k = 0 with y_k chosen so that the level's direction hits delta,
    where delta is defined and a 2 or a 3 can hit it.  t, x0 and y0 read
    nothing and are random.
    """
    coords = [_small(rng) for _ in range(3)]
    delta = None
    for k, letter in enumerate(spec.word.letters, start=1):
        b, c = spec.b_at(k), spec.c_at(k)
        mode = rng.randrange(3)
        x = _small(rng) if mode == 0 else F(0)
        y = _small(rng)
        if mode == 2 and delta is not None:
            if letter == 2 and delta[0]:
                y = delta[1] / delta[0] - c
            elif letter == 3 and delta[1]:
                y = delta[0] / delta[1]
        coords += [x, y]
        _, delta = _read_level(k, letter, x, y, b, c, delta)
    return tuple(coords)


def _sweep(lengths, points: int, generic: bool, tag: str) -> tuple[int, int]:
    """Every word of the given lengths, zero and seeded constants, at seeded
    stress points: the route's class must equal the read-off.  Returns the
    number of germs and of those whose class has a 3 at a position where the
    word has a 1 or a 2."""
    germs = new_threes = 0
    for r in lengths:
        for word in enumerate_words(r):
            seeded = draw_constants(word, random.Random(f"{tag}-constants|{word}"))
            rng = random.Random(f"{tag}-points|{word}")
            for spec in (EkrSpec(word), seeded):
                build = build_ekr(spec)
                for _ in range(points):
                    point = stress_point(spec, rng)
                    expected = oracle_read_class(spec, point)
                    report = singularity_class_at(build, point, generic=generic)
                    assert report.word == expected, (str(spec.to_json()), point, str(report.word), str(expected))
                    germs += 1
                    new_threes += any(read == 3 != letter for read, letter in zip(expected.letters, word.letters))
    return germs, new_threes


def test_read_off_by_hand():
    # 1.2 at x2 = 0 and at x2 = 1; 1.2.3 at x2 = x3 = 0 hits the 3 only on y3 = 0
    spec = EkrSpec(Word.parse("1.2"))
    assert str(oracle_read_class(spec, (F(0),) * 7)) == "1.2"
    assert str(oracle_read_class(spec, (F(0),) * 5 + (F(1), F(0)))) == "1.1"
    spec = EkrSpec(Word.parse("1.2.3"))
    assert str(oracle_read_class(spec, (F(0),) * 9)) == "1.2.3"
    assert str(oracle_read_class(spec, (F(0),) * 8 + (F(1),))) == "1.2.2"


def test_closed_route_equals_the_read_off_up_to_length_six():
    # 185 words, 4 stress points per (word, constants): 1,480 germs
    germs, new_threes = _sweep(range(1, 7), points=4, generic=False, tag="closed")
    assert germs == 1480
    assert new_threes > 0, new_threes


def test_generic_route_equals_the_read_off_up_to_length_four():
    germs, _ = _sweep(range(1, 5), points=4, generic=True, tag="generic")
    assert germs == 176


@pytest.mark.skipif(
    not os.environ.get("TWOFLAGS_READOFF_LONG"),
    reason="the length-7 closed read-off sweep is opt-in (set TWOFLAGS_READOFF_LONG=1)",
)
def test_closed_route_equals_the_read_off_at_length_seven():
    germs, new_threes = _sweep([7], points=1, generic=False, tag="closed-7")
    assert germs == 730
    assert new_threes > 0, new_threes


@pytest.mark.skipif(
    not os.environ.get("TWOFLAGS_READOFF_LONG"),
    reason="the length-5 generic read-off sweep is opt-in (set TWOFLAGS_READOFF_LONG=1)",
)
def test_generic_route_equals_the_read_off_at_length_five():
    germs, _ = _sweep([5], points=1, generic=True, tag="generic-5")
    assert germs == 82

"""Sandwich-class and singularity-class decision procedures.

The sandwich word of a flag germ at a point p records, letter by letter,
whether the pointwise inclusion D^j(p) in L(D^(j-2))(p) holds (F(p) plays
the role of L(D^0)).  The singularity word refines every non-first
non-1 sandwich letter to 2 or 3 by testing the member V_{2l+3} of the
small flag of D^s against the same target space, where the nearest non-1
letter to the left sits at position nu and l = s - nu - 1.  Only the value
of V_{2l+3} at p is read, so its last two bracket rounds are formed at p
from the 2-jets of the fields of V_{2l+1}, never as polynomial fields.

Two geometry sources are available.  For a pseudo-normal form a sandwich
letter s reads only the value of the step-s leading field, a refinement
reads flag member s on chart s, where the build keeps that field, and the
covariant/Cauchy spaces come from their closed forms, one per position.
The generic source recomputes everything from scratch: big flag by Lie
squares, covariant and Cauchy subspaces by pointwise linear algebra, small
flags on the full chart.  A source supplies only flag members and targets; one
inclusion test, ``_included``, decides every sandwich letter and every
refinement on both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import ChartMismatch, NotSpecialFlag
from .ekr import EkrBuild, Word, _check_word, _versors_from, closed_form_F, closed_form_L
from .geometry import (
    DEFAULT_GENERATOR_CAP,
    Distribution,
    Subspace,
    _check_cap,
    _check_point,
    big_flag,
    cauchy_char_at,
    covariant_at,
    small_flag_vectors_at,
    value_at,
)
from .exactalg import RationalMatrix, _check_int, annihilates, span_includes


@dataclass(frozen=True)
class SandwichWord:
    """Letters over {1, 2}, where 2 stands for the underlined sandwich letter."""

    letters: tuple[int, ...]

    def __post_init__(self):
        # True == 1 and 1.0 == 1, but neither prints as the letter 1
        if set(map(type, self.letters)) - {int}:
            _check_int("sandwich letter", next(letter for letter in self.letters if type(letter) is not int))
        if not self.letters or self.letters[0] != 1:
            raise ChartMismatch("a sandwich word starts with the letter 1")
        if any(letter not in (1, 2) for letter in self.letters):
            raise ChartMismatch("sandwich letters are 1 or 2")

    def __str__(self) -> str:
        return ".".join(str(letter) for letter in self.letters)


@dataclass(frozen=True)
class Evidence:
    """Refinement record for one non-first non-1 position: whether V_member of D^position lies in nu's target."""

    position: int
    nu: int
    included: bool

    @property
    def l(self) -> int:
        return self.position - self.nu - 1

    @property
    def member(self) -> int:
        return 2 * self.l + 3

    def to_json(self) -> dict:
        return {
            "position": self.position,
            "nu": self.nu,
            "l": self.l,
            "member": f"V_{self.member}",
            "included": self.included,
        }


@dataclass(frozen=True)
class ClassificationReport:
    point: tuple[Fraction, ...]
    sandwich: SandwichWord
    word: Word
    evidence: tuple[Evidence, ...]

    def to_json(self) -> dict:
        return {
            "point": [str(v) for v in self.point],
            "sandwich": str(self.sandwich),
            "word": str(self.word),
            "evidence": [e.to_json() for e in self.evidence],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json())


@lru_cache(maxsize=256)
def _closed_target(nu: int) -> Subspace:
    """The target of position nu on chart nu: F, or L(D^(nu-2)) for nu > 2.

    Both are spanned by coordinate versors, so the value is the same at
    every point; it is computed once per position, and so is the annihilator
    that span_includes keeps on its basis: e_0, ..., e_(2nu-2), which cut out
    the target of nu on every chart s >= nu, that of a refinement at s.
    """
    target = closed_form_F(nu) if nu == 2 else closed_form_L(nu - 2, nu)
    return value_at(target, target.chart.origin())


class _ClosedGeometry:
    """Flag members and subflag targets of a pseudo-normal form.

    Flag member j lives on chart j, where the build keeps the step-j leading
    field: every later versor lies in both the member and its target, so
    leaving them off changes no inclusion.  F and L come from their closed
    forms, one target per position.
    """

    target = staticmethod(_closed_target)

    def __init__(self, build: EkrBuild, point: tuple[Fraction, ...], cap: int):
        self.build = build
        self.point = point
        self.cap = cap
        self.r = build.length

    def member(self, j: int) -> Distribution:
        """The step-j leading field plus d/dx_j and d/dy_j, on chart j: asked for by a refinement."""
        lead = self.build.leading[j - 1]
        return Distribution._of(lead.chart, (lead,) + _versors_from(lead.chart, j))

    def value(self, j: int) -> RationalMatrix:
        """Z_j(p), the step-j leading field at the point cut to chart j, as one
        column.  It decides the sandwich letter: each target of chart j (F, or
        L(D^(j-2)) for j >= 3) holds d/dx_j and d/dy_j, so D^j(p) lies in it
        exactly when Z_j(p) does."""
        lead = self.build.leading[j - 1]
        return RationalMatrix._of(lead.chart.dim, 1, lead._value(self.point[: lead.chart.dim]))


class _GenericGeometry:
    """Flag members and subflag targets recomputed from the raw distribution, each target once."""

    def __init__(self, dist: Distribution, point: tuple[Fraction, ...], cap: int):
        self.point = point
        self.cap = cap
        self.tower = big_flag(dist, self.point, cap=cap)  # [D^r, ..., D^0]
        self.r = len(self.tower) - 1
        if self.r == 0:
            raise NotSpecialFlag(f"chart dimension {dist.chart.dim} carries a flag of length 0, which has no class")
        self.targets = {2: covariant_at(self.member(1), self.point)} if self.r >= 2 else {}
        for nu in range(3, self.r + 1):
            self.targets[nu] = cauchy_char_at(self.member(nu - 2), self.point)

    def member(self, j: int) -> Distribution:
        return self.tower[self.r - j]

    def target(self, nu: int) -> Subspace:
        return self.targets[nu]

    def value(self, j: int) -> RationalMatrix:
        """A basis of D^j(p), kept with the member by value_at for the germ's other readers."""
        return value_at(self.member(j), self.point).basis


def _included(geo, s: int, nu: int, member: int) -> bool:
    """Whether V_member of flag member s lies in the target of position nu at
    the point, cut to the chart of the member; V_1 is the member itself.

    V_1(p) is the source's own ``value``, tested by span_includes.  For a
    refinement only V_(member-2) is built as fields; the vectors of
    small_flag_vectors_at, which add the values at p of the last two rounds'
    brackets, are tested against the target's annihilator one at a time, and
    the first one outside the target decides (the letter is then a 2)."""
    target = geo.target(nu).basis
    if member == 1:
        return span_includes(geo.value(s), target)
    dist = geo.member(s)
    covectors = target.annihilator
    vectors = small_flag_vectors_at(dist, member, geo.point[: dist.chart.dim], cap=geo.cap)
    return all(annihilates(covectors, vector) for vector in vectors)


def singularity_class_at(
    obj: EkrBuild | Distribution,
    point: Sequence[Fraction],
    generic: bool = False,
    cap: int = DEFAULT_GENERATOR_CAP,
) -> ClassificationReport:
    """The singularity class of the germ at ``point``, with its sandwich word
    and refinement evidence.

    The cap, the route flag (a bool) and the point are admitted once, before
    any geometry is built.
    The word is read once, left to right, off the point itself, not off any
    label the input happens to carry.
    """
    _check_cap(cap)
    if type(generic) is not bool:
        raise ChartMismatch(f"generic {generic!r} is not a bool but a {type(generic).__name__}")
    point = _check_point(obj.chart, point)
    if isinstance(obj, EkrBuild) and not generic:
        geo = _ClosedGeometry(obj, point, cap)
    else:
        geo = _GenericGeometry(obj.distribution if isinstance(obj, EkrBuild) else obj, point, cap)
    sandwich, letters = [1], [1]
    evidence: list[Evidence] = []
    nu = None  # the nearest non-1 position so far
    for s in range(2, geo.r + 1):
        letter = 2 if _included(geo, s, s, 1) else 1
        sandwich.append(letter)
        if letter == 2 and nu is not None:
            included = _included(geo, s, nu, 2 * (s - nu - 1) + 3)  # V_(2l+3), l = s - nu - 1
            evidence.append(Evidence(position=s, nu=nu, included=included))
            letter = 3 if included else 2
        letters.append(letter)
        if letter != 1:
            nu = s
    return ClassificationReport(
        point=geo.point,
        sandwich=SandwichWord(tuple(sandwich)),
        word=Word(tuple(letters)),
        evidence=tuple(evidence),
    )


def _locus_equations(letters: Sequence[int], start: int) -> tuple[str, ...]:
    """x_k = 0 at each letter 2 and x_s = y_s = 0 at each letter 3, the first letter at position start."""
    return tuple(eq for pos, j in enumerate(letters, start) for eq in (f"x{pos}=0", f"y{pos}=0")[: j - 1])


def singularity_locus_equations(word: Word) -> tuple[str, ...]:
    """Coordinate equations of the locus of ``word`` in its own chart.

    x_k = 0 for every position k carrying the letter 2, and x_s = 0 = y_s
    for every position s carrying the letter 3; the number of equations is
    the codimension of the class.  Text raises BadSyntax: parse it with
    Word.parse.
    """
    _check_word("word", word)
    return _locus_equations(word.letters, 1)

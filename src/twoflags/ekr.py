"""Words over {1,2,3}, the least-upward-jumps validator, the pseudo-normal
form builders, closed forms for the covariant/Cauchy subflag, and concrete
model distributions.

A pseudo-normal form of length r lives on the flag chart (t, x0, y0, ...,
xr, yr) and is produced by r successive operations.  Operation number l
turns a rank-3 triple (Z1, Z2, Z3) into

    op 1:  Z1' = Z1 + (b_l + x_l) Z2 + (c_l + y_l) Z3
    op 2:  Z1' = x_l Z1 + Z2 + (c_l + y_l) Z3
    op 3:  Z1' = x_l Z1 + y_l Z2 + Z3

with Z2' = d/dx_l and Z3' = d/dy_l, starting from the full tangent bundle
(d/dt, d/dx0, d/dy0) of R^3.  The shift constants b_l, c_l are rationals
here; they default to 0.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import (
    BadModelName,
    BadSyntax,
    ConstantNotAdmitted,
    IndexOutOfRange,
    RuleViolation,
)
from .exactalg import Poly, _canonical, _check_int, _decimal, exact_rational
from .geometry import Chart, Distribution, VectorField

ALPHABET = (1, 2, 3)
_LETTERS = frozenset(ALPHABET)
# a word segment or constant step: ASCII decimal digits without a leading zero
_SEGMENT_RE = re.compile(r"0|[1-9][0-9]*")
_ZERO = Fraction(0)


@dataclass(frozen=True, order=True)
class Word:
    """A letter sequence over {1,2,3} satisfying the least-upward-jumps rule."""

    letters: tuple[int, ...]

    def __post_init__(self):
        letters = self.letters
        if not letters:
            raise RuleViolation("a word needs at least one letter")
        # True == 1 and 1.0 == 1, but neither prints as the letter 1
        if set(map(type, letters)) != {int}:
            letter = next(letter for letter in letters if type(letter) is not int)
            raise RuleViolation(f"letter {letter!r} is not an int but a {type(letter).__name__}")
        if not _LETTERS.issuperset(letters):
            letter = next(letter for letter in letters if letter not in _LETTERS)
            raise RuleViolation(f"letter {letter} is outside the alphabet 1..3")
        if letters[0] != 1:
            raise RuleViolation(f"first letter must be 1, got {letters[0]}")
        # from a first letter 1 over {1,2,3}, the only upward jump by more
        # than one is a 3 before the first 2
        if 3 in letters:
            first_three = letters.index(3)
            if 2 not in letters[:first_three]:
                raise RuleViolation(f"letter 3 at position {first_three + 1} jumps past 2")

    @classmethod
    def parse(cls, text: str) -> "Word":
        text = text.strip()
        if not text:
            raise BadSyntax("empty word")
        parts = text.split(".")
        letters = []
        for part in parts:
            if not _SEGMENT_RE.fullmatch(part):
                raise BadSyntax(f"bad segment {part!r} in word {text!r}")
            try:
                letters.append(_decimal(part))
            except ValueError as exc:
                raise BadSyntax(f"bad segment in word: {exc}") from None
        return cls(tuple(letters))

    @property
    def length(self) -> int:
        return len(self.letters)

    def prefix(self, s: int) -> "Word":
        _check_int("prefix length", s)
        if not 1 <= s <= self.length:
            raise IndexOutOfRange(f"prefix length {s} outside 1..{self.length}")
        return Word(self.letters[:s])

    def __str__(self) -> str:
        return ".".join(map(str, self.letters))


def _admits_b(letter: int) -> bool:
    return letter == 1


def _admits_c(letter: int) -> bool:
    return letter in (1, 2)


class _JsonObject(dict):
    """A decoded JSON object that keeps aside the keys it held more than once."""

    def __init__(self, pairs):
        super().__init__(pairs)
        keys = [key for key, _ in pairs]
        self.repeated = sorted({key for key in keys if keys.count(key) > 1})


def _parse_constants(data: Mapping, kind: str) -> dict[int, Fraction]:
    """The ``kind`` ("b" or "c") entry of a spec mapping as step -> rational."""
    values = data.get(kind, {})
    if not isinstance(values, Mapping):
        raise BadSyntax(f"spec entry {kind!r} must map steps to rationals")
    if getattr(values, "repeated", None):
        raise BadSyntax(f"repeated {kind} constant at step {values.repeated[0]}")
    out = {}
    for step, value in values.items():
        if not _SEGMENT_RE.fullmatch(str(step)):
            raise BadSyntax(f"bad step {step!r} in the {kind} constants")
        try:
            number = _decimal(str(step))
        except ValueError as exc:
            raise BadSyntax(f"bad step in the {kind} constants: {exc}") from None
        out[number] = exact_rational(str(value))
    return out


def _check_word(name: str, value) -> None:
    """Admit only a Word: text has to go through Word.parse first."""
    if not isinstance(value, Word):
        raise BadSyntax(f"{name} {value!r} is not a Word but a {type(value).__name__}: parse text with Word.parse")


@dataclass(frozen=True)
class EkrSpec:
    """A word plus its admitted shift constants (1-based step -> value).

    The word is a Word, text having gone through Word.parse; any other value
    raises BadSyntax.  b constants exist only at steps with letter 1, c
    constants at steps with letter 1 or 2; any other key raises
    ConstantNotAdmitted.  A step is an int (not a bool): any other key
    raises BadSyntax, since int() would move "1_0", " 1 ", True or 1.0 to
    another step.  Missing constants default to 0.
    """

    word: Word
    b: Mapping[int, Fraction] = field(default_factory=dict)
    c: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        _check_word("spec word", self.word)
        for kind, admits in (("b", _admits_b), ("c", _admits_c)):
            values = {}
            for step, value in getattr(self, kind).items():
                if type(step) is not int:
                    raise BadSyntax(f"{kind} constant at step {step!r}: a step is an int, not a {type(step).__name__}")
                values[step] = exact_rational(value)
            object.__setattr__(self, kind, values)
            for step in values:
                if not 1 <= step <= self.word.length:
                    raise ConstantNotAdmitted(f"{kind}[{step}] is outside the word of length {self.word.length}")
                if not admits(self.word.letters[step - 1]):
                    raise ConstantNotAdmitted(
                        f"operation {self.word.letters[step - 1]} at step {step} admits no {kind} constant"
                    )

    def b_at(self, step: int) -> Fraction:
        return self.b.get(step, _ZERO)

    def c_at(self, step: int) -> Fraction:
        return self.c.get(step, _ZERO)

    def prefix(self, s: int) -> "EkrSpec":
        return EkrSpec(
            self.word.prefix(s),
            {k: v for k, v in self.b.items() if k <= s},
            {k: v for k, v in self.c.items() if k <= s},
        )

    @classmethod
    def from_json(cls, data: str | Mapping) -> "EkrSpec":
        """The one parser of constants: {"word": text, "b": {step: value}, "c": {...}},
        or its JSON text; steps and values may be text, ints or Fractions.  A
        key repeated in the text, at the top or among the steps, is an error."""
        if isinstance(data, str):
            data = json.loads(data, object_pairs_hook=_JsonObject)
        if not isinstance(data, Mapping):
            raise BadSyntax("a spec must be a JSON object")
        if getattr(data, "repeated", None):
            raise BadSyntax(f"repeated spec entry {data.repeated[0]!r}")
        unknown = set(data) - {"word", "b", "c"}
        if unknown:
            raise ConstantNotAdmitted(f"unknown keys in spec: {sorted(unknown)}")
        if not isinstance(data.get("word"), str):
            raise BadSyntax(f"spec needs a 'word' entry of text, got {data.get('word')!r}")
        return cls(Word.parse(data["word"]), _parse_constants(data, "b"), _parse_constants(data, "c"))

    def to_json(self) -> dict:
        out: dict = {"word": str(self.word)}
        if self.b:
            out["b"] = {str(k): str(v) for k, v in sorted(self.b.items())}
        if self.c:
            out["c"] = {str(k): str(v) for k, v in sorted(self.c.items())}
        return out


@dataclass(frozen=True)
class EkrBuild:
    """The result of running the operations of a spec: the final rank-3
    distribution plus the per-step leading fields, kept for flag-member
    shortcuts.  The step-l leading field depends only on the variables of
    index <= l, and lives on their chart, Chart.for_length(l)."""

    spec: EkrSpec
    chart: Chart
    leading: tuple[VectorField, ...]
    distribution: Distribution

    @property
    def word(self) -> Word:
        return self.spec.word

    @property
    def length(self) -> int:
        return self.spec.word.length

    def flag_member(self, j: int) -> Distribution:
        """Flag member number j (j = length is the distribution itself, j = 0 all of TM).

        For 1 <= j <= length the member is spanned by the step-j leading
        field, lifted onto the build's chart, together with the versors
        d/dx_k, d/dy_k for k >= j.
        """
        _check_int("flag member", j)
        r = self.length
        if not 0 <= j <= r:
            raise IndexOutOfRange(f"flag member {j} outside 0..{r}")
        if j == 0:
            return Distribution.frame(self.chart)
        if j == r:
            return self.distribution
        lifted = tuple((i, Poly._of(self.chart.dim, c.terms)) for i, c in self.leading[j - 1].support)
        return Distribution(self.chart, (VectorField._of(self.chart, lifted),) + _versors_from(self.chart, j))

    def prefix_build(self, s: int) -> "EkrBuild":
        """The length-s build of the word prefix; its distribution is the
        flag member number s with the variables of index > s factored out."""
        return build_ekr(self.spec.prefix(s))


def _shifted(arity: int, var: int, constant: Fraction) -> Poly:
    """u_var + constant, its term map written directly, the constant canonicalised once."""
    terms = {((var, 1),): 1}
    if constant:
        terms[()] = _canonical(constant)
    return Poly._of(arity, terms)


def build_ekr(spec: EkrSpec) -> EkrBuild:
    """Run the operations of ``spec`` starting from (d/dt, d/dx0, d/dy0).

    Z1 is kept as its support, component index -> nonzero Poly.  Operation l
    adds x_l and y_l, at 2l + 1 and 2l + 2, and wraps the support's term maps
    at the arity of its chart, Chart.for_length(l).  Before it, Z2 and Z3 are
    d/dx_(l-1) and d/dy_(l-1), along which Z1 has no component yet: the
    operation scales the support by x_l (letters 2, 3) and writes those two
    components, both nonzero and past every index of the support, so the
    support stays in increasing index order."""
    z1 = {0: Poly._of(3, {(): 1})}
    leading = []
    for step, letter in enumerate(spec.word.letters, start=1):
        chart = Chart.for_length(step)
        n = chart.dim
        x, y = 2 * step + 1, 2 * step + 2
        if letter == 1:
            along = (_shifted(n, x, spec.b_at(step)), _shifted(n, y, spec.c_at(step)))
            z1 = {j: Poly._of(n, component.terms) for j, component in z1.items()}
        else:
            one = Poly._of(n, {(): 1})
            along = (one, _shifted(n, y, spec.c_at(step))) if letter == 2 else (_shifted(n, y, 0), one)
            x_l = Poly._of(n, {((x, 1),): 1})
            z1 = {j: Poly._of(n, component.terms) * x_l for j, component in z1.items()}
        z1[x - 2], z1[y - 2] = along
        leading.append(VectorField._of(chart, tuple(z1.items())))
    dist = Distribution(chart, (leading[-1],) + _versors_from(chart, chart.length))
    return EkrBuild(spec, chart, tuple(leading), dist)


# ---------------------------------------------------------------------------
# Closed forms for the covariant subdistribution F and the Cauchy subflag
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _versors_from(chart: Chart, first: int) -> tuple[VectorField, ...]:
    """The versors d/dx_k, d/dy_k for k = first, ..., length of a flag chart,
    at 2k + 1 and 2k + 2.

    One shared tuple per (chart, first), kept for the last 256 asked: the
    builds and closed members of one length share their versors, and with
    them the one-entry occurrence table of each that lie_bracket reads."""
    return tuple(VectorField.versor(chart, index) for index in range(2 * first + 1, chart.dim))


def closed_form_F(r: int) -> Distribution:
    """F = (d/dx1, d/dy1, ..., d/dxr, d/dyr) on the length-r flag chart."""
    _check_int("length", r)
    if r < 1:
        raise IndexOutOfRange(f"length must be >= 1, got {r}")
    chart = Chart.for_length(r)
    return Distribution(chart, _versors_from(chart, 1))


def closed_form_L(j: int, r: int) -> Distribution:
    """L of flag member j: (d/dx_{j+1}, ..., d/dyr) for 1 <= j <= r - 1."""
    _check_int("flag member", j)
    _check_int("length", r)
    if not 1 <= j <= r - 1:
        raise IndexOutOfRange(f"L is a distribution only for 1 <= j <= {r - 1}, got {j}")
    chart = Chart.for_length(r)
    return Distribution(chart, _versors_from(chart, j + 1))


# ---------------------------------------------------------------------------
# Concrete models
# ---------------------------------------------------------------------------


def bcd_chart(m: int, n: int) -> Chart:
    return Chart(tuple([f"x{i}" for i in range(m + 1)] + [f"y{j}" for j in range(1, n + 1)]))


def _bcd_model(m: int, n: int) -> Distribution:
    _check_int("m", m)
    _check_int("n", n)
    if not 1 <= m <= n:
        raise BadModelName(f"bcd model needs 1 <= m <= n, got m={m}, n={n}")
    chart = bcd_chart(m, n)
    dim = chart.dim
    lead = [Poly.zero(dim)] * dim
    lead[chart.index("x0")] = Poly.const(dim, 1)
    for i in range(1, m + 1):
        lead[chart.index(f"x{i}")] = Poly.variable(dim, chart.index(f"y{i}"))
    gens = [VectorField(chart, tuple(lead))]
    gens += [VectorField.versor(chart, chart.index(f"y{j}")) for j in range(1, n + 1)]
    return Distribution(chart, tuple(gens))


# name -> (word, the constants the model admits).  bcd, the corank-m model
# with params m and n, is the one named model that is not a pseudo-normal form.
MODELS = {
    "ca_2": ("1.1", ()),  # the homogeneous length-2 jet-bundle model
    "ex_2": ("1.2", ()),  # the length-2 model singular on {x2 = 0}
    "appxB_D": ("1.2.1.2", ("b3", "c3", "c4")),  # 3-parameter length-4 family
    "appxB_E": ("1.2.1.3", ("b3", "c3")),  # 2-parameter length-4 family
}
MODEL_NAMES = ("ca_2", "ex_2", "bcd", "appxB_D", "appxB_E")


def model_spec(name: str, constants: Mapping | None = None) -> EkrSpec:
    """The pseudo-normal form behind a named model.

    ``constants`` is the {"b": {step: value}, "c": {step: value}} part of an
    EkrSpec.from_json mapping; a constant the model does not admit raises
    ConstantNotAdmitted.
    """
    if name not in MODELS:
        raise BadModelName(f"no pseudo-normal form for model {name!r}")
    word, admitted = MODELS[name]
    constants = constants or {}
    if "word" in constants:
        raise ConstantNotAdmitted(f"model {name} has the fixed word {word}")
    spec = EkrSpec.from_json({**constants, "word": word})
    for kind, values in (("b", spec.b), ("c", spec.c)):
        for step in values:
            if f"{kind}{step}" not in admitted:
                raise ConstantNotAdmitted(f"model {name} admits no {kind}{step} constant")
    return spec


def appendix_b_spec(which: str, b3: Fraction = _ZERO, c3: Fraction = _ZERO, c4: Fraction = _ZERO) -> EkrSpec:
    """The two length-4 families living in one sandwich class: the
    3-parameter family D (word 1.2.1.2, model appxB_D) and the 2-parameter
    family E (word 1.2.1.3, model appxB_E).  A zero constant counts as not
    given."""
    given = {"b": {3: b3}, "c": {3: c3, 4: c4}}
    nonzero = {kind: {step: v for step, v in values.items() if v} for kind, values in given.items()}
    return model_spec(f"appxB_{which}", nonzero)


def model_build(name: str, constants: Mapping | None = None) -> EkrBuild | None:
    """The EKR presentation behind a model name; None for bcd, which has none."""
    if name == "bcd":
        return None
    return build_ekr(model_spec(name, constants))


def model(name: str, constants: Mapping | None = None, m: int = 2, n: int = 3) -> Distribution:
    """Concrete model distributions by name (see MODELS); m and n shape bcd."""
    if name != "bcd":
        return model_build(name, constants).distribution
    if constants:
        raise ConstantNotAdmitted("model bcd admits no constants")
    return _bcd_model(m, n)

"""Vector-field calculus over a fixed polynomial chart.

Provides Lie brackets, Lie squares, big flags (iterated Lie squares),
small flags (iterated brackets against a fixed bottom member), exterior
derivatives of 1-forms at a point, and the pointwise Cauchy-characteristic
and covariant subspaces of a distribution.

All inclusion and rank questions are decided pointwise and exactly; module
membership over the polynomial ring is never decided.  The Cauchy and
covariant conditions are solved in the coordinates of the basis of D(p).
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import (
    ChartMismatch,
    GeneratorBlowup,
    NotSpecialFlag,
    UnexpectedCovariantDimension,
)
from .exactalg import (
    Poly,
    RationalMatrix,
    column_space_basis,
    exact_rational,
    polynomial_nullspace,
    rank_and_nullspace,
    span_includes,
    _annihilates_identically,
    _canonical,
    _check_int,
    _independent,
    _integer_rows,
    _mul_into,
    _ZERO,
)

DEFAULT_GENERATOR_CAP = 50_000


@dataclass(frozen=True)
class Chart:
    """An ordered tuple of coordinate names fixing variable indices."""

    names: tuple[str, ...]

    def __post_init__(self):
        # a list would make the chart unhashable and unequal to its tuple twin
        object.__setattr__(self, "names", tuple(self.names))

    @classmethod
    @lru_cache(maxsize=64, typed=True)
    def for_length(cls, r: int) -> "Chart":
        """The flag chart (t, x0, y0, x1, y1, ..., xr, yr) of dimension 2r + 3.

        One shared chart per length, kept for the last 64 lengths asked (by
        type too, so True is refused, not taken for 1): the chart checks of
        fields and distributions built on it compare one names tuple with itself."""
        _check_int("length", r)
        if r < 0:
            raise ChartMismatch(f"length must be nonnegative, got {r}")
        names = ["t"]
        for k in range(r + 1):
            names.append(f"x{k}")
            names.append(f"y{k}")
        return cls(tuple(names))

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def length(self) -> int:
        """Flag length r with dim = 2r + 3; only meaningful on flag charts."""
        if self.dim < 3 or self.dim % 2 == 0:
            raise ChartMismatch(f"chart of dimension {self.dim} is not a flag chart")
        return (self.dim - 3) // 2

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ChartMismatch(f"no coordinate {name!r} on chart {self.names}") from None

    def origin(self) -> tuple[Fraction, ...]:
        return (Fraction(0),) * self.dim

    def point(self, **coords: Fraction | int) -> tuple[Fraction, ...]:
        """Point with the named coordinates set and every other coordinate 0."""
        values = [Fraction(0)] * self.dim
        for name, value in coords.items():
            values[self.index(name)] = exact_rational(value)
        return tuple(values)


def _check_point(chart: Chart, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
    # one type test for the tuples the library passes; text would be read a
    # character per coordinate, and an iterator has no length
    if type(point) is not tuple and (isinstance(point, (str, bytes)) or not isinstance(point, abc.Sequence)):
        raise ChartMismatch(f"a point is a sequence of coordinates, not a {type(point).__name__}")
    if len(point) != chart.dim:
        raise ChartMismatch(f"point has {len(point)} coordinates, chart has {chart.dim}")
    return tuple(exact_rational(v) for v in point)


_zero = lru_cache(maxsize=64)(Poly.zero)  # the zero Poly of an arity, one shared by the dense views of fields


@dataclass(frozen=True, init=False)
class VectorField:
    """Vector field stored as its support: the (index, component) pairs of
    its nonzero polynomial components, in increasing index order."""

    chart: Chart
    support: tuple[tuple[int, Poly], ...]

    def __init__(self, chart: Chart, components: Sequence[Poly]):
        if len(components) != chart.dim:
            raise ChartMismatch(f"{len(components)} components on a {chart.dim}-dimensional chart")
        support = []
        for j, comp in enumerate(components):
            if not isinstance(comp, Poly) or comp.arity != chart.dim:
                raise ChartMismatch(f"component {j} is not a polynomial on the {chart.dim}-dimensional chart")
            if comp.terms:
                support.append((j, comp))
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "support", tuple(support))

    @classmethod
    def _of(cls, chart: Chart, support: tuple[tuple[int, Poly], ...]) -> "VectorField":
        """A field around a computed support already on ``chart``: nothing is checked."""
        field = object.__new__(cls)
        object.__setattr__(field, "chart", chart)
        object.__setattr__(field, "support", support)
        return field

    @classmethod
    def versor(cls, chart: Chart, index: int) -> "VectorField":
        _check_int("versor index", index)
        if not 0 <= index < chart.dim:
            raise ChartMismatch(f"versor index {index} out of range for a {chart.dim}-dimensional chart")
        return cls._of(chart, ((index, Poly.const(chart.dim, 1)),))

    @property
    def components(self) -> tuple[Poly, ...]:
        """The dense view, one component per coordinate, a zero one the shared zero of its arity."""
        support = dict(self.support)
        return tuple(support.get(j, _zero(self.chart.dim)) for j in range(self.chart.dim))

    def is_zero(self) -> bool:
        return not self.support

    @cached_property
    def occurrences(self) -> dict[int, list[tuple[int, Poly]]]:
        """The field's occurrence table: for each variable of its support, the
        (index, component) pairs of the support whose component contains it.
        Worked out on first use and kept with the field, which is immutable."""
        occurs: dict[int, list[tuple[int, Poly]]] = {}
        for pair in self.support:
            for var in {var for mono in pair[1].terms for var, _ in mono}:
                occurs.setdefault(var, []).append(pair)
        return occurs

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.chart != other.chart:
            raise ChartMismatch("vector fields live on different charts")
        sums = dict(self.support)
        for j, comp in other.support:
            sums[j] = sums[j] + comp if j in sums else comp
        return VectorField._of(self.chart, tuple((j, comp) for j, comp in sorted(sums.items()) if comp.terms))

    def __neg__(self) -> "VectorField":
        return VectorField._of(self.chart, tuple((j, -comp) for j, comp in self.support))

    def scaled(self, factor: Poly | Fraction | int) -> "VectorField":
        return VectorField._of(self.chart, tuple((j, comp * factor) for j, comp in self.support if factor))

    def apply_to(self, f: Poly) -> Poly:
        """Directional derivative X(f) = sum_i X_i df/du_i."""
        out = Poly.zero(self.chart.dim)
        for i, comp in self.support:
            out = out + comp * f.partial(i)
        return out

    def _value(self, point: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        """The field's value at an admitted point: each component of the
        support evaluated there, every other coordinate the shared 0."""
        value = [_ZERO] * self.chart.dim
        for j, comp in self.support:
            value[j] = comp.eval_at(point)
        return tuple(value)

    def eval_at(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return self._value(_check_point(self.chart, point))

    def signature(self) -> tuple:
        return tuple((j, comp.signature()) for j, comp in self.support)

    def __str__(self) -> str:
        parts = [f"({comp})*d_{self.chart.names[j]}" for j, comp in self.support]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class OneForm:
    """Differential 1-form with one polynomial coefficient per coordinate."""

    chart: Chart
    coefficients: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if len(self.coefficients) != self.chart.dim:
            raise ChartMismatch(
                f"{len(self.coefficients)} coefficients on a {self.chart.dim}-dimensional chart"
            )
        for j, coeff in enumerate(self.coefficients):
            if not isinstance(coeff, Poly) or coeff.arity != self.chart.dim:
                raise ChartMismatch(f"coefficient {j} is not a polynomial on the {self.chart.dim}-dimensional chart")


@dataclass(frozen=True)
class Distribution:
    """Finitely generated module of vector fields over a chart."""

    chart: Chart
    generators: tuple[VectorField, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ChartMismatch("a distribution needs at least one generator")
        for k, gen in enumerate(self.generators):
            if not isinstance(gen, VectorField) or gen.chart != self.chart:
                raise ChartMismatch(f"generator {k} is not a vector field on the chart")

    @classmethod
    def _of(cls, chart: Chart, generators: tuple[VectorField, ...]) -> "Distribution":
        """A distribution around nonempty generators already on ``chart``: nothing is checked."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "chart", chart)
        object.__setattr__(dist, "generators", generators)
        return dist

    @classmethod
    def frame(cls, chart: Chart) -> "Distribution":
        """The coordinate frame d/du_0, ..., d/du_(dim-1): all of TM."""
        return cls(chart, tuple(VectorField.versor(chart, i) for i in range(chart.dim)))


@dataclass(frozen=True)
class Subspace:
    """A pointwise linear subspace: independent basis columns in an ambient space."""

    basis: RationalMatrix

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Sequence[Sequence[Fraction]]) -> "Subspace":
        return cls(column_space_basis(vectors, ambient))

    @property
    def ambient(self) -> int:
        return self.basis.rows

    @property
    def dim(self) -> int:
        return self.basis.cols

    def includes(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ChartMismatch("subspaces of different ambient spaces")
        return span_includes(other.basis, self.basis)

    def contains_vector(self, vector: Sequence[Fraction]) -> bool:
        single = RationalMatrix.from_columns([tuple(vector)], ambient=self.ambient)
        return span_includes(single, self.basis)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.dim == other.dim and self.includes(other)

    def __hash__(self) -> int:  # pragma: no cover - subspaces are not hashed
        return hash((self.ambient, self.dim))


# ---------------------------------------------------------------------------
# Brackets and flags
# ---------------------------------------------------------------------------


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Coordinate Lie bracket [X,Y]_j = sum_i (X_i dY_j/du_i - Y_i dX_j/du_i).

    Only the nonzero terms are formed: for each X_i of the support of X, the
    term X_i dY_j/du_i of every component Y_j that contains u_i (Y's
    occurrence table), and likewise for each Y_i.  The products of component
    j are summed into one term map, whose coefficients are canonicalised
    once, so no Poly is built for a product or a partial sum; the maps that
    do not cancel are the bracket's support.
    """
    if x.chart != y.chart:
        raise ChartMismatch("bracket of fields on different charts")
    n = x.chart.dim
    x_occurs, y_occurs = x.occurrences, y.occurrences
    sums: dict[int, dict] = {}
    for i, xi in x.support:
        for j, yj in y_occurs.get(i, ()):
            _mul_into(sums.setdefault(j, {}), xi.terms, yj.partial(i).terms, 1)
    for i, yi in y.support:
        for j, xj in x_occurs.get(i, ()):
            _mul_into(sums.setdefault(j, {}), yi.terms, xj.partial(i).terms, -1)
    return VectorField._of(x.chart, tuple((j, Poly._summed(n, terms)) for j, terms in sorted(sums.items()) if terms))


def _proportional(a: Sequence[dict], b: Sequence[dict]) -> bool:
    """True iff the field with support term maps ``a`` is a nonzero rational
    multiple of the one with ``b``, a field of its _Dedup bucket, whose maps
    have the same monomials: a = (s / t) b, where s and t are the coefficients
    of one reference term, exactly when s * b_m == t * a_m for every term m."""
    ref = next(iter(a[0]))
    s, t = a[0][ref], b[0][ref]
    return all(coeff * t == tb[mono] * s for ta, tb in zip(a, b) for mono, coeff in ta.items())


def _check_cap(cap: int) -> None:
    _check_int("cap", cap)
    if cap < 1:
        raise ChartMismatch(f"cap must be >= 1, got {cap}")


class _Dedup:
    """Generator list that drops zero fields and scalar multiples of kept fields.

    Kept fields sit in buckets keyed by their exact support, each nonzero
    component's index and monomial set, which scalar multiples share, so a
    candidate is only cross-multiplied with its bucket (see _proportional).
    The first-seen field of each multiple is kept as it was formed.
    """

    def __init__(self, cap: int, candidates: Iterable[VectorField] = ()):
        _check_cap(cap)
        self.cap = cap
        self.fields: list[VectorField] = []
        self.buckets: dict[tuple, list[tuple[dict, ...]]] = {}
        self.extend(candidates)

    def add(self, candidate: VectorField) -> None:
        if not candidate.support:
            return
        # the key holds the monomial sets, not their hash, so no support is tested twice
        bucket = self.buckets.setdefault(tuple((j, frozenset(c.terms)) for j, c in candidate.support), [])
        terms = tuple(c.terms for _, c in candidate.support)
        if any(_proportional(terms, kept) for kept in bucket):
            return
        bucket.append(terms)
        self.fields.append(candidate)
        if len(self.fields) > self.cap:
            raise GeneratorBlowup(f"generator count exceeded the cap of {self.cap}")

    def extend(self, candidates: Iterable[VectorField]) -> None:
        for candidate in candidates:
            self.add(candidate)


def _kept_for_the_last_point(compute):
    """compute(dist, point), kept on the immutable dist for the last point asked, admitted here."""
    key = "_" + compute.__name__

    @wraps(compute)
    def kept(dist: Distribution, point: Sequence[Fraction]):
        point = _check_point(dist.chart, point)
        last = dist.__dict__.get(key)
        if last is None or last[0] != point:
            dist.__dict__[key] = last = (point, compute(dist, point))
        return last[1]

    return kept


@_kept_for_the_last_point
def value_at(dist: Distribution, point: Sequence[Fraction]) -> Subspace:
    """Pointwise value of the distribution: the span of the evaluated generators.

    The value is kept for the last point asked, so a classification
    evaluates each tower member D^r, ..., D^1 once: its first reader
    (big_flag for D^r, a target or a sandwich letter for a frame) computes
    it, and the Cauchy, covariant and sandwich computations at the same
    point reuse it.
    """
    # the point was admitted once, not per generator by eval_at
    return Subspace.from_vectors(dist.chart.dim, [g._value(point) for g in dist.generators])


def big_flag(
    dist: Distribution,
    point: Sequence[Fraction],
    cap: int = DEFAULT_GENERATOR_CAP,
) -> list[Distribution]:
    """Tower of certified frames of consecutive Lie squares (D^r, D^(r-1),
    ..., D^0) at ``point``.

    Raises NotSpecialFlag unless the pointwise ranks run 3, 5, ..., dim and
    the tower reaches full rank within (dim - 3) / 2 steps.

    D^r is ``dist`` as given.  Each of D^(r-1), ..., D^1 is a frame: the
    fields of lie_square(previous member) whose values at ``point`` are each
    independent of the values before them (_independent), so the frames are
    nested, as a square lists the member's own fields first.  A
    frame is certified: every other field of the square is annihilated
    identically by the frame's covectors, its polynomial_nullspace pivoted
    at p, so it lies in the frame's span over the rational functions, and
    with the frame independent at p the square is locally free there with
    the frame as its basis.  Otherwise NotSpecialFlag names the square that
    is not locally free.  The certificate leaves the frame's covectors in
    the memo that annihilator_at reads, the one derivation of each frame's
    annihilator; big_flag computes no frame's value (see value_at).

    The last square, D^0 = [D^1, D^1], only has to reach T_pM, so it is
    decided at the point and built as no field: its rank is the number of
    _independent vectors of small_flag_vectors_at(D^1, 2, point), which
    span (D^1 + [D^1, D^1])(p).  D^0 is then the coordinate frame, which
    spans TM; no caller reads its value.
    """
    _check_cap(cap)
    point = _check_point(dist.chart, point)
    dim = dist.chart.dim
    if dim % 2 == 0 or dim < 3:
        raise NotSpecialFlag(f"chart dimension {dim} cannot carry a special 2-flag")
    steps = (dim - 3) // 2
    tower = [dist]
    rank = value_at(dist, point).dim
    if rank != 3:
        raise NotSpecialFlag(f"bottom member has pointwise rank {rank}, expected 3")
    for step in range(1, steps + 1):
        expected = 3 + 2 * step
        if step < steps:
            square = lie_square(tower[-1], cap=cap).generators
            pivots = _independent([g._value(point) for g in square])
            nxt = Distribution._of(dist.chart, tuple(square[c] for c in pivots))
            rank = len(pivots)
        else:
            rank = len(_independent(small_flag_vectors_at(tower[-1], 2, point, cap)))
            nxt = Distribution.frame(dist.chart)
        if rank != expected:
            raise NotSpecialFlag(f"Lie square number {step} has pointwise rank {rank}, expected {expected}")
        if step < steps:
            covectors = _structural_annihilator(nxt.generators, point)
            chosen = set(pivots)
            others = (g for c, g in enumerate(square) if c not in chosen)
            if not all(_annihilates_identically(cov, g.components) for g in others for cov in covectors):
                raise NotSpecialFlag(f"Lie square number {step} is not locally free at the point")
        tower.append(nxt)
    return tower


def _integral(field: VectorField) -> VectorField:
    """``field`` times the lcm s of its coefficient denominators: a positive
    multiple with int coefficients, or ``field`` itself when it has them.  s
    is a multiple of every denominator d, so a coefficient n / d becomes the
    int n * (s // d), with no Fraction formed."""
    denominators = [c.denominator for _, comp in field.support for c in comp.terms.values() if type(c) is not int]
    if not denominators:
        return field
    scale = lcm(*denominators)
    return VectorField._of(field.chart, tuple(
        (j, Poly._of(comp.arity, {mono: c.numerator * (scale // c.denominator) for mono, c in comp.terms.items()}))
        for j, comp in field.support
    ))


def _pairs(items: list, base: int, start: int) -> Iterator[tuple]:
    """small_flag's pairs of a round, of fields or of their jets: each of the
    first ``base`` items, those of D's generators, with each item from index
    ``start`` on that comes after it; after the first round ``start`` >=
    ``base``, so every pair is taken."""
    for k, g in enumerate(items[:base]):
        for h in items[max(start, k + 1) :]:
            yield g, h


def small_flag(dist: Distribution, steps: int, cap: int = DEFAULT_GENERATOR_CAP) -> list[Distribution]:
    """Small flag V_1 = D, V_{i+1} = V_i + [D, V_i]; returns [V_1, ..., V_steps].

    The flag starts from the generators of D cleared of denominators (see
    _integral), so each of its brackets multiplies ints, and keeps every
    field as it was formed; generator lists drop zero fields and scalar
    multiples of known fields (see _Dedup).  Each step brackets the
    generators of D only with the fields that are new in the latest member;
    brackets with older fields were candidates one step earlier.  On the
    first step generator i is bracketed only with generators k > i:
    [g, g] = 0 and [g_k, g_i] = -[g_i, g_k].
    """
    _check_int("steps", steps)
    if steps < 1:
        raise ChartMismatch(f"steps must be >= 1, got {steps}")
    pool = _Dedup(cap, map(_integral, dist.generators))
    base = len(pool.fields)
    flag = [Distribution(dist.chart, tuple(pool.fields))]
    start = 0
    for _ in range(steps - 1):
        before = len(pool.fields)
        for g, h in _pairs(pool.fields[:before], base, start):
            pool.add(lie_bracket(g, h))
        start = before
        # the pool's fields are on the chart of flag[0], which checked them, or brackets of two of them
        flag.append(Distribution._of(dist.chart, tuple(pool.fields)))
    return flag


def lie_square(dist: Distribution, cap: int = DEFAULT_GENERATOR_CAP) -> Distribution:
    """D + [D, D]: the second member of the small flag of D, its fields as
    small_flag formed them.  A tower member's fields have int coefficients,
    which _integral and _Dedup keep as they are, so the square of a member
    starts with the member's own fields.
    """
    return small_flag(dist, 2, cap)[1]


# a field's jet at p: its value, its nonzero first partials grouped by component,
# {j: [(i, dX_j/du_i(p)), ...]}, and its nonzero second partials as
# (j, a, b, d^2X_j/du_a du_b(p)) with a <= b; a jet of lower order lacks the
# partials above it
_Jet = tuple[Sequence, dict[int, list[tuple[int, int | Fraction]]], list[tuple[int, int, int, int | Fraction]]]


def _jet_at(field: VectorField, point: tuple[Fraction, ...], order: int) -> _Jet:
    """The field's jet at the point to ``order`` (0, 1 or 2), each
    component's read off its Taylor polynomial there (Poly.jet_at): the
    value is the coefficient of (), d/du_a that of v_a, d^2/du_a du_b (a < b)
    that of v_a v_b, and d^2/du_a^2 twice that of v_a^2; the jet of order 0
    is the field's value.  Only the components of the support are read."""
    if not order:
        return field._value(point), {}, []
    value = [0] * field.chart.dim
    grad = {}
    seconds = []
    for j, comp in field.support:
        partials = []
        for mono, c in comp.jet_at(point, order).items():
            if not mono:
                value[j] = c
            elif len(mono) == 2:
                (a, _), (b, _) = mono
                seconds.append((j, a, b, c))
            elif mono[0][1] == 1:
                partials.append((mono[0][0], c))
            else:
                seconds.append((j, mono[0][0], mono[0][0], 2 * c))
        if partials:
            grad[j] = partials
    return value, grad, seconds


def _bracket_value(g: _Jet, h: _Jet, n: int) -> list:
    """[g, h](p)_j = sum_i g_i(p) dh_j/du_i(p) - h_i(p) dg_j/du_i(p), from the 1-jets of g and h."""
    bracket = [0] * n
    g_value, h_value = g[0], h[0]
    for j, row in h[1].items():
        for i, d in row:
            if g_value[i]:
                bracket[j] += g_value[i] * d
    for j, row in g[1].items():
        for i, d in row:
            if h_value[i]:
                bracket[j] -= h_value[i] * d
    return bracket


def _bracket_jet(g: _Jet, h: _Jet, n: int) -> _Jet | None:
    """The 1-jet at p of [g, h] from the 2-jets of g and h, or None when it
    is zero: its value by _bracket_value, and
    d[g,h]_j/du_k(p) = sum_i dg_i/du_k dh_j/du_i + g_i d^2h_j/du_i du_k
    - dh_i/du_k dg_j/du_i - h_i d^2g_j/du_i du_k, all read at p."""
    partials: dict[tuple[int, int], int | Fraction] = {}
    for x, y, sign in ((g, h, 1), (h, g, -1)):
        x_value, x_grad = x[0], x[1]
        for j, row in y[1].items():
            for i, d in row:
                for k, e in x_grad.get(i, ()):
                    partials[j, k] = partials.get((j, k), 0) + sign * e * d
        for j, a, b, d in y[2]:
            if x_value[a]:
                partials[j, b] = partials.get((j, b), 0) + sign * x_value[a] * d
            if a != b and x_value[b]:
                partials[j, a] = partials.get((j, a), 0) + sign * x_value[b] * d
    grad: dict[int, list] = {}
    for (j, k), d in partials.items():
        if d:
            grad.setdefault(j, []).append((k, d))
    value = _bracket_value(g, h, n)
    if not grad and not any(value):
        return None
    return value, grad, []


def small_flag_vectors_at(
    dist: Distribution,
    steps: int,
    point: Sequence[Fraction],
    cap: int = DEFAULT_GENERATOR_CAP,
) -> Iterator[list]:
    """Vectors spanning V_steps(p), the value at ``point`` of the last member
    of small_flag(dist, steps) for steps >= 2, formed one at a time.

    Only V_(steps-2) is built as fields (V_1 for steps = 2), so only its
    generators count against ``cap``; the last two rounds are formed at p.
    Both rounds take their pairs from _pairs, as small_flag's rounds do.
    For steps >= 3 the penultimate round brackets each generator g of D with
    each field h new in V_(steps-2), as 1-jets at p read off the 2-jets of g
    and h (see _bracket_jet), and keeps every jet that is not zero.  With
    the jets of V_(steps-2)'s fields (the value alone of a field in no pair)
    they stand for V_(steps-1), whose values come first.  The last round then yields
    [g, h](p) for each g and each jet h new in V_(steps-1) (see
    _bracket_value), but for a pair whose two values vanish at p, whose
    bracket is zero there; the penultimate round keeps such pairs, as their
    1-jets need not vanish.  small_flag drops a bracket that is zero or a multiple
    of a kept field; its jet is then zero or proportional to a kept one, or
    adds only the values of brackets that V_steps holds, so the span is the
    same.  A caller that stops early forms no later bracket.  The fields are
    built in integers, and the jets are read at the point with its integral
    coordinates as ints: at an integral point they are sums of ints.
    """
    _check_int("steps", steps)
    if steps < 2:
        raise ChartMismatch(f"steps must be >= 2, got {steps}")
    point = tuple(map(_canonical, _check_point(dist.chart, point)))
    n = dist.chart.dim
    flag = small_flag(dist, max(steps - 2, 1), cap)
    base = len(flag[0].generators)
    start = len(flag[-2].generators) if len(flag) > 1 else 0
    # each field is read to the order its pairs use: the last round alone
    # (steps 2) reads 1-jets, and a penultimate round reads the 2-jet of a
    # field of its pairs, one of D's or new in V_(steps-2), and only the value
    # of any other field
    jets = [
        _jet_at(field, point, 1 if steps == 2 else 2 if k < base or k >= start else 0)
        for k, field in enumerate(flag[-1].generators)
    ]
    for jet in jets:
        yield jet[0]
    if steps > 2:
        brackets = []
        for g, h in _pairs(jets, base, start):
            jet = _bracket_jet(g, h, n)
            if jet is not None:
                brackets.append(jet)
                yield jet[0]
        start = len(jets)
        jets += brackets
    # [g, h](p) = 0 when g(p) = 0 and h(p) = 0, so such a pair is skipped
    marked = [(jet, any(jet[0])) for jet in jets]
    for (g, g_live), (h, h_live) in _pairs(marked, base, start):
        if g_live or h_live:
            yield _bracket_value(g, h, n)


# ---------------------------------------------------------------------------
# Annihilators, curvature pairings, Cauchy characteristics, covariant subspace
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _structural_annihilator(
    generators: tuple[VectorField, ...], point: tuple[Fraction, ...]
) -> tuple[tuple[Poly, ...], ...]:
    """The polynomial_nullspace of the generators, pivoted at an admitted
    point; the benchmark reads this memo's statistics under this name."""
    return tuple(polynomial_nullspace(list(zip(*(gen.components for gen in generators))), point))


def annihilator_at(dist: Distribution, point: Sequence[Fraction]) -> list[OneForm]:
    """Polynomial 1-forms annihilating the distribution, with pivots regular at ``point``.

    The covectors are polynomial_nullspace's, pivoted at the point and kept
    in a memo keyed by the generator tuple and the point, which keeps no
    distribution alive with the values kept on it, and holds the last 8
    keys: big_flag's certificate fills it for each frame, so the targets of
    a germ of length up to 10 read the covectors of its frames D^1 ...
    D^(r-2) from it, while a sweep keeps no more than 8 members'
    generators; a germ classified at another point reuses nothing.  A frame
    is independent at p, so its covectors are independent there and span
    the annihilator of D(p).  polynomial_nullspace raises DegeneratePivot
    when the rank at the point is below the rank over the polynomials.
    """
    return [OneForm(dist.chart, cov) for cov in _structural_annihilator(dist.generators, _check_point(dist.chart, point))]


def _integer_gradient(form: OneForm, point: Sequence[Fraction]) -> dict[int, list[tuple[int, int]]]:
    """m times the gradient G of the coefficients at p, G[i][j] =
    d(omega_j)/du_i (p), as sparse integer rows i -> [(j, m * G_ij)] of its
    nonzero entries, with m the lcm of the denominators of G.  Each
    coefficient's first partials are read off its 1-jet, so no partial is
    built as a polynomial."""
    entries = [
        (mono[0][0], j, value)
        for j, coeff in enumerate(form.coefficients)
        for mono, value in coeff.jet_at(point, 1).items()
        if mono
    ]
    m = lcm(*(value.denominator for _, _, value in entries))
    rows: dict[int, list[tuple[int, int]]] = {}
    for i, j, value in entries:
        rows.setdefault(i, []).append((j, value.numerator * (m // value.denominator)))
    return rows


def _integer_pairing(
    grad: dict[int, list[tuple[int, int]]], columns: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """The pairing of the integer columns u_a under d(omega) at p, in integers.

    With mG the integer gradient (see _integer_gradient) and t_a = u_a^T mG,
    returns I with I[a][b] = t_b . u_a - t_a . u_b, which is
    m * u_b^T d(omega)(p) u_a, as d(omega)(p) = G - G^T.  Each t_a is summed
    over the nonzero entries of u_a in the rows of mG, and each t_a . u_b
    over the nonzero entries of the columns in the entries of t_a.
    I[b][a] = -I[a][b] and the diagonal is 0.
    """
    d = len(columns)
    reached = {j for row in grad.values() for j, _ in row}
    at = {j: [(b, u[j]) for b, u in enumerate(columns) if u[j]] for j in reached}
    pairing = [[0] * d for _ in range(d)]
    for a, u in enumerate(columns):
        t: dict[int, int] = {}
        for i, row in grad.items():
            if u[i]:
                for j, g in row:
                    t[j] = t.get(j, 0) + u[i] * g
        # t_a . u_b enters I[a][b] with a minus sign and I[b][a] with a plus sign
        for j, v in t.items():
            for b, y in at[j]:
                pairing[a][b] -= v * y
                pairing[b][a] += v * y
    return tuple(map(tuple, pairing))


@_kept_for_the_last_point
def _curvature_pairings(
    dist: Distribution, point: tuple[Fraction, ...]
) -> tuple[list[list[int]], tuple[tuple[tuple[int, ...], ...], ...]]:
    """The basis columns of D(p) = value_at(dist, point) as integer columns
    u_a, each a positive multiple (see _integer_rows), and for each
    annihilating form omega their integer pairing I under d(omega) at p (see
    _integer_pairing).  The Cauchy and covariant conditions are homogeneous,
    so the callers solve them on the u_a as they stand and need no m.

    The pairings are kept for the last point asked, as value_at keeps D(p):
    the covariant and Cauchy spaces of one member at one point pair once.
    """
    columns = _integer_rows(value_at(dist, point).basis.columns())
    return columns, tuple(_integer_pairing(_integer_gradient(form, point), columns) for form in annihilator_at(dist, point))


def _kernel_image(columns: list[list[int]], rows: Sequence[Sequence[int | Fraction]]) -> Subspace:
    """The span of sum_a lambda_a u_a over the kernel {lambda} of ``rows``,
    with u_a the integer columns.  The u_a are independent, so these images
    are too and form the basis as they stand.  Each image is summed in
    integers over the common denominator of its lambda."""
    n = len(columns[0])
    flat = tuple(v for row in rows for v in row)
    _, kernel = rank_and_nullspace(RationalMatrix._of(len(rows), len(columns), flat))
    zero = Fraction(0)
    images = []
    for lam in kernel:
        den = lcm(*(v.denominator for v in lam))
        image = [0] * n
        for v, u in zip(lam, columns):
            if v:
                c = v.numerator * (den // v.denominator)
                for i, x in enumerate(u):
                    if x:
                        image[i] += c * x
        images.append([Fraction(num, den) if num else zero for num in image])
    return Subspace(RationalMatrix._of(n, len(images), tuple(image[i] for i in range(n) for image in images)))


def cauchy_char_at(dist: Distribution, point: Sequence[Fraction]) -> Subspace:
    """Pointwise Cauchy-characteristic space of D at p.

    Computes {v in D(p) : d(omega)(v, w)(p) = 0 for all w in D(p) and all
    annihilating forms omega}; for distributions with a regular Cauchy
    module this equals the value of the Cauchy-characteristic module.
    """
    point = _check_point(dist.chart, point)
    value = value_at(dist, point)
    columns, pairings = _curvature_pairings(dist, point)
    if not pairings:
        return value
    # row a of a pairing is the condition d(omega)(v, u_a) = 0 on v = sum_b lambda_b u_b, times m
    return _kernel_image(columns, [row for pair in pairings for row in pair if any(row)])


def covariant_at(dist: Distribution, point: Sequence[Fraction]) -> Subspace:
    """Pointwise covariant subspace of a corank-2 distribution.

    Returns the joint kernel of the covectors alpha with (alpha wedge d omega)|_D
    = 0 at p for every annihilating form omega.  alpha enters only through
    a = alpha|D(p), and the annihilator of D(p) adds 2 dimensions, so the
    covectors span 3 dimensions exactly when the solutions a form a line.  That
    is the one check: the kernel of a in D(p) then has dimension ambient - 3.
    """
    point = _check_point(dist.chart, point)
    n = dist.chart.dim
    value = value_at(dist, point)
    d = value.dim
    if n - d != 2:
        raise UnexpectedCovariantDimension(
            f"covariant subspace needs corank 2, got corank {n - d}"
        )
    columns, pairings = _curvature_pairings(dist, point)
    # (alpha wedge d omega)(u_a, u_b, u_c) = a_a P_bc - a_b P_ac + a_c P_ab with
    # P_bc = I_bc / m: the row times m is (I_bc, -I_ac, I_ab)
    rows: list[list[int]] = []
    for pair in pairings:
        for a in range(d):
            for b in range(a + 1, d):
                ab = pair[a][b]
                for c in range(b + 1, d):
                    bc, ac = pair[b][c], pair[a][c]
                    if bc or ac or ab:
                        row = [0] * d
                        row[a], row[b], row[c] = bc, -ac, ab
                        rows.append(row)
    flat = tuple(v for row in rows for v in row)
    _, solutions = rank_and_nullspace(RationalMatrix._of(len(rows), d, flat))
    if len(solutions) != 1:
        raise UnexpectedCovariantDimension(
            f"covariant covector space has dimension {len(solutions) + 2}, expected 3"
        )
    return _kernel_image(columns, solutions)

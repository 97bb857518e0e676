"""Exact rational arithmetic, sparse multivariate polynomials and exact
linear algebra over the rationals and over polynomial matrices.

Rational numbers are ``fractions.Fraction`` values; a float is rejected
wherever a rational enters, as its binary expansion is rarely the rational
meant.  A polynomial maps monomials to nonzero coefficients.  A monomial is
a tuple of ``(variable index, positive exponent)`` pairs sorted by variable,
() being the monomial 1, except inside the elimination kernel
(``_eliminate`` and the packed rows it leaves, ``Poly // Poly``), where it
is an int (_Packing): fields
[total degree | e_0 | ... | e_(n-1)], each with a guard bit and as wide as
the largest degree the work reaches, twice the sum of the largest
min(rows, cols) row degrees in an elimination.  An integral coefficient is
an ``int`` and any other a Fraction with denominator > 1: nearly every
coefficient is an integer, and int arithmetic skips the gcd work of every
Fraction step.  The two kinds compare and hash alike (``2 == Fraction(2)``).

Every operation is a pure function, and no answer depends on the one memo
(a matrix's annihilator), so concurrent use needs no locking.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import add
from typing import Callable, Iterable, Sequence

from .errors import BadSyntax, ChartMismatch, DegeneratePivot

# ((var, exp), ...) sorted by var, every exp > 0; () is the monomial 1
Mono = tuple[tuple[int, int], ...]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$", re.ASCII)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _decimal(text: str) -> int:
    """int(text) for text already matched as ASCII digits with an optional
    sign.  int() refuses more digits than sys.get_int_max_str_digits(); that
    refusal, with Python's advice to raise the bound, becomes a ValueError
    that names the count and the bound."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("+-"))
        raise ValueError(f"literal of {digits} digits, over the bound of {sys.get_int_max_str_digits()} digits") from None


def parse_rational(text: str) -> Fraction:
    """Parse the exact text format: optional sign, integer, optional '/'
    positive integer; ``str`` of a Fraction is its inverse."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = map(_decimal, text.split("/"))
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(num, den)
    return Fraction(_decimal(text))


def exact_rational(value: Fraction | int | str) -> Fraction:
    """``value`` as a Fraction; a float raises BadSyntax (0.1 would become
    3602879701896397/36028797018963968), and so does a bool (True == 1, but
    it is no rational) and text that parse_rational refuses ("1e3" or "0.1"
    would become 1000 or 1/10)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise BadSyntax(str(exc)) from None
    if isinstance(value, float):
        raise BadSyntax(f"inexact value {value!r}: give an int, a Fraction or a rational literal")
    if isinstance(value, bool):
        raise BadSyntax(f"bool value {value!r}: give an int, a Fraction or a rational literal")
    return Fraction(value)


def _check_int(name: str, value) -> None:
    # True == 1 and 2.0 == 2, but neither prints as an int
    if type(value) is not int:
        raise ChartMismatch(f"{name} {value!r} is not an int but a {type(value).__name__}")


def _index_error(name: str, index, bound: str) -> ChartMismatch:
    """The error for an index that is not an int, or is an int out of range for ``bound``."""
    if type(index) is not int:
        return ChartMismatch(f"{name} {index!r} is not an int but a {type(index).__name__}")
    return ChartMismatch(f"{name} {index} out of range for {bound}")


def _canonical(value: int | Fraction) -> int | Fraction:
    """A coefficient in canonical form: an integral Fraction becomes its int numerator."""
    return value if type(value) is int or value.denominator != 1 else value.numerator


def _coefficient(value: Fraction | int | str) -> int | Fraction:
    """A coefficient from a caller, in canonical form; a float raises BadSyntax."""
    return value if type(value) is int else _canonical(exact_rational(value))


def _quotient(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """Exact a / b in canonical form: // in Z when both are ints and b divides a."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _canonical(Fraction(a, b))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    """Merge two sorted exponent tuples, adding exponents of shared variables;
    when every variable of a comes before every one of b, that is a + b, and
    b + a the other way round."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out: list[tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mul_into(acc: dict, a_terms: dict, b_terms: dict, sign: int, mono_mul=_mono_mul) -> None:
    """Add ``sign`` (1 or -1) times the product of two term maps into ``acc``,
    dropping every 0; ``mono_mul`` multiplies monomials (``add`` for packed
    ones).  A coefficient may be left an integral Fraction (see _summed).

    The monomial 1 (() or the packed 0) times m is m, with no call: every
    versor component is the constant 1.  A product of two nonzero
    coefficients is nonzero, so a monomial new to ``acc`` takes it as it is;
    only a sum can cancel.
    """
    for ma, ca in a_terms.items():
        if sign < 0:
            ca = -ca
        for mb, cb in b_terms.items():
            mono = mono_mul(ma, mb) if ma else mb
            if mono in acc:
                s = acc[mono] + ca * cb
                if s:
                    acc[mono] = s
                else:
                    del acc[mono]
            else:
                acc[mono] = ca * cb


def _descending_key(mono: Mono, arity: int) -> tuple[int, tuple[int, ...]]:
    """Sort key for descending graded-lex order, the leading monomial first:
    minus the total degree, then the dense exponent vector negated."""
    dense = [0] * arity
    deg = 0
    for var, exp in mono:
        dense[var] = -exp
        deg -= exp
    return (deg, tuple(dense))


class _Packing:
    """Monomials of ``arity`` variables as ints, for work in which no
    monomial passes total degree ``bound``: from the top, the total degree
    and the exponents of u_0 to u_(arity-1), ``bound.bit_length()`` bits
    each under a guard bit kept at 0.  A product is an int addition, the int
    order is _descending_key's (the leading monomial is the largest), and
    m / lead is m - lead, where a field below lead's borrows, setting a
    guard bit (or making the int negative)."""

    __slots__ = ("arity", "shifts", "mask", "weights", "guards", "_monos")

    def __init__(self, arity: int, bound: int):
        width = bound.bit_length()
        top, *self.shifts = range(arity * (width + 1), -1, -width - 1)  # degree, u_0, ...
        self.arity, self.mask = arity, (1 << width) - 1
        self.weights = [(1 << top) + (1 << shift) for shift in self.shifts]
        self.guards = sum(1 << (shift + width) for shift in [top, *self.shifts])
        self._monos: dict[int, Mono] = {}  # each int unpacked once

    def pack(self, poly: Poly) -> dict[int, int | Fraction]:
        weights = self.weights
        return {sum(exp * weights[var] for var, exp in mono): c for mono, c in poly.terms.items()}

    def unpack(self, terms: dict[int, int | Fraction]) -> Poly:
        """The Poly of a packed term map, its coefficients canonicalised."""
        monos, out = self._monos, {}
        for packed, coeff in terms.items():
            mono = monos.get(packed)
            if mono is None:
                exps = ((var, packed >> shift & self.mask) for var, shift in enumerate(self.shifts))
                mono = monos[packed] = tuple((var, exp) for var, exp in exps if exp)
            out[mono] = _canonical(coeff)
        return Poly._of(self.arity, out)

    def divide(self, rest: dict[int, int | Fraction], d: dict[int, int | Fraction]) -> dict[int, int | Fraction]:
        """The quotient of the packed term map ``rest`` (consumed) by the
        nonzero packed ``d``; ArithmeticError unless d divides it.  A heap of
        negated monomials pops the leading monomial m of what is left:
        t = m / lead(d) goes to the quotient and t * (d - lead(d)), all below
        m, leaves ``rest`` (a monomial that cancels stays as 0, skipped).
        Monagan & Pearce's heap division, the heap over the remainder."""
        lead = max(d)
        lead_coeff = d[lead]
        if not lead:
            return rest if lead_coeff == 1 else {m: _quotient(c, lead_coeff) for m, c in rest.items()}
        tail = [(mono, coeff) for mono, coeff in d.items() if mono != lead]
        guards = self.guards
        heap = [-mono for mono in rest]
        heapify(heap)
        quotient = {}
        while heap:
            mono = -heappop(heap)
            coeff = rest.pop(mono)
            if not coeff:
                continue
            q_mono = mono - lead
            if q_mono & guards:
                raise ArithmeticError("inexact polynomial division")
            q = quotient[q_mono] = _quotient(coeff, lead_coeff)
            for d_mono, d_coeff in tail:
                product = q_mono + d_mono
                old = rest.get(product)
                if old is None:
                    rest[product] = -q * d_coeff
                    heappush(heap, -product)
                else:
                    rest[product] = old - q * d_coeff
        return quotient


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps monomials to nonzero canonical coefficients (wrap one in
    Fraction before dividing by it); the constructor rejects monomials that
    are not canonical, so equality is dict equality (plus matching arity).
    Arithmetic across different arities raises ChartMismatch.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict[Mono, Fraction | int] | None = None):
        _check_int("arity", arity)
        if arity < 1:
            raise ChartMismatch(f"arity must be positive, got {arity}")
        clean: dict[Mono, int | Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = _coefficient(coeff)
            if not coeff:
                continue
            if type(mono) is not tuple or not all(type(pair) is tuple and len(pair) == 2 for pair in mono):
                raise ChartMismatch(f"monomial {mono!r} is not a tuple of (variable, exponent) pairs")
            previous = -1
            for var, exp in mono:
                _check_int("variable index", var)
                _check_int("exponent", exp)
                if var <= previous or exp < 1:
                    raise ValueError(f"monomial {mono!r} is not canonical (increasing variables, positive exponents)")
                previous = var
            if previous >= arity:
                raise ChartMismatch(f"variable index {previous} >= arity {arity}")
            clean[mono] = coeff
        self.arity = arity
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _of(arity: int, terms: dict[Mono, int | Fraction]) -> "Poly":
        """A Poly around computed terms that are already canonical: nothing is checked or copied."""
        poly = Poly.__new__(Poly)
        poly.arity = arity
        poly.terms = terms
        return poly

    @staticmethod
    def _summed(arity: int, terms: dict[Mono, int | Fraction]) -> "Poly":
        """A Poly around terms summed by _mul_into: nonzero, but a Fraction
        coefficient may be integral, so each one is canonicalised here, once."""
        for mono, coeff in terms.items():
            if type(coeff) is not int:
                terms[mono] = _canonical(coeff)
        return Poly._of(arity, terms)

    @classmethod
    def zero(cls, arity: int) -> "Poly":
        return cls(arity)

    @classmethod
    def const(cls, arity: int, value: Fraction | int) -> "Poly":
        return cls(arity, {(): value})

    @classmethod
    def variable(cls, arity: int, index: int) -> "Poly":
        _check_int("variable index", index)
        if not 0 <= index < arity:
            raise ChartMismatch(f"variable index {index} out of range for arity {arity}")
        return cls(arity, {((index, 1),): 1})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get((), 0))

    def signature(self) -> tuple:
        """Hashable canonical form (terms sorted by monomial)."""
        return (self.arity, tuple(sorted(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Mono, int | Fraction]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: _descending_key(kv[0], self.arity))

    def leading(self) -> tuple[Mono, int | Fraction]:
        """Leading (monomial, coefficient) in graded-lex order; requires nonzero."""
        return min(self.terms.items(), key=lambda kv: _descending_key(kv[0], self.arity))

    # -- ring operations -----------------------------------------------------

    def _check_same_arity(self, other: "Poly") -> None:
        if self.arity != other.arity:
            raise ChartMismatch(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "Poly | Fraction | int") -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(self.arity, other)
        self._check_same_arity(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, 0) + coeff
            if s:
                # most sums are ints; testing the type inline is cheaper than the call
                out[mono] = s if type(s) is int else _canonical(s)
            else:
                out.pop(mono, None)
        return Poly._of(self.arity, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of(self.arity, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly | Fraction | int") -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(self.arity, other)
        return self + (-other)

    def __rsub__(self, other: "Fraction | int") -> "Poly":
        return (-self) + other

    def __mul__(self, other: "Poly | Fraction | int") -> "Poly":
        if not isinstance(other, Poly):
            return self.scaled(other)
        self._check_same_arity(other)
        if len(self.terms) == 1:
            self, other = other, self
        if len(other.terms) == 1:
            ((mb, cb),) = other.terms.items()
            if cb == 1:
                # distinct monomials times one monomial stay distinct, and the canonical coefficients as they are
                return Poly._of(self.arity, {_mono_mul(ma, mb): ca for ma, ca in self.terms.items()})
        out = {}
        _mul_into(out, self.terms, other.terms, 1)
        return Poly._summed(self.arity, out)

    __rmul__ = __mul__

    def scaled(self, factor: Fraction | int) -> "Poly":
        factor = _coefficient(factor)
        return Poly._of(self.arity, {m: _canonical(c * factor) for m, c in self.terms.items()} if factor else {})

    def __floordiv__(self, d: "Poly") -> "Poly":
        """Exact division self / d in the polynomial ring; ArithmeticError
        unless d divides self.  No monomial of the division passes the
        larger degree of the two, the bound of its _Packing."""
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        self._check_same_arity(d)
        packing = _Packing(self.arity, max(sum(e for _, e in m) for x in (self, d) for m in x.terms))
        return packing.unpack(packing.divide(packing.pack(self), packing.pack(d)))

    # -- calculus and evaluation ---------------------------------------------

    def partial(self, var: int) -> "Poly":
        """Exact formal partial derivative with respect to variable ``var``, an int index."""
        # the inner call of every Lie bracket: the type is tested inline, not by a call
        if type(var) is not int or not 0 <= var < self.arity:
            raise _index_error("variable index", var, f"arity {self.arity}")
        out: dict[Mono, int | Fraction] = {}
        for mono, coeff in self.terms.items():
            for pos, (v, e) in enumerate(mono):
                if v != var:
                    continue
                if e == 1:
                    new = mono[:pos] + mono[pos + 1 :]
                else:
                    new = mono[:pos] + ((v, e - 1),) + mono[pos + 1 :]
                # distinct monomials have distinct derivatives, so nothing collides or cancels
                out[new] = coeff * e if type(coeff) is int else _canonical(coeff * e)
                break
        return Poly._of(self.arity, out)

    def eval_at(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a rational point (length must equal the arity), as
        a Fraction.  The sum stays an int while every term is one, and a
        Fraction is made once, at the end.  A float coordinate that enters a
        term makes the sum a float, which raises BadSyntax: one check per
        call, none per term."""
        if len(point) != self.arity:
            raise ChartMismatch(f"point has {len(point)} coordinates, arity is {self.arity}")
        total = 0
        for mono, coeff in self.terms.items():
            value = coeff
            for var, exp in mono:
                base = point[var]
                if not base:
                    break
                value *= base**exp
            else:
                total += value
        if type(total) is int:
            return Fraction(total) if total else _ZERO
        if type(total) is float:
            for base in point:
                exact_rational(base)
        return total

    def jet_at(self, point: Sequence[Fraction], order: int) -> dict[Mono, int | Fraction]:
        """The Taylor polynomial at an admitted rational point p, truncated at
        total degree ``order``: {m: c}, nonzero c, with m a monomial in
        v = u - p.  The coefficient of v^m is d^m f(p) / m!, so () holds the
        value, v_a the partial d/du_a, v_a v_b (a < b) d^2/du_a du_b, and v_a^2
        half of d^2/du_a^2.

        A term's factors that vanish at p stay as they are and use up their
        degree; a term whose vanishing factors pass ``order`` adds nothing,
        and one whose every factor vanishes (any term at the origin) is its
        own v-monomial.  Each other factor (p_a + v_a)^e adds
        C(e, k) p_a^(e - k) v_a^k for each k up to the degree left.  Only
        products are formed, and each coefficient is canonicalised once, at
        the end, where a float that entered a term raises BadSyntax."""
        if len(point) != self.arity:
            raise ChartMismatch(f"point has {len(point)} coordinates, arity is {self.arity}")
        _check_int("order", order)
        if order < 0:
            raise ChartMismatch(f"order must be >= 0, got {order}")
        jet: dict[Mono, int | Fraction] = {}
        for mono, coeff in self.terms.items():
            left = order  # the degree left to the factors that do not vanish at p
            shifted = False
            for var, exp in mono:
                if point[var]:
                    shifted = True
                else:
                    left -= exp
            if left < 0:
                continue
            if not shifted:
                jet[mono] = jet.get(mono, 0) + coeff
                continue
            parts = [((), 0, coeff)]  # (v-monomial, its degree from shifted factors, coefficient)
            for var, exp in mono:
                base = point[var]
                if not base:
                    parts = [(m + ((var, exp),), d, c) for m, d, c in parts]
                    continue
                # the v^0 and v^e terms of (p + v)^e are p^e and 1: no binomial is formed for them
                grown = []
                for m, d, c in parts:
                    grown.append((m, d, c * base**exp))
                    for k in range(1, min(exp, left - d) + 1):
                        grown.append((m + ((var, k),), d + k, c if k == exp else c * comb(exp, k) * base ** (exp - k)))
                parts = grown
            for m, _, c in parts:
                jet[m] = jet.get(m, 0) + c
        try:
            return {m: _canonical(c) for m, c in jet.items() if c}
        except AttributeError:  # a float coordinate entered a term: name it
            tuple(map(exact_rational, point))
            raise

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self.is_constant() and self.constant_term() == other
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.signature())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = [f"u{v}" if e == 1 else f"u{v}^{e}" for v, e in mono]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(coeff) + "*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _divided(poly: Poly, divisor: int | Fraction) -> Poly:
    """``poly`` divided by a nonzero canonical constant, coefficient by
    coefficient; 1 gives ``poly`` itself (no Poly is ever mutated), -1 -poly."""
    if divisor == 1:
        return poly
    if divisor == -1:
        return -poly
    return Poly._of(poly.arity, {mono: _quotient(coeff, divisor) for mono, coeff in poly.terms.items()})


def poly_content(polys: Iterable[Poly]) -> Fraction:
    """Positive rational content (gcd) of all coefficients; 0 for all-zero input."""
    num = 0
    den = 1
    for poly in polys:
        for coeff in poly.terms.values():
            num = gcd(num, abs(coeff.numerator))
            den = lcm(den, coeff.denominator)
    if num == 0:
        return Fraction(0)
    return Fraction(num, den)


def primitive_tuple(polys: Sequence[Poly]) -> tuple[Poly, ...]:
    """Normalize a covector/field: content 1, first nonzero leading coefficient positive."""
    content = poly_content(polys)
    if content == 0:
        return tuple(polys)
    for poly in polys:
        if not poly.is_zero():
            if poly.leading()[1] < 0:
                content = -content
            break
    divisor = _canonical(content)
    return tuple(_divided(p, divisor) if p.terms else p for p in polys)


# ---------------------------------------------------------------------------
# Exact linear algebra over the rationals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of Fractions, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        for name in ("rows", "cols"):
            size = getattr(self, name)
            _check_int(name, size)
            if size < 0:
                raise ChartMismatch(f"{name} must be >= 0, got {size}")
        if len(self.entries) != self.rows * self.cols:
            raise ChartMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        # where a matrix admits entries (_of takes admitted ones): a float raises BadSyntax
        object.__setattr__(self, "entries", tuple(map(exact_rational, self.entries)))

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple[Fraction, ...]) -> "RationalMatrix":
        """A matrix around admitted entries (ints too, where only
        rank_and_nullspace reads it): nothing is checked or mapped."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        object.__setattr__(matrix, "cols", cols)
        object.__setattr__(matrix, "entries", entries)
        return matrix

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "RationalMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ChartMismatch("ragged rows")
            flat.extend(row)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction | int]], ambient: int | None = None) -> "RationalMatrix":
        """The matrix with these columns, each of ``ambient`` entries when it
        is given, else of as many as the first; a column of another length
        raises ChartMismatch."""
        if not columns:
            return cls(ambient or 0, 0, ())
        nrows = len(columns[0]) if ambient is None else ambient
        for j, col in enumerate(columns):
            if len(col) != nrows:
                raise ChartMismatch(f"column {j} has {len(col)} entries, expected {nrows}")
        return cls(nrows, len(columns), tuple(col[i] for i in range(nrows) for col in columns))

    # each index must be an int in range: a flat tuple would read a negative
    # or too large one as another entry, and True as 1
    def at(self, i: int, j: int) -> Fraction:
        if type(i) is not int or not 0 <= i < self.rows:
            raise _index_error("row index", i, f"{self.rows} rows")
        if type(j) is not int or not 0 <= j < self.cols:
            raise _index_error("column index", j, f"{self.cols} columns")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        if type(i) is not int or not 0 <= i < self.rows:
            raise _index_error("row index", i, f"{self.rows} rows")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        if type(j) is not int or not 0 <= j < self.cols:
            raise _index_error("column index", j, f"{self.cols} columns")
        return self.entries[j :: self.cols]

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.column(j) for j in range(self.cols)]

    @cached_property
    def annihilator(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """A basis of ker(M^T), the covectors vanishing on the column span,
        each scaled to integers and kept as its nonzero (index, entry) pairs;
        one rank_and_nullspace of the transpose, on first use."""
        transpose = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        _, kernel = rank_and_nullspace(RationalMatrix._of(self.cols, self.rows, transpose))
        return tuple(tuple((i, v) for i, v in enumerate(row) if v) for row in _integer_rows(kernel))


def _integer_rows(rows: Iterable[Sequence[Fraction | int]]) -> list[list[int]]:
    """Each row times the lcm of its denominators, divided by the gcd of the
    result: neither the kernel nor the pivots change."""
    out = []
    for row in rows:
        pairs = [(v.numerator, v.denominator) for v in row]
        den = lcm(*[d for _, d in pairs])
        ints = [n * (den // d) for n, d in pairs] if den > 1 else [n for n, _ in pairs]
        g = gcd(*ints)
        out.append([v // g for v in ints] if g > 1 else ints)
    return out


def _eliminate(rows: list[list], reduce: bool) -> tuple[list[int], list[int], Callable]:
    """In-place fraction-free (Bareiss) elimination of ``int`` or ``Poly`` rows.

    Column by column, the pivot is the first unused row, in original order,
    with a nonzero entry p there; it moves up into the next pivot slot and
    the rows between shift down.  Each later row (with ``reduce``, each
    other row) with entry f there becomes (p * row - f * pivot_row) //
    (previous pivot), exact in Z and in Q[u] alike, in the columns without
    a pivot; pivot columns are never read again and keep stale entries.
    Every entry is a minor of the input: the last pivot P is ±det of the
    pivot minor and, with ``reduce``, entry (j, c) is that minor with column
    j swapped for column c, with the sign of P.  So no update passes twice
    the sum of the largest min(rows, cols) row degrees, the bound of the
    _Packing that polynomial rows are in.

    Only steps that can change an entry are done: f * pivot_row is formed
    only where the pivot row is nonzero, and elsewhere x becomes
    (p * x) // (previous pivot), x itself when p is the previous pivot (1
    before the first): such entries, and rows with f = 0, are skipped.

    Returns (pivot row indices, pivot column indices, unpack) in pivot
    order; slot j then holds pivot row j.  Polynomial rows are left packed,
    every entry a term map, and ``unpack`` (the _Packing's) makes the Poly
    of an entry a caller reads, so only what is read is unpacked; for int
    rows ``unpack`` is ``int``, which gives each entry back as it is.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    polynomial = bool(ncols) and isinstance(rows[0][0], Poly)
    prev = 1  # the previous pivot, 1 before the first
    unpack = int
    if polynomial:
        degrees = [max((sum(e for _, e in m) for x in row for m in x.terms), default=0) for row in rows]
        degrees.sort(reverse=True)
        packing = _Packing(rows[0][0].arity, 2 * sum(degrees[: min(nrows, ncols)]))
        for row in rows:
            row[:] = [packing.pack(x) if x.terms else {} for x in row]
        prev = {0: 1}
        unpack = packing.unpack
    order = list(range(nrows))
    live = list(range(ncols))  # columns without a pivot so far
    pivot_cols: list[int] = []
    for col in range(ncols):
        slot = len(pivot_cols)
        if slot == nrows:
            break
        pivot = next((r for r in range(slot, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows.insert(slot, rows.pop(pivot))
        order.insert(slot, order.pop(pivot))
        live.remove(col)
        prow = rows[slot]
        p = prow[col]
        # (x * p) // prev == x for every x: a row with f = 0 keeps its entries
        keeps = p == prev
        for r in range(0 if reduce else slot + 1, nrows):
            if r == slot:
                continue
            row = rows[r]
            f = row[col]
            if not f and keeps:
                continue
            for c in live:
                x, y = row[c], prow[c]
                if f and y or x and not keeps:
                    if polynomial:
                        entry = {}
                        if x:
                            _mul_into(entry, x, p, 1, add)
                        if f and y:
                            _mul_into(entry, f, y, -1, add)
                    else:
                        entry = x * p - f * y
                    row[c] = packing.divide(entry, prev) if polynomial else entry // prev
        prev = p
        pivot_cols.append(col)
    return order[: len(pivot_cols)], pivot_cols, unpack


def rank_and_nullspace(matrix: RationalMatrix) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Exact rank and a basis of the (right) kernel {v : Mv = 0}.

    One reduced _eliminate pass; each free column f gives the vector with 1
    in slot f and minus entry (j, f) over the last pivot in pivot column j
    (Cramer's rule): the reduced echelon form's basis, which is unique.
    """
    rows = _integer_rows(matrix.row(i) for i in range(matrix.rows))
    _, pivot_cols, _ = _eliminate(rows, reduce=True)
    last = rows[len(pivot_cols) - 1][pivot_cols[-1]] if pivot_cols else 1
    basis = []
    for free in range(matrix.cols):
        if free in pivot_cols:
            continue
        vec = [_ZERO] * matrix.cols
        vec[free] = _ONE
        for j, pcol in enumerate(pivot_cols):
            entry = rows[j][free]
            if entry:
                vec[pcol] = Fraction(-entry, last)
        basis.append(tuple(vec))
    return len(pivot_cols), basis


def span_includes(a: RationalMatrix, b: RationalMatrix) -> bool:
    """True iff the column span of ``a`` lies inside the column span of ``b``.

    By duality: exactly when every covector of ker(b^T), ``b.annihilator``,
    annihilates every column of a.  The test stops at the first nonzero pairing.
    """
    if a.rows != b.rows:
        raise ChartMismatch(f"ambient mismatch: {a.rows} vs {b.rows}")
    return all(annihilates(b.annihilator, a.column(j)) for j in range(a.cols))


def annihilates(covectors: Iterable[tuple[tuple[int, int], ...]], column: Sequence[int | Fraction]) -> bool:
    """Whether every covector, given as its nonzero (index, entry) pairs (see
    RationalMatrix.annihilator), pairs to 0 with ``column``; stops at the
    first that does not.  A covector with one entry, at i, reads only
    column[i]."""
    for covector in covectors:
        if len(covector) == 1:
            if column[covector[0][0]]:
                return False
        elif sum(column[i] * v for i, v in covector):
            return False
    return True


def column_space_basis(columns: Sequence[Sequence[Fraction]], ambient: int) -> RationalMatrix:
    """A deterministic independent subset of ``columns`` spanning their space:
    each column not in the span of the columns before it."""
    _check_int("ambient", ambient)
    if not columns:
        return RationalMatrix(ambient, 0, ())
    if any(len(col) != ambient for col in columns):
        raise ChartMismatch(f"columns must have {ambient} entries")
    # each entry is admitted once, here; the selected columns are not admitted again
    columns = [tuple(map(exact_rational, col)) for col in columns]
    _, pivot_cols, _ = _eliminate(_integer_rows(zip(*columns)), reduce=False)
    chosen = [columns[c] for c in pivot_cols]
    return RationalMatrix._of(ambient, len(chosen), tuple(col[i] for i in range(ambient) for col in chosen))


# ---------------------------------------------------------------------------
# Polynomial matrices: determinant and nullspace
# ---------------------------------------------------------------------------


def poly_det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix: the last pivot of one forward
    _eliminate pass, signed by the parity of its pivot rows; 0 unless all n
    rows are pivot rows."""
    n = len(rows)
    if n == 0:
        raise ChartMismatch("empty matrix has no determinant")
    if any(len(row) != n for row in rows):
        raise ChartMismatch(f"determinant needs a square matrix; {n} rows are not all of length {n}")
    work = [list(row) for row in rows]
    order, pivot_cols, unpack = _eliminate(work, reduce=False)
    if len(pivot_cols) < n:
        return Poly.zero(rows[0][0].arity)
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    det = unpack(work[-1][-1])
    return -det if inversions % 2 else det


def _constraints(matrix: Sequence[Sequence[Poly]]) -> list[tuple[Poly, ...]]:
    """The rows of an ambient x generators matrix, transposed: one constraint
    row per generator, one column per ambient coordinate.  Like a
    Distribution, a matrix with ambient rows needs a generator column, and
    every entry must be a Poly of the arity of entry (0, 0)."""
    ngens = len(matrix[0]) if matrix else 0
    if matrix and not ngens:
        raise ChartMismatch("polynomial matrix needs at least one generator column")
    if any(len(row) != ngens for row in matrix):
        raise ChartMismatch("ragged polynomial matrix")
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            # entry (0, 0) is checked first, so it is a Poly when later entries are compared with it
            if not isinstance(x, Poly):
                raise ChartMismatch(f"entry ({i}, {j}) of the polynomial matrix is not a Poly but a {type(x).__name__}")
            if x.arity != matrix[0][0].arity:
                raise ChartMismatch(
                    f"entry ({i}, {j}) of the polynomial matrix has arity {x.arity}, entry (0, 0) {matrix[0][0].arity}"
                )
    return list(zip(*matrix))


def _kernel(
    constraints: Sequence[Sequence[Poly]],
    rows: Sequence[int],
    columns: Sequence[int],
    arity: int,
) -> tuple[list[tuple[Poly, ...]], list[int]]:
    """Kernel covectors of the constraint ``rows`` and the pivot work columns,
    from one reduced _eliminate pass with coordinate ``columns[c]`` in work
    column c: free column f gives the last pivot P in slot f and minus entry
    (j, f) in the slot of pivot j (Cramer's rule, up to the sign of P, which
    primitive_tuple removes).  P must be ±det of the pivot minor by poly_det.
    """
    work = [[constraints[r][c] for c in columns] for r in rows]
    slots, pivots, unpack = _eliminate(work, reduce=True)
    k = len(pivots)
    last = unpack(work[k - 1][pivots[-1]]) if k else Poly.const(arity, 1)
    if k:
        det = poly_det([[constraints[rows[r]][columns[c]] for c in pivots] for r in slots])
        if last != det and last != -det:
            raise ArithmeticError("last pivot of the Gauss-Jordan pass is not ±det of the pivot minor")
    covectors = []
    for f in (c for c in range(len(columns)) if c not in pivots):
        entries = [Poly.zero(arity)] * len(columns)
        entries[columns[f]] = last
        for j, pivot in enumerate(pivots):
            entries[columns[pivot]] = -unpack(work[j][f])
        covectors.append(primitive_tuple(entries))
    return covectors, pivots


def polynomial_nullspace(matrix: Sequence[Sequence[Poly]], at_point: Sequence[Fraction]) -> list[tuple[Poly, ...]]:
    """Polynomial covectors v with v^T M = 0 for an ambient x generators matrix M.

    Pivots are chosen by exact elimination of M at ``at_point``, and _kernel
    reads the kernel off those rows, with the pivot columns first: the
    symbolic pivot minor in the free slot and the Cramer minors in the pivot
    slots.  Each covector is certified to annihilate every other generator
    identically; a failed certificate means the rank at the point is below
    the rank of M over the polynomials, and raises DegeneratePivot.  Raises
    ArithmeticError when the pass does not pivot on exactly the pivot
    columns (the pivot minor is singular).
    """
    constraints = _constraints(matrix)
    ambient = len(matrix)
    if ambient == 0:
        return []
    if len(at_point) != ambient:
        raise ChartMismatch(f"point has {len(at_point)} coordinates, ambient is {ambient}")
    point = tuple(map(exact_rational, at_point))
    values = _integer_rows([x.eval_at(point) if x.terms else _ZERO for x in row] for row in constraints)
    pivot_rows, pivot_cols, _ = _eliminate(values, reduce=False)
    columns = [*pivot_cols, *(c for c in range(ambient) if c not in pivot_cols)]
    covectors, pivots = _kernel(constraints, pivot_rows, columns, matrix[0][0].arity)
    if pivots != list(range(len(pivot_cols))):
        raise ArithmeticError("pivot minor is singular")
    chosen = set(pivot_rows)
    others = [row for r, row in enumerate(constraints) if r not in chosen]
    if not all(_annihilates_identically(cov, row) for row in others for cov in covectors):
        raise DegeneratePivot("generator matrix drops rank at the reference point; no valid pivot permutation")
    return covectors


def polynomial_nullspace_structural(matrix: Sequence[Sequence[Poly]]) -> list[tuple[Poly, ...]]:
    """Like polynomial_nullspace, but pivoted symbolically: the _kernel of
    every generator row, in column order.  The covectors annihilate every
    generator identically; their values are a basis of the pointwise
    annihilator wherever the rank is structural and they stay independent.
    """
    constraints = _constraints(matrix)
    if not matrix:
        return []
    return _kernel(constraints, range(len(constraints)), range(len(matrix)), matrix[0][0].arity)[0]


def _annihilates_identically(covector: Sequence[Poly], row: Sequence[Poly]) -> bool:
    """Whether the sum of covector[j] * row[j] is the zero polynomial."""
    pairing: dict[Mono, int | Fraction] = {}
    for w, g in zip(covector, row):
        if w.terms and g.terms:
            _mul_into(pairing, w.terms, g.terms, 1)
    return not pairing

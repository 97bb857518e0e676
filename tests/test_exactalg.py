"""Tests for rationals, sparse polynomials and exact linear algebra.

Expected values here are either asserted directly, computed by an
independent oracle (term-by-term multiplication, determinant-minor rank),
or checked as algebraic identities on randomized inputs.
"""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twoflags.exactalg as exactalg
from twoflags.atlas import enumerate_words
from twoflags.cli import draw_constants
from twoflags.ekr import EkrSpec, build_ekr
from twoflags.errors import BadSyntax, ChartMismatch, DegeneratePivot
from twoflags.exactalg import (
    Poly,
    RationalMatrix,
    _constraints,
    _descending_key,
    _eliminate,
    _independent,
    _integer_rows,
    _mono_mul,
    _Packing,
    column_space_basis,
    parse_rational,
    poly_content,
    poly_det,
    polynomial_nullspace,
    polynomial_nullspace_structural,
    primitive_tuple,
    rank_and_nullspace,
    span_includes,
)
from twoflags.geometry import big_flag

F = Fraction


# ---------------------------------------------------------------------------
# Independent oracles (deliberately not sharing code with the library)
# ---------------------------------------------------------------------------


def oracle_mul(a: Poly, b: Poly) -> dict:
    """Term-by-term product collected in a plain dict keyed by dense exponents."""
    out: dict[tuple, Fraction] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            dense = [0] * a.arity
            for var, exp in ma:
                dense[var] += exp
            for var, exp in mb:
                dense[var] += exp
            key = tuple(dense)
            out[key] = out.get(key, F(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def dense_terms(p: Poly) -> dict:
    out = {}
    for mono, coeff in p.terms.items():
        dense = [0] * p.arity
        for var, exp in mono:
            dense[var] = exp
        out[tuple(dense)] = coeff
    return out


def oracle_det(rows) -> Fraction:
    """Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * oracle_det(minor)
    return total


def oracle_gauss_jordan(matrix: RationalMatrix) -> tuple[int, list[tuple[Fraction, ...]], list[int]]:
    """Fraction Gauss-Jordan with the library's pivot rule (first unused row with a
    nonzero entry): (rank, kernel basis with 1 in each free column, pivot columns)."""
    rows = [list(matrix.row(i)) for i in range(matrix.rows)]
    pivot_rows, pivot_cols = [], []
    used = [False] * matrix.rows
    for col in range(matrix.cols):
        pivot = next((r for r in range(matrix.rows) if not used[r] and rows[r][col] != 0), None)
        if pivot is None:
            continue
        used[pivot] = True
        pivot_rows.append(pivot)
        pivot_cols.append(col)
        inv = 1 / rows[pivot][col]
        rows[pivot] = [v * inv for v in rows[pivot]]
        for r in range(matrix.rows):
            if r != pivot and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot])]
    basis = []
    for free in (c for c in range(matrix.cols) if c not in pivot_cols):
        vec = [F(0)] * matrix.cols
        vec[free] = F(1)
        for prow, pcol in zip(pivot_rows, pivot_cols):
            vec[pcol] = -rows[prow][free]
        basis.append(tuple(vec))
    return len(pivot_cols), basis, pivot_cols


def oracle_cramer_kernel(constraints, pivot_rows, pivot_cols, ambient, arity) -> list[tuple[Poly, ...]]:
    """Cramer's rule with one Bareiss determinant per entry: det(base) in the
    free slot, minus det(base with pivot column j swapped for the free column)
    in pivot slot j, normalized by primitive_tuple."""
    base = [[constraints[r][c] for c in pivot_cols] for r in pivot_rows]
    det_base = poly_det(base) if base else Poly.const(arity, 1)
    covectors = []
    for free in (c for c in range(ambient) if c not in pivot_cols):
        entries = [Poly.zero(arity)] * ambient
        entries[free] = det_base
        rhs = [constraints[r][free] for r in pivot_rows]
        for j, pcol in enumerate(pivot_cols):
            replaced = [row[:j] + [rhs[i]] + row[j + 1 :] for i, row in enumerate(base)]
            entries[pcol] = -poly_det(replaced)
        covectors.append(primitive_tuple(entries))
    return covectors


def structural_pivots(rows) -> tuple[list[int], list[int]]:
    """Pivot rows and columns for the rank over the fraction field: one
    forward _eliminate of a copy."""
    return _eliminate([list(row) for row in rows], reduce=False)[:2]


def unpacked(rows, unpack) -> list[list]:
    """The entries of rows that _eliminate left, each through its unpack."""
    return [[unpack(x) for x in row] for row in rows]


def echelon_kernel(constraints, pivot_rows, pivot_cols, ambient, arity) -> list[tuple[Poly, ...]]:
    """The polynomial_nullspace_structural of the given pivot rows, in any
    order, with the pivot columns first and the free columns after them (a
    zero row when there is no pivot row), put back in coordinate order and
    normalised, as polynomial_nullspace reads it; the pass must pivot on
    exactly the given columns, so each covector's only nonzero free slot is
    its own."""
    columns = [*pivot_cols, *(c for c in range(ambient) if c not in pivot_cols)]
    matrix = [[constraints[r][c] for r in pivot_rows] or [Poly.zero(arity)] for c in columns]
    kernel = polynomial_nullspace_structural(matrix)
    k = len(pivot_cols)
    assert [[c for c in range(k, ambient) if cov[c]] for cov in kernel] == [[c] for c in range(k, ambient)]
    return [primitive_tuple([cov[columns.index(c)] for c in range(ambient)]) for cov in kernel]


def mat_vec(matrix: RationalMatrix, vec) -> tuple[Fraction, ...]:
    """The product matrix * vec, entry by entry."""
    assert len(vec) == matrix.cols
    return tuple(sum((matrix.at(i, j) * vec[j] for j in range(matrix.cols)), F(0)) for i in range(matrix.rows))


def minor_rank(matrix: RationalMatrix) -> int:
    """Largest k with a nonzero k x k minor."""
    for k in range(min(matrix.rows, matrix.cols), 0, -1):
        for rows in combinations(range(matrix.rows), k):
            for cols in combinations(range(matrix.cols), k):
                sub = [[matrix.at(i, j) for j in cols] for i in rows]
                if oracle_det(sub) != 0:
                    return k
    return 0


# ---------------------------------------------------------------------------
# Rational text format
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [("-3/7", F(-3, 7)), ("2", F(2)), ("+4/6", F(2, 3)), ("0", F(0))],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["", "1.5", "3e2", "2/0", "1/-2", "--3", "a/b", "\u0663/4", "1/\u0664", "1_000"])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_format_roundtrip():
    for q in [F(-3, 7), F(2), F(0), F(10, 4)]:
        assert parse_rational(str(q)) == q


# ---------------------------------------------------------------------------
# Polynomial arithmetic
# ---------------------------------------------------------------------------


def test_additive_inverse():
    x1 = Poly.variable(4, 1)
    assert (x1 + (-x1)).is_zero()


def test_distributivity_example():
    x1 = Poly.variable(4, 1)
    x2 = Poly.variable(4, 2)
    product = x2 * (Poly.const(4, 1) + x1)
    assert product == x2 + x1 * x2


def test_shifted_product_against_term_oracle():
    # (1/2 + x) * (2 + y) on a two-variable chart
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    a = Poly.const(2, F(1, 2)) + x
    b = Poly.const(2, 2) + y
    product = a * b
    expected = {
        (0, 0): F(1),
        (0, 1): F(1, 2),
        (1, 0): F(2),
        (1, 1): F(1),
    }
    assert dense_terms(product) == expected
    assert dense_terms(product) == oracle_mul(a, b)


def test_arity_mismatch():
    with pytest.raises(ChartMismatch):
        Poly.variable(2, 0) + Poly.variable(3, 0)
    with pytest.raises(ChartMismatch):
        Poly.variable(2, 0) * Poly.variable(3, 0)


@pytest.mark.parametrize(
    "mono",
    [((1, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 0),), ((0, -1),), ((-1, 1),)],
)
def test_poly_rejects_non_canonical_monomials(mono):
    with pytest.raises(ValueError):
        Poly(3, {mono: F(1)})


@pytest.mark.parametrize(
    "mono, message",
    [
        (((True, 1),), "variable index True is not an int but a bool"),
        (((0.0, 1),), "variable index 0.0 is not an int but a float"),
        (((0, 2.0),), "exponent 2.0 is not an int but a float"),
        (((0, True),), "exponent True is not an int but a bool"),
        ((0,), "monomial (0,) is not a tuple of (variable, exponent) pairs"),
        (((0, 1, 2),), "monomial ((0, 1, 2),) is not a tuple of (variable, exponent) pairs"),
        ("u0", "monomial 'u0' is not a tuple of (variable, exponent) pairs"),
    ],
    ids=["bool-variable", "float-variable", "float-exponent", "bool-exponent", "bare-int", "triple", "text"],
)
def test_poly_admits_only_int_variables_and_exponents_in_pairs(mono, message):
    # a bool index printed as uTrue and evaluated as u1, a float exponent
    # printed as u0^2.0, and the rest raised a bare TypeError or ValueError
    with pytest.raises(ChartMismatch, match=f"^{re.escape(message)}$"):
        Poly(2, {mono: 1})


def test_poly_canonical_monomials_compare_equal():
    assert Poly(3, {((0, 1), (1, 1)): F(1)}) == Poly.variable(3, 0) * Poly.variable(3, 1)
    with pytest.raises(ChartMismatch):
        Poly(3, {((0, 1), (3, 1)): F(1)})


def test_partial_power_rule():
    xs = Poly.variable(3, 2)
    cube = xs * xs * xs
    assert cube.partial(2) == Poly.const(3, 3) * xs * xs


def test_partial_independent_variable():
    p = Poly.variable(7, 3) + Poly.variable(7, 6)
    assert p.partial(0).is_zero()


def test_partial_shifted_factor():
    # d/dy4 of x4*(c4 + y4), on the length-4 chart (y4 has index 10, x4 index 9)
    arity = 11
    x4 = Poly.variable(arity, 9)
    y4 = Poly.variable(arity, 10)
    c4 = Poly.const(arity, F(3, 7))
    assert (x4 * (c4 + y4)).partial(10) == x4


def test_partial_out_of_range():
    with pytest.raises(ChartMismatch):
        Poly.variable(3, 0).partial(3)


def test_eval_direct_substitution():
    # x2*(1 + x1) at x1=1, x2=2, other coordinates 0
    arity = 7
    p = Poly.variable(arity, 4) * (Poly.const(arity, 1) + Poly.variable(arity, 3))
    point = [F(0)] * arity
    point[3], point[4] = F(1), F(2)
    assert p.eval_at(point) == 4


def test_eval_at_origin_is_constant_term():
    p = Poly.const(5, F(5, 3)) + Poly.variable(5, 2) * Poly.variable(5, 4)
    assert p.eval_at([F(0)] * 5) == F(5, 3)


def test_eval_constant_shift():
    p = Poly.const(3, F(3, 7)) + Poly.variable(3, 1)
    assert p.eval_at([F(0)] * 3) == F(3, 7)


def test_eval_length_mismatch():
    with pytest.raises(ChartMismatch):
        Poly.variable(3, 0).eval_at([F(0)] * 4)


# -- randomized identities ---------------------------------------------------

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# ints and Fractions, integral ones among them, as callers pass them
poly_coeffs = st.one_of(st.integers(min_value=-5, max_value=5), coeffs)


@st.composite
def polys(draw, arity=3, max_terms=4, max_exp=3):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        exps = draw(
            st.lists(st.integers(min_value=0, max_value=max_exp), min_size=arity, max_size=arity)
        )
        mono = tuple((v, e) for v, e in enumerate(exps) if e > 0)
        terms[mono] = draw(poly_coeffs)
    return Poly(arity, terms)


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_leibniz_rule(a, b):
    for var in range(a.arity):
        assert (a * b).partial(var) == a * b.partial(var) + b * a.partial(var)


@settings(max_examples=100, deadline=None)
@given(
    polys(),
    polys(),
    st.lists(coeffs, min_size=3, max_size=3),
)
def test_eval_is_ring_homomorphism(a, b, point):
    assert (a * b).eval_at(point) == a.eval_at(point) * b.eval_at(point)
    assert (a + b).eval_at(point) == a.eval_at(point) + b.eval_at(point)


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_mul_matches_term_oracle(a, b):
    assert dense_terms(a * b) == oracle_mul(a, b)


@settings(max_examples=100, deadline=None)
@given(polys(), polys(max_terms=1))
def test_mul_by_one_term_matches_term_oracle(a, b):
    # a one-term factor forms each product monomial directly, on either side
    assert dense_terms(a * b) == dense_terms(b * a) == oracle_mul(a, b)


def oracle_jet(poly: Poly, point: tuple, order: int) -> dict:
    """The Taylor coefficients d^m f(p) / m! of total degree at most
    ``order``, each from iterated Poly.partial and eval_at, the nonzero ones
    keyed by m as a monomial."""
    jet = {}
    for exps in product(range(order + 1), repeat=poly.arity):
        if sum(exps) > order:
            continue
        derivative = poly
        for var, exp in enumerate(exps):
            for _ in range(exp):
                derivative = derivative.partial(var)
        coefficient = derivative.eval_at(point) / prod(map(factorial, exps))
        if coefficient:
            jet[tuple((var, exp) for var, exp in enumerate(exps) if exp)] = coefficient
    return jet


@settings(max_examples=200, deadline=None)
@given(
    polys(arity=4, max_terms=5),
    st.lists(st.sampled_from((F(0), F(0), F(1), F(-2), F(1, 3), F(-3, 2))), min_size=4, max_size=4),
    st.integers(min_value=0, max_value=3),
)
def test_jet_at_matches_the_taylor_coefficients(poly, point, order):
    # zero coordinates exercise the vanishing factors: a term adds to the
    # jet only when its vanishing factors have total degree at most the order
    point = tuple(point)
    jet = poly.jet_at(point, order)
    assert jet == oracle_jet(poly, point, order)
    assert all(type(c) is int or c.denominator != 1 for c in jet.values())


@settings(max_examples=200, deadline=None)
@given(
    polys(arity=4, max_terms=5),
    st.lists(st.sampled_from((F(0), F(0), F(1), F(-2), F(1, 3), F(-3, 2))), min_size=4, max_size=4),
)
def test_two_jet_matches_the_evaluated_partials(poly, point):
    # the 2-jet holds the value, the first partials, the mixed second partials
    # and half of each pure second partial, each from an evaluated Poly.partial
    point = tuple(point)
    jet = poly.jet_at(point, 2)
    expected = {(): poly.eval_at(point)}
    for a in range(4):
        expected[((a, 1),)] = poly.partial(a).eval_at(point)
        expected[((a, 2),)] = poly.partial(a).partial(a).eval_at(point) / 2
        for b in range(a + 1, 4):
            expected[((a, 1), (b, 1))] = poly.partial(a).partial(b).eval_at(point)
    assert jet == {m: c for m, c in expected.items() if c}


def test_jet_at_the_origin_keeps_the_terms_up_to_the_order():
    n = 4
    poly = Poly(n, {(): 5, ((1, 1),): -2, ((2, 1),): F(1, 3), ((1, 2),): 7, ((0, 1), (3, 1)): 9, ((2, 3),): 4})
    origin = (F(0),) * n
    assert poly.jet_at(origin, 0) == {(): 5}
    assert poly.jet_at(origin, 1) == {(): 5, ((1, 1),): -2, ((2, 1),): F(1, 3)}
    assert poly.jet_at(origin, 2) == {(): 5, ((1, 1),): -2, ((2, 1),): F(1, 3), ((1, 2),): 7, ((0, 1), (3, 1)): 9}
    assert poly.jet_at(origin, 3) == poly.terms
    with pytest.raises(ChartMismatch, match="order"):
        poly.jet_at(origin, -1)
    with pytest.raises(ChartMismatch, match="order True"):
        poly.jet_at(origin, True)


def test_divexact_roundtrip():
    x = Poly.variable(3, 0)
    y = Poly.variable(3, 1)
    d = x * y + Poly.const(3, 2)
    a = d * (x * x - y + Poly.const(3, F(1, 3)))
    assert a // d * d == a
    with pytest.raises(ArithmeticError):
        x // y


def oracle_divexact(a: Poly, d: Poly) -> Poly:
    """The long division Poly.__floordiv__ ran before its heap: find the
    leading term of what is left by a scan, and subtract that quotient term
    times d as a whole Poly, once per quotient term."""
    quotient = Poly.zero(a.arity)
    rest = a
    lead_mono, lead_coeff = d.leading()
    lead_exp = dict(lead_mono)
    while not rest.is_zero():
        rm, rc = rest.leading()
        rexp = dict(rm)
        q_exp = []
        for var, exp in lead_exp.items():
            have = rexp.get(var, 0)
            if have < exp:
                raise ArithmeticError("inexact polynomial division")
            if have > exp:
                q_exp.append((var, have - exp))
            rexp.pop(var)
        q_exp.extend(rexp.items())
        term = Poly(a.arity, {tuple(sorted(q_exp)): F(rc) / F(lead_coeff)})
        quotient = quotient + term
        rest = rest - term * d
    return quotient


def monomials(degree: int, arity: int = 3):
    """Monomials of the given total degree, as a multiset of variables."""
    variables = st.lists(st.integers(min_value=0, max_value=arity - 1), min_size=degree, max_size=degree)
    return variables.map(lambda vs: tuple(sorted(Counter(vs).items())))


@st.composite
def divisors(draw, arity=3):
    """Divisors with two or three terms of top degree and up to two lower terms,
    so that the leading term is decided by the exponents, not the degree."""
    top = draw(st.integers(min_value=1, max_value=3))
    tops = draw(st.lists(monomials(top, arity), min_size=2, max_size=3, unique=True))
    lower = st.integers(min_value=0, max_value=top - 1).flatmap(lambda k: monomials(k, arity))
    lows = draw(st.lists(lower, max_size=2, unique=True))
    return Poly(arity, {mono: draw(poly_coeffs.filter(bool)) for mono in tops + lows})


@settings(max_examples=300, deadline=None)
@given(polys(max_terms=5), divisors(), polys(max_terms=1))
def test_divexact_matches_the_long_division_oracle(q, d, term):
    a = q * d
    before = dict(a.terms)
    got = a // d
    expected = oracle_divexact(a, d)
    assert got == q == expected
    assert_canonical(got)
    # quotient terms come out in descending graded-lex order, as the oracle adds them
    assert list(got.terms) == list(expected.terms)
    assert a.terms == before  # the division works on a copy of the dividend's terms
    # a d of several terms divides no single nonzero term, so a + term is not divisible
    if term:
        with pytest.raises(ArithmeticError):
            (a + term) // d
        with pytest.raises(ArithmeticError):
            oracle_divexact(a + term, d)


def _mono(dense) -> tuple:
    return tuple((v, e) for v, e in enumerate(dense) if e)


@st.composite
def packed_pairs(draw):
    """A packing and two dense exponent vectors whose product fits its bound;
    the bound is often 2^k - 1 or 2^k, the edges of a field width."""
    arity = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=0, max_value=9))
    bound = draw(st.sampled_from((2**k - 1, 2**k, 2**k + 1)))
    def dense(total):
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=arity - 1, max_size=arity - 1)))
        return [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    da = dense(draw(st.integers(0, bound)))
    db = dense(draw(st.integers(0, bound - sum(da))))
    return _Packing(arity, bound), da, db


def _packed(packing: _Packing, dense) -> int:
    (packed,) = packing.pack(Poly(packing.arity, {_mono(dense): 1}))
    return packed


@settings(max_examples=300, deadline=None)
@given(packed_pairs())
def test_packed_monomials_match_the_tuple_monomials(case):
    packing, da, db = case
    a, b = _mono(da), _mono(db)
    pa, pb = _packed(packing, da), _packed(packing, db)
    # a monomial survives packing and unpacking
    assert packing.unpack({pa: 1}) == Poly(packing.arity, {a: 1})
    assert packing.unpack({pb: 2}) == Poly(packing.arity, {b: 2})
    # the int order is the descending graded-lex order, so max is the leading monomial
    assert (pa > pb) == (_descending_key(a, packing.arity) < _descending_key(b, packing.arity))
    lead, _ = Poly(packing.arity, {a: 1, b: 2}).leading()
    assert packing.unpack({max(pa, pb): 1}) == Poly(packing.arity, {lead: 1})
    # a product is one addition
    assert packing.unpack({pa + pb: 1}) == Poly(packing.arity, {_mono_mul(a, b): 1})
    # a quotient is one subtraction, and a borrow in any field raises
    assert packing.divide({pa + pb: 3}, {pb: 1}) == {pa: 3}
    if all(x >= y for x, y in zip(da, db)):
        assert packing.divide({pa: 3}, {pb: 1}) == {_packed(packing, [x - y for x, y in zip(da, db)]): 3}
    else:
        with pytest.raises(ArithmeticError):
            packing.divide({pa: 3}, {pb: 1})


@pytest.mark.parametrize(
    "top, low",
    [
        ([2, 0, 0], [0, 0, 1]),  # the lowest field (u2) borrows
        ([2, 0, 1], [0, 1, 0]),  # a middle field (u1) borrows
        ([0, 3, 0], [1, 0, 0]),  # the highest exponent field (u0) borrows
        ([1, 0, 0], [2, 0, 0]),  # the degree field borrows too: the int goes negative
        ([0, 0, 0], [0, 0, 1]),  # the constant over u2: the lowest and the degree field
    ],
)
@pytest.mark.parametrize("bound", [3, 4, 255, 256])
def test_packed_quotient_raises_on_every_borrow(top, low, bound):
    packing = _Packing(3, bound)
    with pytest.raises(ArithmeticError):
        packing.divide({_packed(packing, top): 1}, {_packed(packing, low): 1})
    # the other way round divides, where no field of top exceeds low's
    if all(x <= y for x, y in zip(top, low)):
        assert packing.divide({_packed(packing, low): 1}, {_packed(packing, top): 1}) == {
            _packed(packing, [y - x for x, y in zip(top, low)]): 1
        }


def _width_rows(var: int, a: int) -> list[list[Poly]]:
    """Two rows whose degrees sum to a, so that the packing bound of their
    elimination is 2a; the update of row 0 at the second step of a reduced
    pass has degree 2a, the bound itself, before its division by u_var^a."""
    u = Poly(3, {((var, a),): 1})
    one, zero = Poly.const(3, 1), Poly.zero(3)
    return [[u, one, u + Poly.variable(3, (var + 1) % 3)], [one, one, zero]]


@pytest.mark.parametrize("k", [3, 6])
@pytest.mark.parametrize("edge", [-1, 0])
@pytest.mark.parametrize("var", [0, 1, 2])
@pytest.mark.parametrize("reduce", [False, True])
def test_eliminate_and_det_at_the_field_width_boundary(k, edge, var, reduce):
    """The row degrees sum to 2^k - 1 or 2^k, so the bound 2a needs k + 1 or
    k + 2 bits, in the field of u_var and in the degree field."""
    a = 2**k + edge
    rows = _width_rows(var, a)
    got, expected = [list(r) for r in rows], [list(r) for r in rows]
    *pivots, unpack = _eliminate(got, reduce)
    assert tuple(pivots) == oracle_eliminate(expected, reduce)
    assert unpacked(got, unpack) == expected
    u = rows[0][0]
    w = Poly.variable(3, (var + 2) % 3)
    square = [rows[0], rows[1], [u * w, w, u]]
    assert poly_det(square) == oracle_det(square)


@pytest.mark.parametrize("e", [255, 256, 400])
def test_divexact_at_high_exponents(e):
    """Dividends of degree e = 2^8 - 1, 2^8 (fields of 8 and 9 bits) and 400."""
    u0, u1, u2 = (Poly.variable(3, i) for i in range(3))
    d = Poly(3, {((0, 200),): 1, ((1, 1), (2, 1)): 2, (): -5})
    q = Poly(3, {((0, e - 200),): 1, ((1, e - 200),): -3, ((2, 1),): 7})
    a = q * d
    assert a // d == q == oracle_divexact(a, d)
    with pytest.raises(ArithmeticError):
        (a + u1 * u2) // d
    # a divisor of a higher degree than the dividend divides nothing
    with pytest.raises(ArithmeticError):
        d // (d * u0)


def assert_canonical(p: Poly) -> None:
    """Every stored coefficient is a nonzero int or a Fraction with denominator > 1."""
    for coeff in p.terms.values():
        assert coeff != 0
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1), repr(coeff)


def oracle_add(a: Poly, b: Poly, sign: int = 1) -> dict:
    out = {k: F(v) for k, v in dense_terms(a).items()}
    for k, v in dense_terms(b).items():
        out[k] = out.get(k, F(0)) + sign * v
    return {k: v for k, v in out.items() if v != 0}


def oracle_partial(a: Poly, var: int) -> dict:
    out = {}
    for k, v in dense_terms(a).items():
        if k[var]:
            out[k[:var] + (k[var] - 1,) + k[var + 1 :]] = F(v) * k[var]
    return out


@settings(max_examples=300, deadline=None)
@given(polys(), polys(), poly_coeffs, st.integers(min_value=0, max_value=2))
def test_results_keep_int_or_fraction_coefficients(a, b, factor, var):
    d = b if b else Poly.const(3, factor or 2)
    checked = {
        "a + b": (a + b, oracle_add(a, b)),
        "a - b": (a - b, oracle_add(a, b, -1)),
        "a * b": (a * b, oracle_mul(a, b)),
        "a * factor": (a * factor, {k: F(v) * factor for k, v in dense_terms(a).items() if factor}),
        "scaled": (a.scaled(factor), {k: F(v) * factor for k, v in dense_terms(a).items() if factor}),
        "partial": (a.partial(var), oracle_partial(a, var)),
        "divexact": ((a * d) // d, dense_terms(a)),
    }
    content = poly_content([a, b])
    if content:
        sign = -1 if (a or b).leading()[1] < 0 else 1
        for name, p, q in zip(("primitive a", "primitive b"), primitive_tuple([a, b]), (a, b)):
            checked[name] = (p, {k: F(v) / (sign * content) for k, v in dense_terms(q).items()})
    for name, (result, expected) in checked.items():
        assert_canonical(result)
        assert dense_terms(result) == expected, name


def test_divexact_by_a_constant_divides_in_z_when_exact():
    x = Poly.variable(3, 0)
    even = (x.scaled(6) + 4) // Poly.const(3, 2)
    assert even.terms == {((0, 1),): 3, (): 2}
    assert all(type(c) is int for c in even.terms.values())
    odd = (x.scaled(3) + 1) // Poly.const(3, -2)
    assert odd.terms == {((0, 1),): F(-3, 2), (): F(-1, 2)}
    assert_canonical(odd)
    integral = x.scaled(F(3, 2)) // Poly.const(3, F(3, 4))
    assert integral.terms == {((0, 1),): 2} and type(integral.terms[((0, 1),)]) is int


def test_public_values_stay_fractions():
    p = Poly.const(3, 2) + Poly.variable(3, 1)
    assert type(p.constant_term()) is Fraction and p.constant_term() == 2
    assert type(Poly.zero(3).constant_term()) is Fraction
    assert type(p.eval_at([F(0)] * 3)) is Fraction
    assert type(p.eval_at([0, 1, 0])) is Fraction and p.eval_at([0, 1, 0]) == 3
    assert p == 2 + Poly.variable(3, 1) and hash(p) == hash(Poly(3, {(): F(2), ((1, 1),): F(1)}))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Poly(3, {(): 0.1}),
        lambda: Poly(3, {((0, 1),): 0.0}),
        lambda: Poly.variable(3, 0) * 0.5,
        lambda: 0.5 * Poly.variable(3, 0),
        lambda: Poly.variable(3, 0).scaled(0.5),
        lambda: Poly.const(3, 0.5),
        lambda: Poly.variable(3, 0) + 0.25,
    ],
    ids=["init", "init-zero", "mul", "rmul", "scaled", "const", "add"],
)
def test_poly_rejects_float_coefficients(make):
    with pytest.raises(BadSyntax, match=r"inexact value (0\.1|0\.0|0\.5|0\.25)"):
        make()


# ---------------------------------------------------------------------------
# Rank / nullspace / span over the rationals
# ---------------------------------------------------------------------------


def test_rank_identity():
    rank, basis = rank_and_nullspace(RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert rank == 3 and basis == []


def test_rank_with_kernel():
    m = RationalMatrix.from_rows([[1, 0], [0, 0]])
    rank, basis = rank_and_nullspace(m)
    assert rank == 1
    assert basis == [(F(0), F(1))]


def test_rank_matches_minor_oracle_random():
    import random

    rng = random.Random(20090416)
    for _ in range(12):
        rows = rng.choice([3, 4, 5])
        cols = rng.choice([3, 4, 5, 7])
        entries = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else F(0) for _ in range(cols)]
            for _ in range(rows)
        ]
        m = RationalMatrix.from_rows(entries)
        rank, basis = rank_and_nullspace(m)
        assert rank == minor_rank(m)
        assert rank + len(basis) == cols
        for vec in basis:
            assert all(v == 0 for v in mat_vec(m, vec))


# zero often, small fractions, and numerators and denominators far beyond a machine word
entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


@st.composite
def rational_matrices(draw, nrows=None):
    """Random matrices with some zero rows, zero columns and repeated (rescaled) columns."""
    nrows = nrows or draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [F(0)] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = F(0)
    for dst, src, factor in draw(st.lists(st.tuples(st.integers(0, ncols - 1), st.integers(0, ncols - 1), entries), max_size=2)):
        for row in rows:
            row[dst] = factor * row[src]
    return RationalMatrix.from_rows(rows)


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_rank_and_nullspace_match_the_fraction_oracle(m):
    rank, basis, _ = oracle_gauss_jordan(m)
    assert rank_and_nullspace(m) == (rank, basis)


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_column_space_basis_picks_the_oracle_pivot_columns(m):
    _, _, pivot_cols = oracle_gauss_jordan(m)
    columns = m.columns()
    chosen = column_space_basis(columns, m.rows)
    assert chosen.rows == m.rows
    assert chosen.columns() == [columns[c] for c in pivot_cols]


@st.composite
def vector_lists(draw):
    """(ambient, vectors): up to 7 vectors of Fractions and ints, mixed as the
    values of fields at a point are, with some zero and some repeated vectors."""
    ambient = draw(st.integers(min_value=1, max_value=6))
    vector = st.tuples(*[st.one_of(entries, st.integers(-9, 9))] * ambient)
    vectors = draw(st.lists(vector, max_size=7))
    if vectors:
        slots = st.integers(0, len(vectors) - 1)
        for k in draw(st.sets(slots, max_size=2)):
            vectors[k] = (0,) * ambient
        for dst, src in draw(st.lists(st.tuples(slots, slots), max_size=2)):
            vectors[dst] = vectors[src]
    return ambient, vectors


@settings(max_examples=300, deadline=None)
@given(vector_lists())
@example((3, []))
@example((2, [(0, 0), (1, F(1, 2)), (0, 0), (2, 1), (1, F(1, 2))]))
def test_independent_picks_the_oracle_pivot_columns_and_counts_the_rank(case):
    ambient, vectors = case
    matrix = RationalMatrix.from_columns(vectors, ambient=ambient)
    _, _, pivot_cols = oracle_gauss_jordan(matrix)
    chosen = _independent(vectors)
    assert chosen == pivot_cols
    assert len(chosen) == rank_and_nullspace(matrix)[0]


@st.composite
def matrix_pairs(draw):
    """(a, b) of one height; half the time the columns of a are combinations of those of b."""
    b = draw(rational_matrices())
    if draw(st.booleans()):
        a = draw(rational_matrices(nrows=b.rows))
    else:
        weights = draw(st.lists(st.lists(entries, min_size=b.cols, max_size=b.cols), min_size=1, max_size=3))
        a = RationalMatrix.from_columns([mat_vec(b, w) for w in weights], ambient=b.rows)
    return a, b


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
def test_span_includes_agrees_with_the_oracle_ranks(pair):
    a, b = pair
    joined = RationalMatrix.from_columns(b.columns() + a.columns(), ambient=b.rows)
    assert span_includes(a, b) == (oracle_gauss_jordan(joined)[0] == oracle_gauss_jordan(b)[0])


def test_from_columns_refuses_a_column_of_another_length():
    assert RationalMatrix.from_columns([(1, 2), (3, 4)], ambient=2) == RationalMatrix(2, 2, (1, 3, 2, 4))
    with pytest.raises(ChartMismatch, match="column 1 has 3 entries, expected 2"):
        RationalMatrix.from_columns([(1, 2), (3, 4, 5)])
    with pytest.raises(ChartMismatch, match="column 1 has 1 entries, expected 2"):
        RationalMatrix.from_columns([(1, 2), (3,)])
    with pytest.raises(ChartMismatch, match="column 0 has 2 entries, expected 5"):
        RationalMatrix.from_columns([(1, 2), (3, 4)], ambient=5)


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda m: m.at(0, 2), "column index 2 out of range for 2 columns"),
        (lambda m: m.at(-1, -1), "row index -1 out of range for 2 rows"),
        (lambda m: m.at(1, True), "column index True is not an int but a bool"),
        (lambda m: m.row(7), "row index 7 out of range for 2 rows"),
        (lambda m: m.row(-1), "row index -1 out of range for 2 rows"),
        (lambda m: m.row(True), "row index True is not an int but a bool"),
        (lambda m: m.column(-1), "column index -1 out of range for 2 columns"),
        (lambda m: m.column(5), "column index 5 out of range for 2 columns"),
        (lambda m: m.column(1.0), "column index 1.0 is not an int but a float"),
        (lambda m: column_space_basis([(1,)], True), "ambient True is not an int but a bool"),
    ],
    ids=[
        "at-past-the-columns", "at-negative", "at-bool", "row-past-the-rows", "row-negative", "row-bool",
        "column-negative", "column-past-the-columns", "column-float", "basis-ambient-bool",
    ],
)
def test_a_matrix_index_is_an_int_in_range(read, message):
    # a flat row-major tuple read (0, 2) as entry (1, 0), column -1 as one
    # entry of each column, row 7 as () and row True as row 1
    m = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert (m.at(1, 0), m.row(1), m.column(1)) == (3, (3, 4), (2, 4))
    with pytest.raises(ChartMismatch, match=f"^{re.escape(message)}$"):
        read(m)


def test_span_includes_basic():
    e1 = (F(1), F(0), F(0))
    e2 = (F(0), F(1), F(0))
    e3 = (F(0), F(0), F(1))
    e1e2 = RationalMatrix.from_columns([e1, e2])
    assert span_includes(RationalMatrix.from_columns([e1]), e1e2)
    mixed = tuple(a + b for a, b in zip(e1, e3))
    assert not span_includes(RationalMatrix.from_columns([mixed]), e1e2)


def test_span_includes_dependent_and_zero_target_columns():
    # b = [e1 | 2 e1 | 0 | e2] spans the same plane as [e1 | e2]
    e1, e2, e3 = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    b = RationalMatrix.from_columns([e1, tuple(2 * v for v in e1), (F(0),) * 3, e2])
    assert span_includes(RationalMatrix.from_columns([(F(3), F(-1, 2), F(0)), e2]), b)
    assert not span_includes(RationalMatrix.from_columns([e2, e3]), b)
    assert span_includes(b, RationalMatrix.from_columns([e1, e2]))
    # a target of zero columns only spans {0}, like a target with no columns
    zero = RationalMatrix.from_columns([(F(0),) * 3, (F(0),) * 3])
    assert span_includes(RationalMatrix.from_columns([(F(0),) * 3]), zero)
    assert not span_includes(RationalMatrix.from_columns([e3]), zero)


def test_span_includes_empty_sides():
    # a b with no columns spans {0}; an a with no columns spans {0} and lies in every span
    empty = RationalMatrix.from_columns([], ambient=3)
    assert len(empty.annihilator) == 3
    assert span_includes(RationalMatrix.from_columns([(F(0),) * 3]), empty)
    assert not span_includes(RationalMatrix.from_columns([(F(0), F(1, 7), F(0))]), empty)
    assert span_includes(empty, empty)
    assert span_includes(empty, RationalMatrix.from_columns([(F(1), F(1), F(0))]))


def test_span_includes_reads_versor_covectors_without_scaling(monkeypatch):
    import twoflags.exactalg as exactalg

    # ker(b^T) of b = [e1 + e2] is spanned by e1 - e2 and the versor e3
    e1, e2, e3 = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    b = RationalMatrix.from_columns([(F(1), F(1), F(0))])
    assert sorted(map(len, b.annihilator)) == [1, 2]
    scaled, tested = [], []
    original_scaling, original_test = exactalg._integer_rows, exactalg.annihilates
    monkeypatch.setattr(exactalg, "_integer_rows", lambda rows: scaled.append(1) or original_scaling(rows))
    monkeypatch.setattr(exactalg, "annihilates", lambda covectors, column: tested.append(column) or original_test(covectors, column))
    assert not span_includes(RationalMatrix.from_columns([(F(1, 3), F(1, 3), F(1, 5))]), b)
    assert not span_includes(RationalMatrix.from_columns([e1]), b)
    assert span_includes(RationalMatrix.from_columns([(F(2, 3), F(2, 3), F(0))]), b)
    # one annihilates test per column, the column as it stands, up to the first outside
    assert tested == [(F(1, 3), F(1, 3), F(1, 5)), e1, (F(2, 3), F(2, 3), F(0))]
    tested.clear()
    assert not span_includes(RationalMatrix.from_columns([(F(-1), F(-1), F(0)), e3, e1]), b)
    assert tested == [(F(-1), F(-1), F(0)), e3]
    assert scaled == []  # no column is scaled to integers
    plane = RationalMatrix.from_columns([e1, e2])
    assert plane.annihilator == (((2, 1),),)  # worked out once, by elimination
    worked_out = len(scaled)
    assert span_includes(RationalMatrix.from_columns([(F(1, 7), F(-2, 9), F(0))]), plane)
    assert not span_includes(RationalMatrix.from_columns([e3]), plane)
    assert len(scaled) == worked_out


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_annihilator_is_a_basis_of_the_left_kernel(b):
    # integer covectors, as many as rows - rank b, independent, each vanishing on every column of b
    rank = oracle_gauss_jordan(b)[0]
    covectors = b.annihilator
    assert len(covectors) == b.rows - rank
    dense = []
    for covector in covectors:
        assert covector and all(type(v) is int and v for _, v in covector)
        row = [F(0)] * b.rows
        for i, v in covector:
            row[i] = F(v)
        dense.append(row)
        for column in b.columns():
            assert sum(u * w for u, w in zip(row, column)) == 0
    if dense:
        assert oracle_gauss_jordan(RationalMatrix.from_rows(dense))[0] == len(dense)


def test_span_includes_eliminates_once_per_target(monkeypatch):
    import twoflags.exactalg as exactalg

    calls = []
    original = exactalg.rank_and_nullspace

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(exactalg, "rank_and_nullspace", counted)
    b = RationalMatrix.from_columns([(F(1), F(2), F(0)), (F(0), F(1), F(1))])
    inside = RationalMatrix.from_columns([(F(1), F(3), F(1))])
    outside = RationalMatrix.from_columns([(F(0), F(0), F(1))])
    for _ in range(3):
        assert span_includes(inside, b)
        assert not span_includes(outside, b)
    assert len(calls) == 1
    # an equal matrix built apart keeps its own covectors
    twin = RationalMatrix.from_columns(b.columns())
    assert span_includes(inside, twin) and len(calls) == 2


def test_span_includes_ambient_mismatch():
    a = RationalMatrix.from_columns([(F(1), F(0))])
    b = RationalMatrix.from_columns([(F(1), F(0), F(0))])
    with pytest.raises(ChartMismatch):
        span_includes(a, b)


@st.composite
def integer_rows(draw):
    """Small integer rows with many zero entries; some rows combine earlier ones."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if rows and draw(st.integers(min_value=0, max_value=2)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            fa, fb = draw(st.integers(min_value=-2, max_value=2)), draw(st.integers(min_value=-2, max_value=2))
            rows.append([fa * x + fb * y for x, y in zip(a, b)])
        else:
            rows.append([draw(entry) for _ in range(ncols)])
    return rows


@settings(max_examples=200, deadline=None)
@given(integer_rows(), st.booleans())
# the first unused row in original order is the pivot, so row 0 (not row 1) follows row 2
@example(rows=[[0, 1, 0], [0, 1, 1], [1, 0, 0]], reduce=False)
def test_one_pivot_rule_for_integer_and_polynomial_rows(rows, reduce):
    ints = [list(row) for row in rows]
    polys = [[Poly.const(1, v) for v in row] for row in rows]
    *pivots, unpack_ints = _eliminate(ints, reduce)
    pivots = tuple(pivots)
    if not reduce:
        assert structural_pivots(polys) == pivots
    *poly_pivots, unpack = _eliminate(polys, reduce)
    assert tuple(poly_pivots) == pivots
    # the same Bareiss step in both rings leaves the same entries
    assert unpacked(polys, unpack) == [[Poly.const(1, v) for v in row] for row in unpacked(ints, unpack_ints)]


def oracle_eliminate(rows: list[list], reduce: bool) -> tuple[list[int], list[int]]:
    """The dense Bareiss loop that _eliminate ran before it skipped steps: every
    row other than the pivot row (only later rows without ``reduce``) is
    stepped in every live column, zero entries and zero multipliers included."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    order = list(range(nrows))
    live = list(range(ncols))
    pivot_cols = []
    prev = None
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
        for r in range(0 if reduce else slot + 1, nrows):
            if r == slot:
                continue
            row = rows[r]
            f = row[col]
            for c in live:
                entry = row[c] * p - f * prow[c] if f else row[c] * p
                row[c] = entry if prev is None else entry // prev
        prev = p
        pivot_cols.append(col)
    return order[: len(pivot_cols)], pivot_cols


_U0, _U1 = Poly.variable(2, 0), Poly.variable(2, 1)
_P0, _P1, _P2 = (Poly.const(2, v) for v in (0, 1, 2))


@st.composite
def zero_heavy_poly_rows(draw):
    """Polynomial rows over few values, half of them zero, so that pivots repeat
    and multipliers vanish; some rows combine earlier ones."""
    entry = st.sampled_from((_P0, _P0, _P0, _P0, _P1, -_P1, _U0, _U0 + 1, _U1.scaled(2)))
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if rows and draw(st.integers(min_value=0, max_value=2)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            fa, fb = draw(entry), draw(st.integers(min_value=-2, max_value=2))
            rows.append([fa * x + y.scaled(fb) for x, y in zip(a, b)])
        else:
            rows.append([draw(entry) for _ in range(ncols)])
    return rows


@settings(max_examples=300, deadline=None)
@given(st.one_of(integer_rows(), zero_heavy_poly_rows()), st.booleans())
# a first pivot of 1, then pivots equal to the previous one: rows with a zero
# multiplier are left as they are
@example(rows=[[1, 0, 2], [0, 1, 3], [1, 1, 1]], reduce=False)
@example(rows=[[1, 0, 2], [0, 1, 3], [1, 1, 1]], reduce=True)
# first pivot 2, then 2 again, with a row that has a zero multiplier on both steps
@example(rows=[[2, 1, 5], [2, 2, 7], [0, 3, 1], [0, 0, 1]], reduce=False)
@example(rows=[[2, 1, 5], [2, 2, 7], [0, 3, 1], [0, 0, 1]], reduce=True)
# the polynomial pivot u0 twice
@example(rows=[[_U0, _P1, _P0], [_U0, _P2, _P1], [_P0, _P0, _U1], [_P0, _P1, _P1]], reduce=False)
@example(rows=[[_U0, _P1, _P0], [_U0, _P2, _P1], [_P0, _P0, _U1], [_P0, _P1, _P1]], reduce=True)
def test_eliminate_matches_the_dense_oracle(rows, reduce):
    got = [list(row) for row in rows]
    expected = [list(row) for row in rows]
    *pivots, unpack = _eliminate(got, reduce)
    assert tuple(pivots) == oracle_eliminate(expected, reduce)
    # the same entries in the same rows, stale pivot-column entries included
    got = unpacked(got, unpack)
    assert got == expected
    assert [[type(v) for v in row] for row in got] == [[type(v) for v in row] for row in expected]


# ---------------------------------------------------------------------------
# Polynomial determinants and nullspaces
# ---------------------------------------------------------------------------


def test_poly_det_against_laplace():
    import random

    rng = random.Random(7)
    for _ in range(8):
        n = rng.choice([2, 3, 4])
        consts = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        rows = [[Poly.const(2, v) for v in row] for row in consts]
        assert poly_det(rows).constant_term() == oracle_det(consts)


def test_poly_det_symbolic():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    one = Poly.const(2, 1)
    # det [[x, 1], [1, y]] = xy - 1
    assert poly_det([[x, one], [one, y]]) == x * y - one


@st.composite
def poly_squares(draw):
    """Square matrices of symbolic entries, up to 4 x 4.  Half the time the
    leading rows have a zero first entry, so elimination has to swap rows;
    half the time the last row is a polynomial combination of earlier ones,
    so the matrix is singular."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(st.just(Poly.zero(3)), polys(arity=3, max_terms=2, max_exp=2))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        for row in rows[: draw(st.integers(min_value=1, max_value=n - 1))]:
            row[0] = Poly.zero(3)
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        fa, fb = draw(polys(arity=3, max_terms=1, max_exp=1)), draw(coeffs)
        rows[-1] = [fa * u + v.scaled(fb) for u, v in zip(rows[a], rows[b])]
    return rows


@settings(max_examples=200, deadline=None)
@given(poly_squares())
def test_poly_det_against_symbolic_laplace(rows):
    assert poly_det(rows) == oracle_det(rows)


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2, 3), "ragged"])
def test_poly_det_rejects_non_square(shape):
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    rows = [[x, y], [y]] if shape == "ragged" else [[x, y, x][: shape[1]] for _ in range(shape[0])]
    with pytest.raises(ChartMismatch):
        poly_det(rows)


def terms_of(covectors):
    return [tuple(p.signature() for p in cov) for cov in covectors]


@st.composite
def kernel_problems(draw):
    """A generators x ambient polynomial matrix with pivot rows and columns from
    a symbolic elimination or from elimination at a point, the pivot rows in
    any order.  Later generators may be polynomial combinations of earlier
    ones, so the generator set can be rank deficient."""
    ambient = draw(st.integers(min_value=2, max_value=5))
    ngens = draw(st.integers(min_value=1, max_value=4))
    nonzero = polys(arity=ambient, max_terms=2, max_exp=1).filter(lambda p: not p.is_zero())
    entry = st.one_of(st.just(Poly.zero(ambient)), nonzero, nonzero)
    rows = []
    for _ in range(ngens):
        if rows and draw(st.integers(min_value=0, max_value=3)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            fa, fb = draw(polys(arity=ambient, max_terms=1, max_exp=1)), draw(coeffs)
            rows.append([fa * u + v.scaled(fb) for u, v in zip(a, b)])
        else:
            rows.append([draw(entry) for _ in range(ambient)])
    if draw(st.booleans()):
        pivot_rows, pivot_cols = structural_pivots(rows)
    else:
        point = [draw(coeffs) for _ in range(ambient)]
        pivot_rows, pivot_cols, _ = _eliminate(
            _integer_rows([p.eval_at(point) for p in row] for row in rows), reduce=False
        )
    pivot_rows = draw(st.permutations(pivot_rows))
    if pivot_cols and draw(st.booleans()):
        # lead with a pivot row whose entry in the first pivot column is zero, if there is one
        pivot_rows.sort(key=lambda r: bool(rows[r][pivot_cols[0]]))
    return rows, pivot_rows, pivot_cols, ambient


@settings(max_examples=200, deadline=None)
@given(kernel_problems())
def test_echelon_kernel_matches_the_cramer_oracle(problem):
    rows, pivot_rows, pivot_cols, ambient = problem
    kernel = echelon_kernel(rows, pivot_rows, pivot_cols, ambient, ambient)
    assert terms_of(kernel) == terms_of(oracle_cramer_kernel(rows, pivot_rows, pivot_cols, ambient, ambient))


@settings(max_examples=200, deadline=None)
@given(kernel_problems())
def test_structural_nullspace_matches_the_cramer_oracle(problem):
    rows, _, _, ambient = problem
    pivot_rows, pivot_cols = structural_pivots(rows)
    matrix = [[row[i] for row in rows] for i in range(ambient)]
    expected = oracle_cramer_kernel(rows, pivot_rows, pivot_cols, ambient, ambient)
    assert terms_of(polynomial_nullspace_structural(matrix)) == terms_of(expected)


@st.composite
def pointwise_problems(draw):
    """A kernel_problems matrix and a point, each coordinate 0 a third of
    the time; half the time every variable of the first symbolic pivot
    entry is 0 there as well, so that pivot vanishes at the point unless it
    has a constant term."""
    rows, _, _, ambient = draw(kernel_problems())
    point = [draw(st.one_of(st.just(F(0)), coeffs, coeffs)) for _ in range(ambient)]
    pivot_rows, pivot_cols = structural_pivots(rows)
    if pivot_cols and draw(st.booleans()):
        for mono in rows[pivot_rows[0]][pivot_cols[0]].terms:
            for var, _ in mono:
                point[var] = F(0)
    return rows, ambient, tuple(point)


@settings(max_examples=200, deadline=None)
@given(pointwise_problems())
@example(([[Poly.zero(1)], [Poly.zero(1)]], 1, (F(0),)))  # the matrix [[0, 0]]: no generator is nonzero at p
def test_pointwise_nullspace_is_the_cramer_oracle_on_the_rows_and_columns_it_picks(problem):
    # polynomial_nullspace takes its covectors from the structural nullspace
    # of the generators it picks at p; they must be the Cramer covectors of
    # exactly those rows and columns, or DegeneratePivot where a generator
    # left out is not annihilated identically (the rank drops at p)
    rows, ambient, point = problem
    matrix = [[row[i] for row in rows] for i in range(ambient)]
    values = _integer_rows([p.eval_at(point) for p in row] for row in rows)
    pivot_rows, pivot_cols, _ = _eliminate(values, reduce=False)
    expected = oracle_cramer_kernel(rows, pivot_rows, pivot_cols, ambient, ambient)
    zero = Poly.zero(ambient)
    if any(sum((c * e for c, e in zip(cov, row)), zero) for cov in expected for row in rows):
        with pytest.raises(DegeneratePivot):
            polynomial_nullspace(matrix, point)
    else:
        assert terms_of(polynomial_nullspace(matrix, point)) == terms_of(expected)


def test_structural_nullspace_reduces_rows_above_a_skipped_column():
    # column 1 has no pivot, so the first row's entry there must still be
    # carried through the step that pivots on column 2
    u0, u1 = Poly.variable(4, 0), Poly.variable(4, 1)
    zero, one = Poly.zero(4), Poly.const(4, 1)
    rows = [[u1, u0, one, zero], [zero, zero, u0, u1 + one]]
    matrix = [[row[i] for row in rows] for i in range(4)]
    assert structural_pivots(rows) == ([0, 1], [0, 2])
    kernel = polynomial_nullspace_structural(matrix)
    assert terms_of(kernel) == terms_of(oracle_cramer_kernel(rows, [0, 1], [0, 2], 4, 4))
    for cov in kernel:
        for row in rows:
            assert sum((c * e for c, e in zip(cov, row)), Poly.zero(4)).is_zero()


@pytest.fixture
def kernel_row_counts(monkeypatch):
    """The number of rows of each reduced _eliminate pass, in call order:
    one per structural nullspace, whose pass reads its generator rows."""
    counts = []
    eliminate = exactalg._eliminate

    def spy(rows, reduce):
        if reduce:
            counts.append(len(rows))
        return eliminate(rows, reduce)

    monkeypatch.setattr(exactalg, "_eliminate", spy)
    return counts


def test_structural_nullspace_of_every_tower_member_up_to_length_five(kernel_row_counts):
    """D^r and the frames D^(r-1), ..., D^1 of every word of lengths 2-5 at
    the origin, with zero constants and one seeded draw: no member has more
    generator rows than coordinates, one reduced pass reads every row, and
    the covectors are the Cramer oracle's, term for term."""
    for r in range(2, 6):
        for word in enumerate_words(r):
            for spec in (EkrSpec(word, {}, {}), draw_constants(word, random.Random(f"prefix|{word}"))):
                build = build_ekr(spec)
                for member in big_flag(build.distribution, build.chart.origin())[:-1]:
                    matrix = list(zip(*(gen.components for gen in member.generators)))
                    rows = [gen.components for gen in member.generators]
                    kernel_row_counts.clear()
                    got = polynomial_nullspace_structural(matrix)
                    assert kernel_row_counts == [len(rows)] and len(rows) <= len(matrix), (spec, len(rows))
                    pivot_rows, pivot_cols = structural_pivots(rows)
                    expected = oracle_cramer_kernel(rows, pivot_rows, pivot_cols, len(matrix), len(matrix))
                    assert terms_of(got) == terms_of(expected), (spec, len(rows))


def test_echelon_kernel_swaps_rows_and_keeps_the_cramer_sign():
    # base [[0, u0], [1, u1]] has a zero first pivot and determinant -u0
    u0, u1 = Poly.variable(3, 0), Poly.variable(3, 1)
    zero, one = Poly.zero(3), Poly.const(3, 1)
    rows = [[zero, u0, one], [one, u1, u1 * u1]]
    kernel = echelon_kernel(rows, [0, 1], [0, 1], 3, 3)
    assert terms_of(kernel) == terms_of(oracle_cramer_kernel(rows, [0, 1], [0, 1], 3, 3))
    # v = (u1 - u0*u1^2, -1, u0) up to sign annihilates both rows
    (cov,) = kernel
    for row in rows:
        assert sum((c * e for c, e in zip(cov, row)), Poly.zero(3)).is_zero()


def test_nullspace_full_tangent_bundle_is_empty():
    versors = [[Poly.const(3, 1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert polynomial_nullspace(versors, [F(0)] * 3) == []


def test_nullspace_annihilates_generators_identically():
    # generators (d/du0 + u1 d/du2, d/du1) on a 4-dimensional chart
    arity = 4
    zero = Poly.zero(arity)
    one = Poly.const(arity, 1)
    u1 = Poly.variable(arity, 1)
    g1 = [one, zero, u1, zero]
    g2 = [zero, one, zero, zero]
    matrix = [[g1[i], g2[i]] for i in range(arity)]
    covectors = polynomial_nullspace(matrix, [F(0)] * arity)
    assert len(covectors) == 2
    for cov in covectors:
        for gen in (g1, g2):
            pairing = Poly.zero(arity)
            for c, g in zip(cov, gen):
                pairing = pairing + c * g
            assert pairing.is_zero()


def test_nullspaces_reject_a_matrix_without_generator_columns():
    # two ambient rows and no generator column: not a distribution
    with pytest.raises(ChartMismatch):
        polynomial_nullspace([[], []], (F(0), F(0)))
    with pytest.raises(ChartMismatch):
        polynomial_nullspace_structural([[], []])


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[Poly.variable(2, 0)], [0]], "entry (1, 0) of the polynomial matrix is not a Poly but a int"),
        ([[Poly.variable(2, 0), F(1)], [Poly.zero(2), Poly.const(2, 1)]], "entry (0, 1) of the polynomial matrix is not a Poly but a Fraction"),
        ([[Poly.variable(2, 0)], [Poly.variable(3, 1)]], "entry (1, 0) of the polynomial matrix has arity 3, entry (0, 0) 2"),
    ],
    ids=["int", "fraction", "mixed-arity"],
)
@pytest.mark.parametrize("structural", [False, True])
def test_nullspaces_name_an_entry_that_is_not_a_poly_of_the_matrix_arity(matrix, message, structural):
    # an int entry raised a bare AttributeError, and a structural matrix of
    # arities 2 and 3 returned a covector
    with pytest.raises(ChartMismatch, match=f"^{re.escape(message)}$"):
        polynomial_nullspace_structural(matrix) if structural else polynomial_nullspace(matrix, (0, 0))


def test_nullspace_degenerate_pivot():
    # single generator u0 d/du0 vanishes at the origin but not generically:
    # the pivots at the origin give du0 and du1, and du0 does not annihilate
    # u0 d/du0 identically, so the certificate fails
    arity = 2
    matrix = [[Poly.variable(arity, 0)], [Poly.zero(arity)]]
    with pytest.raises(DegeneratePivot):
        polynomial_nullspace(matrix, [F(0), F(0)])
    # at a regular point the corank is 1
    covs = polynomial_nullspace(matrix, [F(1), F(0)])
    assert len(covs) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nullspace_annihilates_identically_randomized(data):
    ambient = data.draw(st.integers(min_value=2, max_value=4))
    ngens = data.draw(st.integers(min_value=1, max_value=ambient))
    matrix = [
        [data.draw(polys(arity=ambient, max_terms=2, max_exp=1)) for _ in range(ngens)]
        for _ in range(ambient)
    ]
    point = tuple(data.draw(coeffs) for _ in range(ambient))
    # the rank over the polynomials, derived without the pointwise certificate
    polynomial_rank = ambient - len(polynomial_nullspace_structural(matrix))
    values = [[matrix[i][g].eval_at(point) for g in range(ngens)] for i in range(ambient)]
    rank, _ = rank_and_nullspace(RationalMatrix.from_rows(values))
    if rank < polynomial_rank:
        with pytest.raises(DegeneratePivot):
            polynomial_nullspace(matrix, point)
        return
    covectors = polynomial_nullspace(matrix, point)
    # the rank at the point plus the corank accounts for all of the ambient space
    assert len(covectors) == ambient - rank
    for cov in covectors:
        for g in range(ngens):
            pairing = Poly.zero(ambient)
            for i in range(ambient):
                pairing = pairing + cov[i] * matrix[i][g]
            assert pairing.is_zero()


def test_primitive_normalization():
    p = Poly.const(2, F(-2, 3)) + Poly.variable(2, 0).scaled(F(-4, 3))
    (normalized,) = primitive_tuple([p])
    assert poly_content([normalized]) == 1
    assert normalized.leading()[1] > 0
    # proportional to the input
    assert normalized == p.scaled(F(-3, 2))


def test_primitive_normalization_returns_zero_components_as_they_are():
    zero, x = Poly.zero(2), Poly.variable(2, 0)
    out = primitive_tuple([zero, x.scaled(-6), zero])
    assert out[0] is zero and out[2] is zero
    assert out[1] == x

"""Exact polynomial and piecewise-polynomial arithmetic."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunops.bspline import ConstantSigma
from heunops.entropy import BSplineOp, KantorovichOp, entropy_profile
from heunops.errors import DomainError, HeunopsError, IndexOutOfRange
from heunops.exactalg import (NEG_INFINITY, Grid, PiecewisePoly, Poly, binary_form, horner_on_grid,
                              integrate_product, parse_number, rat)

fractions = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
small_polys = st.lists(fractions, min_size=0, max_size=6).map(lambda cs: Poly(tuple(cs)))


def test_rat_accepts_exact_types_only():
    assert rat("33/40") == F(33, 40)
    assert rat(7) == 7
    with pytest.raises(TypeError):
        rat(0.5)


def test_parse_number_names_a_malformed_value():
    assert parse_number("x", "-3/6") == F(-1, 2) and parse_number("count", " 7 ", int) == 7
    assert parse_number("q", F(1, 3), rat) == F(1, 3)
    for value, kind, what in (("1/0", F, "a rational"), ("abc", rat, "a rational"),
                              ("1/2", int, "an integer")):
        with pytest.raises(DomainError) as exc:
            parse_number("n", value, kind)
        assert str(exc.value) == f"cannot parse n={value!r} as {what}"
    with pytest.raises(TypeError):
        parse_number("q", 0.5, rat)


@pytest.mark.parametrize("call", (
    lambda: entropy_profile(BSplineOp(2, ConstantSigma(1)), [0.5]),
    lambda: entropy_profile(KantorovichOp(2, 1), [0.5]),
    lambda: ConstantSigma(0.5),
), ids=("bspline-profile", "kantorovich-profile", "constant-sigma"))
def test_float_in_exact_routine_is_package_error(call):
    with pytest.raises(HeunopsError, match="expected an exact rational, got float"):
        call()


def _fraction_horner(p: Poly, x) -> F:
    """Horner's rule over Fraction, the reference for the integer route of ``Poly.__call__``."""
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


class TestPolyEval:
    def test_zero_poly_anywhere(self):
        assert Poly()(rat(7)) == 0
        for x in (7, F(-3, 8)):
            got = Poly()(x)
            assert got == 0 and type(got) is F

    def test_direct_substitution(self):
        # direct oracle: 1 - 2/4 + 2/16 = 5/8
        p = Poly.of(1, -2, 2)
        assert p(F(1, 4)) == F(5, 8)

    def test_cube_at_negative(self):
        assert Poly.monomial(3)(-2) == -8

    def test_float_argument_gives_float(self):
        assert Poly.of(0, 0, 1)(0.5) == 0.25

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(max_denominator=10**12), max_size=20),
           st.one_of(st.integers(-(10**9), 10**9), st.fractions(max_denominator=10**15)))
    @example([], 0)
    @example([], F(-2, 3))
    @example([F(5, 7)], -4)
    @example([F(-1, 10**12)], F(10**15 - 1, 10**15))
    @example([F(1, 3), F(-2, 9), F(7, 10**12)], F(-(10**15) + 7, 999_999_999_999_989))
    def test_rational_point_matches_fraction_horner(self, coeffs, x):
        p = Poly(tuple(coeffs))
        for _ in range(2):  # a cold and a cached integer form
            got = p(x)
            assert got == _fraction_horner(p, x) and type(got) is F


class TestPolyArith:
    def test_mul(self):
        assert Poly.of(1, 1) * Poly.of(1, -1) == Poly.of(1, 0, -1)

    def test_compose_affine(self):
        assert Poly.monomial(2).compose_affine(2, -1) == Poly.of(1, -4, 4)

    def test_compose_affine_zero_slope(self):
        assert Poly.of(1, 2, 3).compose_affine(0, 2) == Poly.constant(1 + 4 + 12)

    def test_additive_inverse(self):
        p = Poly.of(3, -1, F(2, 7))
        assert (p + (-1) * p).is_zero()

    def test_degree_marker(self):
        assert Poly().degree == NEG_INFINITY
        assert Poly.constant(5).degree == 0
        assert Poly.of(0, 0, 0).degree == NEG_INFINITY


class TestPolyCalculus:
    def test_derivative(self):
        assert Poly.monomial(3).derivative() == Poly.of(0, 0, 3)

    def test_antiderivative_constant_zero(self):
        assert Poly.of(0, 0, 3).antiderivative() == Poly.monomial(3)
        assert Poly.of(0, 0, 3).antiderivative().coeff(0) == 0

    def test_derivative_of_constant(self):
        assert Poly.constant(5).derivative().is_zero()

    def test_antiderivative_constants_cancel_under_iterated_derivative(self):
        # only D^k of an order-k antiderivative is ever used downstream, so
        # any polynomial of degree < k added to the antiderivative cancels
        f = Poly.of(2, -3, 1)
        lifted = f.antiderivative().antiderivative()
        shifted = lifted + Poly.of(F(5, 3), -7)
        assert shifted.derivative().derivative() == f


@settings(max_examples=60)
@given(small_polys, small_polys)
def test_product_rule(p, q):
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


def _fraction_product(p: Poly, q: Poly) -> Poly:
    """Schoolbook product over Fraction, the reference for the integer form of ``Poly.__mul__``."""
    if not p.coeffs or not q.coeffs:
        return Poly()
    out = [F(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(tuple(out))


sparse_polys = st.lists(st.one_of(st.just(F(0)), fractions), max_size=8).map(lambda cs: Poly(tuple(cs)))


@settings(max_examples=100)
@given(sparse_polys, sparse_polys)
@example(Poly(), Poly.of(F(1, 3), 2))
@example(Poly.of(F(1, 3), 2), Poly())
@example(Poly.of(F(1, 3), 0, F(-2, 7)), Poly.of(0, F(5, 4), 0, F(1, 9)))
@example(Poly.of(F(1, 2), F(1, 2)), Poly.of(1, -1))
def test_mul_matches_fraction_double_loop(p, q):
    got = p * q
    assert got == _fraction_product(p, q)
    assert all(type(c) is F for c in got.coeffs)
    assert q * p == got


@settings(max_examples=60)
@given(small_polys, fractions, fractions, fractions)
@example(Poly(), F(1, 3), F(-2, 5), F(7, 4))
def test_compose_affine_evaluation(p, a, b, x):
    assert p.compose_affine(a, b)(x) == p(a * x + b)


@settings(max_examples=60)
@given(st.lists(fractions, max_size=8), small_polys, small_polys, st.integers(0, 6))
@example([F(1, 2), F(-2, 9), F(5, 11)], Poly.of(F(1, 3), F(2, 5)), Poly.of(F(3, 7), F(-1, 4)), 6)
@example([F(1, 2), 3, F(-1, 6)], Poly(), Poly.of(F(1, 3), 1), 2)
@example([F(1, 2), 3, F(-1, 6)], Poly.of(F(1, 3), 1), Poly(), 2)
@example([F(1, 6)] * 8, Poly.of(0, F(1, 2)), Poly.of(1, F(-1, 3)), 6)
def test_binary_form_matches_per_term_sum(coeffs, a, b, extra):
    degree = len(coeffs) - 1 + extra
    naive = Poly()
    for k, c in enumerate(coeffs):
        naive = naive + math.prod([a] * k + [b] * (degree - k), start=Poly.constant(c))
    assert binary_form(coeffs, a, b, degree) == naive


def test_binary_form_rejects_more_coefficients_than_degree():
    assert binary_form([1, 2], Poly.of(0, 1), Poly.of(1, -1), 1) == Poly.of(1, 1)
    with pytest.raises(IndexOutOfRange):
        binary_form([1, 2, 3], Poly.of(0, 1), Poly.of(1, -1), 1)
    with pytest.raises(IndexOutOfRange):
        binary_form([1], Poly.of(0, 1), Poly.of(1, -1), -1)


def _xs():
    """Evaluation points of every kind ``Poly.rounded`` accepts."""
    near = lambda e: st.floats(2.0 ** (e - 1), 2.0 ** (e + 1))
    return st.one_of(
        st.integers(-(10**6), 10**6),
        st.fractions(max_denominator=10**9),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]),
        near(60), near(-60), near(60).map(lambda v: -v), near(-60).map(lambda v: -v),
    )


class TestExactEvaluation:
    """Integer Horner must round the exact value once, as ``float`` of the
    Fraction Horner value does."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=10**12), max_size=61), _xs())
    @example([F(0), F(1, 3)], 1e-310)  # subnormal value
    @example([F(0), F(-1, 3)], 5e-324)  # underflows to -0.0
    @example([F(1, 10**12)] * 61, 2.0**60)  # overflows
    @example([], -0.0)
    def test_matches_fraction_route_bit_for_bit(self, coeffs, x):
        p = Poly(tuple(coeffs))
        try:
            ref = float(_fraction_horner(p, F(x)))
        except OverflowError:
            for _ in range(2):  # a cold and a cached integer form
                with pytest.raises(OverflowError):
                    p.rounded(x)
            return
        for _ in range(2):
            got = p.rounded(x)
            assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)


def _trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(xs, ys, sign=1):
    n = max(len(xs), len(ys))
    pad = lambda cs: list(cs) + [F(0)] * (n - len(cs))
    return _trim(a + sign * b for a, b in zip(pad(xs), pad(ys)))


def _ref_mul(xs, ys):
    return _fraction_product(Poly(xs), Poly(ys)).coeffs


def _ref_pow(xs, n):
    acc = (F(1),)
    for _ in range(n):
        acc = _ref_mul(acc, xs)
    return acc


def _ref_compose_affine(xs, a, b):
    """sum_k c_k (a x + b)^k, by Horner over Fraction coefficient lists."""
    acc = ()
    for c in reversed(xs):
        acc = _ref_add(_ref_mul(acc, (b, a)), (c,))
    return acc


def _assert_normal(p: Poly):
    ints, den = p.integer_form
    assert den > 0 and math.gcd(den, *ints) == 1
    assert all(type(c) is int for c in ints) and (not ints or ints[-1] != 0)
    assert p.coeffs == tuple(F(c, den) for c in ints)


class TestFractionReference:
    """Every ring and calculus operation of the integer form against the
    same operation on the ``Fraction`` coefficients."""

    @settings(max_examples=150)
    @given(sparse_polys, sparse_polys, st.one_of(st.just(F(0)), fractions), st.integers(0, 4))
    @example(Poly(), Poly(), F(0), 0)
    @example(Poly.of(F(1, 2), F(-2, 3)), Poly.of(F(1, 2), F(-2, 3)), F(-3, 7), 3)
    @example(Poly.of(1, F(1, 3), 2), Poly.of(0, F(1, 3), 2), F(-1, 6), 2)
    @example(Poly.of(F(2, 9), F(4, 9)), Poly.of(F(3, 4), F(9, 4), 0, F(1, 6)), F(9, 2), 1)
    def test_operations_match_fraction_reference(self, p, q, c, n):
        xs, ys = p.coeffs, q.coeffs
        cases = [
            (p + q, _ref_add(xs, ys)),
            (p - q, _ref_add(xs, ys, -1)),
            (p - p, ()),
            (q + c, _ref_add(ys, (c,))),
            (c - q, _ref_add((c,), ys, -1)),
            (-p, _trim(-a for a in xs)),
            (p * q, _ref_mul(xs, ys)),
            (p * c, _trim(a * c for a in xs)),
            (p.scale(c), _trim(c * a for a in xs)),
            (p.scale(-abs(c)), _trim(-abs(c) * a for a in xs)),
            (p.scale(0), ()),
            (math.prod([p] * n, start=Poly.constant(1)), _ref_pow(xs, n)),
            (p.derivative(), _trim(i * a for i, a in enumerate(xs))[1:]),
            (p.antiderivative(), _trim((F(0),) + tuple(a / (i + 1) for i, a in enumerate(xs)))),
            (p.compose_affine(c, F(1, 3)), _ref_compose_affine(xs, c, F(1, 3))),
        ]
        for got, want in cases:
            _assert_normal(got)
            assert got.coeffs == want
            assert got.degree == (len(want) - 1 if want else NEG_INFINITY)
        anti = lambda x: sum((a * x ** (i + 1) / (i + 1) for i, a in enumerate(xs)), F(0))
        assert p.integrate(c, F(5, 4)) == anti(F(5, 4)) - anti(c)

    def test_cancellation_and_trimming(self):
        p = Poly.of(F(1, 6), F(1, 3), F(1, 2))
        for zero in (p - p, p + (-p), p.scale(0), p * Poly(), Poly.of(0, 0, 0), Poly.constant(5).derivative()):
            _assert_normal(zero)
            assert zero.integer_form == ((), 1) and zero == Poly() and not zero
        top = p - Poly.monomial(2, F(1, 2))  # the leading term cancels
        _assert_normal(top)
        assert top.coeffs == (F(1, 6), F(1, 3)) and top.integer_form == ((1, 2), 6)
        # content shared by every numerator and the denominator is divided out
        assert (p * 6).integer_form == ((1, 2, 3), 1)
        assert (p + Poly.of(F(1, 3), F(2, 3), F(1, 2))).integer_form == ((1, 2, 2), 2)
        assert Poly.of(F(-2, 4), 0, 0).integer_form == ((-1,), 2)


@st.composite
def grids(draw, lo, hi, max_count=12, max_den=10**9):
    """A :class:`Grid` of points in [lo, hi], in either direction and
    unreduced, with one point or more."""
    den = draw(st.integers(1, max_den))
    ends = st.integers(math.ceil(lo * den), math.floor(hi * den))
    start, end, count = draw(ends), draw(ends), draw(st.integers(1, max_count))
    if count == 1:
        return Grid(start, draw(st.integers(-3, 3)), den, 1)
    step = abs(end - start) // (count - 1)
    return Grid(start, step if end >= start else -step, den, count)


#: integer polynomials of degree up to 60 with one parity, or none
_parity_polys = st.builds(
    lambda cs, keep, scale: Poly([c if keep(k) else 0 for k, c in enumerate(cs)]).scale(scale),
    st.lists(st.integers(-(10**30), 10**30), max_size=61),
    st.sampled_from((lambda k: True, lambda k: k % 2 == 0, lambda k: k % 2 == 1, lambda k: k == 0,
                     lambda k: False)),
    st.fractions(max_denominator=10**6).filter(bool))


class TestGrid:
    def test_points(self):
        g = Grid(-6, 4, 12, 4)  # -1/2, -1/6, 1/6, 1/2
        assert g.numerators() == [-6, -2, 2, 6]
        assert g.fractions() == [F(-1, 2), F(-1, 6), F(1, 6), F(1, 2)]
        assert list(g.floats()) == [float(x) for x in g.fractions()]
        assert Grid.point(F(-3, 6)) == Grid(-1, 0, 2, 1) and Grid.point(4).fractions() == [4]
        assert Grid(1, -1, 1, 2).fractions() == [1, 0]  # reversed ends, as --grid=1:0:2
        assert Grid(5, 1, 3, 0).fractions() == [] and list(Grid(5, 1, 3, 0).floats()) == []
        assert horner_on_grid([0, 0, 0], g) == [0] * 4 and horner_on_grid([], g) == [0] * 4

    def test_floats_raise_only_when_reached(self):
        floats = Grid(0, 10**400, 1, 3).floats()
        assert next(floats) == 0.0
        with pytest.raises(OverflowError, match="too large for a float"):
            next(floats)

    @pytest.mark.parametrize("fields", ((0, 1, 0, 3), (0, 1, -2, 3), (0, 1, 2, -1), (0, 1, 2.0, 3),
                                        (F(1, 2), 1, 2, 3), (0, True, 2, 3)))
    def test_malformed_grid_is_a_library_error(self, fields):
        with pytest.raises(DomainError, match="grid"):
            Grid(*fields)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_parity_polys, grids(-50, 50))
    @example(Poly(), Grid(-3, 1, 2, 7))
    @example(Poly.of(F(7, 3)), Grid(1, -1, 1, 2))
    @example(Poly.of(0, 0, 5, 0, -1), Grid(-10, 3, 6, 8))
    @example(Poly.of(0, -1, 0, 2), Grid(-7, 0, 5, 1))
    @example(Poly.of(F(1, 3), -2, F(5, 4)), Grid(-4, 1, 4, 9))
    def test_rounded_on_grid_is_rounded_at_each_point(self, p, g):
        got = p.rounded_on_grid(g)
        assert got == [p.rounded(x) for x in g.fractions()]
        assert all(type(v) is float for v in got)

    def test_overflow_is_raised_as_by_rounded(self):
        p, g = Poly.monomial(200, -1), Grid(0, 500, 1, 4)
        with pytest.raises(OverflowError) as per_point:
            [p.rounded(x) for x in g.fractions()]
        with pytest.raises(OverflowError) as on_grid:
            p.rounded_on_grid(g)
        assert str(on_grid.value) == str(per_point.value)


def _count_fractions(monkeypatch) -> list:
    """Count every ``Fraction`` built from now on; the list grows by one per build."""
    built = []
    real = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    return built


class TestIntegerForm:
    """A ``Poly`` is stored in integer form; its ``Fraction`` view is built
    on first read and kept."""

    def test_built_once_per_object(self, monkeypatch):
        p, q = Poly.of(F(1, 3), F(-2, 5), F(7, 6)), Poly.of(F(1, 4), 2)
        ref, xs = _fraction_product(p, q), (F(1, 7), 0.3, 2, F(-5, 2), -0.0)
        built = _count_fractions(monkeypatch)
        for x in xs:
            p.rounded(x)
        prod, total = p * q, p + q - q * p
        deriv, form = total.derivative(), binary_form(p.coeffs, q, prod, 5)
        for _ in range(3):
            assert q * p == prod and p + q - prod == total
        # no product, sum, derivative, rounding or binary form builds a view
        assert built == []
        assert prod.coeffs is prod.coeffs and prod.coeffs == ref.coeffs
        assert len(built) == len(ref.coeffs)
        for r in (total, deriv, form):
            assert r.coeffs is r.coeffs
        assert len(built) == len(ref.coeffs) + len(total.coeffs) + len(deriv.coeffs) + len(form.coeffs)
        assert p.integer_form == ((10, -12, 35), 30)
        assert (p * 6).integer_form == ((10, -12, 35), 5) and q.integer_form == ((1, 8), 4)

    def test_value_semantics_ignore_the_cached_form(self):
        x = Poly.of(0, 1)
        p, twin = x * x * F(-3, 4) + F(1, 2), F(1, 2) - (x * x).scale(F(3, 4))
        before = (repr(p), hash(p), repr(twin), hash(twin))
        assert p == twin and {p, twin} == {twin}
        assert p.coeffs == (F(1, 2), 0, F(-3, 4))
        assert (repr(p), hash(p), repr(twin), hash(twin)) == before
        assert repr(p) == repr(twin) == "Poly(1/2 + -3/4*x^2)" and hash(p) == hash(twin)
        assert p == twin and twin == p and {p, twin} == {twin}
        assert p * 1 == twin
        for copied in (copy.copy(p), copy.deepcopy(twin), pickle.loads(pickle.dumps(p))):
            assert copied == p and hash(copied) == hash(p) and repr(copied) == repr(p)
        with pytest.raises(FrozenInstanceError):
            p._ints = ()
        with pytest.raises(FrozenInstanceError):
            del twin._den
        assert p == twin and p.integer_form == ((2, 0, -3), 4)

    @settings(max_examples=100)
    @given(st.lists(fractions, max_size=8), sparse_polys, fractions.filter(bool))
    @example([], Poly(), F(1))
    @example([F(1, 2), 0, 0], Poly.of(F(-1, 2)), F(-3, 7))
    def test_fraction_built_equals_integer_reached(self, cs, q, c):
        built = Poly(tuple(cs))
        for reached in ((built + q) - q, (built * q.scale(0) + built.scale(c)).scale(1 / c),
                        built.compose_affine(1, 0), -(-built), built * Poly.constant(1)):
            assert reached == built and built == reached
            assert hash(reached) == hash(built) and repr(reached) == repr(built)
            assert reached.integer_form == built.integer_form and reached.coeffs == built.coeffs


def _pp(breaks, *pieces):
    return PiecewisePoly(tuple(rat(b) for b in breaks), tuple(pieces))


HAT = _pp([-1, 0, 1], Poly.of(1, 1), Poly.of(1, -1))  # peak 1 at 0, integral 1


class TestPiecewise:
    def test_constant_square_integral(self):
        box = _pp([-1, 1], Poly.constant(F(1, 2)))
        assert integrate_product(box, box) == F(1, 2)

    def test_disjoint_supports(self):
        f = _pp([0, 1], Poly.constant(1))
        g = _pp([2, 3], Poly.constant(1))
        assert integrate_product(f, g) == 0

    def test_hat_square_integral(self):
        assert integrate_product(HAT, HAT) == F(2, 3)

    def test_zero_outside_support(self):
        assert HAT(F(5)) == 0
        assert HAT(-1.5) == 0.0

    def test_breakpoint_uses_right_piece(self):
        steps = _pp([0, 1, 2], Poly.monomial(1), Poly.constant(5))
        assert steps(F(1)) == 5
        assert steps(F(2)) == 5  # last breakpoint falls to the final piece

    def test_shift(self):
        moved = HAT.shift(F(3))
        assert moved.support == (2, 4)
        assert moved(F(3)) == 1
        assert moved(F(7, 2)) == HAT(F(1, 2))

    def test_moment(self):
        box = _pp([-1, 1], Poly.constant(F(1, 2)))
        assert box.moment(0) == 1
        assert box.moment(1) == 0
        assert box.moment(2) == F(1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            _pp([0, 0], Poly.constant(1))
        with pytest.raises(ValueError):
            PiecewisePoly((F(0), F(1)), (Poly.constant(1), Poly.constant(2)))


@pytest.mark.parametrize("call", (
    lambda: PiecewisePoly((F(0), F(1)), (Poly.constant(1), Poly.constant(2))),
    lambda: PiecewisePoly((F(1), F(0)), (Poly.constant(1),)),
), ids=("piece count", "unordered breakpoints"))
def test_malformed_input_is_a_library_error(call):
    # a DomainError is a HeunopsError and still a ValueError
    with pytest.raises(HeunopsError) as info:
        call()
    assert isinstance(info.value, DomainError) and isinstance(info.value, ValueError)


@settings(max_examples=40)
@given(fractions, fractions)
def test_integrate_product_symmetric_bilinear(a, b):
    f = _pp([0, 1, 2], Poly.of(a, 1), Poly.of(1, -1))
    g = _pp([F(1, 2), 2], Poly.of(b, 0, 1))
    assert integrate_product(f, g) == integrate_product(g, f)
    scaled = integrate_product(f.scale(3), g)
    assert scaled == 3 * integrate_product(f, g)
    h = _pp([0, 2], Poly.of(1, b))
    lhs = integrate_product(f, _pp_sum(g, h))
    assert lhs == integrate_product(f, g) + integrate_product(f, h)


def _pp_sum(g, h):
    """Pointwise sum of two piecewise polynomials, for the bilinearity check."""
    cuts = sorted(set(g.breakpoints) | set(h.breakpoints))
    pieces = []
    for u, v in zip(cuts, cuts[1:]):
        mid = (u + v) / 2
        gi, hi = g.piece_index(mid), h.piece_index(mid)
        total = Poly()
        if gi >= 0:
            total = total + g.pieces[gi]
        if hi >= 0:
            total = total + h.pieces[hi]
        pieces.append(total)
    return PiecewisePoly(tuple(cuts), tuple(pieces))

"""Kernel densities, the exact squared-kernel constants, moments and the
integral operator."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heunops.bspline import (
    ConstantSigma,
    KnotVector,
    QuadraticSigma,
    TableSigma,
    apply_Ln,
    bspline_density,
    c_constant,
    cardinal_bspline,
    kernel,
    unit_variance,
)
from heunops.errors import DomainError, HeunopsError, InvalidKnots, NonpositiveWidth, NotExact
from heunops.exactalg import E0, E1, E2, PiecewisePoly, Poly, integrate_product

SIGMAS = (F(1, 2), F(1), F(7, 3))
XS = (F(-1), F(0), F(5, 2))


def _cox_de_boor_value(pts, i, p, t):
    """Independent pointwise Cox-de Boor oracle (basis normalization)."""
    if p == 0:
        return F(1) if pts[i] <= t < pts[i + 1] else F(0)
    left = (t - pts[i]) / (pts[i + p] - pts[i]) * _cox_de_boor_value(pts, i, p - 1, t)
    right = (pts[i + p + 1] - t) / (pts[i + p + 1] - pts[i + 1]) * _cox_de_boor_value(pts, i + 1, p - 1, t)
    return left + right


def _density_oracle(pts, t):
    m = len(pts) - 1
    return _cox_de_boor_value(pts, 0, m - 1, t) * F(m) / (pts[-1] - pts[0])


def _cox_de_boor_density(pts):
    """Reference density on the knots ``pts``: the general Cox-de Boor
    recursion over per-interval polynomials, normalized by its integral;
    independent of the cardinal closed form that the library uses."""
    pts = tuple(F(p) for p in pts)
    m = len(pts) - 1
    # level 0: indicators of the m knot intervals, one list of per-interval polys each
    level = [[Poly.constant(1) if j == i else Poly() for j in range(m)] for i in range(m)]
    for deg in range(1, m):
        nxt = []
        for i in range(m - deg):
            left = Poly.of(-pts[i], 1).scale(1 / (pts[i + deg] - pts[i]))
            right = Poly.of(pts[i + deg + 1], -1).scale(1 / (pts[i + deg + 1] - pts[i + 1]))
            nxt.append([left * level[i][j] + right * level[i + 1][j] for j in range(m)])
        level = nxt
    pp = PiecewisePoly(pts, tuple(level[0]))
    total = pp.integrate()
    return pp.scale(1 / total)


#: equidistant knot vectors x_0 + h i, i = 0..m, with m <= 14
EQUIDISTANT_KNOTS = st.builds(
    lambda m, x0, h: [x0 + h * i for i in range(m + 1)],
    st.integers(1, 14), st.fractions(-20, 20, max_denominator=12),
    st.fractions(F(1, 12), 8, max_denominator=12))


class TestDensity:
    def test_single_interval_is_uniform(self):
        d = bspline_density([-1, 1])
        assert d(F(0)) == F(1, 2)
        assert d.integrate() == 1

    def test_hat(self):
        d = bspline_density([-1, 0, 1])
        assert d(F(0)) == 1
        assert d.integrate() == 1

    def test_quadratic_value_against_recursion_oracle(self):
        pts = [F(0), F(1, 3), F(2, 3), F(1)]
        d = bspline_density(pts)
        assert d(F(1, 2)) == F(9, 4)
        for t in (F(1, 10), F(1, 3), F(1, 2), F(4, 5)):
            assert d(t) == _density_oracle(pts, t)

    def test_smoothness_at_interior_knots(self):
        pts = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        d = bspline_density(pts)
        for i in range(1, 4):
            left, right = d.pieces[i - 1], d.pieces[i]
            t = pts[i]
            assert left(t) == right(t)
            assert left.derivative()(t) == right.derivative()(t)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(EQUIDISTANT_KNOTS)
    def test_cardinal_image_equals_cox_de_boor(self, pts):
        # the truncated-power sum at the knots against the Cox-de Boor recursion
        assert bspline_density(pts) == _cox_de_boor_density(pts)

    @pytest.mark.parametrize("m", (40, 100))
    def test_many_knots_against_point_formula(self, m):
        # past the Cox-de Boor oracle's m <= 14: the pieces built at the
        # knots against the one-point sum of cardinal_bspline
        x0, h = F(-7, 3), F(2, 5)
        unit = bspline_density(range(m + 1))
        scaled = bspline_density([x0 + j * h for j in range(m + 1)])
        for t in (F(1, 2), F(17, 5), F(m, 3), F(m, 2), F(m // 2), m - F(1, 7)):
            want = cardinal_bspline(m, t)
            assert unit(t) == want
            assert scaled(x0 + h * t) == want / h

    def test_invalid_knots(self):
        with pytest.raises(InvalidKnots):
            bspline_density([0, 2, 3])  # not equidistant
        with pytest.raises(InvalidKnots):
            bspline_density([1, 1, 2])
        with pytest.raises(InvalidKnots):
            KnotVector((F(3), F(2)))


class TestKernel:
    def test_n1_box(self):
        inst = kernel(1, ConstantSigma(1), 0)
        assert inst.density(F(0)) == F(1, 2)
        assert inst.density.support == (-1, 1)

    def test_n2_translated_hat(self):
        inst = kernel(2, ConstantSigma(1), 3)
        assert inst.density.support == (2, 4)
        assert inst.density(F(3)) == 1

    def test_n3_squared_integral(self):
        inst = kernel(3, ConstantSigma(1), 0)
        assert integrate_product(inst.density, inst.density) == F(33, 40)

    def test_nonpositive_width(self):
        with pytest.raises(NonpositiveWidth):
            kernel(2, ConstantSigma(-1), 0)
        with pytest.raises(NonpositiveWidth):
            kernel(2, QuadraticSigma(F(-5), 1), 1)

    def test_translation_covariance(self):
        for n in (1, 2, 3, 4):
            base = kernel(n, ConstantSigma(F(7, 3)), 0)
            moved = kernel(n, ConstantSigma(F(7, 3)), F(5, 2))
            assert moved.density == base.density.shift(F(5, 2))


class TestConstants:
    """c_n = (n/2) M_2n(n) and v_n = 1/(3n) against Cox-de Boor densities
    built at the actual knots x - sigma + 2 sigma i / n."""

    def test_first_three_constants(self):
        assert c_constant(1) == F(1, 2)
        assert c_constant(2) == F(2, 3)
        assert c_constant(3) == F(33, 40)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_independent_of_x_and_sigma(self, n):
        for s in SIGMAS:
            for x in XS:
                density = _cox_de_boor_density([x - s + 2 * s * i / n for i in range(n + 1)])
                m1 = density.moment(1)
                assert s * integrate_product(density, density) == c_constant(n)
                assert density.moment(0) == 1 and m1 == x
                assert (density.moment(2) - m1 * m1) / (s * s) == unit_variance(n)

    @pytest.mark.parametrize("fn", (c_constant, unit_variance))
    @pytest.mark.parametrize("n", (True, False, 2.0, F(2), 0, -1))
    def test_malformed_order_rejected(self, fn, n):
        fn(1)  # a cached entry of 1 must not answer for True
        with pytest.raises(InvalidKnots):
            fn(n)


class TestCardinalBSpline:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_against_cox_de_boor(self, m):
        # the knots, the half-integers, thirds and points outside [0, m]
        density = _cox_de_boor_density(range(m + 1))
        ts = [F(i, 2) for i in range(-4, 2 * m + 5)] + [F(i, 3) for i in range(3 * m + 1)]
        for t in ts + [F(-7, 5), F(m) + F(1, 7), F(10**6)]:
            assert cardinal_bspline(m, t) == density(t), t

    def test_integer_and_string_points(self):
        assert cardinal_bspline(2, 1) == 1
        assert cardinal_bspline(3, "3/2") == F(3, 4)
        assert cardinal_bspline(4, F(2)) == F(2, 3)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_against_scipy_basis_element(self, m):
        np = pytest.importorskip("numpy")
        interpolate = pytest.importorskip("scipy.interpolate")
        # on the unit knots 0..m the basis element integrates to 1, so it is M_m
        element = interpolate.BSpline.basis_element(np.arange(m + 1), extrapolate=False)
        for t in [F(i, 7) for i in range(1, 7 * m)]:
            ref = float(element(float(t)))
            assert abs(float(cardinal_bspline(m, t)) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("m", (True, False, 2.0, F(2), "2", None, 0, -3))
    def test_malformed_order_rejected(self, m):
        with pytest.raises(InvalidKnots):
            cardinal_bspline(m, F(1, 2))


class TestMoments:
    def test_mass(self):
        for n in (1, 2, 5):
            assert kernel(n, ConstantSigma(F(7, 3)), F(5, 2)).density.moment(0) == 1

    def test_symmetry_first_moment(self):
        assert kernel(2, ConstantSigma(1), 5).density.moment(1) == 5

    def test_second_moment(self):
        # direct oracle: integral of t^2/2 over [-1, 1] = 1/3
        assert kernel(1, ConstantSigma(1), 0).density.moment(2) == F(1, 3)


class TestApplyLn:
    def test_reproduces_constants(self):
        for n in (1, 3, 6):
            assert apply_Ln(n, QuadraticSigma(1, 1), E0, F(1, 2)) == 1

    def test_first_moment_is_x(self):
        assert apply_Ln(3, ConstantSigma(1), E1, F(1, 4)) == F(1, 4)

    def test_second_moment_matches_width(self):
        assert apply_Ln(1, ConstantSigma(2), E2, 0) == F(4, 3)

    @pytest.mark.parametrize("f", (lambda t: t * t, math.cos, 2, F(1, 2)), ids=("lambda", "cos", "int", "Fraction"))
    def test_only_a_poly_is_applied(self, f):
        with pytest.raises(NotExact, match="integrates a Poly exactly"):
            apply_Ln(3, ConstantSigma(1), f, F(1, 4))

    @pytest.mark.parametrize("sigma", (1, F(1, 2), 0.5, lambda x: 1, None),
                             ids=("int", "Fraction", "float", "callable", "None"))
    def test_width_must_be_a_sigma_spec(self, sigma):
        # a bare number used to fail with AttributeError: 'int' object has no attribute 'at'
        for call in (lambda: kernel(2, sigma, 0), lambda: apply_Ln(2, sigma, E2, 0)):
            with pytest.raises(DomainError, match="must be a SigmaSpec"):
                call()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_variance_formula(self, n):
        for s in SIGMAS:
            for x in XS:
                v = apply_Ln(n, ConstantSigma(s), E2, x) - apply_Ln(n, ConstantSigma(s), E1, x) ** 2
                assert v == s * s / F(3 * n)

    def test_variance_with_quadratic_sigma(self):
        sig = QuadraticSigma(1, 1)
        for n in (1, 2, 4):
            for x in (F(-2), F(1, 2)):
                v = apply_Ln(n, sig, E2, x) - apply_Ln(n, sig, E1, x) ** 2
                assert v == sig.at(x) ** 2 / F(3 * n)


def _table_scan(xs, values, x):
    """The per-point linear scan that ``TableSigma`` replaced by a bisection."""
    if x <= xs[0]:
        return values[0]
    if x >= xs[-1]:
        return values[-1]
    i = max(i for i in range(len(xs) - 1) if xs[i] <= x)
    return values[i] + (x - xs[i]) / (xs[i + 1] - xs[i]) * (values[i + 1] - values[i])


class TestSigmaSpecs:
    def test_table_interpolates(self):
        sig = TableSigma((F(0), F(1), F(2)), (F(1), F(3), F(1)))
        assert sig.at(F(1, 2)) == 2
        assert sig.at(F(5)) == 1  # clamped beyond the table

    @pytest.mark.parametrize("xs, values", (((0, 0), (1, 1)), ((0,), (1,)), ((0, 1), (1,))))
    def test_malformed_table_is_a_library_error(self, xs, values):
        with pytest.raises(HeunopsError):
            TableSigma(xs, values)
        with pytest.raises(ValueError):
            TableSigma(xs, values)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 30).flatmap(lambda size: st.tuples(
        st.lists(st.fractions(-8, 8, max_denominator=12), min_size=size, max_size=size, unique=True),
        st.lists(st.fractions(F(1, 16), 16, max_denominator=16), min_size=size, max_size=size))))
    def test_table_matches_linear_scan(self, table):
        xs, values = sorted(table[0]), table[1]
        sig = TableSigma(tuple(xs), tuple(values))
        between = [a + (b - a) * t for a, b in zip(xs, xs[1:]) for t in (F(1, 3), F(1, 2))]
        for x in (*xs, *between, xs[0] - 1, xs[-1] + F(1, 7)):
            assert sig.at(x) == _table_scan(xs, values, x)

    def test_table_positivity_enforced(self):
        sig = TableSigma((F(0), F(1)), (F(1), F(-1)))
        with pytest.raises(NonpositiveWidth):
            sig.at(F(1))


# --- exact nonnegativity ----------------------------------------------------


def _sign_in_quadratic_field(a: F, b: F, d: F) -> int:
    """Exact sign of a + b*sqrt(d) for rational a, b and d > 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0
    if a > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def _eval_in_quadratic_field(p: Poly, u: F, v: F, d: F) -> tuple[F, F]:
    """p(u + v*sqrt(d)) as (rational, sqrt-coefficient) pair."""
    ra, rb = F(0), F(0)
    for c in reversed(p.coeffs):
        ra, rb = ra * u + rb * v * d + c, ra * v + rb * u
    return ra, rb


def _piece_min_nonneg_exact(p: Poly, lo: F, hi: F) -> bool:
    """Exact nonnegativity of a piece of degree <= 3 on [lo, hi]."""
    if p(lo) < 0 or p(hi) < 0:
        return False
    deg = p.degree
    if deg <= 1:  # zero, constant or linear: endpoints suffice
        return True
    if deg == 2:
        der = p.derivative()
        root = -der.coeff(0) / der.coeff(1)
        return not (lo < root < hi) or p(root) >= 0
    assert deg == 3
    der = p.derivative()
    a2, a1, a0 = der.coeff(2), der.coeff(1), der.coeff(0)
    disc = a1 * a1 - 4 * a2 * a0
    if disc <= 0:
        return True  # monotone piece, endpoints suffice
    u = -a1 / (2 * a2)
    for s in (F(1), F(-1)):
        v = s / (2 * a2)
        inside_lo = _sign_in_quadratic_field(u - lo, v, disc) > 0
        inside_hi = _sign_in_quadratic_field(hi - u, -v, disc) > 0
        if inside_lo and inside_hi:
            ra, rb = _eval_in_quadratic_field(p, u, v, disc)
            if _sign_in_quadratic_field(ra, rb, disc) < 0:
                return False
    return True


@pytest.mark.parametrize("n", range(1, 9))
def test_density_nonnegative(n):
    inst = kernel(n, ConstantSigma(1), 0)
    d = inst.density
    if n <= 4:  # pieces of degree <= 3: exact minimization
        for i, piece in enumerate(d.pieces):
            assert _piece_min_nonneg_exact(piece, d.breakpoints[i], d.breakpoints[i + 1])
    else:  # rational sampling
        lo, hi = d.support
        for k in range(321):
            t = lo + (hi - lo) * F(k, 320)
            assert d(t) >= 0

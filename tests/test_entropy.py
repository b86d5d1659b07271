"""Entropies, variances, the Kantorovich representation and synchronicity."""

import itertools
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heunops import bspline, cli, entropy, exactalg
from heunops.entropy import (
    BSplineOp,
    EntropyPoint,
    KantorovichOp,
    bernstein_apply,
    entropy_profile,
    kantorovich_apply,
    kantorovich_poly,
    synchronicity_check,
)
from heunops.errors import (
    ConstraintViolated,
    DomainError,
    InvalidKnots,
    LengthMismatch,
    NonFinite,
    NonpositiveWidth,
    UnsupportedK,
)
from heunops.exactalg import E0, E1, E2, Grid, Poly, integrate_product

from test_bspline import _cox_de_boor_density
from test_exactalg import grids

X9 = [F(i, 8) for i in range(9)]


def bernstein_poly(n, j):
    """Reference Bernstein basis polynomial C(n,j) x^j (1-x)^(n-j)."""
    return math.prod([Poly.of(1, -1)] * (n - j), start=Poly.monomial(j, math.comb(n, j)))


class TestBernstein:
    def test_corner(self):
        # B_n f interpolates f at x = 0: only the j = 0 weight is nonzero there
        f = Poly.of(F(5, 2), -3, 1)
        for n in (1, 3, 6):
            assert bernstein_apply(n, f)(F(0)) == f(F(0))

    def test_partition_of_unity_poly(self):
        total = Poly()
        for j in range(4):
            total = total + bernstein_poly(3, j)
        assert total == Poly.constant(1) == bernstein_apply(3, E0)

    def test_direct_value(self):
        # oracle: f(0) = f(1) = 0 and f(1/2) = 1 pick the j = 1 weight 2 * (1/4) * (3/4)
        assert bernstein_apply(2, Poly.of(0, 4, -4))(F(1, 4)) == F(3, 8)


class TestKantorovich:
    def test_k0_is_bernstein(self):
        assert kantorovich_poly(1, 0, E1) == Poly.monomial(1)

    def test_mass_preserved(self):
        for x in X9:
            assert kantorovich_apply(2, 2, E0, x) == 1

    def test_hat_center(self):
        assert kantorovich_apply(2, 2, E1, F(1, 2)) == F(1, 2)

    def test_degree_zero_operator_rejected(self):
        with pytest.raises(DomainError, match="n >= 1"):
            KantorovichOp(0, 0)

    @pytest.mark.parametrize("n, k", ((2.0, 1), (True, 1), (2, 1.0), (2, True), (F(2), 1), ("2", 1)))
    def test_malformed_order_rejected(self, n, k):
        with pytest.raises(DomainError, match="must be an int"):
            KantorovichOp(n, k)
        entropy.s_direct_poly(1, 1)  # a cached entry of (1, 1) must not answer for (True, 1)
        with pytest.raises(DomainError, match="must be an int"):
            entropy.s_direct_poly(n, k)

    @pytest.mark.parametrize("n", (2.0, True, False, F(2), 0, -1))
    def test_malformed_bspline_order_rejected(self, n):
        with pytest.raises(InvalidKnots):
            BSplineOp(n, bspline.ConstantSigma(1))

    @pytest.mark.parametrize("sigma", (1, F(1, 2), 0.5, None), ids=("int", "Fraction", "float", "None"))
    def test_malformed_bspline_width_rejected(self, sigma):
        # a bare number used to pass here and fail in entropy_profile with
        # AttributeError: 'int' object has no attribute 'at'
        with pytest.raises(DomainError, match="must be a SigmaSpec"):
            BSplineOp(2, sigma)

    @pytest.mark.parametrize("method", ("definition", "bspline-form"))
    def test_degree_zero_polynomial_rejected(self, method):
        with pytest.raises(DomainError, match="n >= 1"):
            kantorovich_poly(0, 0, E1, method)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_representation_equality(self, n):
        # the two computation routes must agree exactly on polynomials
        for k in (1, 2, 3):
            if k > n:
                continue
            for f in (E0, E1, E2):
                assert kantorovich_poly(n, k, f, "definition") == kantorovich_poly(n, k, f, "bspline-form")
                for x in (F(0), F(1, 4), F(1, 2), F(1)):
                    assert kantorovich_apply(n, k, f, x, "definition") == kantorovich_apply(
                        n, k, f, x, "bspline-form"
                    )

    @pytest.mark.parametrize("n", range(1, 5))
    def test_k0_bspline_form_is_point_evaluation(self, n):
        # k = 0 takes the point-evaluation branch of the B-spline form
        for f in (E0, E1, E2, Poly.of(1, -3, 0, 2)):
            assert kantorovich_poly(n, 0, f, "bspline-form") == kantorovich_poly(n, 0, f)

    def test_definition_ignores_antiderivative_constants(self):
        # same operator value whichever antiderivative representative is used
        got = kantorovich_poly(3, 2, E2, "definition")
        assert got == kantorovich_poly(3, 2, E2, "bspline-form")


def _bernstein_sum_oracle(n, k, f):
    """The term-by-term Bernstein sum that the one binary form of the
    ``bspline-form`` route replaced, with each cell built from its knots."""
    total = Poly()
    for j in range(n - k + 1):
        if k == 0:
            weight = f(F(j, n))
        else:
            weight = _cox_de_boor_density([F(j + i, n) for i in range(k + 1)]).integrate(weight=f)
        total = total + bernstein_poly(n - k, j).scale(weight)
    return total


class TestBSplineFormSum:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
           st.lists(st.fractions(-6, 6, max_denominator=9), max_size=6))
    def test_matches_term_by_term_sum(self, nk, coeffs):
        n, k = nk
        f = Poly(tuple(coeffs))
        assert kantorovich_poly(n, k, f, "bspline-form") == _bernstein_sum_oracle(n, k, f)


class TestSquaredKernel:
    def test_constant_family(self):
        # oracle: the n = k = 2 kernel is a single unit hat; its squared
        # integral is 4/3 independent of x
        hat = bspline.bspline_density([F(0), F(1, 2), F(1)])
        assert integrate_product(hat, hat) == F(4, 3)
        for x in X9:
            assert entropy.s_direct_poly(2, 2)(x) == F(4, 3)

    def test_center_value(self):
        assert entropy.s_direct_poly(3, 2)(F(1, 2)) == F(5, 4)

    def test_edge_value(self):
        # both the direct definition and the closed sum give 2 at x = 0
        assert entropy.s_direct_poly(3, 2)(F(0)) == 2
        assert entropy.s2_sum_poly(3)(F(0)) == 2

    @pytest.mark.parametrize("n", (2, 3, 5))
    def test_integral_form_against_sum_form(self, n):
        for x in X9:
            ref = entropy.s2_sum_poly(n)(x)
            assert abs(entropy.s2_integral_form(n, float(x)) - float(ref)) <= 1e-12 * float(ref)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_overlaps_against_cell_integrals(self, n):
        # I_d = n M_2k(k + d) against the Cox-de Boor cells on j/n, ..., (j+k)/n
        for k in range(1, n + 1):
            cells = [_cox_de_boor_density([F(j + i, n) for i in range(k + 1)]) for j in range(n - k + 1)]
            for d, cell in enumerate(cells):
                assert n * bspline.cardinal_bspline(2 * k, k + d) == integrate_product(cells[0], cell)

    def test_unsupported_k(self):
        # the k = 2 closed forms need n >= 2, the direct form 1 <= k <= n
        with pytest.raises(UnsupportedK):
            entropy.s2_sum_poly(1)
        with pytest.raises(UnsupportedK):
            entropy.s2_integral_form(1, 0.5)
        with pytest.raises(UnsupportedK):
            entropy.s_direct_poly(4, 5)

    @pytest.mark.parametrize("m", range(2, 41))
    def test_three_way_agreement(self, m):
        sums = entropy.s2_sum_poly(m)
        direct = entropy.s_direct_poly(m, 2)
        assert direct == sums
        for x in X9:
            numeric = entropy.s2_integral_form(m, float(x))
            assert abs(numeric - float(sums(x))) <= 1e-9 * abs(float(sums(x)))


class TestVariance:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_kantorovich_closed_form(self, n):
        # moments route must reproduce n x(1-x)/(n+2)^2 + 1/(6 (n+2)^2)
        m = n + 2
        e1 = kantorovich_poly(m, 2, E1)
        e2 = kantorovich_poly(m, 2, E2)
        for x in X9:
            var = e2(x) - e1(x) ** 2
            assert var == F(n, m * m) * x * (1 - x) + F(1, 6 * m * m)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_profile_variance_against_both_routes(self, n):
        # the closed form (m x(1-x) + k/12) / n^2 of the profile is the exact
        # L e_2 - (L e_1)^2 of either route of kantorovich_poly
        for k in range(1, n + 1):
            var = entropy._kantorovich_profile_polys(n, k)[1]
            for method in ("definition", "bspline-form"):
                m1 = kantorovich_poly(n, k, E1, method)
                expected = kantorovich_poly(n, k, E2, method) - m1 * m1
                assert var.integer_form == expected.integer_form

    def test_profile_anchor(self):
        pt = entropy_profile(KantorovichOp(3, 2), [F(1, 2)])[0]
        assert pt.squared_kernel_integral == 1.25
        assert abs(pt.variance - 5 / 108) < 1e-16
        assert pt.renyi == -math.log(1.25)
        assert pt.tsallis == 1 - 1.25

    def test_bspline_profile_anchor(self):
        pts = entropy_profile(BSplineOp(1, bspline.ConstantSigma(1)), [F(-1), F(0), F(2)])
        for pt in pts:
            assert abs(pt.renyi - math.log(2)) < 1e-15
            assert pt.tsallis == 0.5
            assert abs(pt.variance - 1 / 3) < 1e-16

    def test_constant_tsallis_family(self):
        pts = entropy_profile(KantorovichOp(2, 2), X9)
        for pt in pts:
            assert abs(pt.tsallis - (1 - 4 / 3)) < 1e-15

    def test_profile_definitional_invariants(self):
        for pt in entropy_profile(KantorovichOp(5, 2), X9):
            assert pt.squared_kernel_integral > 0
            assert pt.renyi == -math.log(pt.squared_kernel_integral)
            assert pt.tsallis == 1 - pt.squared_kernel_integral

    def test_domain_error(self):
        with pytest.raises(DomainError):
            entropy_profile(KantorovichOp(3, 2), [F(-1, 8)])


class TestEntropyPoint:
    def test_invariants_raise(self):
        # real errors, not asserts, so the checks survive python -O
        with pytest.raises(ConstraintViolated):
            EntropyPoint(0.0, -1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ConstraintViolated):
            EntropyPoint(0.0, 0.5, 0.5, 0.5, 0.0)
        with pytest.raises(ConstraintViolated):
            EntropyPoint(0.0, 0.5, -math.log(0.5), 0.25, 0.0)
        EntropyPoint(0.0, 0.5, -math.log(0.5), 0.5, 0.0)


# table with kinks at -1, 0 and 1/2; the grid below hits all three
TABLE = bspline.TableSigma((F(-1), F(0), F(1, 2)), (F(1, 2), F(2), F(3, 4)))
SIGMAS = (bspline.ConstantSigma(F(3, 2)), bspline.QuadraticSigma(F(1, 2), F(1, 3)), TABLE)
XS_KINKS = [F(-3, 2), F(-1), F(-1, 2), F(0), F(1, 4), F(1, 2), F(1), F(7, 3)]


def _double_loop_s(n, k):
    """Squared-kernel polynomial summed over all (n-k+1)^2 cell pairs, with
    one overlap integral per pair of cells built at their own knots."""
    m = n - k
    cells = [_cox_de_boor_density([F(j + i, n) for i in range(k + 1)]) for j in range(m + 1)]
    total = Poly()
    for j in range(m + 1):
        for jp in range(m + 1):
            if abs(j - jp) < k:
                overlap = integrate_product(cells[j], cells[jp])
                total = total + (bernstein_poly(m, j) * bernstein_poly(m, jp)).scale(overlap)
    return total


class TestProfileOracles:
    """Profiles built from hoisted kernel data against per-point rebuilds."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_kantorovich_polys_against_double_loop(self, n):
        for k in range(1, n + 1):
            s = _double_loop_s(n, k)
            m1 = kantorovich_poly(n, k, E1, "bspline-form")
            var = kantorovich_poly(n, k, E2, "bspline-form") - m1 * m1
            assert entropy.s_direct_poly(n, k).coeffs == s.coeffs
            assert entropy._kantorovich_profile_polys(n, k) == (s, var)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("sigma", SIGMAS, ids=("const", "quad", "table"))
    def test_bspline_against_actual_knots(self, n, sigma):
        pts = entropy_profile(BSplineOp(n, sigma), XS_KINKS)
        for x, pt in zip(XS_KINKS, pts):
            w = sigma.at(x)
            density = _cox_de_boor_density([x - w + 2 * w * i / n for i in range(n + 1)])
            s = integrate_product(density, density)
            m1 = density.moment(1)
            var = density.moment(2) - m1 * m1
            assert pt.x == float(x)
            assert pt.squared_kernel_integral == float(s)
            assert pt.variance == float(var)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kantorovich_against_per_point(self, n):
        for k in range(1, n + 1):
            pts = entropy_profile(KantorovichOp(n, k), X9)
            for x, pt in zip(X9, pts):
                m1 = kantorovich_apply(n, k, E1, x)
                var = kantorovich_apply(n, k, E2, x) - m1 * m1
                assert pt.squared_kernel_integral == float(entropy.s_direct_poly(n, k)(x))
                assert pt.variance == float(var)


OPS = (KantorovichOp(6, 3), BSplineOp(4, bspline.QuadraticSigma(1, F(1, 2))))


class TestNoPerPointRebuild:
    """Kernel data is built once per operator, whatever the grid size, and
    no B-spline density is built at all: the B-spline constants and the
    Kantorovich cell overlaps are cardinal B-spline values."""

    @staticmethod
    def _clear_caches():
        for fn in (entropy._kantorovich_profile_polys, bspline.c_constant, bspline.unit_variance):
            fn.cache_clear()

    @staticmethod
    def _counting(monkeypatch, counts, module, name, fn):
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def _count_builds(self, monkeypatch, run):
        """Calls of the kernel builders made by ``run()`` on cold caches."""
        counts: dict = {"integrate_product": 0, "bspline_density": 0}
        self._clear_caches()
        for module, name in ((entropy, "s_direct_poly"), (entropy, "kantorovich_poly"),
                             (exactalg, "integrate_product"), (bspline, "cardinal_bspline"),
                             (bspline, "bspline_density")):
            self._counting(monkeypatch, counts, module, name, getattr(module, name))
        try:
            run()
        finally:
            monkeypatch.undo()
            self._clear_caches()
        return counts

    @pytest.mark.parametrize("op", OPS, ids=("kantorovich", "bspline"))
    def test_build_counts_independent_of_grid(self, monkeypatch, op):
        small = self._count_builds(
            monkeypatch, lambda: entropy_profile(op, [F(i, 8) for i in range(9)]))
        large = self._count_builds(
            monkeypatch, lambda: entropy_profile(op, [F(i, 64) for i in range(65)]))
        assert small == large
        assert small["bspline_density"] == 0 and small["integrate_product"] == 0
        if isinstance(op, KantorovichOp):
            # the variance is a closed form: the definition route never runs
            assert small["s_direct_poly"] == 1 and small.get("kantorovich_poly", 0) == 0

    @pytest.mark.parametrize("argv", (
        ["--op", "kantorovich", "--n", "12", "--k", "6"],
        ["--op", "bspline", "--n", "12", "--sigma", "quad:1:1/2"],
    ), ids=("kantorovich", "bspline"))
    def test_cli_entropy_builds_no_density(self, monkeypatch, capsys, argv):
        counts = self._count_builds(
            monkeypatch, lambda: cli.main(["entropy", *argv, "--grid", "0:1:9", "--json"]))
        assert counts["bspline_density"] == 0 and counts["integrate_product"] == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize("n, k", ((1, 1), (6, 3), (9, 4), (12, 2), (12, 11), (40, 3)))
    def test_one_overlap_integral_per_cell_distance(self, monkeypatch, n, k):
        # each overlap I_d is one value n M_2k(k + d); no cell is built
        counts = self._count_builds(monkeypatch, lambda: entropy.s_direct_poly(n, k))
        assert counts["cardinal_bspline"] == min(k, n - k + 1)
        assert counts["bspline_density"] == 0 and counts["integrate_product"] == 0


class TestOneLookupPerProfile:
    def test_out_of_range_point_fails_before_any_build(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("profile polynomials looked up before the grid was checked")

        monkeypatch.setattr(entropy, "_kantorovich_profile_polys", unexpected)
        with pytest.raises(DomainError, match="outside the operator domain"):
            entropy_profile(KantorovichOp(6, 3), [F(0), F(1, 2), F(1), F(9, 8)])

    def test_bspline_constants_looked_up_once(self, monkeypatch):
        counts = {}
        for name in ("c_constant", "unit_variance"):
            def counted(n, real=getattr(bspline, name), name=name):
                counts[name] = counts.get(name, 0) + 1
                return real(n)

            monkeypatch.setattr(bspline, name, counted)
        pts = entropy_profile(BSplineOp(4, bspline.QuadraticSigma(1, F(1, 2))), X9)
        assert len(pts) == len(X9) and counts == {"c_constant": 1, "unit_variance": 1}


WIDTHS = st.fractions(F(1, 16), 16, max_denominator=16)
SIGMA_SPECS = st.one_of(
    st.builds(bspline.ConstantSigma, WIDTHS),
    st.builds(bspline.QuadraticSigma, WIDTHS, st.fractions(0, 4, max_denominator=16)),
    st.integers(2, 5).flatmap(lambda size: st.builds(
        bspline.TableSigma,
        st.lists(st.fractions(-4, 4, max_denominator=8), min_size=size, max_size=size,
                 unique=True).map(lambda xs: tuple(sorted(xs))),
        st.lists(WIDTHS, min_size=size, max_size=size).map(tuple))),
)


def _pairwise_check(f_vals, g_vals):
    """The O(N^2) pairwise-product loop that the sort replaced, the reference:
    (passed, worst pair, worst product)."""
    worst, worst_pair = math.inf, (0, 1)
    for i in range(len(f_vals)):
        for j in range(i + 1, len(f_vals)):
            prod = (f_vals[i] - f_vals[j]) * (g_vals[i] - g_vals[j])
            if prod < worst:
                worst, worst_pair = prod, (i, j)
    return worst >= 0, worst_pair, worst


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _opposite(f_vals, g_vals, i, j) -> bool:
    """Whether f_i - f_j and g_i - g_j have strictly opposite signs, exactly."""
    return _sign(F(f_vals[i]) - F(f_vals[j])) * _sign(F(g_vals[i]) - F(g_vals[j])) < 0


_MAGNITUDES = st.floats(1e-300, 1e300)
#: zeros of both signs and magnitudes from 1e-300 to 1e300 of both signs
SYNC_FLOATS = st.one_of(st.sampled_from((0.0, -0.0)), _MAGNITUDES, _MAGNITUDES.map(lambda v: -v))


@st.composite
def sync_columns(draw):
    """Two equal-length float columns drawn from one small pool, so that
    values repeat within and across the columns."""
    pool = draw(st.lists(SYNC_FLOATS, min_size=1, max_size=6))
    n = draw(st.integers(2, 12))
    column = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    return draw(column), draw(column)


class TestRowsFromIntegers:
    """Each row float is one true division of integers: the same bits as
    ``float`` of the exact rationals that the rows were once rounded from."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 16), sigma=SIGMA_SPECS,
           xs=st.lists(st.fractions(-4, 4, max_denominator=64), min_size=1, max_size=8))
    def test_bspline_rows(self, n, sigma, xs):
        c, unit_var = bspline.c_constant(n), bspline.unit_variance(n)
        for x, pt in zip(xs, entropy_profile(BSplineOp(n, sigma), xs)):
            w = sigma.at(x)
            assert pt.x.hex() == float(x).hex()
            assert pt.squared_kernel_integral.hex() == float(c / w).hex()
            assert pt.variance.hex() == float(w * w * unit_var).hex()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), k=st.integers(1, 12),
           xs=st.lists(st.fractions(0, 1, max_denominator=10**6), min_size=1, max_size=8))
    def test_kantorovich_rows(self, n, k, xs):
        k = min(k, n)
        s_poly, var_poly = entropy._kantorovich_profile_polys(n, k)
        for x, pt in zip(xs, entropy_profile(KantorovichOp(n, k), xs)):
            assert pt.x.hex() == float(x).hex()
            assert pt.squared_kernel_integral.hex() == float(s_poly(x)).hex()
            assert pt.variance.hex() == float(var_poly(x)).hex()

    @pytest.mark.parametrize("x", (F(-1, 10**9), F(10**9 + 1, 10**9), F(-1), F(2)))
    def test_kantorovich_range_check_on_the_numerator(self, x):
        with pytest.raises(DomainError, match="outside the operator domain"):
            entropy_profile(KantorovichOp(4, 2), [F(1, 2), x])


#: c + d x^2 with d = c t, t >= -1/17: positive on [-4, 4], d < 0 too
QUADRATIC_WIDTHS = st.builds(lambda c, t: bspline.QuadraticSigma(c, c * t),
                             WIDTHS, st.one_of(st.integers(-16, -1).map(lambda i: F(i, 272)),
                                               st.fractions(0, 4, max_denominator=16)))


#: (operator, grid): Kantorovich with 1 <= k <= n <= 14 on [0, 1], B-spline
#: with a constant, quadratic (d < 0 too) or tabulated width on [-4, 4]
COLUMN_CASES = st.one_of(
    st.tuples(st.integers(1, 14).flatmap(lambda n: st.builds(KantorovichOp, st.just(n), st.integers(1, n))),
              grids(F(0), F(1), max_count=65, max_den=10**4)),
    st.tuples(st.builds(BSplineOp, st.integers(1, 12), st.one_of(SIGMA_SPECS, QUADRATIC_WIDTHS)),
              grids(F(-4), F(4), max_count=65, max_den=10**4)),
)


def _exact_row(op, x):
    """s and the variance at x as exact rationals, from the definitions:
    the Kantorovich squared-kernel polynomial and the closed-form variance,
    or c_n / sigma(x) and sigma(x)^2 / (3n)."""
    if isinstance(op, KantorovichOp):
        n, k = op.n, op.k
        return entropy.s_direct_poly(n, k)(x), ((n - k) * x * (1 - x) + F(k, 12)) / (n * n)
    w = op.sigma.at(x)
    return bspline.c_constant(op.n) / w, w * w / (3 * op.n)


class TestColumnsOnGrid:
    """The columns on the grid's integer form against the exact value at
    each point, rounded once, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=COLUMN_CASES)
    def test_columns_are_the_rounded_exact_values(self, case):
        op, grid = case
        xs = grid.fractions()
        want = []
        for x in xs:
            s, var = map(float, _exact_row(op, x))
            want.append((float(x), s, -math.log(s), 1.0 - s, var))
        columns = entropy.entropy_columns(op, [grid])
        assert [[v.hex() for v in row] for row in zip(*columns)] == [[v.hex() for v in row] for row in want]
        rows = [(p.x, p.squared_kernel_integral, p.renyi, p.tsallis, p.variance)
                for p in entropy_profile(op, xs)]
        assert [[v.hex() for v in row] for row in rows] == [[v.hex() for v in row] for row in want]

    @pytest.mark.parametrize("op, grid, error", (
        # sigma = 1 - x^2 at -1/2, -3/4, -1, -5/4, -3/2: zero at an inner point
        (BSplineOp(3, bspline.QuadraticSigma(1, -1)), Grid(-2, -1, 4, 5),
         (NonpositiveWidth, "sigma(-1) = 0 <= 0")),
        # 1, 7/8, ..., 0, -1/8: the last point is out of range
        (KantorovichOp(4, 2), Grid(8, -1, 8, 10),
         (DomainError, "x = -1/8 outside the operator domain [0, 1]")),
        (KantorovichOp(4, 0), Grid(0, 1, 4, 5),
         (UnsupportedK, "entropy profile needs k >= 1 (k = 0 has a discrete kernel)")),
        # sigma(0) = 10^200 overflows the variance before sigma(10^100) = 0
        (BSplineOp(3, bspline.QuadraticSigma(10**200, -1)), Grid(0, 10**100, 1, 3),
         (OverflowError, "integer division result too large for a float")),
        # sigma(0) = 10^-400 overflows c_n / sigma before sigma(1) < 0
        (BSplineOp(3, bspline.QuadraticSigma(F(1, 10**400), -1)), Grid(0, 1, 1, 2),
         (OverflowError, "integer division result too large for a float")),
        # sigma(10^308) = 0 comes before the point 2 10^308, past the float range
        (BSplineOp(3, bspline.QuadraticSigma(1, F(-1, 10**616))), Grid(0, 10**308, 1, 3),
         (NonpositiveWidth, f"sigma({10**308}) = 0 <= 0")),
    ), ids=("inner-zero-width", "outside-domain", "k-0", "variance-overflow-first", "s-overflow-first",
            "zero-width-before-x-overflow"))
    def test_errors_of_the_row_by_row_route(self, op, grid, error):
        # the first failing point decides, and within it the width comes first
        for call in (lambda: entropy.entropy_columns(op, [grid]), lambda: entropy_profile(op, grid.fractions())):
            with pytest.raises(error[0]) as exc:
                call()
            assert (type(exc.value), str(exc.value)) == error


class TestSynchronicity:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sync_columns())
    def test_sort_against_exact_signs_and_pairwise_loop(self, columns):
        f_vals, g_vals = columns
        rep = synchronicity_check(f_vals, g_vals)
        pairs = itertools.combinations(range(len(f_vals)), 2)
        assert rep.passed == (not any(_opposite(f_vals, g_vals, i, j) for i, j in pairs))
        if rep.passed:
            assert rep.worst_pair is None and rep.worst_product == 0.0
        else:
            i, j = rep.worst_pair
            assert i < j and _opposite(f_vals, g_vals, i, j)
            assert rep.worst_product == (f_vals[i] - f_vals[j]) * (g_vals[i] - g_vals[j])
        # the pairwise loop differs only where every opposite product underflows to 0
        passed, _, worst = _pairwise_check(f_vals, g_vals)
        assert passed == rep.passed or (passed and worst == 0)

    def test_underflowing_product_fails(self):
        # (0 - 1e-200)(1e-200 - 0) underflows to -0.0, which the pairwise loop passed
        assert _pairwise_check([0.0, 1e-200], [1e-200, 0.0]) == (True, (0, 1), -0.0)
        rep = synchronicity_check([0.0, 1e-200], [1e-200, 0.0])
        assert not rep.passed and rep.worst_pair == (0, 1)
        assert math.copysign(1.0, rep.worst_product) == -1.0 and rep.worst_product == 0.0

    def test_equal_f_values_impose_nothing(self):
        # +0.0 and -0.0 are one group, whatever their g values
        rep = synchronicity_check([-0.0, 0.0, 1.0, 1.0], [5.0, 3.0, 6.0, 5.0])
        assert rep.passed and rep.worst_pair is None and rep.worst_product == 0.0
        rep = synchronicity_check([-0.0, 0.0, 1.0, 1.0], [5.0, 3.0, 6.0, 4.0])
        # 4.0 at f = 1 is below 5.0 at f = -0.0
        assert not rep.passed and rep.worst_pair == (0, 3) and rep.worst_product == -1.0

    def test_identical_sequences_pass(self):
        rep = synchronicity_check([3.0, 1.0, 2.0], [3.0, 1.0, 2.0])
        assert rep.passed and rep.worst_product >= 0

    def test_antimonotone_control(self):
        rep = synchronicity_check([0.0, 1.0], [1.0, 0.0])
        assert not rep.passed
        assert rep.worst_product == -1.0
        assert rep.worst_pair == (0, 1)

    def test_length_guard(self):
        with pytest.raises(LengthMismatch):
            synchronicity_check([1.0], [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            synchronicity_check([1.0], [2.0])

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_value_rejected(self, bad):
        # a NaN product compares false with the running minimum, so an
        # all-NaN sequence used to pass with worst_product = inf
        finite = [1.0, 2.0, 3.0]
        for i in range(3):
            seq = finite[:i] + [bad] + finite[i + 1:]
            with pytest.raises(NonFinite):
                synchronicity_check(seq, finite)
            with pytest.raises(NonFinite):
                synchronicity_check(finite, seq)
        with pytest.raises(NonFinite):
            synchronicity_check([bad, bad], [1.0, 2.0])

    def test_quadratic_width_profile(self):
        xs = [F(-2) + F(4, 32) * i for i in range(33)]
        pts = entropy_profile(BSplineOp(2, bspline.QuadraticSigma(1, 1)), xs)
        variance = [p.variance for p in pts]
        renyi = [p.renyi for p in pts]
        assert synchronicity_check(variance, renyi).passed

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 16), sigma=SIGMA_SPECS,
           xs=st.lists(st.fractions(-4, 4, max_denominator=16), min_size=2, max_size=12))
    def test_bspline_profiles_are_synchronous(self, n, sigma, xs):
        # s = c_n / sigma(x) and v = sigma(x)^2 / (3n) move with sigma(x)
        # alone, so every pair of measures is synchronous by construction
        pts = entropy_profile(BSplineOp(n, sigma), xs)
        columns = {c: [getattr(p, c) for p in pts] for c in ("variance", "renyi", "tsallis")}
        for f, g in itertools.combinations(columns, 2):
            assert synchronicity_check(columns[f], columns[g]).passed

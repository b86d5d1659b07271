"""Entropies, variances, the Kantorovich representation and synchronicity."""

import math
from fractions import Fraction as F

import pytest

from heunops import bspline, entropy
from heunops.entropy import (
    BSplineOp,
    EntropyPoint,
    KantorovichOp,
    bernstein_basis,
    bernstein_poly,
    entropy_profile,
    kantorovich_apply,
    kantorovich_poly,
    s_nk,
    synchronicity_check,
)
from heunops.errors import (
    ConstraintViolated,
    DomainError,
    IndexOutOfRange,
    LengthMismatch,
    NonFinite,
    UnsupportedK,
)
from heunops.exactalg import E0, E1, E2, Poly, integrate_product

X9 = [F(i, 8) for i in range(9)]


class TestBernstein:
    def test_corner(self):
        for n in (1, 3, 6):
            assert bernstein_basis(n, 0, F(0)) == 1

    def test_partition_of_unity_poly(self):
        total = Poly()
        for j in range(4):
            total = total + bernstein_poly(3, j)
        assert total == Poly.constant(1)

    def test_direct_value(self):
        # oracle: 2 * (1/4) * (3/4)
        assert bernstein_basis(2, 1, F(1, 4)) == F(3, 8)

    def test_index_guard(self):
        with pytest.raises(IndexOutOfRange):
            bernstein_basis(2, 3, F(1, 2))
        with pytest.raises(IndexOutOfRange):
            bernstein_basis(2, -1, F(1, 2))


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


class TestSquaredKernel:
    def test_constant_family(self):
        # oracle: the n = k = 2 kernel is a single unit hat; its squared
        # integral is 4/3 independent of x
        hat = bspline.bspline_density([F(0), F(1, 2), F(1)])
        assert integrate_product(hat, hat) == F(4, 3)
        for x in X9:
            assert s_nk(2, 2, x) == F(4, 3)

    def test_center_value(self):
        assert s_nk(3, 2, F(1, 2)) == F(5, 4)

    def test_edge_value(self):
        # both the direct definition and the closed sum give 2 at x = 0
        assert s_nk(3, 2, F(0), "direct") == 2
        assert s_nk(3, 2, F(0), "sum-form") == 2

    @pytest.mark.parametrize("n", (2, 3, 5))
    def test_integral_form_through_s_nk(self, n):
        for x in X9:
            ref = s_nk(n, 2, x, "sum-form")
            assert abs(s_nk(n, 2, x, "integral-form") - float(ref)) <= 1e-12 * float(ref)

    def test_unsupported_k(self):
        with pytest.raises(UnsupportedK):
            s_nk(4, 1, F(1, 2), "sum-form")
        with pytest.raises(UnsupportedK):
            s_nk(4, 3, F(1, 2), "integral-form")

    @pytest.mark.parametrize("m", range(2, 9))
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
    cells = [bspline.bspline_density([F(j + i, n) for i in range(k + 1)]) for j in range(m + 1)]
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
            inst = bspline.kernel(n, sigma, x)
            s = integrate_product(inst.density, inst.density)
            m1 = inst.density.moment(1)
            var = inst.density.moment(2) - m1 * m1
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
                assert pt.squared_kernel_integral == float(s_nk(n, k, x, "direct"))
                assert pt.variance == float(var)


class TestNoPerPointRebuild:
    """Kernel data is built once per operator, whatever the grid size."""

    @staticmethod
    def _clear_caches():
        for fn in (entropy.s_direct_poly, entropy._kantorovich_profile_polys,
                   bspline.c_constant, bspline.unit_variance,
                   bspline._bspline_density_cached):
            fn.cache_clear()

    @staticmethod
    def _counting(monkeypatch, counts, module, name, fn):
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def _count_calls(self, monkeypatch, op, count):
        counts: dict = {}
        self._clear_caches()
        for module, name in ((entropy, "s_direct_poly"), (entropy, "kantorovich_poly"),
                             (entropy, "integrate_product"), (bspline, "integrate_product")):
            self._counting(monkeypatch, counts, module, name, getattr(module, name))
        try:
            entropy_profile(op, [F(i, count - 1) for i in range(count)])
        finally:
            monkeypatch.undo()
            self._clear_caches()
        return counts

    @pytest.mark.parametrize(
        "op",
        (KantorovichOp(6, 3), BSplineOp(4, bspline.QuadraticSigma(1, F(1, 2)))),
        ids=("kantorovich", "bspline"),
    )
    def test_build_counts_independent_of_grid(self, monkeypatch, op):
        small = self._count_calls(monkeypatch, op, 9)
        large = self._count_calls(monkeypatch, op, 65)
        assert small == large
        if isinstance(op, KantorovichOp):
            assert small["s_direct_poly"] == 1 and small["kantorovich_poly"] == 2
        else:
            assert small["integrate_product"] == 1

    @pytest.mark.parametrize("n, k", ((1, 1), (6, 3), (9, 4), (12, 2), (12, 11), (40, 3)))
    def test_one_overlap_integral_per_cell_distance(self, monkeypatch, n, k):
        counts: dict = {}
        self._clear_caches()
        self._counting(monkeypatch, counts, entropy, "integrate_product",
                       entropy.integrate_product)
        try:
            entropy.s_direct_poly(n, k)
        finally:
            monkeypatch.undo()
            self._clear_caches()
        assert counts["integrate_product"] == min(k, n - k + 1)


class TestSynchronicity:
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

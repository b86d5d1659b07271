"""Series evaluators, their exact polynomial forms, residual certificates
and the quadrature rules, each against an independent oracle."""

import hashlib
import itertools
import math
import os
import random
import re
import statistics
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heunops import specfun
from heunops.bspline import bspline_density
from heunops.errors import (
    DivergentSeries,
    DomainError,
    HeunopsError,
    IndexOutOfRange,
    InvalidC,
    InvalidGamma,
    NonFinite,
    NotExact,
)
from heunops.exactalg import Grid, Poly, check_point
from heunops.specfun import (
    ConfluentHeunParams,
    GaussParams,
    HeunParams,
    QuadratureRule,
    SeriesResult,
    confluent_heun,
    confluent_heun_coeffs,
    confluent_heun_deriv,
    confluent_heun_poly,
    f_poly,
    g_weight_sum,
    heun_coeffs,
    heun_local,
    heun_local_deriv,
    heun_ode_residual,
    heun_poly,
    hyp2f1,
    hyp2f1_pfaff,
    hyp2f1_poly,
    kernel_ratios,
    kernel_sum,
    kn_deriv_zero,
    kn_taylor_coeffs,
    legendre_p,
    legendre_poly,
    legendre_values,
    periodic_trapezoid,
    quadrature,
    szasz_K,
    szasz_K_values,
)

from test_exactalg import grids

F_PARAMS = lambda n: HeunParams(F(1, 2), -n, -2 * n, 1, 1, 1)


class TestHyp2F1:
    def test_value_at_zero(self):
        assert hyp2f1(3, -2, 5, 0).value == 1.0

    def test_terminating_linear(self):
        r = hyp2f1(-1, 2, 1, 0.3)
        assert r.terminated and r.tail_estimate == 0.0
        assert r.value == 1 - 2 * 0.3
        assert hyp2f1_poly(-1, 2, 1) == Poly.of(1, -2)

    @pytest.mark.parametrize("a, b, c", ((F(1, 2), F(3, 2), 2), (-10, F(1, 2), F(3, 2)), (0.3, 0.7, 1.1)))
    def test_parameter_set_route_matches_hyp2f1(self, a, b, c):
        params = GaussParams(a, b, c)
        for x in (-0.93, -0.5, 0.0, 0.25, F(1, 3), 0.9):
            assert specfun.series_values(params, Grid.point(F(x))) == [hyp2f1(a, b, c, x)]

    def test_log_closed_form(self):
        # oracle: -ln(1 - x)/x at x = 1/2 equals 2 ln 2
        r = hyp2f1(1, 1, 2, 0.5)
        assert abs(r.value - 2 * math.log(2)) < 1e-14

    @pytest.mark.parametrize("x", (-0.7, -0.2, 0.3, 0.8))
    def test_against_scipy(self, x):
        mine = hyp2f1(0.3, 0.7, 1.1, x).value
        ref = float(scipy.special.hyp2f1(0.3, 0.7, 1.1, x))
        assert abs(mine - ref) < 1e-12 * max(1.0, abs(ref))

    def test_divergent(self):
        with pytest.raises(DivergentSeries):
            hyp2f1(0.5, 0.5, 1, 1.2)
        # the message is the one of every non-terminating series family
        with pytest.raises(DivergentSeries,
                           match=r"^\|x\| >= 1\.0: outside the disk of the non-terminating Gauss series$"):
            hyp2f1(0.5, 0.5, 1, 1.0)

    def test_invalid_c(self):
        with pytest.raises(InvalidC):
            hyp2f1(-5, 2, -3, 0.2)  # c dies at k = 3 before termination at 5
        with pytest.raises(InvalidC):
            hyp2f1(0.5, 0.5, -2, 0.2)
        # c = -stop is fine: the zero denominator is never reached
        assert hyp2f1_poly(-2, 1, -2) is not None

    @pytest.mark.parametrize("x", (-3.0, -1.5))
    def test_pfaff_extends_domain(self, x):
        mine = hyp2f1_pfaff(0.5, 0.5, 1, x).value
        ref = float(scipy.special.hyp2f1(0.5, 0.5, 1, x))
        assert abs(mine - ref) < 1e-12

    def test_float_parameters_terminate_exactly(self):
        # a float sum of these cancels: -9.4e13 for a value of 0.252, and
        # 1.436e34 for 1.469e34 through the Pfaff map
        with mpmath.workdps(40):
            r = hyp2f1(-120.0, 1 / 3, 2.5, 0.95)
            assert r.terminated and r == hyp2f1(-120, F(1 / 3), F(5, 2), F(0.95))
            ref = mpmath.hyp2f1(-120, _mp(1 / 3), 2.5, _mp(0.95))
            assert abs(r.value - ref) <= 1e-13 * abs(ref)
            r = hyp2f1_pfaff(0.5, -60, 1.5, -3.0)
            assert r.terminated and r.value == hyp2f1_pfaff(F(1, 2), -60, F(3, 2), -3).value
            ref = mpmath.hyp2f1(0.5, -60, 1.5, -3)
            assert abs(r.value - ref) <= 1e-13 * abs(ref)

    def test_degree_above_max_degree_is_rejected(self):
        for a in (-300, -300.0):
            with pytest.raises(DivergentSeries, match="degree 300"):
                hyp2f1(a, F(1, 2), F(3, 2), F(1, 2))
        with pytest.raises(DivergentSeries, match="degree 300"):
            hyp2f1_poly(-300, F(1, 2), F(3, 2))
        assert hyp2f1_poly(-specfun.MAX_DEGREE, F(1, 2), F(3, 2)).degree == specfun.MAX_DEGREE

    def test_poly_rejects_float_parameters(self):
        # an equal rational set, already built, must not let a float set through
        assert hyp2f1_poly(-2, 1, 1) == Poly.of(1, -2, 1)
        with pytest.raises(TypeError):
            hyp2f1_poly(-2.0, 1, 1)

    def test_non_finite_parameters_rejected(self):
        for bad in ((math.nan, 1, 1), (1, math.inf, 1), (1, 1, -math.inf)):
            with pytest.raises(DomainError, match="not finite"):
                hyp2f1(*bad, 0.5)

    def test_pfaff_matches_raw_inside_disk(self):
        # x < 1/2 keeps the transformed argument x/(x-1) inside the disk too
        for x in (-0.4, 0.2, 0.45):
            raw = hyp2f1(0.3, 0.9, 1.2, x).value
            via = hyp2f1_pfaff(0.3, 0.9, 1.2, x).value
            assert abs(raw - via) < 1e-12


class TestLegendre:
    def test_p0(self):
        assert legendre_poly(0) == Poly.constant(1)
        assert legendre_p(0, F(3)) == 1

    @pytest.mark.parametrize("n", range(11))
    def test_normalization_at_one(self, n):
        assert legendre_p(n, F(1)) == 1

    def test_p3_value(self):
        # recurrence oracle: P_3 = (5x^3 - 3x)/2
        assert legendre_p(3, F(1, 2)) == F(-7, 16)
        assert legendre_poly(3) == Poly.of(0, F(-3, 2), 0, F(5, 2))

    @pytest.mark.parametrize("n", (2, 5, 8))
    def test_against_scipy(self, n):
        for x in (-0.8, 0.1, 0.9):
            assert abs(legendre_p(n, x) - float(scipy.special.eval_legendre(n, x))) < 1e-13

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(0, 60), st.floats(-3, 3))
    def test_float_point_rounds_exact_value(self, n, x):
        got = legendre_p(n, x)
        assert type(got) is float and got == float(legendre_p(n, F(x)))

    def test_float_point_past_the_float_range_overflows(self):
        with pytest.raises(OverflowError):
            legendre_p(1000, 3.0)

    def test_one_point_grid_takes_the_recurrence(self, monkeypatch):
        # regression: a one-point grid expanded P_n, about 4 s at n = 5000
        want = float(legendre_p(5000, F(1, 3)))
        monkeypatch.setattr(specfun, "legendre_poly", None)
        assert legendre_values(5000, Grid(2, 5, 6, 1)) == [want] == [-0.011267305111726311]

    def test_poly_built_without_recursion(self):
        # a fresh interpreter, so that no smaller degree is cached; the
        # polynomial is built in a loop, not by recursion over the degree
        code = ("import sys\n"
                "from fractions import Fraction\n"
                "from heunops.specfun import legendre_p, legendre_poly\n"
                "sys.setrecursionlimit(150)\n"
                "x = Fraction(1, 3)\n"
                "assert legendre_poly(200)(x) == legendre_p(200, x)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=False)
        assert proc.returncode == 0, proc.stderr


def _legendre_recurrence_oracle(top):
    """P_0, ..., P_top by the three-term recurrence over ``Fraction``-scaled
    polynomials (DLMF §18.9.1), the route the explicit sum of
    ``legendre_poly`` replaced."""
    x = Poly.monomial(1)
    p_prev, p = Poly(), Poly.constant(1)
    out = [p]
    for k in range(top):
        p_prev, p = p, (x * p).scale(F(2 * k + 1, k + 1)) - p_prev.scale(F(k, k + 1))
        out.append(p)
    return out


class TestLegendreExplicitSum:
    def test_matches_the_recurrence(self):
        oracle = _legendre_recurrence_oracle(300)
        for n in (*range(121), 200, 300):
            assert legendre_poly(n) == oracle[n], n


#: a terminating rational set, the float set equal to it, and the degree of its polynomial
_EQUAL_FLOAT_SETS = {
    "heun": (heun_poly, HeunParams(F(1, 2), -2, -4, 1, 1, 1), HeunParams(0.5, -2.0, -4.0, 1.0, 1.0, 1.0), 4),
    "confluent": (confluent_heun_poly, ConfluentHeunParams(0, 1, 0, F(1, 2), 4),
                  ConfluentHeunParams(0.0, 1.0, 0.0, 0.5, 4.0), 2),
    "gauss": (lambda g: hyp2f1_poly(g.a, g.b, g.c), GaussParams(-2, 1, 1), GaussParams(-2.0, 1, 1), 2),
}


class TestPolyFormsNeedRationalParameters:
    @pytest.mark.parametrize("family", _EQUAL_FLOAT_SETS)
    def test_float_set_raises_after_the_equal_rational_set(self, family):
        entry, exact, floats, degree = _EQUAL_FLOAT_SETS[family]
        assert exact == floats  # so the two share one series record
        poly = entry(exact)
        assert poly.degree == degree
        with pytest.raises(NotExact, match="exact polynomial form requires rational parameters"):
            entry(floats)
        assert entry(exact) == poly


class TestHeunLocal:
    def test_normalization(self):
        assert heun_local(HeunParams(F(1, 2), F(1, 3), 1, 2, 1, 1), 0.0).value == 1.0

    def test_f1_anchor(self):
        # independent oracle: the defining squared-weight sum at 1/4 is 5/8
        r = heun_local(F_PARAMS(1), F(1, 4))
        assert r.terminated and r.value == 0.625

    def test_integral_anchor(self):
        # phi-integral oracle: (1/pi) * integral (1 - 0.75 sin^2(phi/2))^(-1)
        # over [0, pi] equals 1/sqrt(1 - 0.75) = 2
        r = heun_local(HeunParams(F(1, 2), 1, 2, 1, 1, 1), 0.25)
        assert abs(r.value - 2.0) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_termination_of_weight_family(self, n):
        p = f_poly(n)
        r = heun_local(F_PARAMS(n), 0.37)
        assert r.terminated
        assert r.terms_used == 2 * n + 1
        assert r.tail_estimate == 0.0
        assert abs(r.value - p(0.37)) < 1e-13
        assert heun_poly(F_PARAMS(n)) == p

    @pytest.mark.parametrize("n", (16, 20, 65))
    def test_terminating_value_at_float_x(self, n):
        # oracle: the defining sum of positive squared weights, accurate in floats
        r = heun_local(F_PARAMS(n), 0.8)
        ref = kernel_sum("F", n, 0.8)
        assert r.terminated and abs(r.value - ref) <= 1e-14 * ref

    def test_derivative_series(self):
        got = heun_local_deriv(F_PARAMS(2), 0.3).value
        assert abs(got - f_poly(2).derivative()(0.3)) < 1e-12

    def test_divergence_outside_disk(self):
        with pytest.raises(DivergentSeries):
            heun_local(HeunParams(F(1, 2), 1, 2, 1, 1, 1), 0.6)

    def test_invalid_gamma(self):
        with pytest.raises(InvalidGamma):
            HeunParams(F(1, 2), 1, 1, 1, 0, 1)
        with pytest.raises(InvalidGamma):
            HeunParams(F(1, 2), 1, 1, 1, -2, 1)

    def test_singularity_location_guard(self):
        with pytest.raises(DomainError):
            HeunParams(0, 1, 1, 1, 1, 1)

    def test_non_finite_parameters_rejected(self):
        # NaN used to reach Fraction (bare ValueError), and an infinite
        # alpha spun through MAX_TERMS float terms before failing
        with pytest.raises(DomainError, match="q"):
            heun_local(HeunParams(0.5, math.nan, -2.0, 1.0, 1.0, 1.0), 0.1)
        with pytest.raises(DomainError, match="alpha"):
            HeunParams(0.5, 0.3, math.inf, 0.5, 1.0, 1.0)


class TestHeunResidual:
    def test_weight_polynomial_solves(self):
        assert heun_ode_residual(F_PARAMS(1), Poly.of(1, -2, 2)).is_zero()

    def test_perturbation_control(self):
        perturbed = Poly.of(1, -2, 2) + Poly.monomial(1)
        assert not heun_ode_residual(F_PARAMS(1), perturbed).is_zero()

    def test_linearity(self):
        hp = HeunParams(F(1, 2), F(2, 3), 1, 2, 1, 1)
        p, q = Poly.of(1, 2, 3), Poly.of(0, F(1, 5), 0, 1)
        lhs = heun_ode_residual(hp, p + q)
        assert lhs == heun_ode_residual(hp, p) + heun_ode_residual(hp, q)


class TestConfluentHeun:
    def test_normalization(self):
        assert confluent_heun(ConfluentHeunParams(1, 1, 0, F(1, 2), 2), 0.0).value == 1.0

    def test_constant_solution(self):
        cp = ConfluentHeunParams(1, 1, 1, 0, 0)
        for x in (0.2, 0.5, 0.9):
            r = confluent_heun(cp, x)
            assert r.terminated and r.value == 1.0

    def test_bessel_product_anchor(self):
        # oracle: exp(-2nx) I_0(2nx) at n = 1, x = 1/2
        ref = math.exp(-1) * float(scipy.special.iv(0, 1.0))
        got = confluent_heun(ConfluentHeunParams(1, 1, 0, F(1, 2), 2), 0.5).value
        assert abs(got - ref) < 1e-13
        assert abs(got - 0.4657596075936404) < 1e-15

    def test_divergence_guard(self):
        with pytest.raises(DivergentSeries):
            confluent_heun(ConfluentHeunParams(1, 1, 1, 1, 3), 1.5)

    def test_non_finite_parameters_rejected(self):
        # an infinite sigma used to overflow inside Fraction
        with pytest.raises(DomainError, match="sigma"):
            confluent_heun(ConfluentHeunParams(0.0, 1.0, 0.0, 0.5, math.inf), 0.1)
        with pytest.raises(DomainError, match="p"):
            ConfluentHeunParams(-math.inf, 1.0, 0.0, 0.5, 1.0)

    def test_residual_zero_for_constant(self):
        assert specfun._ode_residual(ConfluentHeunParams(1, 1, 1, 0, 0), Poly.constant(1)).is_zero()

    def test_residual_of_truncated_series_vanishes_below_order(self):
        cp = ConfluentHeunParams(2, 1, 0, F(1, 2), 4)
        u = Poly(tuple(confluent_heun_coeffs(cp, 20)))
        res = specfun._ode_residual(cp, u)
        assert all(res.coeff(k) == 0 for k in range(19))
        assert not res.is_zero()

    def test_residual_control(self):
        cp = ConfluentHeunParams(1, 2, 1, 1, 3)
        assert not specfun._ode_residual(cp, Poly.of(1, 1)).is_zero()


#: Largest drawn degree.  Every drawn parameter set can stop only below
#: degree 14 (alpha, beta >= -8; the p = 0 roots stay under 14), so a scan
#: of 3 * ORACLE_DEGREE exact coefficients sees every termination.
ORACLE_DEGREE = 8
small = st.fractions(min_value=-4, max_value=4, max_denominator=5)
gammas = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(7, 3)])
near_miss = st.sampled_from([F(0), F(0), F(1, 7)])


def _scan(coeffs):
    """``(coefficients, True)`` cut before the first two zeros in a row, from
    which a three-term recurrence stays 0, else ``(coeffs, False)``."""
    for k in range(1, len(coeffs)):
        if coeffs[k] == 0 and coeffs[k - 1] == 0:
            return coeffs[:k - 1], True
    return coeffs, False


def _scan_oracle(params):
    """Plain termination scan of the test-side ``Fraction`` recurrence, which
    ignores where the parameters let the series stop."""
    return _scan(_fresh_exact(params, 3 * ORACLE_DEGREE + 1))


@st.composite
def heun_cases(draw):
    n = draw(st.integers(0, ORACLE_DEGREE))
    a = draw(st.sampled_from([F(-2), F(-1, 2), F(1, 2), F(2), F(3)]))
    gamma = draw(gammas)
    alpha = draw(st.one_of(st.just(F(-n)), small))
    beta = draw(st.one_of(st.integers(-ORACLE_DEGREE, 0).map(F), small))
    family = draw(st.sampled_from(["2F1(x)", "2F1(x/a)", "degree 1", "free"]))
    if family == "2F1(x)":  # epsilon = 0, q = a alpha beta reduces Hl to 2F1(alpha, beta; gamma; x)
        delta, q = alpha + beta + 1 - gamma, a * alpha * beta
    elif family == "2F1(x/a)":  # delta = 0, q = alpha beta reduces Hl to 2F1(alpha, beta; gamma; x/a)
        delta, q = F(0), alpha * beta
    elif family == "degree 1":  # alpha = -1 and this delta make c_2 vanish, also when beta = 0
        alpha, q = F(-1), draw(small.filter(lambda v: v != 0))
        delta = -(q * q + (gamma * a + beta) * q + a * gamma * beta) / ((a - 1) * q)
    else:
        delta, q = draw(small), draw(small)
    return HeunParams(a, q + draw(near_miss), alpha, beta, gamma, delta)


@st.composite
def confluent_cases(draw):
    n = draw(st.integers(0, ORACLE_DEGREE))
    gamma, delta, alpha = draw(gammas), draw(small), draw(st.one_of(st.just(F(-n)), small))
    family = draw(st.sampled_from(["p=0", "degree 1", "free"]))
    if family == "p=0":  # two-term recurrence, polynomial of degree n
        p, sigma = F(0), n * (n - 1 + gamma + delta)
    elif family == "degree 1":  # alpha = -1 and this p make c_2 vanish
        sigma = draw(small.filter(lambda s: s != gamma))
        alpha, p = F(-1), sigma * (gamma + delta - sigma) / (4 * (sigma - gamma))
    else:
        p, sigma = draw(small), draw(st.one_of(st.just(F(0)), small))
    return ConfluentHeunParams(p, gamma, delta, alpha, sigma + draw(near_miss))


@st.composite
def gauss_cases(draw):
    a = draw(st.one_of(st.integers(-ORACLE_DEGREE, 0).map(F), small))
    b = draw(st.one_of(st.integers(-ORACLE_DEGREE, 0).map(F), small))
    stops = [-v for v in (a, b) if v <= 0 and v.denominator == 1]
    # c = -stop and c = -stop - 1 are legal: the zero denominator comes after the stop
    cs = [-min(stops), -min(stops) - 1] if stops else []
    return GaussParams(a, b, draw(st.sampled_from([*cs, *cs, F(1, 2), F(1), F(3, 2), F(7, 3)])))


def _poch(v, k):
    return math.prod((v + i for i in range(k)), start=F(1))


class TestTermination:
    def test_confluent_degree_above_old_scan(self):
        # p = 0: N(N - 1 + gamma + delta) = sigma at N = 150
        cp = ConfluentHeunParams(0, 1, 0, F(1, 2), 22500)
        poly = confluent_heun_poly(cp)
        r = confluent_heun(cp, 2)
        assert poly.degree == 150
        assert r.terminated and r.terms_used == 151
        assert r.value == float(poly(2))

    def test_heun_degree_above_old_scan(self):
        r = heun_local(F_PARAMS(65), 0.8)
        assert r.terminated and r.terms_used == 131

    def test_max_degree(self):
        n = specfun.MAX_DEGREE // 2
        poly = heun_poly(F_PARAMS(n))
        assert poly.degree == 2 * n and poly(F(1, 4)) == kernel_sum("F", n, F(1, 4))
        with pytest.raises(DivergentSeries, match="degree 300"):
            heun_poly(F_PARAMS(150))

    @settings(max_examples=200, deadline=None)
    @given(heun_cases())
    def test_heun_stop_degree_matches_scan(self, hp):
        poly = specfun._series(hp).poly
        ref, ref_terminated = _scan_oracle(hp)
        assert (poly is not None) == ref_terminated
        if ref_terminated:
            assert list(poly.coeffs) == ref

    @settings(max_examples=200, deadline=None)
    @given(confluent_cases())
    def test_confluent_stop_degree_matches_scan(self, cp):
        poly = specfun._series(cp).poly
        ref, ref_terminated = _scan_oracle(cp)
        assert (poly is not None) == ref_terminated
        if ref_terminated:
            assert list(poly.coeffs) == ref

    @settings(max_examples=200, deadline=None)
    @given(gauss_cases())
    def test_gauss_stop_degree_matches_scan(self, gp):
        poly = specfun._series(gp).poly
        ref, ref_terminated = _scan_oracle(gp)
        assert (poly is not None) == ref_terminated
        if ref_terminated:
            assert list(poly.coeffs) == ref
        # the closed form (a)_k (b)_k / ((c)_k k!) up to the stop
        assert ref == [_poch(gp.a, k) * _poch(gp.b, k) / (_poch(gp.c, k) * math.factorial(k))
                       for k in range(len(ref))]

    def test_stop_above_max_degree_is_rejected(self):
        # the float sum of these cancels catastrophically: 819.17 against
        # kernel_sum("F", 130, 0.1) = 0.0827, and -1.6e153
        with pytest.raises(DivergentSeries, match="degree 260"):
            heun_local(F_PARAMS(130), 0.1)
        with pytest.raises(DivergentSeries, match="degree 300"):
            confluent_heun(ConfluentHeunParams(0, 1, 0, F(1, 2), 90000), F(1, 2))

    def test_p0_series_stops_at_the_first_root(self):
        # p = 0 and N^2 - 700 N + 120000 = (N - 300)(N - 400): the two-term
        # series can stop only at the first root, so the message names 300
        with pytest.raises(DivergentSeries, match="degree 300,"):
            confluent_heun(ConfluentHeunParams(0, 1, -700, F(1, 2), -120000), F(1, 2))
        # (N - 2)(N - 300): a quadratic
        assert confluent_heun_poly(ConfluentHeunParams(0, 1, -302, F(1, 2), -600))(F(1, 2)) == F(23027, 2)

    def test_float_parameters_terminate_exactly(self):
        # 0.5 and the integers are exact binary floats, so the exact path
        # must reproduce the rational-parameter values bit for bit
        r = heun_local(HeunParams(0.5, -20.0, -40.0, 1.0, 1.0, 1.0), 0.4)
        ref = kernel_sum("F", 20, 0.4)
        assert r.terminated and abs(r.value - ref) <= 1e-14 * ref
        assert r == heun_local(F_PARAMS(20), 0.4)
        r = confluent_heun(ConfluentHeunParams(0.0, 1.0, 0.0, 0.5, 64.0), 0.9)
        assert r.terminated and r == confluent_heun(ConfluentHeunParams(0, 1, 0, F(1, 2), 64), 0.9)


def _nonpositive_integer(v):
    v = F(v)
    return v <= 0 and v.denominator == 1


def _heun_stop_degree(params):
    """The largest N with (N + alpha)(N + beta) = 0, as c_{N+2} =
    -(N+alpha)(N+beta) c_N / (...) once c_{N+1} = 0.

    This rule and the next two are the hand-written stop rules that
    termination read off the recurrence replaced; they are its oracles."""
    stops = [int(-v) for v in (params.alpha, params.beta) if _nonpositive_integer(v)]
    return max(stops) if stops else None


def _p0_roots(params):
    """Non-negative integer roots of N^2 + (gamma+delta-1)N - sigma."""
    b = F(params.gamma) + F(params.delta) - 1
    disc = b * b + 4 * F(params.sigma)
    if disc < 0:
        return []
    num, den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return []
    root = F(num, den)
    return [int(r) for r in ((-b + root) / 2, (-b - root) / 2) if r >= 0 and r.denominator == 1]


def _confluent_stop_degree(params):
    """alpha = -N for p != 0; for p = 0 the largest root of :func:`_p0_roots`."""
    if params.p != 0:
        return int(-params.alpha) if _nonpositive_integer(params.alpha) else None
    return max(_p0_roots(params), default=None)


def _gauss_stop_degree(params):
    """The first N with (N+a)(N+b) = 0."""
    stops = [int(-v) for v in (params.a, params.b) if _nonpositive_integer(v)]
    return min(stops) if stops else None


_STOP_RULES = {HeunParams: ("local Heun", _heun_stop_degree),
               ConfluentHeunParams: ("confluent Heun", _confluent_stop_degree),
               GaussParams: ("Gauss", _gauss_stop_degree)}


def _above_max_degree(name, stop):
    return f"{name} series can stop only at degree {stop}, above MAX_DEGREE = {specfun.MAX_DEGREE}"


def _rule_poly(params):
    """The polynomial form as the stop rules decided it: the test-side
    recurrence scanned through c_{N+2} for the rule's N."""
    name, rule = _STOP_RULES[type(params)]
    stop = rule(params)
    if stop is None:
        return None
    coeffs, terminated = _scan(_fresh_exact(params, min(stop, specfun.MAX_DEGREE) + 3))
    if terminated:
        return Poly(tuple(coeffs))
    if stop > specfun.MAX_DEGREE:
        raise DivergentSeries(_above_max_degree(name, stop))
    return None


#: a root at or below MAX_DEGREE, or one above it
_root = st.one_of(st.integers(0, 12), st.integers(250, 300))


@st.composite
def p0_two_root_cases(draw):
    """p = 0 with N(N - 1 + gamma + delta) = sigma at two non-negative integers."""
    r, s = sorted((draw(_root), draw(_root)))
    gamma = draw(gammas)
    return ConfluentHeunParams(F(0), gamma, 1 - r - s - gamma, draw(small), F(-r * s))


@st.composite
def gauss_two_stop_cases(draw):
    """a and b both non-positive integers."""
    a, b = F(-draw(_root)), F(-draw(_root))
    stop = min(-a, -b)
    return GaussParams(a, b, draw(st.sampled_from([-stop, -stop - 1, F(1, 2), F(1), F(7, 3)])))


@st.composite
def integer_quadratics(draw):
    """Integer polynomials a2 k^2 + a1 k + a0 other than 0: random ones, and
    products scale (m k - r)(n k - s), which are linear for m = 0, lead
    negatively for scale < 0 and have a double root for m = n and r = s."""
    if draw(st.booleans()):
        coeffs = tuple(draw(st.integers(-30, 30)) for _ in range(3))
    else:
        scale = draw(st.integers(-3, 3).filter(bool))
        m, n = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        r = draw(st.integers(-6, 12))
        s = draw(st.one_of(st.just(r), st.integers(-6, 12)))
        coeffs = scale * m * n, -scale * (m * s + n * r), scale * r * s
    assume(any(coeffs))
    return coeffs


class TestDerivedStopRule:
    """Termination read off (A, B, C) against the stop rules it replaced."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.one_of(heun_cases(), confluent_cases(), gauss_cases(), p0_two_root_cases(),
                     gauss_two_stop_cases()), st.booleans())
    def test_same_polynomial_or_error_as_the_stop_rules(self, params, floats):
        if floats:
            params = _as_floats(params)
        want = _outcome(_rule_poly, params)
        if isinstance(params, ConfluentHeunParams) and params.p == 0 and _p0_roots(params):
            first = min(_p0_roots(params))
            if first > specfun.MAX_DEGREE:  # both roots above: the two-term series stops at the first
                want = DivergentSeries, _above_max_degree("confluent Heun", first)
        assert _outcome(lambda: specfun._Series(params).poly) == want

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(integer_quadratics())
    def test_integer_roots_match_a_scan(self, coeffs):
        a2, a1, a0 = coeffs
        # a non-negative root k is at most |a1| + |a0|
        scan = {k for k in range(abs(a1) + abs(a0) + 2) if (a2 * k + a1) * k + a0 == 0}
        assert specfun._integer_roots(a2, a1, a0) == scan

    @pytest.mark.parametrize("coeffs, roots", (
        ((1, -6, 9), {3}),  # double root
        ((-1, 7, -10), {2, 5}),  # negative leading coefficient
        ((0, 2, -6), {3}), ((0, -2, 6), {3}), ((0, 2, -5), set()), ((0, 0, 7), set()),
        ((1, 0, 0), {0}), ((1, 3, 2), set()), ((2, -1, -1), {1}), ((1, 0, 1), set()),
    ))
    def test_integer_roots_examples(self, coeffs, roots):
        assert specfun._integer_roots(*coeffs) == roots


def _mp(v) -> mpmath.mpf:
    v = F(v)
    return mpmath.mpf(v.numerator) / v.denominator


def _ode_value(coeffs, rhs, x) -> float:
    """Integrate y'' = rhs(t, y, y') with mpmath.odefun from t0 = 1/64 to x.

    The origin is a singular point of the equation, so the start values
    at t0 come from 40 exact series coefficients; beyond t0 only the ODE
    is used.
    """
    with mpmath.workdps(25):
        t0 = mpmath.mpf(1) / 64
        cs = [_mp(c) for c in coeffs]
        y = sum(c * t0**k for k, c in enumerate(cs))
        dy = sum(k * c * t0 ** (k - 1) for k, c in enumerate(cs) if k)
        sol = mpmath.odefun(lambda t, w: [w[1], rhs(t, w[0], w[1])], t0, [y, dy])
        return float(sol(_mp(x))[0])


class TestExactEvaluation:
    """Terminating series are built once and evaluated by ``Poly.rounded``."""

    def test_value_and_derivative_share_one_build(self, monkeypatch):
        calls = []
        real = specfun._exact_stream

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(specfun, "_exact_stream", counting)
        specfun._series.cache_clear()
        hp = F_PARAMS(12)
        for x in (0.1, F(1, 3), 0.9):
            assert heun_local(hp, x).terminated and heun_local_deriv(hp, x).terminated
        assert len(calls) == 1  # one exact stream for the record
        assert heun_local_deriv(hp, F(1, 3)).value == float(heun_poly(hp).derivative()(F(1, 3)))


class TestOdeOracle:
    """Non-terminating float series against an ODE solution by mpmath."""

    @pytest.mark.parametrize("hp, x", [
        (HeunParams(F(1, 2), F(1, 3), 1, 2, 1, 1), F(9, 20)),
        (HeunParams(2, F(-1, 2), F(1, 2), F(3, 2), F(3, 2), F(1, 2)), F(1, 2)),
    ])
    def test_heun_local(self, hp, x):
        a, q, al, be, ga, de = (_mp(v) for v in (hp.a, hp.q, hp.alpha, hp.beta, hp.gamma, hp.delta))
        eps = al + be + 1 - ga - de

        def rhs(t, y, dy):
            return -(ga / t + de / (t - 1) + eps / (t - a)) * dy - (al * be * t - q) / (t * (t - 1) * (t - a)) * y

        r = heun_local(hp, x)
        ref = _ode_value(heun_coeffs(hp, 40), rhs, x)
        assert not r.terminated and abs(r.value - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("cp, x", [
        (ConfluentHeunParams(F(1, 2), F(3, 2), F(1, 3), F(1, 4), F(2, 5)), F(1, 2)),
        (ConfluentHeunParams(-1, 2, 1, F(3, 2), -1), F(2, 5)),
    ])
    def test_confluent_heun(self, cp, x):
        p, ga, de, al, sg = (_mp(v) for v in (cp.p, cp.gamma, cp.delta, cp.alpha, cp.sigma))

        def rhs(t, u, du):
            return -(4 * p + ga / t + de / (t - 1)) * du - (4 * p * al * t - sg) / (t * (t - 1)) * u

        r = confluent_heun(cp, x)
        ref = _ode_value(confluent_heun_coeffs(cp, 40), rhs, x)
        assert not r.terminated and abs(r.value - ref) <= 1e-12 * abs(ref)


class TestKernelSums:
    def test_f_exact_poly(self):
        # direct expansion oracle: (1-x)^2 + x^2
        assert f_poly(1) == Poly.of(1, -2, 2)
        assert kernel_sum("F", 1, F(1, 4)) == F(5, 8)

    @pytest.mark.parametrize("n", range(6))
    def test_u_at_zero(self, n):
        assert kernel_sum("U", n, F(0)) == 1

    def test_u_matches_f_composition(self):
        # the x/(x+1) substitution identity, here just as a numeric cross-check
        for n in (1, 2, 3):
            x = F(2, 5)
            assert kernel_sum("U", n, x) == f_poly(n)(x / (x + 1))

    def test_j_geometric_oracle(self):
        # sum x^(2k) (1-x)^2 = (1-x)/(1+x); at 1/2 this is 1/3
        assert abs(kernel_sum("J", 0, 0.5) - 1 / 3) < 1e-14

    def test_g_geometric_oracle(self):
        # n = 1 telescopes to 1/(1+2x)
        assert abs(kernel_sum("G", 1, 0.25) - 2 / 3) < 1e-14

    def test_g_domain(self):
        with pytest.raises(DomainError):
            kernel_sum("G", 2, -0.1)

    def test_j_divergence(self):
        with pytest.raises(DivergentSeries):
            kernel_sum("J", 1, 1.0)

    def test_g_order_zero(self):
        # only the k = 0 term of the series survives
        for x in (0.0, 0.5, 3.0):
            assert kernel_sum("G", 0, x) == 1.0

    # regression: the power form xf**k (1+xf)**(-n-k) gave inf, 0, values
    # off by 74 orders of magnitude and a bare OverflowError from x ~ 10 on;
    # the weight sum was within 1.1e-13 and raised from n x ~ 5e4 on
    @pytest.mark.parametrize("n", (0, 1, 3, 10, 20, 40, 100))
    def test_g_matches_hypergeometric_oracle(self, n):
        # three points a decade from 1e-4 to 1e6, each the correctly rounded value
        for x in (10 ** (i / 3) for i in range(-12, 19)):
            ref = _g_reference(n, x)
            assert abs(kernel_sum("G", n, x) - ref) <= 1e-15 * ref, (n, x)

    # regression: "did not converge within 100000 terms" for the first two,
    # "first weight 0.0" for the last
    @pytest.mark.parametrize("n, x", ((100, 700.0), (20, 1e4), (300, 1e4)))
    def test_g_past_the_weight_sum_limits(self, n, x):
        ref = _g_reference(n, x)
        assert abs(kernel_sum("G", n, x) - ref) <= 1e-15 * ref

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.fractions(0, max_denominator=10**9) | st.integers(0, 10**6))
    def test_g_is_the_closed_form(self, n, x):
        # (3.4): G_n(x) = F_(n-1)(-x)/(1+2x)^(2n-1), exactly
        x = F(x)
        got = kernel_sum("G", n, x)
        assert type(got) is F and got == f_poly(n - 1)(-x) / (1 + 2 * x) ** (2 * n - 1)

    def test_g_digest(self):
        # n <= 6 at 199 points from 1e-3 to ~1e3, recorded from the closed
        # form (3.4) over Fractions, each value rounded once
        h = hashlib.sha256()
        for n in range(7):
            for x in (10 ** (i / 33 - 3) for i in range(199)):
                h.update(f"G {n} None {x!r} {kernel_sum('G', n, x).hex()}\n".encode())
        assert h.hexdigest() == "74e9dea887e041edb41de3eb1f19d1938b8d94c90073851e626e841ffca6ab74"

    def test_g_skips_leading_squares_that_underflow(self):
        # the first weights 101^-100 ~ 1e-200 are normal floats, their squares 0
        assert (1 + 100.0) ** -100 > 0 and ((1 + 100.0) ** -100) ** 2 == 0
        for g in (kernel_sum("G", 100, 100.0), g_weight_sum(100, 100.0)):
            assert abs(g - 2.8175294345940e-4) <= 1e-12 * 2.8175294345940e-4

    # the limits of the defining sum, the route of identity (3.4) that is not its closed form
    def test_g_first_weight_underflow(self):
        # (1 + 1e4)^-300 is 0.0: no sum to start from
        with pytest.raises(DomainError, match="first weight"):
            g_weight_sum(300, 1e4)

    def test_g_peak_past_max_terms(self):
        # the weights peak near k = n x = 2e5, past MAX_TERMS
        with pytest.raises(DivergentSeries):
            g_weight_sum(20, 1e4)

    def test_g_weight_sum_domain(self):
        with pytest.raises(DomainError):
            g_weight_sum(2, -0.1)
        with pytest.raises(IndexOutOfRange):
            g_weight_sum(-1, 0.5)
        with pytest.raises(NonFinite):
            g_weight_sum(2, math.inf)

    @pytest.mark.parametrize("x", (F(-1), -1, -1.0))
    def test_u_pole(self, x):
        with pytest.raises(DomainError, match="x = -1"):
            kernel_sum("U", 2, x)

    # regression: J was a float series even at rational x, 5.8e-13 off at
    # 0.999, and raised DivergentSeries at 9999/10000
    @pytest.mark.parametrize("n", (0, 1, 3, 8, 40))
    @pytest.mark.parametrize("x", (F(1, 3), F(-9, 10), F(999, 1000), F(9999, 10000), 0.3, -0.75, 0.999))
    def test_j_matches_hypergeometric_oracle(self, n, x):
        # the defining (1-x)^(2n+2) 2F1(n+1, n+1; 1; x^2), not the Euler relation
        with mpmath.workdps(50):
            xm = mpmath.mpf(x.numerator) / x.denominator if isinstance(x, F) else mpmath.mpf(x)
            ref = (1 - xm) ** (2 * n + 2) * mpmath.hyp2f1(n + 1, n + 1, 1, xm * xm)
            got = kernel_sum("J", n, x)
            if isinstance(x, F):
                assert type(got) is F
                assert abs(mpmath.mpf(got.numerator) / got.denominator - ref) <= mpmath.mpf(10) ** -45 * ref
            else:
                assert type(got) is float and got == float(ref)


def _j_reference(n, x):
    """J_n(x) = (1-x)^(2n+2) 2F1(n+1, n+1; 1; x^2) at the rational x, by mpmath
    at 50 digits: the defining series, not the Euler relation."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x.numerator) / x.denominator
        return (1 - xm) ** (2 * n + 2) * mpmath.hyp2f1(n + 1, n + 1, 1, xm * xm)


def _g_closed_form(n, x):
    """The closed form (3.4), G_n(x) = F_(n-1)(-x)/(1+2x)^(2n-1) with G_0 = 1,
    from the polynomial ``f_poly``."""
    return f_poly(n - 1)(-x) / (1 + 2 * x) ** (2 * n - 1) if n else F(1)


def _g_reference(n, x):
    """G_n(x) = (1-p)^(2n) 2F1(n, n; 1; p^2), p = x/(1+x), by mpmath at 50 digits."""
    with mpmath.workdps(50):
        p = mpmath.mpf(x) / (1 + mpmath.mpf(x))
        return (1 - p) ** (2 * n) * mpmath.hyp2f1(n, n, 1, p * p)


def _legendre_fraction(n, x):
    """The Fraction recurrence (DLMF §18.9.1), the reference for the integer route of ``legendre_p``."""
    p_prev, p = F(0), F(1)
    for k in range(n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


def _kernel_sum_fraction(kind, n, x):
    """The defining Fraction sums of F and U, the reference for their integer routes."""
    if kind == "F":
        return sum((math.comb(n, k) ** 2 * x ** (2 * k) * (1 - x) ** (2 * (n - k)) for k in range(n + 1)), F(0))
    return sum((math.comb(n, k) ** 2 * x ** (2 * k) for k in range(n + 1)), F(0)) / (1 + x) ** (2 * n)


#: rational points: integers, negatives and large denominators
_RATIONAL_POINTS = st.one_of(st.integers(-40, 40), st.fractions(max_denominator=10**12),
                             st.fractions(-3, 3, max_denominator=10**15))


class TestIntegerPointValues:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 40), _RATIONAL_POINTS)
    def test_legendre_matches_fraction_routes(self, n, x):
        got = legendre_p(n, x)
        assert type(got) is F
        assert got == _legendre_fraction(n, x) == legendre_poly(n)(x)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from("FU"), st.integers(0, 14), _RATIONAL_POINTS)
    def test_kernel_sums_match_definition(self, kind, n, x):
        if kind == "U" and x == -1:
            return
        got = kernel_sum(kind, n, x)
        assert type(got) is F
        assert got == _kernel_sum_fraction(kind, n, x)

    # regression: the float loops of F and U were up to ~100 ulps off and
    # the float J series more
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from("FUJG"), st.integers(0, 60), st.floats(-0.999, 0.999))
    def test_float_point_rounds_exact_value(self, kind, n, x):
        if kind == "G":  # onto [0, 999], G's domain
            x = abs(x) / (1 - abs(x))
        try:
            want = float(kernel_sum(kind, n, F(x)))
        except OverflowError:  # U near -1: the exact value is past the float range
            with pytest.raises(OverflowError):
                kernel_sum(kind, n, x)
            return
        got = kernel_sum(kind, n, x)
        assert type(got) is float and got == want

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from("FUJG"), st.integers(0, 40), grids(F(-99, 100), F(99, 100)), grids(0, 99))
    def test_grid_rounds_exact_value(self, kind, n, grid, g_grid):
        # the exact and the float rows of eval, a Fraction and one division
        # of each ratio, against oracles that do not read the table
        if kind == "G":  # G's domain
            grid = g_grid
        ratios = kernel_ratios(kind, n, grid)
        assert len(ratios) == grid.count
        for (a, b), x in zip(ratios, grid.fractions()):
            assert type(a) is int and type(b) is int
            if kind == "J":
                with mpmath.workdps(50):
                    want = _j_reference(n, x)
                    assert abs(mpmath.mpf(a) / b - want) <= mpmath.mpf(10) ** -45 * want
            else:
                want = _kernel_sum_fraction(kind, n, x) if kind in "FU" else _g_closed_form(n, x)
                assert F(a, b) == want
            assert a / b == float(want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 60), grids(-2, 2))
    def test_legendre_grid_rounds_exact_value(self, n, grid):
        assert legendre_values(n, grid) == [float(legendre_p(n, x)) for x in grid.fractions()]


def _first_failure(single, grid):
    """The class and message of the error that ``single`` raises at the
    first point of ``grid`` where it raises one."""
    for x in grid.fractions():
        try:
            single(x)
        except (HeunopsError, OverflowError) as exc:
            return type(exc), str(exc)
    raise AssertionError(f"no point of {grid} fails")


_DISK_HEUN = HeunParams(2, F(1, 2), F(1, 2), F(3, 2), 1, 1)
_DISK_CONFLUENT = ConfluentHeunParams(1, 2, 0, F(3, 2), 6)
_ABOVE_MAX_DEGREE = GaussParams(-300, -400, 1)

_J_DIVERGES = (DivergentSeries, "J series requires |x| < 1")

#: a table function, its single-point route or the (class, message) that it
#: raises, and a grid on which it fails at an inner point, after points where
#: it has a value
_FAILING_GRIDS = {
    "J-at-1": (lambda g: kernel_ratios("J", 3, g), _J_DIVERGES, Grid(0, 1, 2, 4)),
    "J-at-minus-3/2": (lambda g: kernel_ratios("J", 3, g), _J_DIVERGES, Grid(1, -2, 2, 3)),
    "U-at-minus-1": (lambda g: kernel_ratios("U", 2, g), (DomainError, "U is undefined at x = -1"),
                     Grid(0, -2, 4, 3)),
    "G-below-0": (lambda g: kernel_ratios("G", 4, g), (DomainError, "G is evaluated on x >= 0 only"),
                  Grid(2, -1, 2, 5)),
    "hl-past-radius": (lambda g: specfun.series_values(_DISK_HEUN, g),
                       lambda x: heun_local(_DISK_HEUN, x), Grid(-1, 1, 2, 5)),
    "hc-past-radius": (lambda g: specfun.series_values(_DISK_CONFLUENT, g),
                       lambda x: confluent_heun(_DISK_CONFLUENT, x), Grid(3, -2, 4, 5)),
    "2f1-above-MAX_DEGREE": (lambda g: specfun.series_values(_ABOVE_MAX_DEGREE, g),
                             lambda x: _gauss(_ABOVE_MAX_DEGREE, x), Grid(0, 1, 2, 2)),
    "legendre-past-float-range": (lambda g: legendre_values(1000, g),
                                  lambda x: float(legendre_p(1000, x)), Grid(1, 1, 1, 3)),
}


@pytest.mark.parametrize("name", _FAILING_GRIDS)
def test_table_raises_as_its_first_failing_point(name):
    table, single, grid = _FAILING_GRIDS[name]
    kind, message = single if isinstance(single, tuple) else _first_failure(single, grid)
    with pytest.raises(kind) as exc:
        table(grid)
    assert type(exc.value) is kind and str(exc.value) == message


@st.composite
def k_tables(draw):
    """``(n, j, grid)``: n <= 40, 0 <= j <= 16 and a grid of points x >= 0
    with n x <= 708, subnormal points on a denominator of 2^1074."""
    n, j = draw(st.integers(0, 40)), draw(st.integers(0, 16))
    grid = draw(st.one_of(grids(0, F(708, max(n, 1)), max_count=8, max_den=10**6),
                          st.builds(Grid, st.integers(0, 3), st.integers(0, 5), st.just(2**1074),
                                    st.integers(1, 6))))
    return n, j, grid


def _szasz_K_per_point(n, j, x):
    """K^(j) at one point as it was summed before K had a table: its own
    checks and its own Poisson pass, a copy kept as the bit-for-bit
    reference of szasz_K_values."""
    if n < 0:
        raise IndexOutOfRange("family index must be non-negative")
    if j < 0:
        raise IndexOutOfRange("derivative order must be non-negative")
    if j > 16:
        raise DomainError("derivative ladder supported for j <= 16")
    check_point(x)
    if x < 0:
        raise DomainError("K is evaluated on x >= 0 only")
    xf = float(x)
    if xf == 0.0:
        return float(kn_deriv_zero(n, j))
    if n * xf > 708:
        raise DomainError(f"K needs n*x <= 708, where exp(-n*x) is a normal float; got {n * xf}")
    w, c, m, b = math.exp(-n * xf), n * xf, 1, 0
    s0 = s1 = w_prev = 0.0
    small = 0
    for k in range(specfun.MAX_TERMS):
        sq = w * w
        s0 += sq
        if j >= 1:
            s1 += 2 * n * w * (w_prev - w)
            w_prev = w
        if sq <= specfun.SERIES_TOL * s0:
            if s0:
                small += 1
                if small == 3:
                    break
        else:
            small = 0
        w = w * (c * (m + b * k)) / (k + 1)
    else:
        raise DivergentSeries(f"squared-weight sum did not converge within {specfun.MAX_TERMS} terms")
    if j == 0:
        return s0
    lower, upper = s0, s1
    for m in range(2, j + 1):
        lower, upper = upper, -((4 * n * xf + m - 1) * upper + 2 * n * (2 * m - 3) * lower) / xf
    return upper


def _k_table_per_point(n, j, grid):
    """An ``eval K`` table as it was built, one point at a time, a negative
    point passed exact so that one that rounds to -0.0 is rejected too."""
    d = grid.den
    return [_szasz_K_per_point(n, j, u / d if u >= 0 else F(u, d)) for u in grid.numerators()]


class TestSzaszK:
    def test_value_at_zero(self):
        # the closed form at x = 0 holds for any n, past the n x bound too
        for n in (1, 2, 5, 1000):
            assert szasz_K(n, 0, 0.0) == 1.0

    def test_bessel_product_oracle(self):
        for n in (1, 2, 3):
            for x in (0.25, 1.0):
                ref = math.exp(-2 * n * x) * float(scipy.special.iv(0, 2 * n * x))
                assert abs(szasz_K(n, 0, x) - ref) < 1e-13 * max(1, ref)
        assert abs(szasz_K(1, 0, 1.0) - 0.308508322553671) < 1e-14

    def test_first_derivative_at_zero(self):
        assert szasz_K(3, 1, 0.0) == -6.0

    def _taylor_derivative(self, n, j, x, terms=80):
        # independent oracle: termwise differentiation of the exact Taylor series
        kappa = kn_taylor_coeffs(n, terms)
        return float(sum(
            kappa[m] * math.perm(m, j) * F(x).limit_denominator(10**9) ** (m - j)
            for m in range(j, terms)
        ))

    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("j", range(7))
    def test_derivative_ladder_against_taylor(self, n, j):
        for x in (0.3, 0.8):
            ref = self._taylor_derivative(n, j, x)
            got = szasz_K(n, j, x)
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            szasz_K(1, 0, -0.5)
        with pytest.raises(DomainError):
            szasz_K(1, 17, 0.5)


    @pytest.mark.parametrize("nx", (400, 700, 708))
    def test_large_nx_against_scaled_bessel(self, nx):
        # K_n = e^(-2nx) I_0(2nx) and K_n' = 2n e^(-2nx) (I_1 - I_0)(2nx)
        for n, x in ((nx, 1.0), (4 * nx, 0.25)):
            z = 2 * n * x
            k0 = float(scipy.special.ive(0, z))
            k1 = 2 * n * (float(scipy.special.ive(1, z)) - k0)
            assert abs(szasz_K(n, 0, x) - k0) <= 1e-13 * k0
            assert abs(szasz_K(n, 1, x) - k1) <= 1e-10 * abs(k1)

    @pytest.mark.parametrize("nx", (709, 745, 1000))
    @pytest.mark.parametrize("j", (0, 1, 3))
    def test_underflowing_weight_rejected(self, nx, j):
        # exp(-n x) is no longer a normal float past n x = 708
        with pytest.raises(DomainError, match="708"):
            szasz_K(nx, j, 1.0)

    def test_weight_sums_digest(self):
        # K (j in {0, 1, 2, 5}) for n <= 6 at 199 points from 1e-3 to ~1e3,
        # recorded before G left the weight loop; G's half is TestKernelSums.test_g_digest
        h = hashlib.sha256()
        for n in range(7):
            for x in (10 ** (i / 33 - 3) for i in range(199)):
                for j in (0, 1, 2, 5):
                    try:
                        out = szasz_K(n, j, x).hex()
                    except HeunopsError as exc:
                        out = type(exc).__name__
                    h.update(f"K {n} {j} {x!r} {out}\n".encode())
        assert h.hexdigest() == "261c8e691a8126fbbbdc1fd29fb7051e30f999d8cd68af3e4dc9f1449d0829ab"

    def test_negative_family_index(self):
        with pytest.raises(IndexOutOfRange):
            szasz_K(-1, 0, 0.5)
        with pytest.raises(IndexOutOfRange):
            szasz_K(-1, 2, 0.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(k_tables())
    @example((3, 2, Grid(0, 1, 4, 5)))  # x = 0 first
    @example((40, 16, Grid(0, 1, 2**1074, 4)))  # x = 0, then subnormal points
    @example((7, 1, Grid(0, 1, 1, 102)))  # up to n x = 707
    def test_table_equals_per_point_reference(self, case):
        n, j, grid = case
        got = _outcome(lambda: [v.hex() for v in szasz_K_values(n, j, grid)])
        assert got == _outcome(lambda: [v.hex() for v in _k_table_per_point(n, j, grid)])
        assert isinstance(got, list) and len(got) == grid.count
        assert got == [szasz_K(n, j, x).hex() for x in grid.fractions()]

    @pytest.mark.parametrize("n, j, grid, kind, message", (
        (-1, 0, Grid(-1, 1, 1, 3), IndexOutOfRange, "family index must be non-negative"),
        (1, -1, Grid(1000, 1, 1, 2), IndexOutOfRange, "derivative order must be non-negative"),
        (1, 17, Grid(-1, 2000, 1, 2), DomainError, "derivative ladder supported for j <= 16"),
        # the grid -1e-400:0:2 of the CLI: the first point rounds to -0.0
        (1, 0, Grid(-1, 1, 10**400, 2), DomainError, "K is evaluated on x >= 0 only"),
        (2, 3, Grid(2, -1, 4, 4), DomainError, "K is evaluated on x >= 0 only"),  # 1/2, 1/4, 0, -1/4
        (1, 0, Grid(0, 400, 1, 3), DomainError,
         "K needs n*x <= 708, where exp(-n*x) is a normal float; got 800.0"),
        (3, 1, Grid(300, -400, 1, 3), DomainError,  # 300 fails before -100
         "K needs n*x <= 708, where exp(-n*x) is a normal float; got 900.0"),
    ), ids=("n", "j-negative", "j-above-16", "negative-zero", "negative", "nx", "nx-first"))
    def test_table_raises_as_per_point_reference(self, n, j, grid, kind, message):
        want = (kind, message)
        assert _outcome(szasz_K_values, n, j, grid) == want
        assert _outcome(_k_table_per_point, n, j, grid) == want

    @pytest.mark.parametrize("n", (1, 3, 40))
    def test_table_against_bessel_oracle(self, n):
        # independent oracle at 50 digits: K_n = e^(-2nx) I_0(2nx) and
        # K_n' = 2n e^(-2nx) (I_1 - I_0)(2nx), at n x from 1/8 to 704.
        # K_n' is within 1e-13 up to n x = 100; past that its error grows
        # as about 8e-16 n x (5.9e-13 at n x = 708), and so does the bound
        grid = Grid(1, 88, 8 * n, 65)
        k0, k1 = szasz_K_values(n, 0, grid), szasz_K_values(n, 1, grid)
        with mpmath.workdps(50):
            for x, got0, got1 in zip(grid.fractions(), k0, k1):
                z = 2 * n * mpmath.mpf(x.numerator) / x.denominator
                i0, i1 = mpmath.besseli(0, z), mpmath.besseli(1, z)
                want0, want1 = mpmath.exp(-z) * i0, 2 * n * mpmath.exp(-z) * (i1 - i0)
                assert abs(got0 - want0) <= 1e-13 * abs(want0)
                assert abs(got1 - want1) <= 1e-13 * max(1, n * x / 100) * abs(want1)


def _kn_taylor_fresh(n, count):
    """The uncached Cauchy product of the two factor series of K_n."""
    return [
        sum((F(n ** (2 * k), math.factorial(k) ** 2)
             * F((-2 * n) ** (m - 2 * k), math.factorial(m - 2 * k)) for k in range(m // 2 + 1)), F(0))
        for m in range(count)
    ]


#: rational parameter sets of both families, terminating and not
_PREFIX_PARAMS = (
    HeunParams(F(1, 2), F(1, 3), F(-3, 2), 2, F(5, 4), 1),
    HeunParams(F(1, 2), -3, -6, 1, 1, 1),
    ConfluentHeunParams(2, 1, 0, F(1, 2), 4),
    ConfluentHeunParams(F(1, 3), 2, 2, -2, F(-7, 5)),
)
#: counts in an order that grows, repeats and shrinks the cached prefixes
_PREFIX_COUNTS = (2, 5, 1, 17, 17, 0, 30, 3, 31, 12)


def _fresh_exact(params, count):
    """The first ``count`` coefficients from the recurrence each stream
    docstring states, run over ``Fraction`` with every parameter converted
    exactly: the oracle of the library's integer streams."""
    v = {name: F(value) for name, value in vars(params).items()}
    cs, c_prev = [F(1)], F(0)
    for k in range(count - 1):
        c = cs[-1]
        if isinstance(params, HeunParams):
            a, q, al, be, ga, de = (v[n] for n in ("a", "q", "alpha", "beta", "gamma", "delta"))
            eps = al + be + 1 - ga - de
            num = (((1 + a) * k * (k - 1) + (ga * (1 + a) + de * a + eps) * k + q) * c
                   - (k - 1 + al) * (k - 1 + be) * c_prev)
            nxt = num / (a * (k + 1) * (k + ga))
        elif isinstance(params, ConfluentHeunParams):
            p, ga, de, al, sg = (v[n] for n in ("p", "gamma", "delta", "alpha", "sigma"))
            num = (k * (k - 1) + (ga + de - 4 * p) * k - sg) * c + 4 * p * (k - 1 + al) * c_prev
            nxt = num / ((k + 1) * (k + ga))
        else:  # past the stop c + k may vanish, with a zero numerator
            num = c * (k + v["a"]) * (k + v["b"])
            nxt = num / ((k + v["c"]) * (k + 1)) if num else num
        c_prev = c
        cs.append(nxt)
    return cs[:max(count, 0)]


def _as_floats(params):
    """The parameter set with every value rounded to a float."""
    return type(params)(*(float(value) for value in vars(params).values()))


def _coeffs_of(params, count):
    return (heun_coeffs if isinstance(params, HeunParams) else confluent_heun_coeffs)(params, count)


class TestCoefficientPrefixes:
    @pytest.fixture(autouse=True)
    def cold_caches(self):
        specfun._series.cache_clear()
        specfun._kn_taylor_prefix.cache_clear()

    @pytest.mark.parametrize("params", _PREFIX_PARAMS)
    def test_cached_prefix_equals_fresh_stream(self, params):
        for count in _PREFIX_COUNTS:
            got = _coeffs_of(params, count)
            assert got == _fresh_exact(params, count)
            assert all(type(c) is F for c in got)

    @pytest.mark.parametrize("n", (0, 1, 2, 3))
    def test_kn_prefix_equals_fresh_cauchy_product(self, n):
        for count in _PREFIX_COUNTS:
            assert kn_taylor_coeffs(n, count) == _kn_taylor_fresh(n, count)

    def test_negative_count_gives_empty_list(self):
        assert heun_coeffs(_PREFIX_PARAMS[0], 4) and heun_coeffs(_PREFIX_PARAMS[0], -1) == []
        assert kn_taylor_coeffs(2, 4) and kn_taylor_coeffs(2, -1) == []

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(heun_cases(), confluent_cases(), gauss_cases()), st.booleans())
    def test_exact_stream_and_restarts_match_fraction_recurrence(self, params, floats):
        if floats:  # converted exactly by the stream; the series need not terminate
            params = _as_floats(params)
        count = 48
        ref = _fresh_exact(params, count)
        assert list(itertools.islice(specfun._Series(params).stream(True), count)) == ref
        specfun._series.cache_clear()
        record = specfun._series(params)
        for n in (*_PREFIX_COUNTS, count, 40):
            got = record.prefix(n, True)
            assert got[:n] == tuple(ref[:n]) and all(type(c) is F for c in got)

    @pytest.mark.parametrize("params", _PREFIX_PARAMS)
    def test_mutating_a_returned_list_leaves_the_cache(self, params):
        got = _coeffs_of(params, 10)
        got[3] = F(99)
        got.append(F(7))
        del got[0]
        assert _coeffs_of(params, 10) == _fresh_exact(params, 10)
        kn = kn_taylor_coeffs(2, 10)
        kn[1] = F(99)
        kn.clear()
        assert kn_taylor_coeffs(2, 10) == _kn_taylor_fresh(2, 10)

    def test_caches_stay_bounded(self):
        for i in range(specfun._CACHE_SIZE + 5):
            assert confluent_heun_coeffs(ConfluentHeunParams(i, 1, 0, F(1, 2), 0), 3)[0] == 1
            assert kn_taylor_coeffs(i, 2)[0] == 1
        for cache in (specfun._series, specfun._kn_taylor_prefix):
            info = cache.cache_info()
            assert info.maxsize == specfun._CACHE_SIZE and 0 < info.currsize <= specfun._CACHE_SIZE

    def test_float_parameters_after_equal_rational_ones_stay_float(self):
        pairs = (
            (HeunParams(F(1, 2), F(1, 4), F(3, 2), 2, 1, 1), HeunParams(0.5, 0.25, 1.5, 2.0, 1.0, 1.0)),
            (ConfluentHeunParams(2, 1, 0, F(1, 2), 4), ConfluentHeunParams(2.0, 1.0, 0.0, 0.5, 4.0)),
        )
        for exact, floats in pairs:
            assert exact == floats and hash(exact) == hash(floats)
            assert all(type(c) is F for c in _coeffs_of(exact, 12))
            got = _coeffs_of(floats, 12)
            stream = specfun._Series(floats).stream(False)
            assert got == list(itertools.islice(stream, 12))
            assert all(type(c) is float for c in got)


def _fresh_float_sum(params, x, tol, radius, deriv=False):
    """The float series summed from a fresh coefficient stream through a
    generator of terms, the reference for the cached float prefixes."""
    stream = specfun._Series(params).stream(False)

    def terms():
        xpow = 1.0  # x^(k-1) when deriv else x^k
        for k, c in enumerate(stream):
            if not abs(c) <= 1e280:
                raise DivergentSeries("coefficient overflow")
            if deriv:
                yield k * c * xpow if k else 0.0
                if k:
                    xpow *= x
            else:
                yield c * xpow
                xpow *= x

    s, small = 0.0, 0
    for k, t in zip(range(specfun.MAX_TERMS), terms()):
        s += t
        small = small + 1 if abs(t) <= tol * abs(s) else 0
        if small >= 3:
            r = min(abs(x) / radius, 0.999)
            return SeriesResult(s, k + 1, False, abs(t) * r / (1.0 - r))
    raise DivergentSeries("no convergence")


def _gauss(g, x):
    return hyp2f1(g.a, g.b, g.c, x)


#: non-terminating series, rational and float: evaluator, parameters,
#: radius, whether it sums the derivative
_FLOAT_SERIES = (
    (heun_local, HeunParams(F(1, 2), F(1, 3), F(-3, 2), 2, F(5, 4), 1), 0.5, False),
    (heun_local_deriv, HeunParams(F(1, 2), F(1, 3), F(-3, 2), 2, F(5, 4), 1), 0.5, True),
    (heun_local, HeunParams(-1.5, 0.3, 1.5, 2.0, 1.25, 1.0), 1.0, False),
    (heun_local_deriv, HeunParams(-1.5, 0.3, 1.5, 2.0, 1.25, 1.0), 1.0, True),
    (confluent_heun, ConfluentHeunParams(F(1, 3), 2, 2, F(1, 2), F(-7, 5)), 1.0, False),
    (confluent_heun_deriv, ConfluentHeunParams(0.25, 1.5, 0.5, 0.75, 1.0), 1.0, True),
    (_gauss, GaussParams(F(1, 2), F(3, 2), 2), 1.0, False),
    (_gauss, GaussParams(0.3, 0.7, 1.1), 1.0, False),
)


class TestFloatPrefixes:
    @pytest.fixture(autouse=True)
    def cold_caches(self):
        specfun._series.cache_clear()

    @pytest.mark.parametrize("evaluate, params, radius, deriv", _FLOAT_SERIES)
    def test_cold_warm_and_extended_prefix_match_fresh_sum(self, evaluate, params, radius, deriv):
        # cold, warm, a far point that extends the prefix, then points it covers
        for frac in (0.05, 0.05, -0.93, 0.4, -0.05, 0.93):
            x = frac * radius
            assert evaluate(params, x) == _fresh_float_sum(params, x, specfun.SERIES_TOL, radius, deriv)
        got = evaluate(params, 0.93 * radius)
        # one record, whose float prefix covers the sum and whose exact one was never grown
        record = specfun._series(params)
        assert specfun._series.cache_info().currsize == 1 and len(record.prefixes[True]) == 1
        assert len(record.prefixes[False]) >= got.terms_used

    def test_coefficient_overflow_still_rejected(self):
        params = HeunParams(0.5, 1e200, 1.5, 2.0, 1.0, 1.0)
        for _ in range(2):
            with pytest.raises(DivergentSeries, match="coefficient overflow"):
                heun_local(params, 0.1)
        with pytest.raises(DivergentSeries, match="coefficient overflow"):
            _fresh_float_sum(params, 0.1, specfun.SERIES_TOL, 0.5)

    def test_float_prefixes_stay_bounded(self):
        for i in range(specfun._CACHE_SIZE + 5):
            assert confluent_heun(ConfluentHeunParams(0.25 + i, 1.5, 0.5, 0.75, 1.0), 0.0).value == 1.0
        assert 0 < specfun._series.cache_info().currsize <= specfun._CACHE_SIZE


def _heun_floats(params, k, c_prev, c):
    a, q = float(params.a), float(params.q)
    al, be = float(params.alpha), float(params.beta)
    ga, de = float(params.gamma), float(params.delta)
    eps = al + be + 1 - ga - de
    lin = ga * (1 + a) + de * a + eps
    c_prev, c = float(c_prev), float(c)
    yield c
    while True:
        num = ((1 + a) * k * (k - 1) + lin * k + q) * c - (k - 1 + al) * (k - 1 + be) * c_prev
        c_prev, c = c, num / (a * (k + 1) * (k + ga))
        yield c
        k += 1


def _confluent_floats(params, k, c_prev, c):
    p, ga, de = float(params.p), float(params.gamma), float(params.delta)
    al, sg = float(params.alpha), float(params.sigma)
    c_prev, c = float(c_prev), float(c)
    yield c
    while True:
        num = (k * (k - 1) + (ga + de - 4 * p) * k - sg) * c + 4 * p * (k - 1 + al) * c_prev
        c_prev, c = c, num / ((k + 1) * (k + ga))
        yield c
        k += 1


def _gauss_floats(params, k, c_prev, c):
    """The float coefficients from c_k = ``c``; ``c_prev`` is unused.  A zero
    numerator is yielded undivided: past the stop, c + k may be 0."""
    a, b, g, c = float(params.a), float(params.b), float(params.c), float(c)
    for k in itertools.count(k):
        yield c
        num = c * (a + k) * (b + k)
        c = num / ((g + k) * (k + 1)) if num else num


#: the hand-written float loop of each family, which the float stream run
#: from the declared recurrence replaced: the reference of its accuracy
_FLOAT_LOOPS = {HeunParams: _heun_floats, ConfluentHeunParams: _confluent_floats, GaussParams: _gauss_floats}


def _float_coeffs(params, count):
    return list(itertools.islice(specfun._Series(params).stream(False), count))


def _loop_coeffs(params, count):
    return list(itertools.islice(_FLOAT_LOOPS[type(params)](params, 0, 0, 1), count))


def _float_horner_coeffs(params, count):
    """The coefficients of A, B and C divided by s^2 into floats first, the
    quadratics then evaluated by float Horner: the variant whose cancellation
    near a root of a quadratic the float stream avoids."""
    record = specfun._Series(params)
    s2 = record._scale ** 2
    (a2, a1, a0), (b2, b1, b0), (g2, g1, g0) = ([v / s2 for v in q] for q in record.recurrence)
    cs, c_prev = [1.0], 0.0
    for k in range(count - 1):
        c = cs[-1]
        num = ((a2 * k + a1) * k + a0) * c - ((b2 * k + b1) * k + b0) * c_prev
        cs.append(num / ((g2 * k + g1) * k + g0) if num else num)
        c_prev = c
    return cs


def _bits(c):
    """The bits of ``c``, the sign of a zero aside."""
    return (c + 0.0).hex()


_dyadic = st.builds(lambda n, e: F(n, 2 ** e), st.integers(-48, 48), st.integers(0, 4))


@st.composite
def dyadic_heun_confluent(draw):
    """Local or confluent Heun parameters with power-of-2 denominators only."""
    gamma = draw(_dyadic.filter(lambda v: not (v <= 0 and v.denominator == 1)))
    if draw(st.booleans()):
        a = draw(_dyadic.filter(lambda v: abs(v) >= F(1, 4) and v != 1))
        return HeunParams(a, draw(_dyadic), draw(_dyadic), draw(_dyadic), gamma, draw(_dyadic))
    return ConfluentHeunParams(draw(_dyadic), gamma, draw(_dyadic), draw(_dyadic), draw(_dyadic))


def _accuracy_sample(count, seed):
    """A fixed seeded sample of the three families in turn, each parameter
    drawn dyadic, rational with another denominator, or float."""
    rng = random.Random(seed)
    draws = (lambda: F(rng.randint(-40, 40), 2 ** rng.randint(0, 3)),
             lambda: F(rng.randint(-40, 40), rng.choice((3, 5, 6, 7, 9, 10, 12))),
             lambda: rng.uniform(-5, 5))
    sets = []
    while len(sets) < count:
        cls = (HeunParams, ConfluentHeunParams, GaussParams)[len(sets) % 3]
        values = [rng.choice(draws)() for _ in cls.FIELDS]
        if cls is HeunParams and abs(values[0]) < F(1, 4):
            continue  # a radius of at least 1/4 keeps the coefficients in range
        try:
            sets.append(cls(*values))
        except HeunopsError:  # a at 0 or 1, gamma or c a pole
            pass
    return sets


_U = 2.0 ** -53


def _errors(params, coeffs, exact):
    """(relative, scaled): the largest |c_k - r_k| / |r_k| of ``coeffs``
    against r_k, the ``exact`` coefficients rounded once, and the largest
    |c_k - r_k| / ((5k + 1) u h_k).  h_k is the recurrence run on |A_k|,
    |B_k| and |C_k| from h_{-1} = 0 and h_0 = 1.  A step of the float
    stream rounds each term of its numerator twice (a quotient by s^2 and a
    product), the difference once and the division twice (C_k / s^2 and
    the quotient), so to first order |c_k - exact_k| <= 5 k u h_k; rounding
    the exact coefficient adds u h_k."""
    oracle, _ = _RECURRENCE_ORACLES[type(params)]
    s2 = specfun._scaled(*vars(params).values())[0] ** 2
    A, B, C = (lambda k, q=q: abs(_quadratic(q, k) / s2) for q in oracle(params))
    relative = scaled = 0.0
    h_prev, h = 0.0, 1.0
    for k, (c, e) in enumerate(zip(coeffs, exact)):
        r = float(e)
        if c != r:
            relative = max(relative, abs(c - r) / abs(r) if r else math.inf)
            scaled = max(scaled, abs(c - r) / ((5 * k + 1) * _U * h) if h else math.inf)
        # past the stop of a Gauss series C_k may be 0, and so is every r_k
        h_prev, h = h, (A(k) * h + B(k) * h_prev) / C(k) if C(k) else 0.0
    return relative, scaled


class TestFloatStream:
    """The float coefficients run each family's declared recurrence; the
    hand-written loops they replaced are the reference."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dyadic_heun_confluent())
    def test_dyadic_sets_equal_the_hand_written_loops(self, params):
        # with power-of-2 denominators s^2 is one too, and every factor is exact
        assert [_bits(c) for c in _float_coeffs(params, 64)] == [_bits(c) for c in _loop_coeffs(params, 64)]

    def test_accuracy_against_exact_coefficients(self):
        count = 64
        derived, reference = [], []
        for params in _accuracy_sample(300, 29):
            exact = _fresh_exact(params, count)
            derived.append(_errors(params, _float_coeffs(params, count), exact))
            reference.append(_errors(params, _loop_coeffs(params, count), exact))
            assert derived[-1][1] <= 1, params
        # per set either may be the closer: here the derived error is 0.003 to
        # 14 times the reference's, so only the median is compared
        assert statistics.median(e for e, _ in derived) <= statistics.median(e for e, _ in reference)

    def test_near_root_is_evaluated_over_the_integers(self):
        # A_20 = (20 + a)(20 + b) is about 2e-10 of its terms: evaluated in
        # floats from pre-divided coefficients, it keeps only five digits
        params = GaussParams(-20 + 1e-11, 0.3, 1.7)
        exact = _fresh_exact(params, 64)
        assert _errors(params, _float_coeffs(params, 64), exact)[1] <= 1
        relative, scaled = _errors(params, _float_horner_coeffs(params, 64), exact)
        assert relative > 1e-6 and scaled > 1e6

    def test_equal_sets_have_identical_float_streams(self):
        # so the record that equal sets share is the one either would build;
        # the hand-written loop gave c_1 = -0.0 for q = -0.0 and 0.0 for q = 0
        floats, exact = HeunParams(0.5, -0.0, -3.0, -3.0, 1.0, 2.0), HeunParams(F(1, 2), 0, -3, -3, 1, 2)
        assert [c.hex() for c in _float_coeffs(floats, 40)] == [c.hex() for c in _float_coeffs(exact, 40)]
        assert [c.hex() for c in _loop_coeffs(floats, 2)] != [c.hex() for c in _loop_coeffs(exact, 2)]

    @pytest.mark.parametrize("params, x", (
        (HeunParams(0.5, 0.0, 1e160, 1e160, 1.0, 1.0), 0.1),  # B_k / s^2 = 1e320
        (HeunParams(1e-320, 0.3, 1.0, 1.0, 1e-5, 1.0), 0.0),  # C_0 / s^2 = 1e-325 underflows
    ), ids=("overflow", "underflow"))
    def test_coefficient_beyond_the_float_range_is_nan_and_rejected(self, params, x):
        # the float stream holds NaN from c_1 on; every public route raises
        assert heun_coeffs(params, 1) == [1.0]
        assert all(map(math.isnan, specfun._series(params).prefix(4, False)[1:]))
        with pytest.raises(DivergentSeries, match=r"^coefficient overflow: c_1 of the local Heun "
                                                  r"series is nan in floats; its parameters leave"):
            heun_coeffs(params, 4)
        for f in (heun_local, heun_local_deriv):
            with pytest.raises(DivergentSeries, match=r"^coefficient overflow: c_1 .* is nan in floats"):
                f(params, x)
        # the sum stops at the first NaN, not after MAX_TERMS terms
        assert len(specfun._series(params).prefixes[False]) <= 32

    def test_confluent_coefficient_beyond_the_float_range_is_rejected(self):
        # c_1 = -1e200 is a float, c_2 overflows to inf: the error names c_2
        params = ConfluentHeunParams(1e200, 1.0, 1.0, 0.5, 1e200)
        assert confluent_heun_coeffs(params, 2) == [1.0, -1e200]
        with pytest.raises(DivergentSeries, match=r"^coefficient overflow: c_2 of the confluent Heun "
                                                  r"series is inf in floats"):
            confluent_heun_coeffs(params, 4)


def _two_stage_sum(record, xf, tol, deriv):
    """The float sum as a generator of terms feeding a summing loop: the
    reference for the fused loop, with its messages and prefix growth."""
    ratio = abs(xf) / record.radius

    def terms():
        coeffs = ()
        xpow = 1.0  # x^(k-1) when deriv else x^k
        for k in itertools.count():
            if k == len(coeffs):
                coeffs = record.prefix(min(2 * k + 32, specfun.MAX_TERMS), False)
            c = coeffs[k]
            if not abs(c) <= 1e280:
                raise specfun._overflow(record, k, c, xf)
            elif not deriv:
                yield c * xpow
                xpow *= xf
            elif k:
                yield k * c * xpow
                xpow *= xf
            else:
                yield 0.0

    s = 0.0
    small = 0
    for k, t in zip(range(specfun.MAX_TERMS), terms()):
        s += t
        small = small + 1 if abs(t) <= tol * abs(s) else 0
        if small >= 3:
            r = min(ratio, 0.999)
            return SeriesResult(s, k + 1, False, abs(t) * r / (1.0 - r))
    raise DivergentSeries(f"no convergence within {specfun.MAX_TERMS} terms")


def _float_sum(record, xf, deriv):
    """The one-point case of the grid loop, as the point functions call it."""
    return specfun._float_sums(record, (xf,), deriv)[0]


def _two_stage_points(record, xfs, deriv):
    """The two-stage sum at each point in turn, after the disk check that
    the loop makes first; the first point that fails raises."""
    out = []
    for xf in xfs:
        if abs(xf) >= record.radius:
            raise DivergentSeries(f"|x| >= {record.radius}: outside the disk of the non-terminating "
                                  f"{record.name} series")
        out.append(_two_stage_sum(record, xf, specfun.SERIES_TOL, deriv))
    return out


def _outcome(f, *args):
    """A result, or the type and message of the exception raised."""
    try:
        return f(*args)
    except HeunopsError as exc:
        return type(exc), str(exc)


_free = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def free_series_params(draw):
    """Rational parameters of any of the three families, mostly non-terminating."""
    kind = draw(st.sampled_from(["hl", "hc", "2f1"]))
    gamma = draw(_free.filter(lambda v: not (v <= 0 and v.denominator == 1)))
    if kind == "hl":
        a = draw(_free.filter(lambda v: abs(v) >= F(1, 4) and v != 1))
        return HeunParams(a, draw(_free), draw(_free), draw(_free), gamma, draw(_free))
    if kind == "hc":
        return ConfluentHeunParams(draw(_free), gamma, draw(_free), draw(_free), draw(_free))
    return GaussParams(draw(_free), draw(_free), gamma)


_DIGEST_GRID = [F(i, 40) for i in range(-20, 21)]
#: local Heun series whose gamma is just above -10, so that C_10 / s^2 nearly
#: vanishes: c_0 ... c_10 are below 0.03 in magnitude, and c_11 is 5.8e287,
#: past the 1e280 guard but a float, or NaN, beyond the float range
_GUARD_HEUN = HeunParams(2, F(1, 2), F(1, 2), F(3, 2), -10 + F(1, 10**290), 1)
_NAN_HEUN = HeunParams(2, F(1, 2), F(1, 2), F(3, 2), -10 + F(1, 10**400), 1)
_FREE_GAUSS = GaussParams(F(1, 2), F(3, 2), 2)
_THIRDS_CONFLUENT = ConfluentHeunParams(F(1, 3), 2, 2, F(1, 2), F(-7, 5))


#: series of each family for grid tests: parameters, single-point route,
#: and whether the series terminates (then any grid, else one inside |x| < 1/2)
_GRID_SERIES = (
    (HeunParams(2, F(1, 2), F(1, 2), F(3, 2), 1, 1), heun_local, False),
    (HeunParams(F(1, 2), F(1, 3), F(-3, 2), 2, F(5, 4), 1), heun_local, False),
    (HeunParams(F(1, 2), -20, -40, 1, 1, 1), heun_local, True),
    (ConfluentHeunParams(1, 2, 0, F(3, 2), 6), confluent_heun, False),
    (ConfluentHeunParams(0, 1, F(1, 2), F(1, 2), 105), confluent_heun, True),
    (GaussParams(F(1, 2), F(3, 2), 2), _gauss, False),
    (GaussParams(-10, F(1, 2), F(3, 2)), _gauss, True),
)


class TestFusedSum:
    """The one summation loop against the two-stage reference, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(free_series_params(), heun_cases(), confluent_cases(), gauss_cases()),
           st.lists(st.floats(-0.97, 0.97), min_size=1, max_size=4),
           st.sampled_from([None, 0, 1, 2, 5, 40]))
    def test_equals_two_stage_sum(self, params, fracs, max_terms):
        specfun._series.cache_clear()
        record = specfun._series(params)
        with pytest.MonkeyPatch.context() as mp:
            if max_terms is not None:
                mp.setattr(specfun, "MAX_TERMS", max_terms)
            for frac in fracs:
                xf = frac * record.radius
                for deriv in (False, True):
                    assert (_outcome(_float_sum, record, xf, deriv)
                            == _outcome(_two_stage_sum, record, xf, specfun.SERIES_TOL, deriv))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(free_series_params(), heun_cases(), confluent_cases(), gauss_cases(),
                     st.sampled_from((_GUARD_HEUN, _NAN_HEUN))),
           st.lists(st.floats(-0.97, 0.97), min_size=1, max_size=6),
           st.sampled_from([None, 0, 2, 5, 40]), st.booleans(), st.just(None))
    # the third point needs a longer prefix than the first two
    @example(_FREE_GAUSS, [0.1, -0.2, 0.95, 0.3], None, False, "longer prefix")
    @example(_FREE_GAUSS, [0.1, -0.2, 0.95, 0.3], None, True, "longer prefix")
    # a point in mid-grid fails: outside the disk, past the 1e280 guard, at
    # a NaN coefficient, or unconverged; its neighbours alone converge
    @example(_FREE_GAUSS, [0.1, 1.0, 0.2], None, False, r"^\|x\| >= 1\.0: outside the disk")
    @example(_GUARD_HEUN, [1e-3, 0.5, 1e-3], None, False,
             r"^coefficient overflow: \|c_11\| > 1e280 before the sum converged at \|x\| = 0\.5 ")
    @example(_NAN_HEUN, [-1e-3, -0.5, 1e-3], None, True, r"^coefficient overflow: c_11 of the local Heun "
                                                          r"series is nan in floats")
    @example(_FREE_GAUSS, [0.1, 0.9, 0.1], 40, True, r"^no convergence within 40 terms$")
    def test_grid_loop_equals_two_stage_sum_per_point(self, params, fracs, max_terms, deriv, expect):
        specfun._series.cache_clear()
        record = specfun._series(params)
        xfs = [frac * record.radius for frac in fracs]
        with pytest.MonkeyPatch.context() as mp:
            if max_terms is not None:
                mp.setattr(specfun, "MAX_TERMS", max_terms)
            got = _outcome(specfun._float_sums, record, xfs, deriv)
            want = _outcome(_two_stage_points, record, xfs, deriv)
            singles = [_outcome(_float_sum, record, xf, deriv) for xf in xfs]
        assert got == want
        if expect == "longer prefix":
            assert max(r.terms_used for r in got[:2]) <= 32 < got[2].terms_used
        elif expect is not None:
            assert got[0] is DivergentSeries and re.search(expect, got[1])
            assert got == singles[1] and isinstance(singles[0], SeriesResult)
            assert isinstance(singles[2], SeriesResult)

    @pytest.mark.parametrize("params, error", (
        (HeunParams(0.5, 1e200, 1.5, 2.0, 1.0, 1.0), "coefficient overflow"),
        (HeunParams(F(1, 2), 10**200, F(3, 2), 2, 1, 1), "coefficient overflow"),
        (GaussParams(F(1, 2), F(3, 2), 2), "no convergence within"),
    ), ids=("heun-float", "heun-rational", "gauss"))
    @pytest.mark.parametrize("max_terms", (100_000, 33, 3, 0))
    def test_overflow_and_max_terms_errors_equal(self, params, error, max_terms, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", max_terms)
        record = specfun._series(params)
        # at 0.995 R the tail estimate's ratio is capped at 0.999
        for xf in (0.1 * record.radius, -0.9 * record.radius, 0.995 * record.radius):
            for deriv in (False, True):
                got = _outcome(_float_sum, record, xf, deriv)
                assert got == _outcome(_two_stage_sum, record, xf, specfun.SERIES_TOL, deriv)
                if max_terms == 3:  # the Gauss sum needs more terms; the Heun ones overflow at k = 2
                    assert got[0] is DivergentSeries and error in got[1]
                if max_terms == 0:
                    assert got == (DivergentSeries, "no convergence within 0 terms")

    def test_overflow_guard_is_at_1e280(self, monkeypatch):
        # c_1 = 2q = 1e285 is a finite float; with two terms only the guard raises
        monkeypatch.setattr(specfun, "MAX_TERMS", 2)
        record = specfun._series(HeunParams(0.5, 5e284, 1.5, 2.0, 1.0, 1.0))
        for deriv in (False, True):
            got = _outcome(_float_sum, record, 0.1, deriv)
            assert got == _outcome(_two_stage_sum, record, 0.1, specfun.SERIES_TOL, deriv)
            assert got == (DivergentSeries, "coefficient overflow: |c_1| > 1e280 before the sum "
                                            "converged at |x| = 0.1 on a radius of 0.5")

    # recorded when the series tolerance became the one SERIES_TOL = 1e-15:
    # each equals the digest of the code before that change, called with an
    # explicit tol of 1e-15 on the same grid
    # (test_thirds_confluent_derivative_against_exact_sum checks the last's values)
    @pytest.mark.parametrize("f, params, digest", (
        (heun_local_deriv, HeunParams(2, F(1, 2), F(1, 2), F(3, 2), 1, 1),
         "766ecb1bbac48eec4d72194f65bdd0bf1b79a3669511f021b97649f28b310080"),
        (heun_local_deriv, HeunParams(-1.5, 0.3, 1.5, 2.0, 1.25, 1.0),
         "bb3204d85f38ef74f4753d826e02d1b7147cc371bf1ec7e157b77be58547de01"),
        (confluent_heun_deriv, ConfluentHeunParams(1, 2, 0, F(3, 2), 6),
         "416e897bd3e61b4a1a39ff13ec7fd689fcb125c1fd3943c2011b52ba97b06764"),
        (confluent_heun_deriv, _THIRDS_CONFLUENT,
         "6243cc27bf347869ae410d623932c758122af9b916c4c0ac328c25f35b35b8cc"),
    ), ids=("hl-rational", "hl-float", "hc-integer", "hc-thirds"))
    def test_derivative_grid_digest(self, f, params, digest):
        h = hashlib.sha256()
        for x in _DIGEST_GRID:
            r = f(params, x)
            h.update(f"{r.value.hex()} {r.terms_used} {r.terminated} "
                     f"{r.tail_estimate.hex()}\n".encode())
        assert h.hexdigest() == digest

    def test_thirds_confluent_derivative_against_exact_sum(self):
        # |x| <= 1/2 on a radius of 1: the 260-term tail is below 2^-250
        exact = Poly(tuple(_fresh_exact(_THIRDS_CONFLUENT, 260))).derivative()
        for x in _DIGEST_GRID:
            want = exact(x)
            got = confluent_heun_deriv(_THIRDS_CONFLUENT, x).value
            assert abs(F(got) - want) <= 2e-15 * abs(want)

    @pytest.mark.parametrize("params", (
        HeunParams(2, F(1, 2), F(1, 2), F(3, 2), 1, 1),
        HeunParams(F(1, 2), -20, -40, 1, 1, 1),
        ConfluentHeunParams(1, 2, 0, F(3, 2), 6),
        GaussParams(F(1, 2), F(3, 2), 2),
        GaussParams(-3, F(1, 2), F(3, 2)),
    ), ids=("hl", "hl-terminating", "hc", "2f1", "2f1-terminating"))
    def test_series_values_equal_single_points(self, params):
        single = {HeunParams: heun_local, ConfluentHeunParams: confluent_heun,
                  GaussParams: _gauss}[type(params)]
        # a grid of twentieths, and each float's exact value as a one-point grid
        for grid in (Grid(-19, 1, 20, 39), *(Grid.point(F(x)) for x in (0.3, -0.45, 1e-300, 0))):
            assert specfun.series_values(params, grid) == [single(params, x) for x in grid.fractions()]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(_GRID_SERIES), grids(-4, 4, max_den=10**6))
    def test_series_values_on_grids_equal_single_points(self, case, grid):
        params, single, terminates = case
        if not terminates:  # into |x| <= 2/5, keeping the grid's integer form
            grid = Grid(grid.start, grid.step, grid.den * 10, grid.count)
        assert specfun.series_values(params, grid) == [single(params, x) for x in grid.fractions()]

    def test_series_values_raise_as_single_points(self):
        # a NaN point is the per-point functions' check (TestNonFinitePoint):
        # a grid holds rationals only
        params = HeunParams(F(1, 2), F(1, 3), F(-3, 2), 2, F(5, 4), 1)
        with pytest.raises(DivergentSeries, match="outside the disk"):
            specfun.series_values(params, Grid(1, 4, 10, 2))  # 1/10, 1/2
        assert specfun.series_values(params, Grid(0, 1, 1, 0)) == []


class TestKnDerivZero:
    def test_base_cases(self):
        assert kn_deriv_zero(1, 0) == 1
        assert kn_deriv_zero(2, 1) == -4
        assert kn_deriv_zero(1, 2) == 6

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_cauchy_product_oracle(self, n):
        kappa = kn_taylor_coeffs(n, 13)
        for j in range(13):
            assert kn_deriv_zero(n, j) == kappa[j] * math.factorial(j)


class TestQuadrature:
    def test_trapezoid_cosine_weight(self):
        # symbolic integral of 1 + 2 cos^2(phi/2) over [0, pi] is 2 pi
        val = quadrature(periodic_trapezoid(64, 0, math.pi), lambda p: 1 + 2 * math.cos(p / 2) ** 2)
        assert abs(val - 2 * math.pi) < 1e-12

    def test_trapezoid_reciprocal_weight(self):
        # closed form pi/sqrt(1 - c) with c = 3/4 gives 2 pi
        val = quadrature(
            periodic_trapezoid(64, 0, math.pi), lambda p: 1 / (1 - 0.75 * math.sin(p / 2) ** 2)
        )
        assert abs(val - 2 * math.pi) < 1e-12

    def test_nonfinite_detection(self):
        with pytest.raises(NonFinite):
            quadrature(periodic_trapezoid(4, 0, 1), lambda t: math.inf)
        with pytest.raises(NonFinite):
            quadrature(periodic_trapezoid(8, 0, 1), lambda t: math.nan)

    def test_trapezoid_rule_built_once(self):
        rule = periodic_trapezoid(256, 0.0, math.pi)
        assert periodic_trapezoid(256, 0, math.pi) is rule
        assert rule == specfun._trapezoid.__wrapped__(256, 0.0, math.pi)

    def test_half_angle_table_of_the_trapezoid_rule(self):
        rule = periodic_trapezoid(16, 0, math.pi)
        table = specfun.half_angle_table(16)
        assert specfun.half_angle_table(16) is table
        assert [(phi, w) for phi, w, _, _ in table] == list(zip(rule.nodes, rule.weights))
        for phi, _, s2, c2 in table:
            assert s2 == math.sin(phi / 2) ** 2 and c2 == math.cos(phi / 2) ** 2
        with pytest.raises(DomainError, match="at least 2 points"):
            specfun.half_angle_table(1)

    def test_npoints_validation(self):
        # 4.0 and F(4) equal the cached 4, so the check runs before the cache
        periodic_trapezoid(4, 0, 1), specfun.half_angle_table(4)
        for npoints in (1, 2.5, 4.0, F(4), True, "4", None):
            with pytest.raises(DomainError, match="at least 2 points, as an int"):
                periodic_trapezoid(npoints, 0, 1)
            with pytest.raises(DomainError, match="at least 2 points, as an int"):
                specfun.half_angle_table(npoints)

    @pytest.mark.parametrize("a, b", ((0, math.nan), (math.nan, 1), (-math.inf, 0), (0, math.inf)))
    def test_endpoints_must_be_finite(self, a, b):
        with pytest.raises(DomainError, match="finite endpoints"):
            periodic_trapezoid(4, a, b)

    def test_rule_is_nodes_and_weights(self):
        rule = periodic_trapezoid(4, 0, 1)
        assert rule.nodes == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert rule.weights == (0.125, 0.25, 0.25, 0.25, 0.125)

    def test_direct_rule(self):
        assert quadrature(QuadratureRule((0.0, 1.0), (0.5, 0.5)), lambda t: 4 * t) == 2.0
        with pytest.raises(DomainError, match="2 quadrature nodes but 1 weights"):
            QuadratureRule((0.0, 1.0), (1.0,))


#: one function of each kind that takes a point, mapping x to a float
_POINT_FUNCTIONS = {
    "hyp2f1-terminating": lambda x: hyp2f1(-2, 1, 1, x).value,
    "hyp2f1-series": lambda x: hyp2f1(0.5, 0.5, 1, x).value,
    "hyp2f1_pfaff-terminating": lambda x: hyp2f1_pfaff(-2, 1, 1, x).value,
    "hyp2f1_pfaff-series": lambda x: hyp2f1_pfaff(0.5, 0.5, 1, x).value,
    "heun_local-terminating": lambda x: heun_local(F_PARAMS(2), x).value,
    "heun_local-series": lambda x: heun_local(HeunParams(2, F(1, 2), F(1, 2), F(3, 2), 1, 1), x).value,
    "heun_local_deriv": lambda x: heun_local_deriv(F_PARAMS(2), x).value,
    "confluent_heun-terminating": lambda x: confluent_heun(ConfluentHeunParams(1, 1, 1, -2, 0), x).value,
    "confluent_heun-series": lambda x: confluent_heun(ConfluentHeunParams(F(1, 2), 1, 1, F(1, 2), 1), x).value,
    "confluent_heun_deriv": lambda x: confluent_heun_deriv(ConfluentHeunParams(1, 1, 1, -2, 0), x).value,
    **{f"kernel_sum-{kind}": (lambda x, kind=kind: kernel_sum(kind, 2, x)) for kind in "FUGJ"},
    "szasz_K": lambda x: szasz_K(2, 0, x),
    "szasz_K-ladder": lambda x: szasz_K(2, 3, x),
    "legendre_p": lambda x: legendre_p(3, x),
    "bspline_density": lambda x: bspline_density([0, 1, 2, 3])(x),
}


class TestNonFinitePoint:
    # regression for the last three: a string was coerced or raised a bare
    # AttributeError or TypeError, and True was taken for the point 1
    @pytest.mark.parametrize("name", _POINT_FUNCTIONS)
    @pytest.mark.parametrize("x", (math.nan, math.inf, -math.inf, "1/4", True, None),
                             ids=("nan", "inf", "-inf", "str", "bool", "None"))
    def test_rejected(self, name, x):
        if isinstance(x, float):
            error, match = NonFinite, "not finite"
        else:
            error, match = DomainError, "is not an int, Fraction or float"
        with pytest.raises(error, match=match):
            _POINT_FUNCTIONS[name](x)

    @pytest.mark.parametrize("name", _POINT_FUNCTIONS)
    def test_finite_point_still_evaluates(self, name):
        assert math.isfinite(_POINT_FUNCTIONS[name](0.25))


def _heun_recurrence(params):
    """(A, B, C) of the local Heun series at 0, hand-expanded from the
    coefficient of x^k in the polynomial form of the ODE:

        a(k+1)(k+gamma) c_{k+1}
            = [(1+a)k(k-1) + (gamma(1+a) + delta*a + epsilon)k + q] c_k
              - (k-1+alpha)(k-1+beta) c_{k-1}

    This and the next two are the hand-written recurrences that the one
    read off each declared equation replaced; they are its oracles."""
    s, (a, q, al, be, ga, de) = specfun._scaled(params.a, params.q, params.alpha, params.beta,
                                                params.gamma, params.delta)
    eps = al + be + s - ga - de
    lin = ga * (s + a) + de * a + eps * s
    return (((s + a) * s, lin - (s + a) * s, q * s),
            (s * s, s * (al + be - 2 * s), (al - s) * (be - s)),
            (a * s, a * (s + ga), a * ga))


def _confluent_recurrence(params):
    """(k+1)(k+gamma) c_{k+1} = [k(k-1) + (gamma + delta - 4p)k - sigma] c_k + 4p(k-1+alpha) c_{k-1}."""
    s, (p, ga, de, al, sg) = specfun._scaled(params.p, params.gamma, params.delta, params.alpha, params.sigma)
    return ((s * s, s * (ga + de - 4 * p) - s * s, -sg * s),
            (0, -4 * p * s, -4 * p * (al - s)),
            (s * s, s * (s + ga), s * ga))


def _gauss_recurrence(params):
    """c_{k+1} = c_k (k+a)(k+b) / ((k+c)(k+1)), with B = 0."""
    s, (a, b, g) = specfun._scaled(params.a, params.b, params.c)
    return (s * s, s * (a + b), a * b), (0, 0, 0), (s * s, s * (s + g), s * g)


#: each family's hand-written (A, B, C) and the sign the derived one carries:
#: the confluent equation is declared as its residual is oriented, x(x-1)
#: u'' + ..., which is -1 times the equation the hand-written one expands
_RECURRENCE_ORACLES = {HeunParams: (_heun_recurrence, 1), ConfluentHeunParams: (_confluent_recurrence, -1),
                       GaussParams: (_gauss_recurrence, 1)}


def _heun_operator_oracle(params):
    """The ``Poly.of`` construction of Heun's operator that the declaration replaced."""
    a, q, al, be, ga, de = (F(v) for v in vars(params).values())
    eps = al + be + 1 - ga - de
    m = Poly.of(0, a, -(1 + a), 1)
    n = Poly.of(a, -(1 + a), 1).scale(ga) + Poly.of(0, -a, 1).scale(de) + Poly.of(0, -1, 1).scale(eps)
    return m, n, Poly.of(-q, al * be)


def _confluent_operator_oracle(params):
    """The inline confluent operator that the declaration replaced."""
    p, ga, de, al, sg = (F(v) for v in vars(params).values())
    m = Poly.of(0, -1, 1)
    return m, m.scale(4 * p) + Poly.of(-ga, ga) + Poly.of(0, de), Poly.of(-sg, 4 * p * al)


def _quadratic(coeffs, k):
    c2, c1, c0 = coeffs
    return (c2 * k + c1) * k + c0


_ints = st.integers(-50, 50)
_small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)


class TestDeclaredOperator:
    """The recurrence and the residuals read off each family's one declared equation."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.one_of(heun_cases(), confluent_cases(), gauss_cases(), free_series_params()), st.booleans())
    def test_derived_recurrence_matches_hand_written(self, params, floats):
        if floats:
            params = _as_floats(params)
        oracle, sign = _RECURRENCE_ORACLES[type(params)]
        want = tuple(tuple(sign * c for c in quadratic) for quadratic in oracle(params))
        assert specfun._Series(params).recurrence == want

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.tuples(st.just(0), _ints, _ints, _ints), st.tuples(_ints, _ints, _ints), st.tuples(_ints, _ints),
           st.integers(1, 40), st.tuples(_small_rationals, _small_rationals, _small_rationals))
    def test_recurrence_is_the_x_k_coefficient_of_the_equation(self, m, n, lin, k, cs):
        c_prev, c, c_next = cs
        u = Poly.monomial(k - 1, c_prev) + Poly.monomial(k, c) + Poly.monomial(k + 1, c_next)
        mp, np_, lp = (Poly(coeffs) for coeffs in (m, n, lin))
        residual = mp * u.derivative().derivative() + np_ * u.derivative() + lp * u
        A, B, C = specfun._recurrence(m, n, lin)
        assert residual.coeff(k) == _quadratic(C, k) * c_next - _quadratic(A, k) * c + _quadratic(B, k) * c_prev

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(heun_cases(), confluent_cases(), free_series_params().filter(
        lambda p: not isinstance(p, GaussParams))), st.lists(_small_rationals, min_size=1, max_size=8))
    def test_operator_views_match_the_rational_construction(self, params, us):
        u = Poly(tuple(us))
        if isinstance(params, HeunParams):
            m, n, lin = _heun_operator_oracle(params)
            assert specfun.heun_operator(params) == (m, n, lin)
            got = heun_ode_residual(params, u)
        else:
            m, n, lin = _confluent_operator_oracle(params)
            got = specfun._ode_residual(params, u)
        assert got == m * u.derivative().derivative() + n * u.derivative() + lin * u

    def test_float_parameters_have_no_exact_operator(self):
        hp, cp = HeunParams(0.5, 0.25, 1.5, 2.0, 1.0, 1.0), ConfluentHeunParams(2.0, 1.0, 0.0, 0.5, 4.0)
        for call in (lambda: specfun.heun_operator(hp), lambda: heun_ode_residual(hp, Poly.of(1)),
                     lambda: specfun._ode_residual(cp, Poly.of(1))):
            with pytest.raises(NotExact):
                call()


class TestScanStopsAtTheStop:
    def test_linear_series_with_a_large_second_root(self, monkeypatch):
        # (N + alpha)(N + beta) = 0 at N = 1 and N = 300; the "degree 1"
        # delta of heun_cases makes c_2 = 0, so the series is linear
        built = []
        real = specfun._exact_stream

        def counting(*args):
            for c in real(*args):
                built.append(c)
                yield c

        monkeypatch.setattr(specfun, "_exact_stream", counting)
        hp = HeunParams(2, F(1, 3), -1, -300, 1, F(6293, 3))
        record = specfun._Series(hp)
        assert record.poly == Poly(tuple(_fresh_exact(hp, 2))) and record.poly.degree == 1
        assert record.poly == _rule_poly(hp)
        assert len(record.prefixes[True]) <= 8 and len(built) <= 8

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(heun_cases(), confluent_cases(), gauss_cases(), p0_two_root_cases()))
    def test_prefix_ends_two_past_the_polynomial(self, params):
        want = _outcome(_rule_poly, params)
        assume(not isinstance(want, tuple))  # the errors are TestDerivedStopRule's
        record = specfun._Series(params)
        poly = record.poly
        assert poly == want
        if poly is not None:
            assert len(record.prefixes[True]) == len(poly.coeffs) + 2
            # a longer exact prefix continues the recurrence from the two zeros
            assert list(record.prefix(30, True)[:30]) == _fresh_exact(params, 30)


_BAD_PARAMETERS = (np.int64(2), np.float32(0.5), True, "1/2")
_GOOD_SETS = {HeunParams: (2, F(1, 2), F(1, 2), F(3, 2), 1, 1), ConfluentHeunParams: (1, 2, 0, F(3, 2), 6),
              GaussParams: (F(1, 2), F(3, 2), 2)}


class TestParameterTypes:
    @pytest.mark.parametrize("cls", _GOOD_SETS, ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("bad", _BAD_PARAMETERS, ids=repr)
    def test_undeclared_types_rejected(self, cls, bad):
        values = _GOOD_SETS[cls]
        names = cls.FIELDS
        for i, name in enumerate(names):
            with pytest.raises(DomainError, match=f"parameter {name} = "):
                cls(*values[:i], bad, *values[i + 1:])

    @pytest.mark.parametrize("call", (
        lambda: heun_local(HeunParams(np.int64(2), 0.5, 0.5, 1.5, 1, 1), 0.3),
        lambda: hyp2f1(np.int64(-3), 0.5, 1.5, 0.3),
    ), ids=("heun_local", "hyp2f1"))
    def test_numpy_integers_are_a_domain_error(self, call):
        with pytest.raises(DomainError, match="is not an int, Fraction or float"):
            call()

    def test_numpy_float64_is_a_float(self):
        got = heun_local(HeunParams(np.float64(2), 0.5, 0.5, 1.5, 1, 1), 0.3)
        assert got == heun_local(HeunParams(2.0, 0.5, 0.5, 1.5, 1, 1), 0.3)

"""The identity registry: representative checks, the derivative ladders,
registry completeness and the mutation controls."""

import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunops import entropy, identities, specfun
from heunops.cli import main
from heunops.errors import DomainError, InadmissibleMode, MissingParam, NotExact
from heunops.exactalg import Poly
from heunops.identities import (
    IdentityId,
    i314_rhs,
    registry_table,
    verify,
    verify_all,
)
from heunops.specfun import HeunParams, heun_poly, szasz_K, confluent_heun


class TestRegistry:
    def test_every_identity_listed(self):
        rows = registry_table()
        assert len(rows) == len(IdentityId) == 21
        assert {row["id"] for row in rows} == {i.value for i in IdentityId}

    def test_equation_tags_present(self):
        eqs = {row["equation"] for row in registry_table()}
        assert "(3.9)" in eqs and "(4.8)" in eqs and "(2.2)" in eqs

    def test_rows_carry_modes_and_defaults(self):
        for row in registry_table():
            assert row["modes"]
            assert row["default_params"]


class TestVerify:
    def test_i39_exact(self):
        rep = verify("I39", {"n": 4}, "exact")
        assert rep.passed and rep.max_abs_err == 0.0

    def test_i33_ode(self):
        rep = verify(IdentityId.I33, {"n": 3}, "ode")
        assert rep.passed and rep.max_abs_err == 0.0

    def test_i31_numeric(self):
        rep = verify("I31", {"q": 1}, "numeric")
        assert rep.passed and rep.max_abs_err <= 1e-9

    def test_unknown_identity(self):
        with pytest.raises(DomainError):
            verify("I99", {"n": 1})

    @pytest.mark.parametrize("n", (F(5, 2), 2.5, "5/2"))
    def test_i39_non_integral_index(self, n):
        with pytest.raises(DomainError, match="index parameter n"):
            verify("I39", {"n": n}, "exact")

    def test_inadmissible_mode(self):
        with pytest.raises(InadmissibleMode):
            verify("I39", {"n": 2}, "numeric")

    def test_missing_param(self):
        for iid in ("I39", "I22"):
            with pytest.raises(MissingParam):
                verify(iid, {})

    def test_unknown_param(self):
        with pytest.raises(DomainError, match="bogus"):
            verify("I39", {"n": 3, "bogus": 1}, "exact")

    @pytest.mark.parametrize("tol", (math.nan, -1.0, 0.0, math.inf, -math.inf))
    def test_meaningless_tolerance_rejected(self, tol):
        # NaN, zero and negative tolerances fail every check; an infinite one
        # passes even a route whose error is inf
        grid = identities.REGISTRY[IdentityId.I48].grid
        for points in ((0.1,), grid):
            with pytest.raises(DomainError, match="tolerance must be finite and > 0"):
                identities.NumericGrid(points, tol)
        assert verify("I48", {"n": 3, "j": 4}, identities.NumericGrid(grid, 1e300)).passed

    def test_empty_grid_rejected(self):
        # a grid with no point checks nothing and used to pass
        with pytest.raises(DomainError, match="at least one point"):
            verify("I31", {"q": 1}, identities.NumericGrid(()))
        with pytest.raises(TypeError):
            identities.NumericGrid()  # the grid is required

    @pytest.mark.parametrize("make, kind", (
        (lambda **kw: identities.ExactPoly(**kw), "exact"),
        (lambda **kw: identities.OdeResidual(**kw), "ode"),
        (lambda **kw: identities.NumericGrid((0.1, 0.3), 1e-9, **kw), "numeric"),
    ), ids=("ExactPoly", "OdeResidual", "NumericGrid"))
    def test_mode_kind_is_fixed_by_its_class(self, make, kind):
        # a kind= that disagrees with the class used to run another check
        # (or fail with a bare AttributeError)
        assert make().kind == kind
        for other in ("exact", "ode", "numeric"):
            with pytest.raises(TypeError):
                make(kind=other)

    def test_tol_override_can_fail(self):
        grid = identities.REGISTRY[IdentityId.I48].grid
        rep = verify("I48", {"n": 3, "j": 4}, identities.NumericGrid(grid, 1e-13))
        assert not rep.passed

    def test_report_serialization(self):
        d = verify("I49", {"n": 2, "j": 3}, "exact").to_dict()
        assert d["id"] == "I49" and d["pass"] is True and d["mode"] == "exact"

    def test_non_finite_route_fails(self, monkeypatch):
        # |inf - v| / inf is nan, which max() would drop: a route value
        # that is not finite must fail with error inf instead
        for bad in (math.inf, math.nan):
            monkeypatch.setattr(identities, "szasz_K", lambda n, j, x, bad=bad: bad)
            for iid, params in (("I48", {"n": 2, "j": 1}), ("I46", {"n": 2})):
                rep = verify(iid, params, "numeric")
                assert not rep.passed and rep.max_abs_err == math.inf, (iid, bad)


    def test_i48_rejects_zero_normalization(self):
        for mode in ("exact", "numeric"):
            with pytest.raises(DomainError, match="n >= 1"):
                verify("I48", {"n": 0, "j": 1}, mode)
        assert verify("I48", {"n": 0, "j": 0}, "exact").passed

    @pytest.mark.parametrize("iid", ("I46", "I47"))
    @pytest.mark.parametrize("mode", ("exact", "numeric"))
    def test_k1_ladders_reject_zero_n(self, iid, mode):
        with pytest.raises(DomainError, match="n >= 1"):
            verify(iid, {"n": 0}, mode)
        assert verify(iid, {"n": 1}, mode).passed

    @pytest.mark.parametrize("iid, params", (
        ("I31", {"q": 0.5}), ("I32", {"q": -1.0}),
        ("I311_312", {"alpha": 1, "beta": 1.0, "gamma": 1}),
        ("I42", {"p": 1, "gamma": 1, "alpha": 0.5}), ("I43", {"p": 2.0, "gamma": 1, "alpha": F(1, 2)}),
    ))
    def test_float_parameter_is_not_exact(self, iid, params):
        with pytest.raises(NotExact, match="expected an exact rational, got float"):
            verify(iid, params)


def _generator_cauchy(a, b, count):
    """Truncated Cauchy product as a generator sum over Fraction, the reference for ``_cauchy``."""
    return [
        sum((a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1)), F(0))
        for k in range(count)
    ]


_series = st.lists(st.one_of(st.just(F(0)), st.builds(F, st.integers(-9, 9), st.integers(1, 9))),
                   max_size=10)


@settings(max_examples=100)
@given(_series, _series, st.integers(0, 14))
@example([], [F(1, 2)], 3)
@example([F(1, 3), 0, F(-2, 7)], [0, F(5, 4), F(1, 9)], 2)
@example([F(1, 2)] * 5, [F(1, 3)] * 7, 14)
def test_cauchy_matches_generator_sum(a, b, count):
    got = identities._cauchy(a, b, count)
    assert got == _generator_cauchy(a, b, count)
    assert len(got) == count and all(type(c) is F for c in got)


class TestI314:
    def test_trivial_corner(self):
        assert i314_rhs(0, 0) == Poly.constant(1)

    def test_n1_i0_is_weight_polynomial(self):
        # direct expansion oracle: (1/4)(2 + 8 (x-1/2)^2) = 2x^2 - 2x + 1
        assert i314_rhs(1, 0) == Poly.of(1, -2, 2)
        assert i314_rhs(1, 0) == specfun.f_poly(1)

    @pytest.mark.parametrize("n", range(7))
    def test_value_one_at_zero(self, n):
        for i in range(n + 1):
            assert i314_rhs(n, i)(F(0)) == 1

    def test_index_guard(self):
        from heunops.errors import IndexOutOfRange

        with pytest.raises(IndexOutOfRange):
            i314_rhs(2, 3)

    def test_built_once_for_both_modes(self):
        # the exact and the ode check of one parameter set share one polynomial
        i314_rhs.cache_clear()
        for mode in ("exact", "ode"):
            assert verify("I314", {"n": 4, "i": 1}, mode).passed
        assert i314_rhs.cache_info().misses == 1 and i314_rhs.cache_info().hits == 1
        with pytest.raises(TypeError):
            i314_rhs(4.0, 1)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_series_termination_matches_polynomial(self, n):
        # the terminating local series and the explicit polynomial coincide
        for i in range(n + 1):
            rep = verify("I314", {"n": n, "i": i}, "exact")
            assert rep.passed and rep.max_abs_err == 0.0


class TestPfaffProperty:
    @pytest.mark.parametrize("q", (F(1, 2), F(1), F(3, 2)))
    def test_twenty_point_grid(self, q):
        # all three closed expressions and the phi-integral agree to 1e-9
        # on a 20-point grid filling (0, 0.45]
        from heunops.identities import NumericGrid, _check_i31, _check_i32

        grid = tuple(0.0225 * k for k in range(1, 21))
        err31, _, ok31 = _check_i31({"q": q}, NumericGrid(grid, 1e-9))
        err32, _, ok32 = _check_i32({"q": q}, NumericGrid(grid, 1e-9))
        assert ok31 and ok32, (err31, err32)


#: the registry identity that checks each derivative-ladder family of the paper
LADDERS = {"heun-3.11": "I311_312", "heun-3.12": "I311_312", "hc-4.2": "I42", "hc-4.3": "I43", "hc-4.8": "I48"}


def _ladder(family, params, grid=None, tol=1e-9):
    """The numeric check of one ladder instance, on the registry grid by default."""
    iid = IdentityId(LADDERS[family])
    return verify(iid, params, identities.NumericGrid(identities.REGISTRY[iid].grid if grid is None else grid, tol))


def _k_ratio_holds(n, j):
    """(j+1) K^(j+1)(0) = -2n(2j+1) K^(j)(0): the constants that carry rung j
    of the (4.8) ladder to rung j + 1."""
    return (j + 1) * specfun.kn_deriv_zero(n, j + 1) == -2 * n * (2 * j + 1) * specfun.kn_deriv_zero(n, j)


class TestLadders:
    def test_weight_family_derivative_matches(self):
        # alpha = -2n, beta = 1, gamma = 1 with n = 2 reproduces the exact
        # derivative factorization F_2' = 4(2x-1) * Hl(-3; -2, 3; 2, 2)
        rep = _ladder("heun-3.11", {"alpha": -4, "beta": 1, "gamma": 1})
        assert rep.passed
        lhs = specfun.f_poly(2).derivative()
        rhs = (Poly.of(-1, 2) * heun_poly(HeunParams(F(1, 2), -3, -2, 3, 2, 2))).scale(4)
        assert lhs == rhs

    def test_hc_ladder_reproduces_first_derivative(self):
        # p = n = 1, gamma = 1, alpha = 1/2: the ladder right sides are the
        # two first-derivative formulas for the squared Poisson-weight sum
        assert _ladder("hc-4.2", {"p": 1, "gamma": 1, "alpha": F(1, 2)}).passed
        assert _ladder("hc-4.3", {"p": 1, "gamma": 1, "alpha": F(1, 2)}).passed
        for x in (0.2, 0.7):
            k1 = szasz_K(1, 1, x)
            via_47 = confluent_heun(specfun.ConfluentHeunParams(1, 2, 0, F(3, 2), 6), x).value
            via_46 = confluent_heun(specfun.ConfluentHeunParams(1, 2, 2, F(5, 2), 4), x).value
            assert abs(via_47 - (-k1 / 2)) < 1e-10
            assert abs(via_46 - k1 / (2 * (x - 1))) < 1e-10

    def test_j_ladder(self):
        # rung j = 3 at n = 2 is the (4.2) ladder at p = 2, gamma = 4,
        # alpha = 7/2, on the grid of (4.8), plus the ratio of K^(3)(0) to K^(4)(0)
        grid = identities.REGISTRY[IdentityId.I48].grid
        assert verify("I42", {"p": 2, "gamma": 4, "alpha": F(7, 2)}, identities.NumericGrid(grid, 1e-9)).passed
        assert _k_ratio_holds(2, 3)
        assert _ladder("hc-4.8", {"n": 2, "j": 3}).passed

    @pytest.mark.parametrize("key", ("n", "j"))
    def test_j_ladder_non_integral_index(self, key):
        params = {"n": 2, "j": 3, key: F(7, 2)}
        with pytest.raises(DomainError, match=f"index parameter {key}"):
            _ladder("hc-4.8", params)

    def test_finite_difference_route_decides(self, monkeypatch):
        # with no room left for the central difference's h^2 error every
        # ladder check must fail: the FD route still takes part in the verdict
        rungs = [(n, j) for n in (1, 2) for j in (0, 3)]

        def run():
            reports = [verify(iid, ps, "numeric")
                       for iid in ("I311_312", "I42", "I43", "I46", "I47")
                       for ps in identities.REGISTRY[IdentityId(iid)].default_params]
            reports += [verify("I42", {"p": n, "gamma": j + 1, "alpha": F(2 * j + 1, 2)}, "numeric")
                        for n, j in rungs]
            return [r.passed for r in reports]

        assert all(_k_ratio_holds(n, j) for n, j in rungs)
        assert all(run())
        monkeypatch.setattr(identities, "FD_TOL", 0.0)
        assert not any(run())

    @pytest.mark.parametrize("family, iid, params", (
        ("heun-3.11", "I311_312", {"alpha": 3, "beta": 1, "gamma": 2}),
        ("heun-3.12", "I311_312", {"alpha": F(1, 2), "beta": 1, "gamma": 1}),
        ("hc-4.2", "I42", {"p": 1, "gamma": 2, "alpha": 1}),
        ("hc-4.3", "I43", {"p": 2, "gamma": 1, "alpha": F(1, 2)}),
    ))
    @pytest.mark.parametrize("grid, tol", ((None, 1e-9), ((0.2, 0.35), 1e-12), ((0.3,), 1e-16)))
    def test_ladder_check_matches_registry_verify(self, family, iid, params, grid, tol):
        # a ladder's verdict on a grid is the worst of its verdicts point by point
        rep = _ladder(family, params, grid, tol)
        assert rep.id is IdentityId(iid)
        singles = [_ladder(family, params, (x,), tol) for x in rep.mode.grid]
        assert (rep.max_abs_err, rep.points_checked, rep.passed) == \
            (max(r.max_abs_err for r in singles), sum(r.points_checked for r in singles),
             all(r.passed for r in singles))

    @pytest.mark.parametrize("family, iid, params", (
        ("heun-3.11", "I311_312", {"alpha": 1, "beta": 1, "gamma": 1}),
        ("heun-3.12", "I311_312", {"alpha": 1, "beta": 1, "gamma": 1}),
        ("hc-4.2", "I42", {"p": 1, "gamma": 1, "alpha": F(1, 2)}),
        ("hc-4.3", "I43", {"p": 1, "gamma": 1, "alpha": F(1, 2)}),
        ("hc-4.8", "I48", {"n": 1, "j": 2}),
    ))
    def test_ladder_default_grid_is_registry_grid(self, family, iid, params):
        rep = verify(LADDERS[family], params, "numeric")
        assert rep.id is IdentityId(iid)
        assert rep.mode.grid == identities.REGISTRY[rep.id].grid

    @pytest.mark.parametrize("family, params", (
        ("heun-3.11", {"alpha": 1}),
        ("heun-3.12", {"alpha": 1, "beta": 1}),
        ("hc-4.2", {"p": 1}),
        ("hc-4.3", {"gamma": 1, "alpha": 1}),
        ("hc-4.8", {"n": 1}),
    ))
    def test_missing_param(self, family, params):
        with pytest.raises(MissingParam):
            verify(LADDERS[family], params)

    @pytest.mark.parametrize("family, params, key", (
        ("heun-3.11", {"alpha": 1, "beta": 1, "gamma": 1, "sigma": 2}, "sigma"),
        ("hc-4.2", {"p": 1, "gamma": 1, "alpha": 1, "q": 2}, "q"),
        ("hc-4.8", {"n": 1, "j": 2, "x": F(1, 2)}, "x"),
    ))
    def test_unknown_param(self, family, params, key):
        with pytest.raises(DomainError, match=f"takes no parameters \\['{key}'\\]"):
            verify(LADDERS[family], params)


class TestFullSuite:
    def test_everything_passes(self):
        reports = verify_all()
        bad = [r for r in reports if not r.passed]
        assert not bad, [f"{r.id.value} {r.params} {r.mode.kind}" for r in bad]

    def test_deterministic_order(self):
        a = [(r.id.value, r.mode.kind, tuple(sorted((k, str(v)) for k, v in r.params.items())))
             for r in verify_all()]
        b = [(r.id.value, r.mode.kind, tuple(sorted((k, str(v)) for k, v in r.params.items())))
             for r in verify_all()]
        assert a == b


class TestBuildOnce:
    def test_kn_taylor_coefficient_built_once_per_order(self, monkeypatch):
        counts = Counter()
        real = specfun._kn_taylor_coeff

        def counting(n, m):
            counts[n, m] += 1
            return real(n, m)

        specfun._kn_taylor_prefix.cache_clear()
        monkeypatch.setattr(specfun, "_kn_taylor_coeff", counting)
        assert all(r.passed for r in verify_all())
        assert {n for n, _ in counts} == {1, 2, 3}
        assert max(counts.values()) == 1


    def test_trapezoid_rule_built_once(self):
        # the I22 and I31 quadratures share one 257-node half-angle table,
        # built from one rule
        specfun._trapezoid.cache_clear()
        specfun.half_angle_table.cache_clear()
        for iid, params in (("I22", {"m": 3}), ("I22", {"m": 5}), ("I31", {"q": 1}), ("I31", {"q": 2})):
            assert verify(iid, params, "numeric").passed
        assert specfun._trapezoid.cache_info().misses == 1
        info = specfun.half_angle_table.cache_info()
        assert info.misses == 1 and info.hits > 1


def _outcome(f, *args):
    """The float ``f(*args)`` returns, as hex, or the type and message of what it raises."""
    try:
        return f(*args).hex()
    except Exception as exc:
        return type(exc), str(exc)


def _s2_integral_closure(n, x):
    """The k = 2 phi-integral as one closure per node of the trapezoid rule."""
    m, xf = n - 2, float(x)

    def integrand(phi):
        return (1 - 4 * xf * (1 - xf) * math.sin(phi / 2) ** 2) ** m * (
            1 + 2 * math.cos(phi / 2) ** 2
        )

    rule = specfun.periodic_trapezoid(256, 0.0, math.pi)
    return n / (3 * math.pi) * specfun.quadrature(rule, integrand)


def _phi_integral_closure(q, x):
    """The I31 phi-integral as one closure per node of the trapezoid rule."""
    def integrand(phi):
        return (1.0 - 4.0 * x * (1.0 - x) * math.sin(phi / 2) ** 2) ** (-q)

    rule = specfun.periodic_trapezoid(256, 0.0, math.pi)
    return specfun.quadrature(rule, integrand) / math.pi


_I31_QS = [float(ps["q"]) for ps in identities.REGISTRY[IdentityId.I31].default_params]


class TestHalfAngleIntegrals:
    """The two phi-integrals over the cached half-angle table are bit for bit
    the trapezoid rule applied to a per-node closure, exceptions included:
    at x = 1/2 the base 0.0 meets a negative power, and a NaN x is
    rejected as a non-finite integrand."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(0, 1), st.integers(2, 40))
    @example(0.5, 2)
    @example(0.5, 40)
    @example(math.nan, 3)
    def test_s2_integral_form(self, x, n):
        assert _outcome(entropy.s2_integral_form, n, x) == _outcome(_s2_integral_closure, n, x)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(0, 1), st.sampled_from(_I31_QS) | st.floats(-3, 3))
    @example(0.5, 1.0)
    @example(0.5, -1.5)
    @example(math.nan, 0.5)
    def test_phi_integral(self, x, q):
        assert _outcome(identities._phi_integral, q, x) == _outcome(_phi_integral_closure, q, x)

    def test_node_count_passed_through(self):
        # both integrals read the one table, of 256 subintervals
        specfun.half_angle_table.cache_clear()
        entropy.s2_integral_form(5, 0.3), identities._phi_integral(0.5, 0.3)
        specfun.half_angle_table(256)
        info = specfun.half_angle_table.cache_info()
        assert (info.hits, info.misses) == (2, 1)


class TestMutationControls:
    def test_perturbed_i314_breaks_only_itself(self, monkeypatch):
        real = identities.i314_rhs.__wrapped__ if hasattr(identities.i314_rhs, "__wrapped__") else identities.i314_rhs

        def crooked(n, i):
            return real(n, i) + Poly.monomial(1, F(1, 1000))

        monkeypatch.setattr(identities, "i314_rhs", crooked)
        reports = verify_all()
        failing = {r.id for r in reports if not r.passed}
        assert failing == {IdentityId.I314}

    def test_perturbed_weight_polynomial_breaks_exactly_its_dependents(self, monkeypatch):
        real = specfun.f_poly

        def crooked(n):
            return real(n) + Poly.monomial(1, F(1, 1000))

        monkeypatch.setattr(specfun, "f_poly", crooked)
        reports = verify_all()
        failing = {r.id for r in reports if not r.passed}
        expected = {
            IdentityId.I33,
            IdentityId.I34,
            IdentityId.I35,
            IdentityId.I36,
            IdentityId.I37,
            IdentityId.I39,
            IdentityId.I313,
        }
        assert failing == expected

    #: the exact and ode checks that read f_poly(3), with their parameters
    F3_CHECKS = (("I33", {"n": 3}, "ode"), ("I35", {"n": 4}, "exact"), ("I36", {"n": 3}, "exact"),
                 ("I37", {"n": 3}, "exact"), ("I39", {"n": 3}, "exact"), ("I313", {"n": 3}, "exact"))

    def _perturb_f3(self, monkeypatch, size):
        real = specfun.f_poly
        monkeypatch.setattr(specfun, "f_poly",
                            lambda n: real(n) + Poly.monomial(1, size) if n == 3 else real(n))

    def test_perturbation_below_float_range_fails(self, monkeypatch):
        # the differences round to 0.0, so only an exact verdict sees them
        self._perturb_f3(monkeypatch, F(1, 10**400))
        for iid, params, mode in self.F3_CHECKS:
            assert not verify(iid, params, mode).passed, iid
        rep = verify("I39", {"n": 3}, "exact")
        assert rep.max_abs_err == 0.0 and not rep.passed

    def test_perturbation_above_float_range_fails(self, monkeypatch, capsys):
        self._perturb_f3(monkeypatch, F(10**400))
        # the numeric routes of I33 (n = 3) and I34 (n = 4) evaluate f_poly(3) at floats
        for iid, params, mode in (*self.F3_CHECKS, ("I33", {"n": 3}, "numeric"), ("I34", {"n": 4}, "numeric")):
            rep = verify(iid, params, mode)
            assert not rep.passed and rep.max_abs_err == math.inf, (iid, mode)
        assert main(["verify", "--id", "I36", "--params", "n=3"]) == 1
        assert "FAIL  max_err=inf" in capsys.readouterr().out
        assert main(["verify", "--id", "I33", "--mode", "numeric", "--params", "n=3"]) == 1
        assert "FAIL  max_err=inf" in capsys.readouterr().out

    def test_perturbations_with_warm_caches(self, monkeypatch):
        """Every cache is filled first, so a cache above a perturbed seam
        would hide the perturbation."""
        assert all(r.passed for r in verify_all())
        real_rhs = identities.i314_rhs
        monkeypatch.setattr(identities, "i314_rhs",
                            lambda n, i: real_rhs(n, i) + Poly.monomial(1, F(1, 1000)))
        assert {r.id for r in verify_all() if not r.passed} == {IdentityId.I314}
        monkeypatch.undo()

        real_f = specfun.f_poly
        monkeypatch.setattr(specfun, "f_poly", lambda n: real_f(n) + Poly.monomial(1, F(1, 1000)))
        expected = {IdentityId.I33, IdentityId.I34, IdentityId.I35, IdentityId.I36,
                    IdentityId.I37, IdentityId.I39, IdentityId.I313}
        assert {r.id for r in verify_all() if not r.passed} == expected

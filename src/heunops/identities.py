"""Registry of the numbered identities with uniform machine verification.

Each identity is checked exactly (rational polynomial equality, exact
series-coefficient comparison, or a zero-ODE-residual certificate)
whenever both sides are rational-polynomial constructible, and
numerically otherwise (independent evaluation routes compared on a fixed
grid).  The registry table ties every identity to its display-equation
tag, admissible modes and default parameter ranges; the CLI exports the
table as JSON.

A checker only builds its routes or coefficient sides.  The verdict comes
from one helper per kind of check: ``_exact_chain`` (coefficient lists
equal term by term; ``_exact_verdict`` decides every exact and ode check),
``_grid_check`` (numeric routes within ``mode.tol``) and ``_ladder_check``
(a derivative ladder: its exact chain, or series derivative within
``mode.tol`` and central difference within ``FD_TOL``).  A numeric route
that overflows a float fails its check with error inf.

The check modes, ``VerificationReport`` and ``RegistryEntry`` are
immutable value types (:class:`heunops.exactalg.Frozen`).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Sequence, Union

from . import entropy, specfun
from .errors import (
    DomainError,
    IndexOutOfRange,
    InadmissibleMode,
    MissingParam,
)
from .exactalg import E0, E1, E2, Frozen, Poly, binary_form, parse_number, rat
from .specfun import (
    ConfluentHeunParams,
    HeunParams,
    confluent_heun,
    confluent_heun_coeffs,
    confluent_heun_deriv,
    heun_coeffs,
    heun_local,
    heun_local_deriv,
    heun_ode_residual,
    heun_operator,
    heun_poly,
    hyp2f1,
    hyp2f1_pfaff,
    hyp2f1_poly,
    kn_deriv_zero,
    kn_taylor_coeffs,
    legendre_poly,
    phi_integral,
    szasz_K,
)


class IdentityId(str, Enum):
    I22 = "I22"
    I31 = "I31"
    I32 = "I32"
    I33 = "I33"
    I34 = "I34"
    I35 = "I35"
    I36 = "I36"
    I37 = "I37"
    I38 = "I38"
    I39 = "I39"
    I311_312 = "I311_312"
    I313 = "I313"
    I314 = "I314"
    I42 = "I42"
    I43 = "I43"
    I45 = "I45"
    I46 = "I46"
    I47 = "I47"
    I48 = "I48"
    I49 = "I49"
    I410 = "I410"


class ExactPoly(Frozen):
    kind = "exact"


class OdeResidual(Frozen):
    kind = "ode"


#: tolerance of a numeric check that names none: a registry entry's
#: ``tol`` and a ``NumericGrid``'s default
DEFAULT_TOL = 1e-9


class NumericGrid(Frozen):
    kind = "numeric"

    def __init__(self, grid: tuple[float, ...], tol: float = DEFAULT_TOL) -> None:
        self.__dict__.update(grid=grid, tol=tol)
        self.__post_init__()

    def __post_init__(self) -> None:
        # a NaN, zero or negative tolerance fails every check, and an infinite
        # one passes even a route whose error is inf
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise DomainError(f"tolerance must be finite and > 0, got {self.tol}")
        # an empty grid checks nothing, so it would pass every identity
        if not self.grid:
            raise DomainError("numeric grid needs at least one point")


CheckMode = Union[ExactPoly, OdeResidual, NumericGrid]


class VerificationReport(Frozen):
    def __init__(self, id: IdentityId, params: dict, mode: CheckMode, max_abs_err: float,
                 points_checked: int, passed: bool) -> None:
        self.__dict__.update(id=id, params=params, mode=mode, max_abs_err=max_abs_err,
                             points_checked=points_checked, passed=passed)

    def to_dict(self) -> dict:
        out = {
            "id": self.id.value,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "mode": self.mode.kind,
            "max_abs_err": self.max_abs_err,
            "points_checked": self.points_checked,
            "pass": self.passed,
        }
        if isinstance(self.mode, NumericGrid):
            out["tol"] = self.mode.tol
        return out


FD_STEP = 1e-5
FD_TOL = 1e-6  # h^2 error floor of the central difference
#: series-coefficient comparison depth for entire-function identities
COEFF_DEPTH = 24

_GRID_MAIN = tuple(k / 100 for k in range(5, 50, 5))  # 0.05 .. 0.45
_GRID_SHORT = tuple(k / 100 for k in range(5, 45, 5))  # 0.05 .. 0.40
_GRID_HC = (0.1, 0.3, 0.5, 0.8)
_GRID_K = (0.1, 0.25, 0.5, 0.9)
_X9 = tuple(Fraction(i, 8) for i in range(9))


def _rel(a: float, b: float) -> float:
    """Relative difference of two route values; inf if one is not finite."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def _spread(values: Sequence[float]) -> float:
    return max((_rel(a, b) for a, b in combinations(values, 2)), default=0.0)


def _exact_verdict(diffs: Iterable[Fraction], points: int) -> tuple[float, int, bool]:
    """Checker result from exact differences: the largest |float(d)| (inf
    if one overflows a float), ``points``, and whether every d is 0.

    The verdict never reads the rounded values, so a difference that
    underflows to 0.0 still fails."""
    err, exact = 0.0, True
    for d in diffs:
        if d:
            exact = False
            try:
                err = max(err, abs(float(d)))
            except OverflowError:
                err = math.inf
    return err, points, exact


def _exact_chain(*sides: Sequence[Fraction]) -> tuple[float, int, bool]:
    """Exact verdict that each coefficient list agrees term by term with
    the next; every compared term is one point."""
    diffs = [a - b for xs, ys in zip(sides, sides[1:]) for a, b in zip(xs, ys)]
    return _exact_verdict(diffs, len(diffs))


def _grid_check(mode: NumericGrid, routes, per_x: int = 1) -> tuple[float, int, bool]:
    """Numeric verdict on the worst relative spread over ``mode.grid`` of
    the independent route values ``routes(x)``; each grid point counts
    ``per_x`` points."""
    worst = 0.0
    for x in mode.grid:
        try:
            worst = max(worst, _spread(routes(x)))
        except OverflowError:
            worst = math.inf
            break
    return worst, per_x * len(mode.grid), worst <= mode.tol


def _ladder_check(mode, sides, series, fd, rhs) -> tuple[float, int, bool]:
    """Verdict of one derivative ladder.  Exact mode chains ``sides()``:
    the derivative's coefficients, then each right-side form's.  Numeric
    mode chains the series derivative ``series(x)`` and the forms
    ``rhs(x)`` within ``mode.tol``, and takes the central difference
    ``fd(x)`` against the first form within FD_TOL; each value is a point.
    """
    if mode.kind == "exact":
        return _exact_chain(*sides())
    worst_series = worst_fd = 0.0
    points = 0
    for x in mode.grid:
        chain = (series(x), *rhs(x))
        worst_series = max(worst_series, *(_rel(a, b) for a, b in zip(chain, chain[1:])))
        worst_fd = max(worst_fd, _rel(fd(x), chain[1]))
        points += len(chain)
    return worst_series, points, worst_series <= mode.tol and worst_fd <= FD_TOL


def _cauchy(a: Sequence[Fraction], b: Sequence[Fraction], count: int) -> list[Fraction]:
    """First ``count`` coefficients of the product of two series, zero-padded."""
    out = list((Poly(tuple(a[:count])) * Poly(tuple(b[:count]))).coeffs[:count])
    return out + [Fraction(0)] * (count - len(out))


def _binom_series(exponent: Fraction, scale: Fraction, count: int) -> list[Fraction]:
    """Coefficients of (1 + scale*x)^exponent, any rational exponent."""
    out = [Fraction(1)]
    for m in range(1, count):
        out.append(out[-1] * (exponent - (m - 1)) / m * scale)
    return out


def _deriv_coeffs(c: Sequence[Fraction]) -> list[Fraction]:
    """Taylor coefficients of the derivative, one fewer than ``c``."""
    return [(k + 1) * c[k + 1] for k in range(len(c) - 1)]


def _central_diff(f, x: float) -> float:
    return (f(x + FD_STEP) - f(x - FD_STEP)) / (2 * FD_STEP)


# ---------------------------------------------------------------------------
# parameter builders
# ---------------------------------------------------------------------------


def _params_f_family(n: int) -> HeunParams:
    return HeunParams(Fraction(1, 2), -n, -2 * n, 1, 1, 1)


def _params_g_family(n: int) -> HeunParams:
    return HeunParams(Fraction(1, 2), n, 2 * n, 1, 1, 1)


def _params_314(n: int, i: int) -> HeunParams:
    return HeunParams(Fraction(1, 2), (i - n) * (2 * i + 1), 2 * (i - n), 2 * i + 1, i + 1, i + 1)


def _params_k_family(n: int, j: int) -> ConfluentHeunParams:
    if n < 0 or j < 0:
        raise DomainError(f"the K family needs n >= 0 and j >= 0, got n = {n}, j = {j}")
    return ConfluentHeunParams(n, j + 1, 0, Fraction(2 * j + 1, 2), 2 * n * (2 * j + 1))


# typed, so that (1.0, 0) raises as it does uncached instead of reaching the entry of (1, 0)
@lru_cache(maxsize=None, typed=True)
def i314_rhs(n: int, i: int) -> Poly:
    """Exact even-shifted polynomial claimed equal to the terminating Heun
    series with parameters ((i-n)(2i+1); 2(i-n), 2i+1; i+1, i+1):

        ((2i)!! / (2i-1)!!) 4^(-n) C(n,i)^(-1)
            * sum_j 4^j C(i+j,i) C(2i+2j,i+j) C(2n-2i-2j,n-i-j) (x-1/2)^(2j)

    with the conventions (-1)!! = 0!! = 1.
    """
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"need 0 <= i <= n, got i={i}, n={n}")
    dfact_even = math.prod(range(2, 2 * i + 1, 2)) if i else 1
    dfact_odd = math.prod(range(1, 2 * i, 2)) if i else 1
    pref = Fraction(dfact_even, dfact_odd) / Fraction(4**n * comb(n, i))
    coeffs = [4**j * comb(i + j, i) * comb(2 * i + 2 * j, i + j) * comb(2 * n - 2 * i - 2 * j, n - i - j)
              for j in range(n - i + 1)]
    shifted_square = Poly.of(Fraction(1, 4), -1, 1)  # (x - 1/2)^2
    return binary_form(coeffs, shifted_square, E0, n - i).scale(pref)


# ---------------------------------------------------------------------------
# per-identity checkers: return (max_abs_err, points_checked, passed)
# ---------------------------------------------------------------------------


def _check_i22(params, mode):
    m = params["m"]
    sums = entropy.s2_sum_poly(m)
    if mode.kind == "exact":
        direct = entropy.s_direct_poly(m, 2)
        pts = max(len(direct.coeffs), len(sums.coeffs))
        values = [direct(x) - sums(x) for x in _X9]
        return _exact_verdict([*(direct - sums).coeffs, *values], pts + len(_X9))
    return _grid_check(mode, lambda x: (entropy.s2_integral_form(m, x), float(sums(Fraction(x)))))


def _phi_integral(q: float, x: float) -> float:
    """(1/pi) integral_0^pi (1 - 4x(1-x) sin^2(phi/2))^(-q) dphi by :func:`specfun.phi_integral`."""
    return phi_integral(x, -q, 0) / math.pi


def _check_i31(params, mode):
    q = params["q"]
    hp = HeunParams(Fraction(1, 2), q, 2 * q, 1, 1, 1)

    def routes(x):
        z = (x / (x - 1.0)) ** 2
        gauss = (1.0 - x) ** (-2 * float(q)) * hyp2f1(float(q), float(q), 1, z).value
        return heun_local(hp, x).value, gauss, _phi_integral(float(q), x)

    return _grid_check(mode, routes, per_x=3)


def _check_i32(params, mode):
    q = params["q"]
    hp = HeunParams(Fraction(1, 2), q, 2 * q, 1, 1, 1)

    def routes(x):
        w = x * x / (2 * x - 1.0)
        if abs(w) < 0.95:
            inner = hyp2f1(float(q), 1 - float(q), 1, w).value
        else:
            # raw series diverges past |w| = 1; continue through the Pfaff
            # map on the second parameter, which keeps the evaluation
            # independent of the (q, q; 1; .) route
            inner = hyp2f1_pfaff(float(q), 1 - float(q), 1, w).value
        return heun_local(hp, x).value, (1.0 - 2 * x) ** (-float(q)) * inner

    return _grid_check(mode, routes)


def _check_i33(params, mode):
    n = params["n"]
    p = specfun.f_poly(n)
    if mode.kind == "ode":
        res = heun_ode_residual(_params_f_family(n), p)
        err, pts, ok = _exact_verdict(res.coeffs, len(p.coeffs) + 1)
        return err, pts, ok and p(Fraction(0)) == 1
    return _grid_check(mode, lambda x: (heun_local(_params_f_family(n), x).value, float(p(x))))


def _check_i34(params, mode):
    # the raw local series at -x is badly conditioned for large upper
    # exponent 2n (huge alternating terms near the 1/2-radius), so the
    # Heun side is evaluated through its exact reflected reduction for
    # all n and the raw series only serves as a small-n spot check
    n = params["n"]
    if n < 1:
        raise DomainError(f"I34 needs n >= 1: its right side holds F_(n-1); got n = {n}")
    fp = specfun.f_poly(n - 1)
    spot_check = n <= 4

    def routes(x):
        # the left side is the defining weight sum: kernel_sum("G") is the
        # right side's closed form, so checking it would check it against itself
        xr = Fraction(x).limit_denominator(10**6)
        values = (specfun.g_weight_sum(n, x), float(fp(-xr) / (1 + 2 * xr) ** (2 * n - 1)))
        if spot_check:
            values += (heun_local(_params_g_family(n), -x).value,)
        return values

    return _grid_check(mode, routes, per_x=3 if spot_check else 2)


def _clear_denominator_residual(hp: HeunParams, p: Poly, s: int) -> Poly:
    """Residual of u = (1-2x)^s p(x) in Heun's equation, multiplied through
    by (1-2x)^(2-s) so everything is polynomial."""
    m, nn, lin = heun_operator(hp)
    d = Poly.of(1, -2)
    term2 = d * d * p.derivative().derivative() - d.scale(4 * s) * p.derivative() + p.scale(4 * s * (s - 1))
    term1 = d * (d * p.derivative() - p.scale(2 * s))
    return m * term2 + nn * term1 + lin * d * d * p


def _check_i35(params, mode):
    n = params["n"]
    if n < 1:
        raise DomainError(f"I35 needs n >= 1: its right side holds F_(n-1); got n = {n}")
    fp = specfun.f_poly(n - 1)
    depth = 4 * n + 6
    series = [Fraction(comb(n + k - 1, k)) ** 2 for k in range(depth)]
    qcoef = _cauchy(series, _binom_series(Fraction(2 * n - 1), Fraction(-1), depth), depth)
    lhs = binary_form(qcoef[:n], E2, Poly.of(1, -2, 1), n - 1)
    cert = _clear_denominator_residual(_params_g_family(n), fp, 1 - 2 * n)
    return _exact_verdict([*qcoef[n:], *(lhs - fp).coeffs, *cert.coeffs], depth + len(fp.coeffs))


def _check_i36(params, mode):
    n = params["n"]
    fp = specfun.f_poly(n)
    if fp.degree > 2 * n:  # right side not constructible from a wrong-degree input
        return math.inf, 1, False
    lhs = Poly(tuple(
        Fraction(comb(n, k // 2)) ** 2 if k % 2 == 0 else Fraction(0) for k in range(2 * n + 1)
    ))
    rhs = binary_form(fp.coeffs, E1, Poly.of(1, 1), 2 * n)
    return _exact_verdict((lhs - rhs).coeffs, max(len(lhs.coeffs), len(rhs.coeffs)))


def _check_i37(params, mode):
    n = params["n"]
    fp = specfun.f_poly(n)
    if fp.degree > 2 * n:
        return math.inf, 1, False
    depth = 4 * n + 8
    series = [Fraction(comb(n + k, k)) ** 2 for k in range(depth)]
    acoef = _cauchy(series, _binom_series(Fraction(2 * n + 1), Fraction(-1), depth), depth)
    a_even = [Fraction(0)] * (2 * n + 1)
    for i, c in enumerate(acoef[: n + 1]):
        a_even[2 * i] = c
    one_minus = Poly.of(1, -1)
    lhs = Poly(tuple(a_even)) * one_minus
    rhs = binary_form(fp.coeffs, E0, one_minus, 2 * n + 1)
    return _exact_verdict([*acoef[n + 1:], *(lhs - rhs).coeffs], depth + len(rhs.coeffs))


def _check_i38(params, mode):
    n = params["n"]
    lhs = hyp2f1_poly(-n, n + 1, 1)
    rhs = legendre_poly(n).compose_affine(-2, 1)
    return _exact_verdict((lhs - rhs).coeffs, len(rhs.coeffs))


def _check_i39(params, mode):
    n = params["n"]
    fp = specfun.f_poly(n)
    rhs = binary_form(legendre_poly(n).coeffs, Poly.of(1, -2, 2), Poly.of(1, -2), n)
    return _exact_verdict((fp - rhs).coeffs, len(fp.coeffs))


def _check_i311_312(params, mode):
    alpha, beta, gamma = params["alpha"], params["beta"], params["gamma"]
    lhs = HeunParams(Fraction(1, 2), alpha * beta / 2, alpha, beta, gamma, gamma)
    a12, b12 = 2 * gamma - alpha, 2 * gamma - beta
    rhs11 = HeunParams(Fraction(1, 2), (alpha + 2) * (beta + 2) / 2, alpha + 2, beta + 2,
                       gamma + 1, gamma + 1)
    rhs12 = HeunParams(Fraction(1, 2), a12 * b12 / 2, a12, b12, gamma + 1, gamma + 1)
    factor = alpha * beta / gamma
    exponent = 2 * gamma - alpha - beta - 1
    depth = COEFF_DEPTH

    def sides():
        e11 = heun_coeffs(rhs11, depth)
        power = _binom_series(exponent, Fraction(-2), depth)
        return (_deriv_coeffs(heun_coeffs(lhs, depth + 1)),
                [factor * (e11[k] - (2 * e11[k - 1] if k else 0)) for k in range(depth)],
                [factor * v for v in _cauchy(power, heun_coeffs(rhs12, depth), depth)])

    def rhs_forms(x):
        v11 = float(factor) * (1 - 2 * x) * heun_local(rhs11, x).value
        v12 = float(factor) * (1 - 2 * x) ** float(exponent) * heun_local(rhs12, x).value
        return v11, v12

    return _ladder_check(mode, sides, lambda x: heun_local_deriv(lhs, x).value,
                         lambda x: _central_diff(lambda t: heun_local(lhs, t).value, x),
                         rhs_forms)


def _check_i313(params, mode):
    n = params["n"]
    if n < 1:
        raise DomainError(f"I313 needs n >= 1: its Heun series terminates only there; got n = {n}")
    lhs = specfun.f_poly(n).derivative()
    hp = HeunParams(Fraction(1, 2), 3 - 3 * n, 2 - 2 * n, 3, 2, 2)
    rhs = (Poly.of(-1, 2) * heun_poly(hp)).scale(2 * n)
    return _exact_verdict((lhs - rhs).coeffs, max(len(lhs.coeffs), 1))


def _check_i314(params, mode):
    n, i = params["n"], params["i"]
    rhs = i314_rhs(n, i)
    hp = _params_314(n, i)
    if mode.kind == "ode":
        err, pts, ok = _exact_verdict(heun_ode_residual(hp, rhs).coeffs, len(rhs.coeffs) + 1)
    else:
        err, pts, ok = _exact_verdict((heun_poly(hp) - rhs).coeffs, len(rhs.coeffs))
    return err, pts, ok and rhs(Fraction(0)) == 1


def _hc_ladder_params(p, gamma, alpha):
    sigma = 4 * p * alpha
    lhs = ConfluentHeunParams(p, gamma, 0, alpha, sigma)
    rhs42 = ConfluentHeunParams(p, gamma + 1, 0, alpha + 1, 4 * p * (alpha + 1))
    rhs43 = ConfluentHeunParams(p, gamma + 1, 2, alpha + 2, 4 * p * (alpha + 1) - gamma - 1)
    return lhs, rhs42, rhs43, sigma


def _hc_ladder_check(lhs: ConfluentHeunParams, rhs: ConfluentHeunParams, mode, target, rhs_value):
    """Derivative of Hc(lhs) against a right side built from Hc(rhs): its
    coefficients ``target(e)`` from those ``e`` of Hc(rhs), its value
    ``rhs_value(x, Hc(rhs; x))``."""
    return _ladder_check(
        mode, lambda: (_deriv_coeffs(confluent_heun_coeffs(lhs, COEFF_DEPTH + 1)),
                       target(confluent_heun_coeffs(rhs, COEFF_DEPTH))),
        lambda x: confluent_heun_deriv(lhs, x).value,
        lambda x: _central_diff(lambda t: confluent_heun(lhs, t).value, x),
        lambda x: (rhs_value(x, confluent_heun(rhs, x).value),))


def _check_i42(params, mode):
    p, gamma, alpha = params["p"], params["gamma"], params["alpha"]
    lhs, rhs, _, sigma = _hc_ladder_params(p, gamma, alpha)
    factor = -sigma / gamma
    return _hc_ladder_check(lhs, rhs, mode, lambda e: [factor * c for c in e],
                            lambda x, v: float(factor) * v)


def _check_i43(params, mode):
    p, gamma, alpha = params["p"], params["gamma"], params["alpha"]
    lhs, _, rhs, sigma = _hc_ladder_params(p, gamma, alpha)
    factor = sigma / gamma
    return _hc_ladder_check(lhs, rhs, mode, lambda e: [factor * (a - b) for a, b in zip([0, *e], e)],
                            lambda x, v: float(factor) * (x - 1) * v)


def _check_i45(params, mode):
    n = params["n"]
    if mode.kind == "exact":
        depth = COEFF_DEPTH + 6
        return _exact_chain(confluent_heun_coeffs(_params_k_family(n, 0), depth),
                            kn_taylor_coeffs(n, depth))
    return _check_i48({"n": n, "j": 0}, mode)  # (4.5) is the j = 0 case of (4.8)


def _k1_ladder_check(n: int, hp: ConfluentHeunParams, mode, coeffs, route):
    """First derivative K' of the squared Poisson-weight sum against Hc(hp):
    the Taylor coefficients of K' against ``coeffs(h)`` from those ``h`` of
    Hc(hp), and ``route(x, K'(x))`` against Hc(hp; x).  Both right sides
    divide by 2n, so n = 0 is rejected in either mode.
    """
    if n == 0:
        raise DomainError("the K' ladders (4.6)/(4.7) need n >= 1: their right sides divide by 2n = 0")
    depth = COEFF_DEPTH + 6
    return _ladder_check(
        mode, lambda: (_deriv_coeffs(kn_taylor_coeffs(n, depth + 1)),
                       coeffs(confluent_heun_coeffs(hp, depth))),
        lambda x: route(x, szasz_K(n, 1, x)),
        lambda x: route(x, _central_diff(lambda t: szasz_K(n, 0, t), x)),
        lambda x: (confluent_heun(hp, x).value,))


def _check_i46(params, mode):
    n = params["n"]
    return _k1_ladder_check(n, ConfluentHeunParams(n, 2, 2, Fraction(5, 2), 6 * n - 2), mode,
                            lambda h: [2 * n * (a - b) for a, b in zip([0, *h], h)],
                            lambda x, k1: k1 / (2 * n * (x - 1)))


def _check_i47(params, mode):
    n = params["n"]
    return _k1_ladder_check(n, ConfluentHeunParams(n, 2, 0, Fraction(3, 2), 6 * n), mode,
                            lambda h: [-2 * n * c for c in h], lambda x, k1: -k1 / (2 * n))


def _check_i48(params, mode):
    n, j = params["n"], params["j"]
    hp = _params_k_family(n, j)
    k0 = kn_deriv_zero(n, j)
    if k0 == 0:
        raise DomainError(f"I48 needs n >= 1 for j >= 1: at n = {n}, K^({j})(0) = 0 cannot normalize")
    if mode.kind == "exact":
        depth = COEFF_DEPTH
        h = confluent_heun_coeffs(hp, depth)
        taylor = kn_taylor_coeffs(n, depth + j)
        deriv_coeffs = [
            taylor[m + j] * Fraction(math.factorial(m + j), math.factorial(m)) for m in range(depth)
        ]
        return _exact_chain(h, [c / k0 for c in deriv_coeffs])
    return _grid_check(mode, lambda x: (confluent_heun(hp, x).value,
                                        szasz_K(n, j, x) / float(k0)))


def _check_i49(params, mode):
    n, j = params["n"], params["j"]
    closed = kn_deriv_zero(n, j)
    oracle = kn_taylor_coeffs(n, j + 1)[j] * math.factorial(j)
    return _exact_chain([closed], [oracle])


def _check_i410(params, mode):
    n, j = params["n"], params["j"]
    depth = COEFF_DEPTH
    u = Poly(tuple(confluent_heun_coeffs(_params_k_family(n, j), depth)))
    residual = (
        Poly.monomial(1) * u.derivative().derivative()
        + Poly.of(j + 1, 4 * n) * u.derivative()
        + u.scale(2 * n * (2 * j + 1))
    )
    return _exact_verdict([residual.coeff(k) for k in range(depth - 1)], depth - 1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class RegistryEntry(Frozen):
    def __init__(self, id: IdentityId, equation: str, description: str, modes: tuple[str, ...],
                 default_params: tuple[dict, ...], grid: tuple[float, ...], tol: float,
                 checker: callable) -> None:
        self.__dict__.update(id=id, equation=equation, description=description, modes=modes,
                             default_params=default_params, grid=grid, tol=tol, checker=checker)

    def to_dict(self) -> dict:
        return {
            "id": self.id.value,
            "equation": self.equation,
            "modes": list(self.modes),
            "default_params": [
                {k: str(v) for k, v in sorted(ps.items())} for ps in self.default_params
            ],
            "grid": list(self.grid),
            "tol": self.tol,
            "description": self.description,
        }


def _entry(id_, equation, description, modes, default_params, checker, grid=(), tol=DEFAULT_TOL):
    return RegistryEntry(id_, equation, description, tuple(modes), tuple(default_params),
                         tuple(grid), tol, checker)


REGISTRY: dict[IdentityId, RegistryEntry] = {
    e.id: e
    for e in (
        _entry(IdentityId.I22, "(2.2)",
               "squared Kantorovich k=2 kernel: direct integral = closed sum form = phi-integral",
               ("exact", "numeric"), [{"m": m} for m in range(2, 9)], _check_i22,
               grid=tuple(float(x) for x in _X9)),
        _entry(IdentityId.I31, "(3.1)",
               "Heun series = Gauss-series form = phi-integral representation",
               ("numeric",), [{"q": q} for q in (Fraction(1, 2), Fraction(-1, 2), 1, -1, Fraction(3, 2))],
               _check_i31, grid=_GRID_MAIN),
        _entry(IdentityId.I32, "(3.2)",
               "Heun series = Pfaff-transformed Gauss form",
               ("numeric",), [{"q": q} for q in (Fraction(1, 2), Fraction(-1, 2), 1, -1, Fraction(3, 2))],
               _check_i32, grid=_GRID_MAIN),
        _entry(IdentityId.I33, "(3.3)",
               "squared Bernstein weight sum solves the Heun equation with value 1 at 0",
               ("ode", "numeric"), [{"n": n} for n in range(1, 9)], _check_i33,
               grid=_GRID_MAIN),
        _entry(IdentityId.I34, "(3.4)",
               "squared negative-binomial weight sum = Heun series at reflected argument",
               ("numeric",), [{"n": n} for n in range(1, 9)], _check_i34,
               grid=_GRID_SHORT),
        _entry(IdentityId.I35, "(3.5)",
               "reflected negative-binomial sum = (1-2x)^(1-2n) times the lower squared-weight polynomial",
               ("exact",), [{"n": n} for n in range(1, 9)], _check_i35),
        _entry(IdentityId.I36, "(3.6)",
               "squared Meyer-Koenig-Zeller-type sum = squared-weight polynomial at x/(x+1)",
               ("exact",), [{"n": n} for n in range(0, 9)], _check_i36),
        _entry(IdentityId.I37, "(3.7)",
               "squared Baskakov-type sum = prefactored squared-weight polynomial at 1/(1-x)",
               ("exact",), [{"n": n} for n in range(0, 9)], _check_i37),
        _entry(IdentityId.I38, "(3.8)",
               "terminating Gauss series equals the shifted Legendre polynomial",
               ("exact",), [{"n": n} for n in range(0, 11)], _check_i38),
        _entry(IdentityId.I39, "(3.9)",
               "squared-weight polynomial as (1-2x)^n times a Legendre value",
               ("exact",), [{"n": n} for n in range(0, 9)], _check_i39),
        _entry(IdentityId.I311_312, "(3.11)/(3.12)",
               "derivative ladder for symmetric-exponent Heun functions, both right-hand forms",
               ("exact", "numeric"),
               [{"alpha": a, "beta": b, "gamma": g} for a, b, g in
                ((1, 1, 1), (Fraction(1, 2), 1, 1), (1, 1, 2), (3, 1, 2), (-2, 1, 1))],
               _check_i311_312, grid=_GRID_SHORT),
        _entry(IdentityId.I313, "(3.13)",
               "derivative of the squared-weight polynomial = 2n(2x-1) times a Heun polynomial",
               ("exact",), [{"n": n} for n in range(1, 7)], _check_i313),
        _entry(IdentityId.I314, "(3.14)",
               "explicit even-shifted polynomial form of the terminating Heun family",
               ("ode", "exact"), [{"n": n, "i": i} for n in range(0, 9) for i in range(n + 1)],
               _check_i314),
        _entry(IdentityId.I42, "(4.2)",
               "confluent-Heun derivative ladder, same-type right side",
               ("exact", "numeric"),
               [{"p": p, "gamma": g, "alpha": a} for p, g, a in
                ((1, 1, Fraction(1, 2)), (1, 2, 1), (2, 1, Fraction(1, 2)), (1, 1, Fraction(3, 2)))],
               _check_i42, grid=_GRID_HC),
        _entry(IdentityId.I43, "(4.3)",
               "confluent-Heun derivative ladder, (x-1)-weighted right side",
               ("exact", "numeric"),
               [{"p": p, "gamma": g, "alpha": a} for p, g, a in
                ((1, 1, Fraction(1, 2)), (1, 2, 1), (2, 1, Fraction(1, 2)), (1, 1, Fraction(3, 2)))],
               _check_i43, grid=_GRID_HC),
        _entry(IdentityId.I45, "(4.5)",
               "squared Poisson-weight sum as a confluent Heun function",
               ("exact", "numeric"), [{"n": n} for n in (1, 2, 3)], _check_i45,
               grid=_GRID_K),
        _entry(IdentityId.I46, "(4.6)",
               "first derivative of the Poisson-weight sum via the (x-1)-weighted ladder",
               ("exact", "numeric"), [{"n": n} for n in (1, 2, 3)], _check_i46,
               grid=_GRID_HC),
        _entry(IdentityId.I47, "(4.7)",
               "first derivative of the Poisson-weight sum via the same-type ladder",
               ("exact", "numeric"), [{"n": n} for n in (1, 2, 3)], _check_i47,
               grid=_GRID_HC),
        _entry(IdentityId.I48, "(4.8)",
               "j-th derivative of the Poisson-weight sum, normalized at 0, as a confluent Heun function",
               ("exact", "numeric"), [{"n": n, "j": j} for n in (1, 2, 3) for j in range(7)],
               _check_i48, grid=_GRID_HC, tol=1e-8),
        _entry(IdentityId.I49, "(4.9)",
               "closed form of the j-th derivative at 0 vs the Cauchy-product Taylor oracle",
               ("exact",), [{"n": n, "j": j} for n in (1, 2, 3) for j in range(13)],
               _check_i49),
        _entry(IdentityId.I410, "(4.10)",
               "ladder ODE residual of the truncated confluent-Heun series vanishes",
               ("ode",), [{"n": n, "j": j} for n in (1, 2, 3) for j in range(7)],
               _check_i410),
    )
}


def registry_table() -> list[dict]:
    """Registry rows (identity, equation tag, modes, default ranges) for export."""
    return [REGISTRY[i].to_dict() for i in IdentityId]


def resolve_id(identity) -> IdentityId:
    """The IdentityId named by ``identity`` (an IdentityId or its string)."""
    if isinstance(identity, IdentityId):
        return identity
    try:
        return IdentityId(str(identity))
    except ValueError as exc:
        raise DomainError(f"unknown identity {identity!r}") from exc


def _resolve_mode(entry: RegistryEntry, mode) -> CheckMode:
    if mode is None:
        mode = entry.modes[0]
    instance = isinstance(mode, (ExactPoly, OdeResidual, NumericGrid))
    kind = mode.kind if instance else mode
    if kind not in entry.modes:
        raise InadmissibleMode(f"{entry.id.value} does not support mode {kind!r}")
    if instance:
        return mode
    if mode == "exact":
        return ExactPoly()
    if mode == "ode":
        return OdeResidual()
    return NumericGrid(entry.grid, entry.tol)


def _normalize_params(entry: RegistryEntry, params: dict) -> dict:
    keys = entry.default_params[0]
    missing = [k for k in keys if k not in params]
    if missing:
        raise MissingParam(f"{entry.id.value} requires parameters {missing}")
    unknown = [k for k in params if k not in keys]
    if unknown:
        raise DomainError(f"{entry.id.value} takes no parameters {unknown}")
    out = {}
    for k, v in params.items():
        is_index = k in ("n", "i", "j", "m")
        value = parse_number(f"{entry.id.value} parameter {k}", v, Fraction if is_index else rat)
        if is_index:
            if value.denominator != 1:
                raise DomainError(f"{entry.id.value}: index parameter {k} must be an integer, got {v!r}")
            value = int(value)
        out[k] = value
    return out


def verify(identity, params: dict, mode=None) -> VerificationReport:
    """Run one identity check and return its report.

    ``mode`` may be ``"exact"``, ``"ode"``, ``"numeric"``, a CheckMode
    instance, such as ``NumericGrid(REGISTRY[identity].grid, tol)`` for a
    tolerance other than the registry's, or None for the default mode.
    """
    iid = resolve_id(identity)
    entry = REGISTRY[iid]
    resolved = _resolve_mode(entry, mode)
    norm = _normalize_params(entry, params)
    err, points, passed = entry.checker(norm, resolved)
    return VerificationReport(iid, norm, resolved, err, points, passed)


def verify_all() -> list[VerificationReport]:
    """Run every identity over its default parameter range in every
    admissible mode; deterministic order (identity, then mode, then params)."""
    reports = []
    for iid in IdentityId:
        entry = REGISTRY[iid]
        for mode in entry.modes:
            for ps in entry.default_params:
                reports.append(verify(iid, ps, mode))
    return reports

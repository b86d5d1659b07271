"""Series evaluation of Gauss hypergeometric, Legendre, local Heun and
confluent Heun functions, squared-weight kernel sums, and the quadrature
rules used by their integral representations.

Two arithmetic regimes coexist:

* exact mode (``Fraction`` parameters) for coefficient recurrences,
  termination detection and polynomial extraction, run over the integers;
* float mode for grid evaluation, with the truncation rule "stop once
  three consecutive terms fall below ``tol`` times the partial sum".

Each family declares its recurrence once, as
c_{k+1} C_k = A_k c_k - B_k c_{k-1}, where A_k, B_k and C_k are integer
quadratics in k built from the parameters scaled by the lcm of their
denominators (B = 0 for Gauss); float parameters are converted exactly.
One integer driver runs it for the exact coefficients of all three
families: it keeps c_{k-1} and c_k as two integer numerators over one
denominator and builds one ``Fraction`` per yielded coefficient.

Termination is read off the same (A, B, C) (Ronveaux, *Heun's Differential
Equations*, 1995; Kauers & Paule, *The Concrete Tetrahedron*, 2011, ch. 7).
Once c_{N+1} = 0, c_{N+2} = -B_{N+1} c_N / C_{N+1}, so with B not 0 a
series can stop at degree N only if B_{N+1} = 0, and with B = 0 it stops at
the first N with A_N = 0.  Each is a test for non-negative integer roots of
an integer quadratic, and gives the conditions of DLMF §31.5 and §15.2: a
local Heun series can stop only if (N + alpha)(N + beta) = 0, a confluent
Heun series only if 4p(N + alpha) = 0, where p = 0 means
N(N - 1 + gamma + delta) = sigma, and a Gauss series stops at the first N
with (N + a)(N + b) = 0.  The record's exact prefix is then scanned through
c_{N+2}, and only when such an N exists.  Series that terminate are
evaluated as exact polynomials.  A series that can stop only above
``MAX_DEGREE`` is rejected with :class:`DivergentSeries`, because its float
sum cancels catastrophically.

Everything a parameter set fixes is resolved once into one cached record:
the family name and radius of convergence, the recurrence, the exact and
float coefficient prefixes, and the terminating polynomial with its
derivative.  A terminating series is evaluated exactly at the rational
value of ``x`` (a float converted exactly) by :meth:`Poly.rounded`, which
runs integer Horner on the polynomial's integer form and rounds once.  A
prefix that is too short is replaced by a longer one, so a grid runs its
recurrence once; the Taylor coefficients of K_n are kept per ``n`` in the
same way.  :func:`series_values` looks the record up once for a whole grid.
Every float sum of the three families, values and derivatives, is one loop
over the record's float prefix (:func:`_float_sum`).  Exact values of P_n
at a rational point, and of F, U and J at any point, run over the integers.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from typing import Callable, Iterable, Iterator, Union

from .errors import (
    DivergentSeries,
    DomainError,
    IndexOutOfRange,
    InvalidC,
    InvalidGamma,
    NonFinite,
    NotExact,
)
from .exactalg import E2, Poly, binary_form, rat

Scalar = Union[Fraction, int, float]

MAX_TERMS = 100_000
#: highest degree of a terminating series of any of the three families
#: that is built as an exact polynomial; longer ones are rejected
MAX_DEGREE = 256


def _is_exact(v: Scalar) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _check_point(x: Scalar) -> None:
    """Reject a NaN or infinite point: no series or sum has a value there."""
    if isinstance(x, float) and not math.isfinite(x):
        raise NonFinite(f"point x = {x} is not finite")


def _checked_tol(tol: float) -> float:
    """``tol`` itself once checked: a NaN, infinite or negative tolerance
    would stop a sum at once, or never."""
    if not 0 <= tol < math.inf:
        raise DomainError(f"tolerance tol = {tol} must be finite and non-negative")
    return tol


def _is_nonpositive_integer(v: Scalar) -> bool:
    if isinstance(v, (int, Fraction)):
        return v <= 0 and Fraction(v).denominator == 1
    return v <= 0 and float(v).is_integer()


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a truncated series evaluation.

    ``terminated`` means the series stopped exactly (polynomial case), in
    which case ``tail_estimate`` is 0 by construction.
    """

    value: float
    terms_used: int
    terminated: bool
    tail_estimate: float


class _SeriesParams:
    """Checks shared by the three parameter classes; NaN or infinite fields have no series."""

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            if isinstance(v, float) and not math.isfinite(v):
                raise DomainError(f"parameter {name} = {v} is not finite")

    @property
    def is_rational(self) -> bool:
        return all(_is_exact(v) for v in vars(self).values())


@dataclass(frozen=True)
class GaussParams(_SeriesParams):
    """Parameters (a, b; c) of the Gauss series ``sum (a)_k (b)_k / ((c)_k k!) x^k``."""

    a: Scalar
    b: Scalar
    c: Scalar

    def __post_init__(self) -> None:
        super().__post_init__()
        stops = [int(-v) for v in (self.a, self.b) if _is_nonpositive_integer(v)]
        if _is_nonpositive_integer(self.c) and (not stops or -int(self.c) < min(stops)):
            raise InvalidC("c hits a non-positive integer before the series terminates")


@dataclass(frozen=True)
class HeunParams(_SeriesParams):
    """Parameters (a, q; alpha, beta; gamma, delta) of the local Heun
    function normalized to 1 at the origin.

    The second exponent parameter is fixed by the Fuchsian relation,
    ``epsilon = alpha + beta + 1 - gamma - delta``.
    """

    a: Scalar
    q: Scalar
    alpha: Scalar
    beta: Scalar
    gamma: Scalar
    delta: Scalar

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.a == 0 or self.a == 1:
            raise DomainError("singularity location a must avoid 0 and 1")
        if _is_nonpositive_integer(self.gamma):
            raise InvalidGamma("gamma must not be a non-positive integer")

    @property
    def epsilon(self) -> Scalar:
        return self.alpha + self.beta + 1 - self.gamma - self.delta


@dataclass(frozen=True)
class ConfluentHeunParams(_SeriesParams):
    """Parameters (p, gamma, delta, alpha, sigma) of the confluent Heun
    function u with u(0) = 1, solving

        u'' + (4p + gamma/x + delta/(x-1)) u' + (4 p alpha x - sigma)/(x(x-1)) u = 0.
    """

    p: Scalar
    gamma: Scalar
    delta: Scalar
    alpha: Scalar
    sigma: Scalar

    def __post_init__(self) -> None:
        super().__post_init__()
        if _is_nonpositive_integer(self.gamma):
            raise InvalidGamma("gamma must not be a non-positive integer")


# ---------------------------------------------------------------------------
# generic three-term machinery
# ---------------------------------------------------------------------------


def _heun_recurrence(params: HeunParams) -> tuple:
    """(A, B, C) of the local Heun series at 0, with c_{-1} = 0 and c_0 = 1.

    Recurrence (coefficient of x^k in the polynomial form of the ODE):

        a(k+1)(k+gamma) c_{k+1}
            = [(1+a)k(k-1) + (gamma(1+a) + delta*a + epsilon)k + q] c_k
              - (k-1+alpha)(k-1+beta) c_{k-1}
    """
    # the recurrence times s^2, in the parameters times s
    s, (a, q, al, be, ga, de) = _scaled(params.a, params.q, params.alpha, params.beta,
                                        params.gamma, params.delta)
    eps = al + be + s - ga - de
    lin = ga * (s + a) + de * a + eps * s
    return (((s + a) * s, lin - (s + a) * s, q * s),
            (s * s, s * (al + be - 2 * s), (al - s) * (be - s)),
            (a * s, a * (s + ga), a * ga))


def _heun_floats(params: HeunParams, k: int, c_prev: Scalar, c: Scalar) -> Iterator[float]:
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


def _confluent_recurrence(params: ConfluentHeunParams) -> tuple:
    """(A, B, C) of the confluent Heun series at 0:

        (k+1)(k+gamma) c_{k+1}
            = [k(k-1) + (gamma + delta - 4p)k - sigma] c_k + 4p(k-1+alpha) c_{k-1}
    """
    # the recurrence times s^2, in the parameters times s
    s, (p, ga, de, al, sg) = _scaled(params.p, params.gamma, params.delta, params.alpha, params.sigma)
    return ((s * s, s * (ga + de - 4 * p) - s * s, -sg * s),
            (0, -4 * p * s, -4 * p * (al - s)),
            (s * s, s * (s + ga), s * ga))


def _confluent_floats(params: ConfluentHeunParams, k: int, c_prev: Scalar, c: Scalar) -> Iterator[float]:
    p, ga, de = float(params.p), float(params.gamma), float(params.delta)
    al, sg = float(params.alpha), float(params.sigma)
    c_prev, c = float(c_prev), float(c)
    yield c
    while True:
        num = (k * (k - 1) + (ga + de - 4 * p) * k - sg) * c + 4 * p * (k - 1 + al) * c_prev
        c_prev, c = c, num / ((k + 1) * (k + ga))
        yield c
        k += 1


def _scaled(*values: Scalar) -> tuple[int, list[int]]:
    """``(s, [s v, ...])``: s is the lcm of the denominators of the values,
    each converted exactly (floats included)."""
    ratios = [v.as_integer_ratio() for v in values]
    s = math.lcm(*(d for _, d in ratios))
    return s, [n * (s // d) for n, d in ratios]


def _exact_stream(A: tuple[int, int, int], B: tuple[int, int, int], C: tuple[int, int, int],
                  k: int, c_prev: Scalar, c: Scalar) -> Iterator[Fraction]:
    """Yield c_k, c_{k+1}, ... of c_{k+1} = (A_k c_k - B_k c_{k-1}) / C_k
    from c_{k-1} = ``c_prev`` and c_k = ``c``, exactly.

    A_k, B_k and C_k are integer quadratics in k, given highest coefficient
    first.  The pair (c_{k-1}, c_k) is kept as two integer numerators over
    one common denominator, from which each step divides their gcd, and one
    ``Fraction`` is built per yielded coefficient.  A zero numerator is
    yielded undivided: past the stop of a Gauss series C_k may be 0.
    """
    c_prev, c = Fraction(c_prev), Fraction(c)
    d = math.lcm(c_prev.denominator, c.denominator)
    u, v = c_prev.numerator * (d // c_prev.denominator), c.numerator * (d // c.denominator)
    (a2, a1, a0), (b2, b1, b0), (g2, g1, g0) = A, B, C
    yield c
    while True:
        num = ((a2 * k + a1) * k + a0) * v - ((b2 * k + b1) * k + b0) * u
        if num:
            den = (g2 * k + g1) * k + g0
            u, v, d = v * den, num, d * den
            g = math.gcd(u, v, d)
            if g != 1:
                u, v, d = u // g, v // g, d // g
        else:
            u, v = v, 0
        yield Fraction(v, d)
        k += 1


def _integer_roots(a2: int, a1: int, a0: int) -> set[int]:
    """The non-negative integer roots of a2 k^2 + a1 k + a0, an integer
    polynomial that is not 0."""
    if a2:
        disc = a1 * a1 - 4 * a2 * a0
        root = math.isqrt(max(disc, 0))
        if root * root != disc:
            return set()
        nums, den = (-a1 - root, -a1 + root), 2 * a2
    else:
        nums, den = (-a0,), a1
    return {n // den for n in nums if den and n % den == 0 and n // den >= 0}


#: entries kept by each cache of series records, coefficient prefixes and rules
_CACHE_SIZE = 256


def _bounded_put(cache: dict, key, value) -> None:
    """Store ``value``, first emptying ``cache`` if a new key would take it
    past ``_CACHE_SIZE`` entries."""
    if key not in cache and len(cache) >= _CACHE_SIZE:
        cache.clear()
    cache[key] = value


# ---------------------------------------------------------------------------
# Gauss hypergeometric series
# ---------------------------------------------------------------------------


def _gauss_recurrence(params: GaussParams) -> tuple:
    """(A, B, C) of c_{k+1} = c_k (k+a)(k+b) / ((k+c)(k+1)), with B = 0."""
    # the recurrence times s^2, in the parameters times s
    s, (a, b, g) = _scaled(params.a, params.b, params.c)
    return (s * s, s * (a + b), a * b), (0, 0, 0), (s * s, s * (s + g), s * g)


def _gauss_floats(params: GaussParams, k: int, c_prev: Scalar, c: Scalar) -> Iterator[float]:
    """The float coefficients from c_k = ``c``; ``c_prev`` is unused.  A zero
    numerator is yielded undivided: past the stop, c + k may be 0."""
    a, b, g, c = float(params.a), float(params.b), float(params.c), float(c)
    for k in itertools.count(k):
        yield c
        num = c * (a + k) * (b + k)
        c = num / ((g + k) * (k + 1)) if num else num


def hyp2f1(a: Scalar, b: Scalar, c: Scalar, x: Scalar, tol: float = 1e-15) -> SeriesResult:
    """Gauss series ``sum (a)_k (b)_k / ((c)_k k!) x^k``.

    Terminating cases (a or b a non-positive integer, degree at most
    ``MAX_DEGREE``) are evaluated exactly and work for any x; otherwise
    |x| < 1 is required.
    """
    return _point_value(_series(GaussParams(a, b, c)), x, _checked_tol(tol), False)


def gauss_series(params: GaussParams, x: Scalar, tol: float = 1e-15) -> SeriesResult:
    """:func:`hyp2f1` of a parameter set built once, as :func:`heun_local`
    takes one, so that a grid of points checks the parameters once."""
    return _point_value(_series(params), x, _checked_tol(tol), False)


def hyp2f1_poly(a: Scalar, b: Scalar, c: Scalar) -> Poly:
    """Exact polynomial form of a terminating Gauss series with rational parameters.

    Raises :class:`DivergentSeries` if the series does not terminate by
    degree ``MAX_DEGREE``.
    """
    params = GaussParams(a, b, c)
    if not params.is_rational:
        raise NotExact("exact polynomial form requires rational parameters")
    return _series_poly(params)


def hyp2f1_pfaff(a: Scalar, b: Scalar, c: Scalar, x: Scalar, tol: float = 1e-15) -> SeriesResult:
    """Evaluate the Gauss function through the Pfaff map on the second
    parameter: ``(1-x)^(-b) 2F1(c-a, b; c; x/(x-1))``.

    Restores convergence for x < -1, where the raw series diverges.
    """
    _check_point(x)
    xf = float(x)
    if xf >= 1.0:
        raise DomainError("Pfaff-transformed evaluation requires x < 1")
    inner = hyp2f1(float(c) - float(a), b, c, xf / (xf - 1.0), tol)
    pref = (1.0 - xf) ** (-float(b))
    return SeriesResult(pref * inner.value, inner.terms_used, inner.terminated,
                        abs(pref) * inner.tail_estimate)


# ---------------------------------------------------------------------------
# Legendre polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def legendre_poly(n: int) -> Poly:
    """Exact Legendre polynomial via the three-term recurrence."""
    if n < 0:
        raise IndexOutOfRange("Legendre degree must be non-negative")
    x = Poly.monomial(1)
    p_prev, p = Poly(), Poly.constant(1)
    for k in range(n):
        p_prev, p = p, (x * p).scale(Fraction(2 * k + 1, k + 1)) - p_prev.scale(Fraction(k, k + 1))
    return p


def _legendre_pair(n: int, x: float) -> tuple[float, float]:
    """(P_{n-1}(x), P_n(x)) by the three-term recurrence (DLMF §18.9.1),
    starting from P_{-1} = 0."""
    p_prev, p = 0, 1.0
    for k in range(n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p_prev, p


def legendre_p(n: int, x: Scalar):
    """Value of P_n(x) by the three-term recurrence; exact for rational x.

    At x = u/v the recurrence runs on the integers N_k = (2v)^k P_k(u/v),
    (k+1) N_{k+1} = 2(2k+1) u N_k - 4k v^2 N_{k-1}, whose division is exact.
    """
    if n < 0:
        raise IndexOutOfRange("Legendre degree must be non-negative")
    _check_point(x)
    if not _is_exact(x):
        return _legendre_pair(n, x)[1]
    u, v = x.numerator, x.denominator
    n_prev, n_k, vv = 0, 1, 4 * v * v
    for k in range(n):
        n_prev, n_k = n_k, (2 * (2 * k + 1) * u * n_k - k * vv * n_prev) // (k + 1)
    return Fraction(n_k, (2 * v) ** n)


# ---------------------------------------------------------------------------
# local Heun functions
# ---------------------------------------------------------------------------


def heun_radius(params: HeunParams) -> float:
    return min(1.0, abs(float(params.a)))


def heun_coeffs(params: HeunParams, count: int) -> list:
    """First ``count`` local-series coefficients (exact when the parameters are)."""
    return _series_coeffs(params, count)


def heun_poly(params: HeunParams) -> Poly:
    """Exact polynomial form of a terminating local Heun series.

    Raises :class:`DivergentSeries` if the series does not terminate by
    degree ``MAX_DEGREE``.
    """
    return _series_poly(params)


def heun_local(params: HeunParams, x: Scalar, tol: float = 1e-12) -> SeriesResult:
    """Local Heun function at ``x`` (series at the origin, value 1 there)."""
    return _point_value(_series(params), x, _checked_tol(tol), False)


def heun_local_deriv(params: HeunParams, x: Scalar, tol: float = 1e-12) -> SeriesResult:
    """Termwise-differentiated local Heun series at ``x``."""
    return _point_value(_series(params), x, _checked_tol(tol), True)


def heun_operator(params: HeunParams) -> tuple[Poly, Poly, Poly]:
    """Coefficients (m, n, lin) of Heun's equation m u'' + n u' + lin u = 0
    in polynomial form."""
    a, q = rat(params.a), rat(params.q)
    al, be = rat(params.alpha), rat(params.beta)
    ga, de = rat(params.gamma), rat(params.delta)
    eps = al + be + 1 - ga - de
    m = Poly.of(0, a, -(1 + a), 1)
    n = Poly.of(a, -(1 + a), 1).scale(ga) + Poly.of(0, -a, 1).scale(de) + Poly.of(0, -1, 1).scale(eps)
    return m, n, Poly.of(-q, al * be)


def heun_ode_residual(params: HeunParams, p: Poly) -> Poly:
    """Exact residual of ``p`` in the polynomial form of Heun's equation:

        x(x-1)(x-a) p'' + [gamma (x-1)(x-a) + delta x(x-a) + epsilon x(x-1)] p'
        + (alpha beta x - q) p

    The zero polynomial certifies that ``p`` solves the equation.
    """
    if not params.is_rational:
        raise NotExact("exact residual requires rational parameters")
    m, n, lin = heun_operator(params)
    return m * p.derivative().derivative() + n * p.derivative() + lin * p


# ---------------------------------------------------------------------------
# confluent Heun functions
# ---------------------------------------------------------------------------


def confluent_heun_coeffs(params: ConfluentHeunParams, count: int) -> list:
    """First ``count`` series coefficients (exact when the parameters are)."""
    return _series_coeffs(params, count)


def confluent_heun_poly(params: ConfluentHeunParams) -> Poly:
    """Exact polynomial form of a terminating confluent Heun series.

    Raises :class:`DivergentSeries` if the series does not terminate by
    degree ``MAX_DEGREE``.
    """
    return _series_poly(params)


def confluent_heun(params: ConfluentHeunParams, x: Scalar, tol: float = 1e-12) -> SeriesResult:
    """Confluent Heun function at ``x``, series at the origin with value 1."""
    return _point_value(_series(params), x, _checked_tol(tol), False)


def confluent_heun_deriv(params: ConfluentHeunParams, x: Scalar, tol: float = 1e-12) -> SeriesResult:
    return _point_value(_series(params), x, _checked_tol(tol), True)


def confluent_heun_ode_residual(params: ConfluentHeunParams, u: Poly) -> Poly:
    """Exact residual of ``u`` in the cleared-denominator confluent equation:

        x(x-1) u'' + [4p x(x-1) + gamma (x-1) + delta x] u' + (4 p alpha x - sigma) u

    For a truncated series of a true solution the residual coefficients
    vanish through the truncation order.
    """
    if not params.is_rational:
        raise NotExact("exact residual requires rational parameters")
    p, ga, de = rat(params.p), rat(params.gamma), rat(params.delta)
    al, sg = rat(params.alpha), rat(params.sigma)
    m = Poly.of(0, -1, 1)
    n = m.scale(4 * p) + Poly.of(-ga, ga) + Poly.of(0, de)
    lin = Poly.of(-sg, 4 * p * al)
    return m * u.derivative().derivative() + n * u.derivative() + lin * u


# ---------------------------------------------------------------------------
# termination, polynomial form and evaluation of the three series families
# ---------------------------------------------------------------------------

#: series name, integer recurrence, float coefficient loop and radius of
#: convergence of each family
_FAMILIES = {
    HeunParams: ("local Heun", _heun_recurrence, _heun_floats, heun_radius),
    ConfluentHeunParams: ("confluent Heun", _confluent_recurrence, _confluent_floats, lambda params: 1.0),
    GaussParams: ("Gauss", _gauss_recurrence, _gauss_floats, lambda params: 1.0),
}


class _Series:
    """What one parameter set fixes.  Float sets equal as values share a
    record; their float streams differ at most in the sign of a zero."""

    def __init__(self, params) -> None:
        self.params = params
        self.name, self._recurrence, self._floats, radius = _FAMILIES[type(params)]
        self.radius = radius(params)
        # keyed by ``exact``; a prefix is replaced, never grown in place
        self.prefixes: dict[bool, tuple] = {True: (Fraction(1),), False: (1.0,)}

    @cached_property
    def recurrence(self) -> tuple:
        """Integer quadratics (A, B, C) of c_{k+1} C_k = A_k c_k - B_k c_{k-1}
        in the parameters, float ones converted exactly."""
        return self._recurrence(self.params)

    def stream(self, exact: bool, k: int = 0, c_prev: Scalar = 0, c: Scalar = 1) -> Iterator:
        """Yield the coefficients c_k, c_{k+1}, ... from c_{k-1} = ``c_prev``
        and c_k = ``c`` (by default c_0 = 1, c_1, ...): exact over the
        integers, else in floats."""
        if exact:
            return _exact_stream(*self.recurrence, k, c_prev, c)
        return self._floats(self.params, k, c_prev, c)

    def prefix(self, count: int, exact: bool) -> tuple:
        """The coefficient prefix, at least ``count`` long; a shorter one is
        extended by restarting the recurrence from its last two coefficients."""
        prefix = self.prefixes[exact]
        k = len(prefix) - 1
        if count > k + 1:
            rest = self.stream(exact, k, prefix[-2] if k else 0, prefix[-1])
            prefix += tuple(itertools.islice(rest, 1, count - k))
            self.prefixes[exact] = prefix
        return prefix

    @cached_property
    def poly(self) -> Poly | None:
        """Exact polynomial form of a terminating series (float parameters
        converted exactly), or None.

        The series stops at degree N when c_{N+1} = c_{N+2} = 0.  With B not
        0 that needs B_{N+1} = 0, so the largest such N >= 0 bounds the
        degree; with B = 0 the series stops at the first N >= 0 with A_N = 0.
        The exact prefix is scanned up to that bound for two zeros in a row.
        A series that can stop only above ``MAX_DEGREE`` raises
        :class:`DivergentSeries` on every access: its float sum cancels
        catastrophically and would be silently wrong.
        """
        A, B, _ = self.recurrence
        if any(B):  # once c_{N+1} = 0, c_{N+2} = -B_{N+1} c_N / C_{N+1}
            b2, b1, b0 = B
            stop = max(_integer_roots(b2, 2 * b2 + b1, b2 + b1 + b0), default=None)
        else:  # c_{N+1} = A_N c_N / C_N
            stop = min(_integer_roots(*A), default=None)
        if stop is None:
            return None
        cap = min(stop, MAX_DEGREE) + 2
        coeffs = self.prefix(cap + 1, True)
        for k in range(1, cap + 1):
            if coeffs[k] == 0 and coeffs[k - 1] == 0:
                return Poly(coeffs[:k - 1])
        if stop > MAX_DEGREE:
            raise DivergentSeries(f"{self.name} series can stop only at degree {stop}, "
                                  f"above MAX_DEGREE = {MAX_DEGREE}")
        return None

    @cached_property
    def deriv(self) -> Poly | None:
        """Derivative of :attr:`poly`, or None."""
        return None if self.poly is None else self.poly.derivative()


#: the record of a parameter set, built once and shared
_series = lru_cache(maxsize=_CACHE_SIZE)(_Series)


def _series_coeffs(params, count: int) -> list:
    """First ``count`` series coefficients, as a new list: exact for a
    rational parameter set, float otherwise."""
    return list(_series(params).prefix(count, params.is_rational)[:max(count, 0)])


def _series_poly(params) -> Poly:
    series = _series(params)
    if series.poly is None:
        raise DivergentSeries(f"{series.name} series does not terminate; no polynomial form")
    return series.poly


def series_values(params, xs: Iterable[Scalar], tol: float) -> list[SeriesResult]:
    """The series of ``params`` (a :class:`HeunParams`,
    :class:`ConfluentHeunParams` or :class:`GaussParams`) at each point of
    ``xs``, each as :func:`heun_local`, :func:`confluent_heun` or
    :func:`gauss_series` gives it, with the same checks and exceptions;
    the record of ``params`` is looked up once for the whole grid."""
    series, tol = _series(params), _checked_tol(tol)
    return [_point_value(series, x, tol, False) for x in xs]


def _point_value(series: _Series, x: Scalar, tol: float, deriv: bool) -> SeriesResult:
    """Exact polynomial value of a terminating series, else the float sum
    inside the disk of convergence."""
    _check_point(x)
    p = series.poly
    if p is not None:
        return SeriesResult((series.deriv if deriv else p).rounded(x), len(p.coeffs), True, 0.0)
    xf = float(x)
    if abs(xf) >= series.radius:
        raise DivergentSeries(f"|x| >= {series.radius}: outside the disk of the non-terminating "
                              f"{series.name} series")
    return _float_sum(series, xf, tol, deriv)


def _float_sum(series: _Series, xf: float, tol: float, deriv: bool) -> SeriesResult:
    """Sum the terms c_k x^k (k c_k x^(k-1) when ``deriv``) over the
    record's float prefix, which grows by doubling, until three consecutive
    terms fall below ``tol`` times the partial sum.

    x^k (x^(k-1) when ``deriv``) is kept as a running power.  A coefficient
    above 1e280 is rejected: its term would overflow.  The tail estimate
    continues the last term geometrically with |x| over the radius of
    convergence (capped at 0.999).
    """
    s = 0.0
    xpow = 1.0  # x^(k-1) when deriv else x^k
    small = 0
    coeffs: tuple = ()
    for k in range(MAX_TERMS):
        if k == len(coeffs):
            coeffs = series.prefix(min(2 * k + 32, MAX_TERMS), False)
        c = coeffs[k]
        if abs(c) > 1e280:
            raise DivergentSeries("coefficient overflow; argument too close to the disk boundary")
        if not deriv:
            t = c * xpow
            xpow *= xf
        elif k:
            t = k * c * xpow
            xpow *= xf
        else:
            t = 0.0
        s += t
        if abs(t) <= tol * abs(s):
            small += 1
            if small == 3:
                r = min(abs(xf) / series.radius, 0.999)
                return SeriesResult(s, k + 1, False, abs(t) * r / (1.0 - r))
        else:
            small = 0
    raise DivergentSeries(f"no convergence within {MAX_TERMS} terms")


# ---------------------------------------------------------------------------
# squared-weight kernel sums
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def f_poly(n: int) -> Poly:
    """Exact polynomial  sum_k [C(n,k) x^k (1-x)^(n-k)]^2  of degree 2n."""
    if n < 0:
        raise IndexOutOfRange("degree index must be non-negative")
    return binary_form([comb(n, k) ** 2 for k in range(n + 1)], E2, Poly.of(1, -2, 1), n)


def _squared_binomial_form(n: int, a: int, b: int) -> int:
    """sum_k C(n,k)^2 a^k b^(n-k) over the integers, by homogeneous Horner in a."""
    acc, bpow = 1, 1
    for k in reversed(range(n)):
        bpow *= b
        acc = acc * a + comb(n, k) ** 2 * bpow
    return acc


def _squared_weight_sums(w: float, c: float, m: int, b: int, n: int, tol: float,
                         deriv: bool = False) -> tuple[float, float | None]:
    """``(sum w_k^2, sum 2n w_k (w_{k-1} - w_k))`` over w_0 = ``w``,
    w_{k+1} = w_k c (m + b k)/(k + 1) and w_{-1} = 0: negative-binomial
    weights for b = 1, Poisson weights (and K_n') for b = 0.  The integer
    m + b k keeps the rounding of each ratio from drifting along the pass.
    The second sum is accumulated only with ``deriv``, else it is None.

    The pass stops once three squares in a row are at most ``tol`` times
    the first sum; leading squares that underflow to 0 come before the
    peak and are not counted.  A first weight that is not a normal float
    raises :class:`DomainError`, a sum still running after ``MAX_TERMS``
    weights :class:`DivergentSeries`.
    """
    if not w >= sys.float_info.min:
        raise DomainError(f"first weight {w!r} of the squared-weight sum is not a normal float")
    s0 = w_prev = 0.0
    s1 = 0.0 if deriv else None
    small = 0
    for k in range(MAX_TERMS):
        sq = w * w
        s0 += sq
        if deriv:
            s1 += 2 * n * w * (w_prev - w)
            w_prev = w
        if sq <= tol * s0:
            if s0:  # while s0 = 0 every square so far has underflowed
                small += 1
                if small == 3:
                    return s0, s1
        else:
            small = 0
        w = w * (c * (m + b * k)) / (k + 1)
    raise DivergentSeries(f"squared-weight sum did not converge within {MAX_TERMS} terms")


def kernel_sum(kind: str, n: int, x: Scalar, tol: float = 1e-15):
    """Squared-weight sums of the four discrete operator families.

    ``F`` and ``U`` are finite sums: at x = u/v they are integer binomial-
    square forms over v^2n and (u+v)^2n.  ``J`` requires |x| < 1 and takes
    the same form through Euler's transformation (DLMF 15.8.1), which gives
    J_n(x) = (1-x)/(1+x) U_n(x).  A rational ``x`` gives the exact
    ``Fraction``; a float ``x`` is converted exactly and the exact value is
    rounded once.  ``G`` is restricted to x >= 0 (the operator domain) and
    sums the squared negative-binomial weights w_0 = (1-p)^n, w_{k+1} =
    w_k p (n+k)/(k+1), p = x/(1+x), by :func:`_squared_weight_sums`.  Past
    their peak the squares fall by a ratio near p^2, so the stop compares
    them with ``tol``/(1+x).
    """
    if n < 0:
        raise IndexOutOfRange("family index must be non-negative")
    _check_point(x)
    _checked_tol(tol)
    if kind in ("F", "U", "J"):
        u, v = x.as_integer_ratio()
        if kind == "F":
            num, den = _squared_binomial_form(n, u * u, (v - u) ** 2), v ** (2 * n)
        else:
            if kind == "J" and abs(u) >= v:
                raise DivergentSeries("J series requires |x| < 1")
            if u == -v:
                raise DomainError("U is undefined at x = -1")
            num, den = _squared_binomial_form(n, u * u, v * v), (u + v) ** (2 * n)
            if kind == "J":
                num, den = num * (v - u), den * (v + u)
        return Fraction(num, den) if _is_exact(x) else num / den
    if kind == "G":
        if x < 0:
            raise DomainError("G is evaluated on x >= 0 only")
        xf = float(x)
        p = xf / (1 + xf)
        return _squared_weight_sums((1 - p) ** n, p, n, 1, n, tol * (1 - p))[0]
    raise DomainError(f"unknown kernel-sum family {kind!r}")


# ---------------------------------------------------------------------------
# squared Poisson-weight sum K_n and its derivatives
# ---------------------------------------------------------------------------


def kn_deriv_zero(n: int, j: int) -> Fraction:
    """Exact j-th derivative at 0 of the squared Poisson-weight sum:

        (-2n)^j sum_{i=0}^{[j/2]} C(j, 2i) C(2i, i) 4^(-i)
    """
    if j < 0:
        raise IndexOutOfRange("derivative order must be non-negative")
    s = sum(Fraction(comb(j, 2 * i) * comb(2 * i, i), 4**i) for i in range(j // 2 + 1))
    return Fraction(-2 * n) ** j * s


#: Taylor coefficients of K_n, one tuple per n
_KN_TAYLOR: dict[int, tuple[Fraction, ...]] = {}


def kn_taylor_coeffs(n: int, count: int) -> list[Fraction]:
    """Exact Taylor coefficients of ``exp(-2nx) * sum_k (nx)^(2k)/(k!)^2``
    at the origin, by Cauchy product of the two factor series.

    Independent oracle for the closed form of :func:`kn_deriv_zero`.  The
    coefficients are kept per ``n`` and only the missing ones are computed;
    a new list is returned.
    """
    prefix = _KN_TAYLOR.get(n, ())
    if count > len(prefix):
        prefix += tuple(_kn_taylor_coeff(n, m) for m in range(len(prefix), count))
        _bounded_put(_KN_TAYLOR, n, prefix)
    return list(prefix[:max(count, 0)])


def _kn_taylor_coeff(n: int, m: int) -> Fraction:
    """Coefficient of x^m in the Cauchy product of :func:`kn_taylor_coeffs`."""
    acc = Fraction(0)
    for k in range(m // 2 + 1):
        acc += Fraction(n ** (2 * k), math.factorial(k) ** 2) * Fraction(
            (-2 * n) ** (m - 2 * k), math.factorial(m - 2 * k)
        )
    return acc


#: largest n x at which :func:`szasz_K` sums its series; exp(-709) is subnormal
KN_MAX_NX = 708


def szasz_K(n: int, j: int, x: Scalar, tol: float = 1e-15) -> float:
    """j-th derivative of the squared Poisson-weight sum at x >= 0.

    j = 0 sums the defining series; j = 1 sums its termwise derivative;
    higher orders climb the second-order derivative ladder

        x K^(m) = -(4nx + m - 1) K^(m-1) - 2n(2m - 3) K^(m-2),

    which avoids the cancellation of repeated termwise differentiation.
    At x = 0 the exact closed form is used.  Both seeds come from one
    :func:`_squared_weight_sums` pass over the Poisson weights, whose first
    is exp(-nx); n x must stay at most ``KN_MAX_NX``, where it is still a
    normal float, and a larger n x is rejected.
    """
    if n < 0:
        raise IndexOutOfRange("family index must be non-negative")
    if j < 0:
        raise IndexOutOfRange("derivative order must be non-negative")
    if j > 16:
        raise DomainError("derivative ladder supported for j <= 16")
    _check_point(x)
    _checked_tol(tol)
    if x < 0:
        raise DomainError("K is evaluated on x >= 0 only")
    xf = float(x)
    if xf == 0.0:
        return float(kn_deriv_zero(n, j))
    if n * xf > KN_MAX_NX:
        raise DomainError(f"K needs n*x <= {KN_MAX_NX}, where exp(-n*x) is a normal float; got {n * xf}")

    k0, k1 = _squared_weight_sums(math.exp(-n * xf), n * xf, 1, 0, n, tol, deriv=j >= 1)
    if j == 0:
        return k0
    if j == 1:
        return k1
    lower, upper = k0, k1
    for m in range(2, j + 1):
        lower, upper = upper, -((4 * n * xf + m - 1) * upper + 2 * n * (2 * m - 3) * lower) / xf
    return upper


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """A quadrature rule: the sum of ``weights[i] * f(nodes[i])``."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.weights):
            raise DomainError(f"{len(self.nodes)} quadrature nodes but {len(self.weights)} weights")


def _check_npoints(npoints: int) -> None:
    if npoints < 2:
        raise DomainError("quadrature needs at least 2 points")


def gauss_legendre(npoints: int, a: float, b: float) -> QuadratureRule:
    """``npoints`` Gauss-Legendre nodes on [a, b]."""
    _check_npoints(npoints)
    a, b = float(a), float(b)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    nodes, weights = _leggauss(npoints)
    return QuadratureRule(tuple(half * t + mid for t in nodes), tuple(half * w for w in weights))


@lru_cache(maxsize=_CACHE_SIZE)
def periodic_trapezoid(npoints: int, a: float, b: float) -> QuadratureRule:
    """The closed composite trapezoid on [a, b] with ``npoints`` subintervals,
    which converges spectrally for smooth integrands extending to even
    periodic functions.  A rule is immutable, so each is built once and
    shared."""
    _check_npoints(npoints)
    a, b = float(a), float(b)
    h = (b - a) / npoints
    nodes = tuple(a + i * h for i in range(npoints)) + (b,)
    return QuadratureRule(nodes, (h / 2,) + (h,) * (npoints - 1) + (h / 2,))


def _legendre_with_deriv(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) for |x| < 1."""
    p_prev, p = _legendre_pair(n, x)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _leggauss(npoints: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], immutable because shared.

    Newton's method on P_n from cos(pi (i + 3/4) / (n + 1/2)), with the
    weights 2 / ((1 - x^2) P_n'(x)^2) (Golub & Welsch, Math. Comp. 23, 1969;
    Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  The nodes are filled
    symmetrically; for odd n the middle node is exactly 0.
    """
    n = npoints
    nodes, weights = [0.0] * n, [0.0] * n
    for i in range((n + 1) // 2):
        if 2 * i + 1 == n:
            x = 0.0
        else:
            x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
            for _ in range(100):
                p, dp = _legendre_with_deriv(n, x)
                x -= p / dp
                if abs(p / dp) <= 1e-16:
                    break
        dp = _legendre_with_deriv(n, x)[1]
        # at the middle of an odd n the second store wins, leaving +0.0
        nodes[i], nodes[n - 1 - i] = -x, x
        weights[i] = weights[n - 1 - i] = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return tuple(nodes), tuple(weights)


def quadrature(rule: QuadratureRule, f: Callable[[float], float]) -> float:
    """Apply ``rule`` to ``f``; a non-finite value of ``f`` at a node is rejected."""
    total = 0.0
    for t, w in zip(rule.nodes, rule.weights):
        v = f(t)
        if not math.isfinite(v):
            raise NonFinite(f"integrand is not finite at node {t}")
        total += w * v
    return total

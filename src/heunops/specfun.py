"""Series evaluation of Gauss hypergeometric, Legendre, local Heun and
confluent Heun functions, squared-weight kernel sums, and the quadrature
rules used by their integral representations.

Two arithmetic regimes coexist:

* exact mode (``Fraction`` parameters) for coefficient recurrences,
  termination detection and polynomial extraction, run over the integers;
* float mode for grid evaluation, whose coefficients run the same
  integer recurrence in floats, with the truncation rule "stop once
  three consecutive terms fall below ``SERIES_TOL`` times the partial
  sum"; every float series and weight sum stops at ``SERIES_TOL`` = 1e-15.

Each family declares its differential equation m u'' + n u' + l u = 0
once, as the integer coefficients of the polynomials s^2 m, s^2 n and
s^2 l, where m(0) = 0 and s is the lcm of the parameter denominators
(float parameters converted exactly).  The series recurrence
c_{k+1} C_k = A_k c_k - B_k c_{k-1}, with integer quadratics A_k, B_k and
C_k (B = 0 for Gauss), is read off the coefficient of x^k (Salvy &
Zimmermann, "GFUN", ACM TOMS 20, 1994).  It gives the coefficients of all
three families: the exact ones over the integers, the float ones with each
of A_k, B_k and C_k evaluated over the integers and divided once by s^2, so
rounded once.  The exact ODE residuals read the same declaration as
``Poly`` coefficients.

Termination is read off the same (A, B, C) (Ronveaux, *Heun's Differential
Equations*, 1995; Kauers & Paule, *The Concrete Tetrahedron*, 2011, ch. 7).
Once c_{N+1} = 0, c_{N+2} = -B_{N+1} c_N / C_{N+1}, so with B not 0 a
series can stop at degree N only if B_{N+1} = 0, and with B = 0 it stops at
the first N with A_N = 0.  Each is a test for non-negative integer roots of
an integer quadratic, and gives the conditions of DLMF §31.5 and §15.2: a
local Heun series can stop only if (N + alpha)(N + beta) = 0, a confluent
Heun series only if 4p(N + alpha) = 0, where p = 0 means
N(N - 1 + gamma + delta) = sigma, and a Gauss series stops at the first N
with (N + a)(N + b) = 0.  Only when such an N exists are the exact
coefficients scanned, as they are built, up to c_{N+2} or the first two
zeros in a row.  Series that terminate are evaluated as exact polynomials.
A series that can stop only above ``MAX_DEGREE`` is rejected with
:class:`DivergentSeries`, because its float sum cancels catastrophically.
The three public ``*_poly`` forms take rational parameter sets only.

Everything a parameter set fixes is resolved once into one cached record:
the family name and radius of convergence, the recurrence, the exact and
float coefficient prefixes, and the terminating polynomial with its
derivative.  A terminating series is evaluated exactly at the rational
value of ``x`` (a float converted exactly) by :meth:`Poly.rounded`, which
runs integer Horner on the polynomial's integer form and rounds once.  A
prefix that is too short is replaced by a longer one, so a grid runs its
recurrence once; the Taylor coefficients of K_n are kept per ``n``, grown
as they are asked for.  Every float sum of the three families, values and
derivatives, is one grid loop over the record's float prefix
(:func:`_float_sums`), whose one-point case serves the point functions.
Exact values of P_n at a rational point run over the integers, as does
the polynomial P_n, an explicit sum (DLMF §18.5(iv)).
Every point function rejects a point that is not an int, ``Fraction`` or
float, and a NaN or infinite one.

The table functions :func:`series_values`, :func:`legendre_values` and
:func:`szasz_K_values` take a :class:`~heunops.exactalg.Grid`, the points
(A + i S)/D over one denominator, and give each value as its single-point
function rounds it, raising as it does at the first point that fails.  A
series record is looked up once per grid.  Terminating series and P_n run
Horner's rule over the grid's integer numerators
(:meth:`Poly.rounded_on_grid`), but P_n at one point runs its recurrence; a
non-terminating series is summed over the points' floats in one loop.  F,
U, J and G have one table, :func:`kernel_ratios`: the exact value at each
grid point as a ratio of two integers, whose binomial squares are built
once per table.  A ``Fraction`` of the ratio is an exact row, one division
of its two integers a float row; :func:`kernel_sum` is its one-point case,
as :func:`szasz_K` is that of :func:`szasz_K_values`.

The three parameter sets, ``SeriesResult`` and ``QuadratureRule`` are
immutable value types (:class:`heunops.exactalg.Frozen`); a parameter
set's ``FIELDS`` names its parameters in order.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

from .errors import (
    DivergentSeries,
    DomainError,
    IndexOutOfRange,
    InvalidC,
    InvalidGamma,
    NonFinite,
    NotExact,
)
from .exactalg import (E2, Frozen, Grid, Poly, binary_form, check_point, homogeneous_horner,
                       horner_on_grid)

Scalar = Fraction | int | float

MAX_TERMS = 100_000
#: stop tolerance of every float series and weight sum
SERIES_TOL = 1e-15
#: highest degree of a terminating series of any of the three families
#: that is built as an exact polynomial; longer ones are rejected
MAX_DEGREE = 256


def _is_exact(v: Scalar) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _is_nonpositive_integer(v: Scalar) -> bool:
    return v <= 0 and v == int(v)


class SeriesResult(Frozen):
    """Outcome of a truncated series evaluation.

    ``terminated`` means the series stopped exactly (polynomial case), in
    which case ``tail_estimate`` is 0 by construction.
    """

    def __init__(self, value: float, terms_used: int, terminated: bool, tail_estimate: float) -> None:
        self.__dict__.update(value=value, terms_used=terms_used, terminated=terminated,
                             tail_estimate=tail_estimate)


class _SeriesParams(Frozen):
    """Checks shared by the three parameter classes: int, ``Fraction`` or finite float fields."""

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            if isinstance(v, bool) or not isinstance(v, (int, Fraction, float)):
                raise DomainError(f"parameter {name} = {v!r} is not an int, Fraction or float")
            if isinstance(v, float) and not math.isfinite(v):
                raise DomainError(f"parameter {name} = {v} is not finite")

    @property
    def is_rational(self) -> bool:
        return all(_is_exact(v) for v in vars(self).values())


class GaussParams(_SeriesParams):
    """Parameters (a, b; c) of the Gauss series ``sum (a)_k (b)_k / ((c)_k k!) x^k``."""

    def __init__(self, a: Scalar, b: Scalar, c: Scalar) -> None:
        self.__dict__.update(a=a, b=b, c=c)
        self.__post_init__()

    def __post_init__(self) -> None:
        super().__post_init__()
        stops = [int(-v) for v in (self.a, self.b) if _is_nonpositive_integer(v)]
        if _is_nonpositive_integer(self.c) and (not stops or -int(self.c) < min(stops)):
            raise InvalidC("c hits a non-positive integer before the series terminates")


class HeunParams(_SeriesParams):
    """Parameters (a, q; alpha, beta; gamma, delta) of the local Heun
    function normalized to 1 at the origin.

    The second exponent parameter is fixed by the Fuchsian relation,
    ``epsilon = alpha + beta + 1 - gamma - delta``.
    """

    def __init__(self, a: Scalar, q: Scalar, alpha: Scalar, beta: Scalar, gamma: Scalar,
                 delta: Scalar) -> None:
        self.__dict__.update(a=a, q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta)
        self.__post_init__()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.a == 0 or self.a == 1:
            raise DomainError("singularity location a must avoid 0 and 1")
        if _is_nonpositive_integer(self.gamma):
            raise InvalidGamma("gamma must not be a non-positive integer")

    @property
    def epsilon(self) -> Scalar:
        return self.alpha + self.beta + 1 - self.gamma - self.delta


class ConfluentHeunParams(_SeriesParams):
    """Parameters (p, gamma, delta, alpha, sigma) of the confluent Heun
    function u with u(0) = 1, solving

        u'' + (4p + gamma/x + delta/(x-1)) u' + (4 p alpha x - sigma)/(x(x-1)) u = 0.
    """

    def __init__(self, p: Scalar, gamma: Scalar, delta: Scalar, alpha: Scalar, sigma: Scalar) -> None:
        self.__dict__.update(p=p, gamma=gamma, delta=delta, alpha=alpha, sigma=sigma)
        self.__post_init__()

    def __post_init__(self) -> None:
        super().__post_init__()
        if _is_nonpositive_integer(self.gamma):
            raise InvalidGamma("gamma must not be a non-positive integer")


# ---------------------------------------------------------------------------
# generic three-term machinery
# ---------------------------------------------------------------------------


def _heun_ode(params: HeunParams) -> tuple:
    """Heun's equation in the polynomial form of :func:`heun_ode_residual`."""
    s, (a, q, al, be, ga, de) = _scaled(*vars(params).values())
    eps = al + be + s - ga - de
    return s, ((0, a * s, -(s + a) * s, s * s),
               (ga * a, -(ga * (s + a) + de * a + eps * s), (ga + de + eps) * s),
               (-q * s, al * be))


def _confluent_ode(params: ConfluentHeunParams) -> tuple:
    """The confluent Heun equation cleared of denominators,
    x(x-1) u'' + [4p x(x-1) + gamma (x-1) + delta x] u' + (4 p alpha x - sigma) u = 0."""
    s, (p, ga, de, al, sg) = _scaled(*vars(params).values())
    return s, ((0, -s * s, s * s, 0), (-ga * s, (ga + de - 4 * p) * s, 4 * p * s), (-sg * s, 4 * p * al))


def _recurrence(m: tuple, n: tuple, lin: tuple) -> tuple:
    """(A, B, C), integer quadratics in k given highest coefficient first, of
    c_{k+1} C_k = A_k c_k - B_k c_{k-1} for m u'' + n u' + lin u = 0, from the
    coefficients (lowest degree first) of m (degree 3, m(0) = 0), n (2) and
    lin (1).  For u = sum c_k x^k the equation's x^k coefficient is
    C_k c_{k+1} - A_k c_k + B_k c_{k-1}: C_k = (k+1)(m_1 k + n_0),
    A_k = -(m_2 k(k-1) + n_1 k + l_0), B_k = m_3 (k-1)(k-2) + n_2 (k-1) + l_1."""
    (_, m1, m2, m3), (n0, n1, n2), (l0, l1) = m, n, lin
    return (-m2, m2 - n1, -l0), (m3, n2 - 3 * m3, 2 * m3 - n2 + l1), (m1, m1 + n0, n0)


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


def _float_stream(A: tuple[int, int, int], B: tuple[int, int, int], C: tuple[int, int, int], s2: int,
                  k: int, c_prev: Scalar, c: Scalar) -> Iterator[float]:
    """Yield c_k, c_{k+1}, ... of c_{k+1} = (A_k c_k - B_k c_{k-1}) / C_k
    from c_{k-1} = ``c_prev`` and c_k = ``c``, in floats.

    A_k, B_k and C_k are the integer quadratics of :func:`_exact_stream`,
    scaled by ``s2``.  Each is evaluated exactly over the integers and
    divided once by ``s2``, so each is correctly rounded; a factor divided
    first and evaluated in floats would cancel near its roots.  A zero
    numerator is yielded undivided, as in :func:`_exact_stream`.  A quotient
    beyond the float range, or a division by a C_k / s^2 that underflows to
    0, makes its coefficient NaN, which the float sum and the coefficient
    lists reject (:func:`_overflow`).
    """
    (a2, a1, a0), (b2, b1, b0), (g2, g1, g0) = A, B, C
    c_prev, c = float(c_prev), float(c)
    yield c
    while True:
        try:
            num = ((a2 * k + a1) * k + a0) / s2 * c - ((b2 * k + b1) * k + b0) / s2 * c_prev
            c_prev, c = c, num / (((g2 * k + g1) * k + g0) / s2) if num else num
        except (OverflowError, ZeroDivisionError):  # the latter when C_k / s^2 underflows
            c_prev, c = c, math.nan
        yield c
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


# ---------------------------------------------------------------------------
# Gauss hypergeometric series
# ---------------------------------------------------------------------------


def _gauss_ode(params: GaussParams) -> tuple:
    """The hypergeometric equation x(1-x) u'' + [c - (a+b+1)x] u' - ab u = 0."""
    s, (a, b, g) = _scaled(*vars(params).values())
    return s, ((0, s * s, -s * s, 0), (g * s, -(a + b + s) * s, 0), (-a * b, 0))


def hyp2f1(a: Scalar, b: Scalar, c: Scalar, x: Scalar) -> SeriesResult:
    """Gauss series ``sum (a)_k (b)_k / ((c)_k k!) x^k``.

    Terminating cases (a or b a non-positive integer, degree at most
    ``MAX_DEGREE``) are evaluated exactly and work for any x; otherwise
    |x| < 1 is required.
    """
    return _point_value(_series(GaussParams(a, b, c)), x, False)


def hyp2f1_poly(a: Scalar, b: Scalar, c: Scalar) -> Poly:
    """Exact polynomial form of a terminating Gauss series with rational parameters.

    Raises :class:`NotExact` for a float parameter, :class:`DivergentSeries`
    if the series does not terminate by degree ``MAX_DEGREE``.
    """
    return _series_poly(GaussParams(a, b, c))


def hyp2f1_pfaff(a: Scalar, b: Scalar, c: Scalar, x: Scalar) -> SeriesResult:
    """Evaluate the Gauss function through the Pfaff map on the second
    parameter: ``(1-x)^(-b) 2F1(c-a, b; c; x/(x-1))``.

    Restores convergence for x < -1, where the raw series diverges.
    """
    check_point(x)
    xf = float(x)
    if xf >= 1.0:
        raise DomainError("Pfaff-transformed evaluation requires x < 1")
    inner = hyp2f1(float(c) - float(a), b, c, xf / (xf - 1.0))
    pref = (1.0 - xf) ** (-float(b))
    return SeriesResult(pref * inner.value, inner.terms_used, inner.terminated,
                        abs(pref) * inner.tail_estimate)


# ---------------------------------------------------------------------------
# Legendre polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def legendre_poly(n: int) -> Poly:
    """Exact Legendre polynomial by its explicit sum over the integers,
    2^(-n) sum_k (-1)^k C(n, k) C(2n - 2k, n) x^(n - 2k) (DLMF §18.5(iv))."""
    if n < 0:
        raise IndexOutOfRange("Legendre degree must be non-negative")
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = (-1) ** k * comb(n, k) * comb(2 * n - 2 * k, n)
    return Poly(coeffs).scale(Fraction(1, 2**n))


def _legendre_ratio(n: int, x: Scalar) -> tuple[int, int]:
    """``(num, den)``, integers whose quotient is P_n(x) at x = u/v, where
    u/v is ``x.as_integer_ratio()``.

    The recurrence runs on the integers N_k = (2v)^k P_k(u/v),
    (k+1) N_{k+1} = 2(2k+1) u N_k - 4k v^2 N_{k-1}, whose division is exact.
    """
    if n < 0:
        raise IndexOutOfRange("Legendre degree must be non-negative")
    check_point(x)
    u, v = x.as_integer_ratio()
    n_prev, n_k, vv = 0, 1, 4 * v * v
    for k in range(n):
        n_prev, n_k = n_k, (2 * (2 * k + 1) * u * n_k - k * vv * n_prev) // (k + 1)
    return n_k, (2 * v) ** n


def legendre_p(n: int, x: Scalar):
    """Value of P_n(x) by the three-term recurrence (DLMF §18.9.1) on the
    integers of :func:`_legendre_ratio`.  A rational ``x`` gives the exact
    ``Fraction``; a float ``x`` is converted exactly and the exact value is
    rounded once, so a value past the float range raises ``OverflowError``,
    as ``float`` of the ``Fraction`` does."""
    num, den = _legendre_ratio(n, x)
    return Fraction(num, den) if _is_exact(x) else num / den


def legendre_values(n: int, grid: Grid) -> list[float]:
    """P_n at each point of ``grid`` as a float, the exact value rounded
    once, as :func:`legendre_p` rounds it: Horner's rule in u^2 over the
    integer form of :func:`legendre_poly` (:meth:`Poly.rounded_on_grid`).
    A one-point grid takes :func:`legendre_p`'s recurrence, O(n) integer
    steps, and does not expand P_n."""
    if grid.count == 1:
        num, den = _legendre_ratio(n, Fraction(grid.start, grid.den))
        return [num / den]
    return legendre_poly(n).rounded_on_grid(grid)


# ---------------------------------------------------------------------------
# local Heun functions
# ---------------------------------------------------------------------------


def heun_radius(params: HeunParams) -> float:
    return min(1.0, abs(float(params.a)))


def heun_coeffs(params: HeunParams, count: int) -> list:
    """First ``count`` local-series coefficients (exact when the parameters are)."""
    return _series_coeffs(params, count)


def heun_poly(params: HeunParams) -> Poly:
    """Exact polynomial form of a terminating local Heun series with rational parameters.

    Raises :class:`NotExact` for a float parameter, :class:`DivergentSeries`
    if the series does not terminate by degree ``MAX_DEGREE``.
    """
    return _series_poly(params)


def heun_local(params: HeunParams, x: Scalar) -> SeriesResult:
    """Local Heun function at ``x`` (series at the origin, value 1 there)."""
    return _point_value(_series(params), x, False)


def heun_local_deriv(params: HeunParams, x: Scalar) -> SeriesResult:
    """Termwise-differentiated local Heun series at ``x``."""
    return _point_value(_series(params), x, True)


def heun_operator(params: HeunParams) -> tuple[Poly, Poly, Poly]:
    """Coefficients (m, n, lin) of Heun's equation m u'' + n u' + lin u = 0 in
    the polynomial form of :func:`heun_ode_residual`; the parameters are rational."""
    return _operator(params)


def heun_ode_residual(params: HeunParams, p: Poly) -> Poly:
    """Exact residual of ``p`` in the polynomial form of Heun's equation:

        x(x-1)(x-a) p'' + [gamma (x-1)(x-a) + delta x(x-a) + epsilon x(x-1)] p'
        + (alpha beta x - q) p

    The zero polynomial certifies that ``p`` solves the equation.
    """
    return _ode_residual(params, p)


# ---------------------------------------------------------------------------
# confluent Heun functions
# ---------------------------------------------------------------------------


def confluent_heun_coeffs(params: ConfluentHeunParams, count: int) -> list:
    """First ``count`` series coefficients (exact when the parameters are)."""
    return _series_coeffs(params, count)


def confluent_heun_poly(params: ConfluentHeunParams) -> Poly:
    """Exact polynomial form of a terminating confluent Heun series with rational parameters.

    Raises :class:`NotExact` for a float parameter, :class:`DivergentSeries`
    if the series does not terminate by degree ``MAX_DEGREE``.
    """
    return _series_poly(params)


def confluent_heun(params: ConfluentHeunParams, x: Scalar) -> SeriesResult:
    """Confluent Heun function at ``x``, series at the origin with value 1."""
    return _point_value(_series(params), x, False)


def confluent_heun_deriv(params: ConfluentHeunParams, x: Scalar) -> SeriesResult:
    return _point_value(_series(params), x, True)


# ---------------------------------------------------------------------------
# termination, polynomial form and evaluation of the three series families
# ---------------------------------------------------------------------------

#: series name, equation m u'' + n u' + lin u = 0 declared as (s, (s^2 m, s^2 n,
#: s^2 lin)) with s the lcm of the parameter denominators and the polynomials
#: as :func:`_recurrence` reads them, and radius of each family
_FAMILIES = {
    HeunParams: ("local Heun", _heun_ode, heun_radius),
    ConfluentHeunParams: ("confluent Heun", _confluent_ode, lambda params: 1.0),
    GaussParams: ("Gauss", _gauss_ode, lambda params: 1.0),
}


def _operator(params) -> tuple[Poly, Poly, Poly]:
    """The declared (m, n, lin) of a rational parameter set, as ``Poly``s."""
    if not params.is_rational:
        raise NotExact("the exact operator and residual require rational parameters")
    s, ode = _FAMILIES[type(params)][1](params)
    return tuple(Poly(Fraction(c, s * s) for c in coeffs) for coeffs in ode)


def _ode_residual(params, u: Poly) -> Poly:
    """m u'' + n u' + lin u for the declared operator of ``params``."""
    m, n, lin = _operator(params)
    return m * u.derivative().derivative() + n * u.derivative() + lin * u


class _Series:
    """What one parameter set fixes.  Sets equal as values, float or
    rational, share a record: they declare the same integer equation."""

    def __init__(self, params) -> None:
        self.params = params
        self.name, ode, radius = _FAMILIES[type(params)]
        self.radius = radius(params)
        # the scale s and the integer equation (float parameters converted exactly)
        self._scale, self._equation = ode(params)
        # keyed by ``exact``; a prefix is replaced, never grown in place
        self.prefixes: dict[bool, tuple] = {True: (Fraction(1),), False: (1.0,)}
        self._deriv_terms, self._bounded = (0.0,), 0  # read by float_terms

    @cached_property
    def recurrence(self) -> tuple:
        """Integer quadratics (A, B, C) of c_{k+1} C_k = A_k c_k - B_k c_{k-1},
        read off the declared equation and scaled by s^2."""
        return _recurrence(*self._equation)

    def stream(self, exact: bool, k: int = 0, c_prev: Scalar = 0, c: Scalar = 1) -> Iterator:
        """Yield c_k, c_{k+1}, ... from c_{k-1} = ``c_prev`` and c_k = ``c`` (by
        default c_0 = 1, c_1, ...) of :attr:`recurrence`: exact over the
        integers, else in floats."""
        if exact:
            return _exact_stream(*self.recurrence, k, c_prev, c)
        return _float_stream(*self.recurrence, self._scale ** 2, k, c_prev, c)

    def _rest(self, exact: bool) -> Iterator:
        """The coefficients past the prefix, from the recurrence restarted at its last two."""
        prefix = self.prefixes[exact]
        k = len(prefix) - 1
        return itertools.islice(self.stream(exact, k, prefix[-2] if k else 0, prefix[-1]), 1, None)

    def prefix(self, count: int, exact: bool) -> tuple:
        """The coefficient prefix, at least ``count`` long: a shorter one is replaced."""
        prefix = self.prefixes[exact]
        if count > len(prefix):
            prefix += tuple(itertools.islice(self._rest(exact), count - len(prefix)))
            self.prefixes[exact] = prefix
        return prefix

    def float_terms(self, count: int, deriv: bool) -> tuple[tuple, int]:
        """The float prefix at least ``count`` long, as k c_k when ``deriv``,
        and the number of its leading coefficients at most 1e280 in
        magnitude (NaN is not), each compared once."""
        coeffs = self.prefix(count, False)
        k, n, terms = self._bounded, len(coeffs), self._deriv_terms
        while k < n and abs(coeffs[k]) <= 1e280:
            k += 1
        self._bounded = k
        if deriv and len(terms) < n:
            terms = self._deriv_terms = terms + tuple(i * coeffs[i] for i in range(len(terms), n))
        return terms if deriv else coeffs, k

    @cached_property
    def poly(self) -> Poly | None:
        """Exact polynomial form of a terminating series (float parameters
        converted exactly), or None.

        The series stops at degree N when c_{N+1} = c_{N+2} = 0: with B not 0
        at most at the largest N >= 0 with B_{N+1} = 0, with B = 0 at the
        first N >= 0 with A_N = 0.  The exact prefix is built up to that bound
        or the first two zeros in a row.  A series that can stop only above
        ``MAX_DEGREE`` raises :class:`DivergentSeries` on every access: its
        float sum cancels catastrophically and would be silently wrong.
        """
        A, B, _ = self.recurrence
        if any(B):  # once c_{N+1} = 0, c_{N+2} = -B_{N+1} c_N / C_{N+1}
            b2, b1, b0 = B
            stop = max(_integer_roots(b2, 2 * b2 + b1, b2 + b1 + b0), default=None)
        else:  # c_{N+1} = A_N c_N / C_N
            stop = min(_integer_roots(*A), default=None)
        if stop is None:
            return None
        coeffs = []
        scan = itertools.chain(self.prefixes[True], self._rest(True))
        for c in itertools.islice(scan, min(stop, MAX_DEGREE) + 3):
            coeffs.append(c)
            if c == 0 == coeffs[-2]:  # c_0 = 1, so a zero has a predecessor
                break
        self.prefixes[True] = max(self.prefixes[True], tuple(coeffs), key=len)
        if c == 0 == coeffs[-2]:
            return Poly(coeffs[:-2])
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
    rational parameter set, float otherwise.  A float coefficient that
    leaves the float range (NaN or infinite) raises :class:`DivergentSeries`."""
    series, exact = _series(params), params.is_rational
    coeffs = list(series.prefix(count, exact)[:max(count, 0)])
    if not (exact or all(map(math.isfinite, coeffs))):
        k = next(k for k, c in enumerate(coeffs) if not math.isfinite(c))
        raise _overflow(series, k, coeffs[k])
    return coeffs


def _series_poly(params) -> Poly:
    """The polynomial of a terminating series of rational ``params``.  The check
    reads ``params``, not its record, which equal float and rational sets share."""
    if not params.is_rational:
        raise NotExact("exact polynomial form requires rational parameters")
    series = _series(params)
    if series.poly is None:
        raise DivergentSeries(f"{series.name} series does not terminate; no polynomial form")
    return series.poly


def series_values(params, grid: Grid) -> list[SeriesResult]:
    """The series of ``params`` (a :class:`HeunParams`,
    :class:`ConfluentHeunParams` or :class:`GaussParams`) at each point of
    ``grid``, each as :func:`heun_local`, :func:`confluent_heun` or
    :func:`hyp2f1` gives it at that rational point, with the same checks
    and exceptions at the first point that fails them.  The record of
    ``params`` is looked up once: a terminating series is evaluated on the
    grid's integer form (:meth:`Poly.rounded_on_grid`), any other summed
    over the points' floats by :func:`_float_sums`."""
    series = _series(params)
    p = series.poly
    if p is not None:
        terms = len(p.integer_form[0])
        return [SeriesResult(v, terms, True, 0.0) for v in p.rounded_on_grid(grid)]
    return _float_sums(series, grid.floats(), False)


def _point_value(series: _Series, x: Scalar, deriv: bool) -> SeriesResult:
    """Exact polynomial value of a terminating series, else the float sum
    inside the disk of convergence."""
    check_point(x)
    p = series.poly
    if p is not None:
        return SeriesResult((series.deriv if deriv else p).rounded(x), len(p.coeffs), True, 0.0)
    return _float_sums(series, (float(x),), deriv)[0]


def _float_sums(series: _Series, xfs: Iterable[float], deriv: bool) -> list[SeriesResult]:
    """At each point of ``xfs`` in turn, sum c_k x^k (k c_k x^(k-1) when
    ``deriv``, whose term k = 0 counts as small), the power kept as a
    running one, until three terms in a row fall below ``SERIES_TOL`` times
    the sum.  The first point outside the disk of convergence, or whose
    sum meets a NaN coefficient or one above 1e280 (its term would
    overflow), raises :class:`DivergentSeries`.  The float prefix is
    fetched once per call and grown by half only when a point needs more.
    The tail estimate continues the last term geometrically with |x| over
    the radius of convergence (capped at 0.999)."""
    radius, tol, out = series.radius, SERIES_TOL, []
    terms, bounded = series.float_terms(min(32, MAX_TERMS), deriv)
    for xf in xfs:
        if abs(xf) >= radius:
            raise DivergentSeries(f"|x| >= {radius}: outside the disk of the non-terminating "
                                  f"{series.name} series")
        s, xpow, k, small = 0.0, 1.0, int(deriv), int(deriv)
        while small < 3:
            stop = min(bounded, MAX_TERMS)
            for k in range(k, stop):
                t = terms[k] * xpow
                xpow *= xf
                s += t
                if abs(t) <= tol * abs(s):
                    small += 1
                    if small == 3:
                        break
                else:
                    small = 0
            else:  # the run ended unconverged at k = stop
                if stop == MAX_TERMS:
                    raise DivergentSeries(f"no convergence within {MAX_TERMS} terms")
                if bounded < len(terms):
                    raise _overflow(series, stop, series.prefixes[False][stop], xf)
                terms, bounded = series.float_terms(min(stop + stop // 2, MAX_TERMS), deriv)
                k = stop
        r = min(abs(xf) / radius, 0.999)
        out.append(SeriesResult(s, k + 1, False, abs(t) * r / (1.0 - r)))
    return out


def _overflow(series: _Series, k: int, c: float, xf: float = 0.0) -> DivergentSeries:
    """The error for a float coefficient c_k that is NaN, infinite or, in a
    sum at ``xf``, above 1e280: the first two mean that the parameters
    leave the float range, the last that the sum had not converged yet."""
    if math.isfinite(c):
        return DivergentSeries(f"coefficient overflow: |c_{k}| > 1e280 before the sum converged "
                               f"at |x| = {abs(xf)} on a radius of {series.radius}")
    return DivergentSeries(f"coefficient overflow: c_{k} of the {series.name} series is {c} in "
                           f"floats; its parameters leave the float range")


# ---------------------------------------------------------------------------
# squared-weight kernel sums
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def f_poly(n: int) -> Poly:
    """Exact polynomial  sum_k [C(n,k) x^k (1-x)^(n-k)]^2  of degree 2n."""
    if n < 0:
        raise IndexOutOfRange("degree index must be non-negative")
    return binary_form([comb(n, k) ** 2 for k in range(n + 1)], E2, Poly.of(1, -2, 1), n)


def kernel_ratios(kind: str, n: int, grid: Grid) -> list[tuple[int, int]]:
    """``(num, den)`` at each point u/D of ``grid``, integers whose quotient
    is the squared-weight sum ``kind`` of the four discrete operator
    families there, raising at the first point outside its domain.

    With S_m(a, b) = sum_k C(m,k)^2 a^k b^(m-k), a binomial-square form
    whose squares are built once per table:

    * ``F``: S_n(u^2, (D - u)^2) / D^2n, a finite sum;
    * ``U``: S_n(u^2, D^2) / (u + D)^2n, a finite sum undefined at x = -1;
    * ``J``: (D - u)/(D + u) times U, for |x| < 1 only, by Euler's
      transformation (DLMF 15.8.1);
    * ``G``, the squared negative-binomial weight sum, for x >= 0 only (the
      operator domain): D S_(n-1)(u^2, (u + D)^2) / (D + 2u)^(2n-1), the
      closed form (3.4) G_n(x) = F_(n-1)(-x)/(1+2x)^(2n-1), and G_0 = 1.

    :func:`homogeneous_horner` evaluates S at each point of F and G.  That
    of U and J is even in u over the one D, so :func:`horner_on_grid`
    scales its coefficients by the powers of D once per table.
    """
    if n < 0:
        raise IndexOutOfRange("family index must be non-negative")
    if kind not in ("F", "U", "J", "G"):
        raise DomainError(f"unknown kernel-sum family {kind!r}")
    d, us, out = grid.den, grid.numerators(), []
    m = n - 1 if kind == "G" else n
    squares = [comb(m, k) ** 2 for k in range(m + 1)]
    if kind == "F":
        den = d ** (2 * n)
        return [(homogeneous_horner(squares, u * u, (d - u) ** 2)[0], den) for u in us]
    if kind == "G":
        for u in us:
            if u < 0:
                raise DomainError("G is evaluated on x >= 0 only")
            num = homogeneous_horner(squares, u * u, (u + d) ** 2)[0]
            out.append((d * num, (d + 2 * u) ** (2 * n - 1)) if n else (1, 1))
        return out
    even = [0] * (2 * n + 1)
    even[::2] = squares
    for u, num in zip(us, horner_on_grid(even, grid)):
        if kind == "J" and abs(u) >= d:
            raise DivergentSeries("J series requires |x| < 1")
        if u == -d:
            raise DomainError("U is undefined at x = -1")
        den = (u + d) ** (2 * n)
        out.append((num * (d - u), den * (d + u)) if kind == "J" else (num, den))
    return out


def kernel_sum(kind: str, n: int, x: Scalar):
    """The squared-weight sum ``kind`` (``F``, ``U``, ``J`` or ``G``) at
    ``x``, the one-point case of :func:`kernel_ratios`.  A rational ``x``
    gives the exact ``Fraction``; a float ``x`` is converted exactly and
    the exact value is rounded once."""
    check_point(x)
    u, v = x.as_integer_ratio()
    (num, den), = kernel_ratios(kind, n, Grid(u, 0, v, 1))
    return Fraction(num, den) if _is_exact(x) else num / den


def g_weight_sum(n: int, x: Scalar) -> float:
    """G_n(x) by its definition, the float sum of the squared negative-binomial
    weights w_0 = (1-p)^n, w_{k+1} = w_k p (n+k)/(k+1), p = x/(1+x): the
    route of identity (3.4) that is independent of its closed form.  The
    integer n + k keeps the rounding of each ratio from drifting.  Past
    their peak the squares fall by a ratio near p^2, so the pass stops once
    three squares in a row are at most ``SERIES_TOL``/(1+x) times the sum;
    leading squares that underflow to 0 come before the peak and are not
    counted.  A first weight that is not a normal float raises
    :class:`DomainError`, weights that peak past ``MAX_TERMS``
    :class:`DivergentSeries`.
    """
    if n < 0:
        raise IndexOutOfRange("family index must be non-negative")
    check_point(x)
    if x < 0:
        raise DomainError("G is evaluated on x >= 0 only")
    xf = float(x)
    p = xf / (1 + xf)
    w, tol, s0, small = (1 - p) ** n, SERIES_TOL * (1 - p), 0.0, 0
    if not w >= sys.float_info.min:
        raise DomainError(f"first weight {w!r} of the squared-weight sum is not a normal float")
    for k in range(MAX_TERMS):
        sq = w * w
        s0 += sq
        if sq <= tol * s0:
            if s0:  # while s0 = 0 every square so far has underflowed
                small += 1
                if small == 3:
                    return s0
        else:
            small = 0
        w = w * (p * (n + k)) / (k + 1)
    raise DivergentSeries(f"squared-weight sum did not converge within {MAX_TERMS} terms")


# ---------------------------------------------------------------------------
# squared Poisson-weight sum K_n and its derivatives
# ---------------------------------------------------------------------------


def kn_deriv_zero(n: int, j: int) -> Fraction:
    """Exact j-th derivative at 0 of the squared Poisson-weight sum:

        (-2n)^j sum_{i=0}^{[j/2]} C(j, 2i) C(2i, i) 4^(-i)
    """
    if n < 0:
        raise IndexOutOfRange("family index must be non-negative")
    if j < 0:
        raise IndexOutOfRange("derivative order must be non-negative")
    s = sum(Fraction(comb(j, 2 * i) * comb(2 * i, i), 4**i) for i in range(j // 2 + 1))
    return Fraction(-2 * n) ** j * s


@lru_cache(maxsize=_CACHE_SIZE)
def _kn_taylor_prefix(n: int) -> list[Fraction]:
    """The Taylor coefficients of K_n computed so far, grown in place by
    :func:`kn_taylor_coeffs`."""
    return []


def kn_taylor_coeffs(n: int, count: int) -> list[Fraction]:
    """Exact Taylor coefficients of ``exp(-2nx) * sum_k (nx)^(2k)/(k!)^2``
    at the origin, by Cauchy product of the two factor series.

    Independent oracle for the closed form of :func:`kn_deriv_zero`.  The
    coefficients are kept per ``n`` and only the missing ones are computed;
    a new list is returned.
    """
    if n < 0:
        raise IndexOutOfRange("family index must be non-negative")
    prefix = _kn_taylor_prefix(n)
    prefix.extend(_kn_taylor_coeff(n, m) for m in range(len(prefix), count))
    return prefix[:max(count, 0)]


def _kn_taylor_coeff(n: int, m: int) -> Fraction:
    """Coefficient of x^m in the Cauchy product of :func:`kn_taylor_coeffs`."""
    acc = Fraction(0)
    for k in range(m // 2 + 1):
        acc += Fraction(n ** (2 * k), math.factorial(k) ** 2) * Fraction(
            (-2 * n) ** (m - 2 * k), math.factorial(m - 2 * k)
        )
    return acc


#: largest n x at which K is summed; exp(-709) is subnormal
KN_MAX_NX = 708


def szasz_K(n: int, j: int, x: Scalar) -> float:
    """j-th derivative of the squared Poisson-weight sum at x >= 0, the
    one-point case of :func:`szasz_K_values`."""
    return _k_values(n, j, map(check_point, (x,)))[0]  # x is checked after n and j


def szasz_K_values(n: int, j: int, grid: Grid) -> list[float]:
    """j-th derivative of the squared Poisson-weight sum at each point of
    ``grid``, raising at the first point that is negative (an exact test
    on its numerator) or has n x > ``KN_MAX_NX``.

    j = 0 sums the defining series; j = 1 sums its termwise derivative;
    higher orders climb the second-order derivative ladder

        x K^(m) = -(4nx + m - 1) K^(m-1) - 2n(2m - 3) K^(m-2),

    which avoids the cancellation of repeated termwise differentiation.
    At x = 0 the exact closed form is used.  Both seeds come from one pass
    over the Poisson weights w_0 = exp(-nx), a normal float for n x at most
    ``KN_MAX_NX``, and w_{k+1} = w_k n x/(k + 1), which sums w_k^2 and, for
    j >= 1, 2n w_k (w_{k-1} - w_k), and stops as :func:`g_weight_sum`'s."""
    d = grid.den
    # a negative numerator stands for its point, rejected even if it rounds to -0.0
    return _k_values(n, j, (u / d if u >= 0 else u for u in grid.numerators()))


def _k_values(n: int, j: int, xs: Iterable[Scalar]) -> list[float]:
    """:func:`szasz_K_values` at each point of ``xs``, read once n and j are checked."""
    if n < 0:
        raise IndexOutOfRange("family index must be non-negative")
    if j < 0:
        raise IndexOutOfRange("derivative order must be non-negative")
    if j > 16:
        raise DomainError("derivative ladder supported for j <= 16")
    tol, n2, out, at_zero = SERIES_TOL, 2 * n, [], None
    for x in xs:
        if x < 0:
            raise DomainError("K is evaluated on x >= 0 only")
        xf = float(x)
        if xf == 0.0:
            if at_zero is None:
                at_zero = float(kn_deriv_zero(n, j))
            out.append(at_zero)
            continue
        c = n * xf
        if c > KN_MAX_NX:
            raise DomainError(f"K needs n*x <= {KN_MAX_NX}, where exp(-n*x) is a normal float; got {c}")
        w, s0, s1, w_prev, small = math.exp(-c), 0.0, 0.0, 0.0, 0
        for k in range(MAX_TERMS):
            sq = w * w
            s0 += sq
            if j:
                s1 += n2 * w * (w_prev - w)
                w_prev = w
            if sq <= tol * s0:
                if s0:  # while s0 = 0 every square so far has underflowed
                    small += 1
                    if small == 3:
                        break
            else:
                small = 0
            w = w * c / (k + 1)
        else:
            raise DivergentSeries(f"squared-weight sum did not converge within {MAX_TERMS} terms")
        lower, upper = s0, s1
        for m in range(2, j + 1):
            lower, upper = upper, -((4 * n * xf + m - 1) * upper + 2 * n * (2 * m - 3) * lower) / xf
        out.append(upper if j else s0)
    return out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


class QuadratureRule(Frozen):
    """A quadrature rule: the sum of ``weights[i] * f(nodes[i])``."""

    def __init__(self, nodes: tuple[float, ...], weights: tuple[float, ...]) -> None:
        self.__dict__.update(nodes=nodes, weights=weights)
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.weights):
            raise DomainError(f"{len(self.nodes)} quadrature nodes but {len(self.weights)} weights")


def periodic_trapezoid(npoints: int, a: float, b: float) -> QuadratureRule:
    """The closed composite trapezoid on [a, b] with ``npoints`` subintervals,
    which converges spectrally for smooth integrands extending to even
    periodic functions.  A rule is immutable, so each is built once and
    shared.  ``npoints`` must be an int >= 2 and the endpoints finite."""
    if isinstance(npoints, bool) or not isinstance(npoints, int) or npoints < 2:
        raise DomainError(f"quadrature needs at least 2 points, as an int; got {npoints!r}")
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"quadrature needs finite endpoints, got [{a}, {b}]")
    return _trapezoid(npoints, a, b)


# checked before the cache, so that 4.0 never reaches the entry of 4
@lru_cache(maxsize=_CACHE_SIZE)
def _trapezoid(npoints: int, a: float, b: float) -> QuadratureRule:
    h = (b - a) / npoints
    nodes = tuple(a + i * h for i in range(npoints)) + (b,)
    return QuadratureRule(nodes, (h / 2,) + (h,) * (npoints - 1) + (h / 2,))


@lru_cache(maxsize=_CACHE_SIZE)
def half_angle_table(npoints: int) -> tuple[tuple[float, float, float, float], ...]:
    """``(phi, weight, sin(phi/2)**2, cos(phi/2)**2)`` at each node of
    ``periodic_trapezoid(npoints, 0, pi)``, in node order: the rule of the
    integrals over phi in [0, pi] whose integrand depends on phi only
    through sin^2(phi/2) and cos^2(phi/2), with those squares computed once
    per node count instead of once per node and integral."""
    rule = periodic_trapezoid(npoints, 0.0, math.pi)
    return tuple((phi, w, math.sin(phi / 2) ** 2, math.cos(phi / 2) ** 2)
                 for phi, w in zip(rule.nodes, rule.weights))


def phi_integral(x: float, power: float, cos_weight: float) -> float:
    """integral_0^pi (1 - 4x(1-x) sin^2(phi/2))^power (1 + cos_weight cos^2(phi/2)) dphi
    by the 256-subinterval trapezoid rule of :func:`half_angle_table`, summed
    in node order; a non-finite integrand value raises :class:`NonFinite`."""
    xf = float(x)
    a = 4 * xf * (1 - xf)
    total = 0.0
    for phi, w, s2, c2 in half_angle_table(256):
        v = (1 - a * s2) ** power * (1 + cos_weight * c2)
        if not math.isfinite(v):
            raise NonFinite(f"integrand is not finite at node {phi}")
        total += w * v
    return total


def quadrature(rule: QuadratureRule, f: Callable[[float], float]) -> float:
    """Apply ``rule`` to ``f``; a non-finite value of ``f`` at a node is rejected."""
    total = 0.0
    for t, w in zip(rule.nodes, rule.weights):
        v = f(t)
        if not math.isfinite(v):
            raise NonFinite(f"integrand is not finite at node {t}")
        total += w * v
    return total

"""B-spline densities on equidistant knots, the induced integral-operator
kernel, and the exact squared-kernel constants.

The B-spline here is density-normalized: the spline on knots
``x_0 < ... < x_m`` integrates to exactly 1 (degree m-1, smoothness
C^(m-2)).  That normalization is what makes the squared-kernel integral
equal ``c_n / sigma(x)`` with ``c_1 = 1/2``.  On equidistant knots it is
an affine image of the cardinal B-spline M_m (knots 0, 1, ..., m), and
every density and value here comes from the explicit sum for M_m
(Schoenberg 1946).

``KnotVector``, the width specs and ``KernelInstance`` are immutable value
types (:class:`heunops.exactalg.Frozen`).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence, Union

from .errors import DomainError, InvalidKnots, NonpositiveWidth, NotExact
from .exactalg import Frozen, PiecewisePoly, Poly, rat


class KnotVector(Frozen):
    """Strictly increasing, exactly equidistant rational knots."""

    def __init__(self, points: tuple[Fraction, ...]) -> None:
        self.__dict__.update(points=points)
        self.__post_init__()

    def __post_init__(self) -> None:
        pts = tuple(rat(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise InvalidKnots("need at least two knots")
        gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
        if any(g <= 0 for g in gaps):
            raise InvalidKnots("knots must be strictly increasing")
        if any(g != gaps[0] for g in gaps):
            raise InvalidKnots("knots must be exactly equidistant")


class SigmaSpec(Frozen):
    """Positive width function sigma; subclasses are the closed family
    that keeps every kernel computation exact at rational points."""

    def at(self, x) -> Fraction:
        value = self._value(rat(x))
        if value.numerator <= 0:
            raise NonpositiveWidth(f"sigma({x}) = {value} <= 0")
        return value

    def _value(self, x: Fraction) -> Fraction:
        raise NotImplementedError


class ConstantSigma(SigmaSpec):
    def __init__(self, c: Fraction) -> None:
        self.__dict__.update(c=c)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", rat(self.c))

    def _value(self, x: Fraction) -> Fraction:
        return self.c


class QuadraticSigma(SigmaSpec):
    """sigma(x) = c + d x^2."""

    def __init__(self, c: Fraction, d: Fraction) -> None:
        self.__dict__.update(c=c, d=d)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", rat(self.c))
        object.__setattr__(self, "d", rat(self.d))

    def _value(self, x: Fraction) -> Fraction:
        return self.c + self.d * x * x


class TableSigma(SigmaSpec):
    """Piecewise-linear interpolation through rational sample points,
    extended by its end values outside the table."""

    def __init__(self, xs: tuple[Fraction, ...], values: tuple[Fraction, ...]) -> None:
        self.__dict__.update(xs=xs, values=values)
        self.__post_init__()

    def __post_init__(self) -> None:
        xs = tuple(rat(v) for v in self.xs)
        vals = tuple(rat(v) for v in self.values)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", vals)
        if len(xs) != len(vals) or len(xs) < 2:
            raise DomainError("need matching sample abscissae and values, at least two")
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise DomainError("sample abscissae must be strictly increasing")

    def _value(self, x: Fraction) -> Fraction:
        if x <= self.xs[0]:
            return self.values[0]
        if x >= self.xs[-1]:
            return self.values[-1]
        i = bisect_right(self.xs, x) - 1
        t = (x - self.xs[i]) / (self.xs[i + 1] - self.xs[i])
        return self.values[i] + t * (self.values[i + 1] - self.values[i])


class KernelInstance(Frozen):
    """One kernel slice t -> W_n(x, t): a B-spline density supported on
    [x - sigma(x), x + sigma(x)] with n equal subintervals."""

    def __init__(self, n: int, x: Fraction, width: Fraction, density: PiecewisePoly) -> None:
        self.__dict__.update(n=n, x=x, width=width, density=density)


def bspline_density(knots: Union[KnotVector, Sequence]) -> PiecewisePoly:
    """Degree-(m-1) B-spline on the given m+1 knots, normalized to
    integrate to exactly 1, in exact rational arithmetic.

    On the equidistant knots x_0 + h i it is (1/h) M_m((t - x_0)/h), so
    each piece is a piece of the cardinal M_m (:func:`_cardinal_pieces`)
    under the affine map t -> (t - x_0)/h, scaled by 1/h.
    """
    if not isinstance(knots, KnotVector):
        knots = KnotVector(tuple(knots))
    pts = knots.points
    x0, h = pts[0], pts[1] - pts[0]
    pieces = _cardinal_pieces(len(pts) - 1)
    return PiecewisePoly(pts, tuple(p.compose_affine(1 / h, -x0 / h).scale(1 / h) for p in pieces))


@lru_cache(maxsize=256)
def _cardinal_pieces(m: int) -> tuple[Poly, ...]:
    """The m polynomial pieces of the cardinal B-spline M_m, piece i on
    [i, i+1]:

        P_i(t) = sum_{j <= i} (-1)^j C(m, j) (t - j)^(m-1) / (m-1)!,

    the sum of :func:`cardinal_bspline` with its terms expanded in powers
    of t; each piece adds one term to the integer coefficients of the last.
    """
    acc, pieces, inv = [0] * m, [], Fraction(1, factorial(m - 1))
    for j in range(m):
        sign_binom = (-1) ** j * comb(m, j)
        for r in range(m):
            acc[r] += sign_binom * comb(m - 1, r) * (-j) ** (m - 1 - r)
        pieces.append(Poly(acc).scale(inv))
    return tuple(pieces)


def require_order(n, what: str = "kernel order n") -> None:
    """Reject an order that is a bool, not an int, or below 1."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidKnots(f"{what} must be an int, got {n!r}")
    if n < 1:
        raise InvalidKnots(f"{what} must be >= 1, got {n}")


def require_sigma(sigma) -> None:
    """Reject a width that is not a :class:`SigmaSpec`."""
    if not isinstance(sigma, SigmaSpec):
        raise DomainError(f"the width sigma must be a SigmaSpec, got {sigma!r}")


def cardinal_bspline(m: int, t) -> Fraction:
    """Cardinal B-spline M_m (knots 0, 1, ..., m, integral 1) at rational t,
    by the explicit sum

        M_m(t) = sum_{j < t} (-1)^j C(m, j) (t - j)^(m-1) / (m-1)!

    over integers at t = p/q: the same sum as the pieces of
    :func:`_cardinal_pieces`, evaluated at one point without building
    them.  The j = 0 term always counts, so that M_1 is 1 on the closed
    [0, 1], like :func:`bspline_density` at its knots.
    """
    require_order(m, "cardinal B-spline order m")
    t = rat(t)
    if not 0 <= t <= m:
        return Fraction(0)
    p, q = t.numerator, t.denominator
    top = max(1, -(-p // q))
    total = sum((-1) ** j * comb(m, j) * (p - j * q) ** (m - 1) for j in range(top))
    return Fraction(total, q ** (m - 1) * factorial(m - 1))


def kernel(n: int, sigma, x) -> KernelInstance:
    """Kernel slice with width sigma(x) and n equal knot intervals."""
    require_order(n)
    require_sigma(sigma)
    x = rat(x)
    w = sigma.at(x)
    step = 2 * w / n
    knots = tuple(x - w + step * i for i in range(n + 1))
    return KernelInstance(n, x, w, bspline_density(knots))


# typed, so that True or 2.0 never reaches the entry of 1 or 2 past the check
@lru_cache(maxsize=None, typed=True)
def c_constant(n: int) -> Fraction:
    """Exact squared-kernel constant: sigma(x) * integral of W_n(x,.)^2.

    W_n(0,.) at sigma = 1 is (n/2) M_n(n(t+1)/2), and M_n is symmetric with
    M_n * M_n = M_2n, so c_n = (n/2) M_2n(n) (:func:`cardinal_bspline`),
    whatever x and sigma.  ``entropy_profile`` divides it by sigma(x);
    the tests check it against kernels built by the Cox-de Boor recursion
    at the actual knots.
    """
    require_order(n)
    return n * cardinal_bspline(2 * n, n) / 2


@lru_cache(maxsize=None, typed=True)
def unit_variance(n: int) -> Fraction:
    """Exact variance 1/(3n) of the unit kernel W_n(0, .) at sigma = 1:
    M_n has variance n/12 and the kernel is M_n scaled by 2/n.  At width w
    the variance is w^2 times this."""
    require_order(n)
    return Fraction(1, 3 * n)


def apply_Ln(n: int, sigma, f: Poly, x) -> Fraction:
    """Apply the kernel-integral operator to the polynomial f at the point
    x, exactly."""
    if not isinstance(f, Poly):
        raise NotExact(f"apply_Ln integrates a Poly exactly, got {type(f).__name__}")
    return kernel(n, sigma, x).density.integrate(weight=f)

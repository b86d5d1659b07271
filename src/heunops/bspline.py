"""B-spline densities on equidistant knots, the induced integral-operator
kernel, and the exact squared-kernel constants.

The B-spline here is density-normalized: the spline on knots
``x_0 < ... < x_m`` integrates to exactly 1 (degree m-1, smoothness
C^(m-2)).  That normalization is what makes the squared-kernel integral
equal ``c_n / sigma(x)`` with ``c_1 = 1/2``.  On equidistant knots every
density and value here comes from the explicit truncated-power sum
(Schoenberg 1946): a density is built from it at its own knots, and the
constants read it as the cardinal B-spline M_m (knots 0, 1, ..., m).

``KnotVector``, the width specs and ``KernelInstance`` are immutable value
types (:class:`heunops.exactalg.Frozen`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .errors import DomainError, InvalidKnots, NonpositiveWidth, NotExact
from .exactalg import Frozen, Grid, PiecewisePoly, Poly, rat


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

    def ratios_on_grid(self, grid: Grid) -> list[tuple[int, int]]:
        """``(p, q)``, q > 0, with sigma = p/q at each point of ``grid``,
        in order and unchecked: :meth:`at` names a point where p <= 0."""
        return [self._value(Fraction(u, grid.den)).as_integer_ratio() for u in grid.numerators()]

    def _value(self, x: Fraction) -> Fraction:
        raise NotImplementedError


class ConstantSigma(SigmaSpec):
    def __init__(self, c: Fraction) -> None:
        self.__dict__.update(c=c)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", rat(self.c))

    def ratios_on_grid(self, grid: Grid) -> list[tuple[int, int]]:
        return [self.c.as_integer_ratio()] * grid.count

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

    def ratios_on_grid(self, grid: Grid) -> list[tuple[int, int]]:
        # c + d (u/D)^2 = (a f D^2 + e b u^2) / (b f D^2) with c = a/b, d = e/f
        (a, b), (e, f), dd = self.c.as_integer_ratio(), self.d.as_integer_ratio(), grid.den ** 2
        lead, eb, den = a * f * dd, e * b, b * f * dd
        return [(lead + eb * u * u, den) for u in grid.numerators()]

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


def bspline_density(knots: KnotVector | Sequence) -> PiecewisePoly:
    """Degree-(m-1) B-spline on the given m+1 knots, normalized to
    integrate to exactly 1, in exact rational arithmetic.

    On the equidistant knots x_j = x_0 + j h, piece i (on [x_i, x_i+1]) is
    the truncated-power sum (Schoenberg 1946)

        sum_{j <= i} (-1)^j C(m, j) (t - x_j)^(m-1) / (h^m (m-1)!).

    With x_j = c_j / d over one common denominator d, each term is
    expanded over the integers as (-1)^j C(m, j) (d t - c_j)^(m-1), piece i
    is piece i-1 plus one such term, and each piece is scaled once by
    d / (b^m (m-1)!), b = h d: O(m) coefficient updates per piece.
    """
    if not isinstance(knots, KnotVector):
        knots = KnotVector(tuple(knots))
    pts = knots.points
    m = len(pts) - 1
    d = lcm(pts[0].denominator, pts[1].denominator)
    c0, b = int(pts[0] * d), int((pts[1] - pts[0]) * d)
    # the weights C(m-1, r) d^r of t^r in (d t - c_j)^(m-1)
    weights = [comb(m - 1, r) * d**r for r in range(m)]
    scale = Fraction(d, b**m * factorial(m - 1))
    acc, pieces = [0] * m, []
    for j in range(m):
        # add (-1)^j C(m, j) (d t - c_j)^(m-1), highest power of t first
        power, minus_c = (-1) ** j * comb(m, j), -(c0 + j * b)
        for r in reversed(range(m)):
            acc[r] += weights[r] * power
            power *= minus_c
        pieces.append(Poly(acc).scale(scale))
    return PiecewisePoly(pts, tuple(pieces))


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

    over integers at t = p/q: the sum of :func:`bspline_density` at the
    knots 0, 1, ..., m, evaluated at one point without building its
    pieces.  The j = 0 term always counts, so that M_1 is 1 on the closed
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
    whatever x and sigma.  ``entropy_columns`` divides it by sigma(x);
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

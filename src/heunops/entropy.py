"""Order-2 Renyi/Tsallis entropies, variances and squared-kernel
quantities for the two positive-linear-operator families, plus the
grid synchronicity check.

For an operator with kernel density W(x, .) the quantities are

    squared kernel  s(x) = integral W(x, t)^2 dt
    Renyi entropy   -log s(x)
    Tsallis entropy 1 - s(x)
    variance        L e_2 (x) - (L e_1 (x))^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence, Union

from . import bspline
from .errors import (
    ConstraintViolated,
    DomainError,
    IndexOutOfRange,
    LengthMismatch,
    NonFinite,
    UnsupportedK,
)
from .exactalg import E0, E1, E2, Poly, PiecewisePoly, binary_form, integrate_product, rat
from .specfun import periodic_trapezoid, quadrature


@dataclass(frozen=True)
class BSplineOp:
    """Kernel-integral operator on the whole line: order n, width sigma."""

    n: int
    sigma: bspline.SigmaSpec


def _require_kantorovich_order(n: int, k: int) -> None:
    """Reject orders outside 0 <= k <= n and the degree n = 0, whose
    Bernstein nodes j/n do not exist."""
    if n < 1:
        raise DomainError(f"Kantorovich operator needs degree n >= 1, got n = {n}")
    if not 0 <= k <= n:
        raise DomainError("Kantorovich order requires 0 <= k <= n")


@dataclass(frozen=True)
class KantorovichOp:
    """k-th Kantorovich modification of the degree-n Bernstein operator on [0, 1]."""

    n: int
    k: int

    def __post_init__(self) -> None:
        _require_kantorovich_order(self.n, self.k)


OperatorSpec = Union[BSplineOp, KantorovichOp]


@dataclass(frozen=True)
class EntropyPoint:
    x: float
    squared_kernel_integral: float
    renyi: float
    tsallis: float
    variance: float

    def __post_init__(self) -> None:
        s = self.squared_kernel_integral
        if not s > 0:
            raise ConstraintViolated(f"squared kernel integral {s} must be > 0")
        if self.renyi != -math.log(s):
            raise ConstraintViolated(f"renyi {self.renyi} != -log({s})")
        if self.tsallis != 1.0 - s:
            raise ConstraintViolated(f"tsallis {self.tsallis} != 1 - {s}")


@dataclass(frozen=True)
class SynchronicityReport:
    passed: bool
    worst_pair: tuple[int, int]
    worst_product: float


def bernstein_basis(n: int, j: int, x) -> Fraction:
    """Exact Bernstein weight  C(n,j) x^j (1-x)^(n-j)."""
    if not 0 <= j <= n:
        raise IndexOutOfRange(f"basis index {j} outside 0..{n}")
    x = rat(x)
    return comb(n, j) * x**j * (1 - x) ** (n - j)


#: the second variable of the Bernstein binary forms
_ONE_MINUS_X = Poly.of(1, -1)


@lru_cache(maxsize=None)
def bernstein_poly(n: int, j: int) -> Poly:
    if not 0 <= j <= n:
        raise IndexOutOfRange(f"basis index {j} outside 0..{n}")
    return (Poly.monomial(j) * _ONE_MINUS_X ** (n - j)).scale(comb(n, j))


def bernstein_apply(n: int, f: Poly) -> Poly:
    """Bernstein operator on a polynomial, as an exact polynomial: the
    binary form  sum_j C(n,j) f(j/n) x^j (1-x)^(n-j)."""
    return binary_form([comb(n, j) * f(Fraction(j, n)) for j in range(n + 1)],
                       E1, _ONE_MINUS_X, n)


@lru_cache(maxsize=None)
def _kantorovich_cell(n: int, k: int, j: int) -> PiecewisePoly:
    """Degree-(k-1) B-spline density on the k+1 knots j/n, ..., (j+k)/n."""
    return bspline.bspline_density([Fraction(j + i, n) for i in range(k + 1)])


def kantorovich_poly(n: int, k: int, f: Poly, method: str = "definition") -> Poly:
    """Exact polynomial image of ``f`` under the k-th Kantorovich
    modification of the degree-n Bernstein operator.

    ``definition``    scale * D^k (Bernstein of the k-fold antiderivative)
    ``bspline-form``  sum of Bernstein weights times exact B-spline moments
                      of ``f`` (point evaluation when k = 0)

    Exact agreement of the two routes on polynomials is one of the
    verified identities.
    """
    _require_kantorovich_order(n, k)
    if method == "definition":
        g = f
        for _ in range(k):
            g = g.antiderivative()
        out = bernstein_apply(n, g)
        for _ in range(k):
            out = out.derivative()
        scale = Fraction(n**k * math.factorial(n - k), math.factorial(n))
        return out.scale(scale)
    if method == "bspline-form":
        total = Poly()
        for j in range(n - k + 1):
            if k == 0:
                weight = f(Fraction(j, n))
            else:
                weight = _kantorovich_cell(n, k, j).integrate(weight=f)
            total = total + bernstein_poly(n - k, j).scale(weight)
        return total
    raise DomainError(f"unknown method {method!r}")


def kantorovich_apply(n: int, k: int, f: Poly, x, method: str = "definition") -> Fraction:
    """Exact value of the Kantorovich-modified operator on a polynomial."""
    return kantorovich_poly(n, k, f, method)(rat(x))


# ---------------------------------------------------------------------------
# squared kernel of the Kantorovich family
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def s_direct_poly(n: int, k: int) -> Poly:
    """Squared-kernel integral of the k-th Kantorovich modification as an
    exact polynomial in x, straight from the definition (m = n - k):

        sum_{j,j'} b_{m,j}(x) b_{m,j'}(x) * integral B_j B_j'

    The cells B_j sit on the equidistant knots j/n, ..., (j+k)/n, so B_j is
    B_0 translated by j/n and the overlap integral depends only on
    d = |j - j'|: it is I_d = integral B_0 B_d, which vanishes for d >= k.
    So min(k, m + 1) exact integrals serve the whole double sum.  Since
    b_{m,j} b_{m,j'} = C(m,j) C(m,j') x^(j+j') (1-x)^(2m-j-j'), the sum is
    the degree-2m binary form in (x, 1 - x) with coefficients

        a_l = sum_{j + j' = l, |j - j'| < k} C(m,j) C(m,j') I_{|j-j'|}.
    """
    if not 1 <= k <= n:
        raise UnsupportedK("squared kernel defined for 1 <= k <= n (k = 0 is the discrete family)")
    m = n - k
    cell0 = _kantorovich_cell(n, k, 0)
    overlaps = [integrate_product(cell0, _kantorovich_cell(n, k, d)) for d in range(min(k, m + 1))]
    coeffs = [Fraction(0)] * (2 * m + 1)
    for j in range(m + 1):
        for jp in range(max(0, j - k + 1), min(m, j + k - 1) + 1):
            coeffs[j + jp] += comb(m, j) * comb(m, jp) * overlaps[abs(j - jp)]
    return binary_form(coeffs, E1, _ONE_MINUS_X, 2 * m)


@lru_cache(maxsize=None)
def s2_sum_poly(n: int) -> Poly:
    """Closed sum form of the squared kernel for k = 2, an even polynomial
    in (x - 1/2):

        (n / (3(n-1) 4^(n-2))) * sum_i (3(n-2) - 2i + 2) 4^i C(2i,i)
                                        C(2(n-2)-2i, (n-2)-i) (x-1/2)^(2i)
    """
    if n < 2:
        raise UnsupportedK("sum form needs operator index >= 2")
    m = n - 2
    coeffs = [(3 * m - 2 * i + 2) * 4**i * comb(2 * i, i) * comb(2 * m - 2 * i, m - i)
              for i in range(m + 1)]
    shifted_square = Poly.of(Fraction(1, 4), -1, 1)  # (x - 1/2)^2
    return binary_form(coeffs, shifted_square, E0, m).scale(Fraction(n, 3 * (n - 1) * 4**m))


def s2_integral_form(n: int, x: float, npoints: int = 256) -> float:
    """Quadrature evaluation of the k = 2 squared kernel:

        (n / 3 pi) * integral_0^pi (1 - 4x(1-x) sin^2(phi/2))^(n-2)
                                   (1 + 2 cos^2(phi/2)) dphi
    """
    if n < 2:
        raise UnsupportedK("integral form needs operator index >= 2")
    m = n - 2
    xf = float(x)

    def integrand(phi: float) -> float:
        return (1 - 4 * xf * (1 - xf) * math.sin(phi / 2) ** 2) ** m * (
            1 + 2 * math.cos(phi / 2) ** 2
        )

    return n / (3 * math.pi) * quadrature(periodic_trapezoid(npoints, 0.0, math.pi), integrand)


def s_nk(n: int, k: int, x, method: str = "direct"):
    """Squared-kernel integral of the k-th Kantorovich modification at x.

    ``direct`` works for any 1 <= k <= n and is exact at rational x;
    ``sum-form`` and ``integral-form`` implement the k = 2 closed forms.
    """
    if method == "direct":
        return s_direct_poly(n, k)(rat(x))
    if method == "sum-form":
        if k != 2:
            raise UnsupportedK("sum form available only for k = 2")
        return s2_sum_poly(n)(rat(x))
    if method == "integral-form":
        if k != 2:
            raise UnsupportedK("integral form available only for k = 2")
        return s2_integral_form(n, float(x))
    raise DomainError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# profiles and synchronicity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _kantorovich_profile_polys(n: int, k: int) -> tuple[Poly, Poly]:
    """Squared-kernel polynomial and variance polynomial
    ``L e_2 - (L e_1)^2`` of the k-th Kantorovich modification."""
    m1 = kantorovich_poly(n, k, E1)
    return s_direct_poly(n, k), kantorovich_poly(n, k, E2) - m1 * m1


def _point(x: Fraction, s, var) -> EntropyPoint:
    # s and var are exact rationals or their correct roundings
    sf = float(s)
    return EntropyPoint(float(x), sf, -math.log(sf), 1.0 - sf, float(var))


def _kantorovich_point(op: KantorovichOp, x: Fraction) -> EntropyPoint:
    if x < 0 or x > 1:
        raise DomainError(f"x = {x} outside the operator domain [0, 1]")
    s_poly, var_poly = _kantorovich_profile_polys(op.n, op.k)
    return _point(x, s_poly.rounded(x), var_poly.rounded(x))


def _bspline_point(op: BSplineOp, x: Fraction) -> EntropyPoint:
    # W_n(x, .) is the unit kernel W_n(0, .) at sigma = 1, stretched by
    # w = sigma(x) and centred at x: exact, so s and the variance scale too
    c = bspline.c_constant(op.n)
    w = op.sigma.at(x)
    return _point(x, c / w, w * w * bspline.unit_variance(op.n))


def entropy_profile(op: OperatorSpec, xs: Sequence) -> list[EntropyPoint]:
    """Per-point squared-kernel integral, both entropies, and the variance
    computed from exact moments (never from the closed forms).

    B-spline values come from the exact quantities of the unit kernel
    (sigma = 1, x = 0), scaled exactly: s = c_n / sigma(x) and variance
    sigma(x)^2 times the unit variance.  Kantorovich polynomials are built
    once per (n, k) and evaluated at each grid point by integer Horner,
    rounded once (:meth:`Poly.rounded`).  Either way each output float is
    the rounding of the same exact rational as a per-point rebuild."""
    xs = [rat(x) for x in xs]
    if isinstance(op, BSplineOp):
        return [_bspline_point(op, x) for x in xs]
    if isinstance(op, KantorovichOp):
        if op.k < 1:
            raise UnsupportedK("entropy profile needs k >= 1 (k = 0 has a discrete kernel)")
        return [_kantorovich_point(op, x) for x in xs]
    raise DomainError(f"unknown operator spec {op!r}")


def synchronicity_check(f_vals: Sequence[float], g_vals: Sequence[float]) -> SynchronicityReport:
    """Pairwise-product test: pass iff (f_i - f_j)(g_i - g_j) >= 0 for all
    pairs, i.e. the two sequences move together on the grid.  A NaN or
    infinite value raises :class:`NonFinite`: a NaN product is never the worst."""
    if len(f_vals) != len(g_vals):
        raise LengthMismatch(f"{len(f_vals)} f-values vs {len(g_vals)} g-values")
    if len(f_vals) < 2:
        raise LengthMismatch("need at least two grid points")
    for v in (*f_vals, *g_vals):
        if isinstance(v, float) and not math.isfinite(v):
            raise NonFinite(f"synchronicity needs finite values, got {v}")
    worst = math.inf
    worst_pair = (0, 1)
    for i in range(len(f_vals)):
        for j in range(i + 1, len(f_vals)):
            prod = (f_vals[i] - f_vals[j]) * (g_vals[i] - g_vals[j])
            if prod < worst:
                worst = prod
                worst_pair = (i, j)
    return SynchronicityReport(worst >= 0, worst_pair, worst)

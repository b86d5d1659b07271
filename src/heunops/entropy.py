"""Order-2 Renyi/Tsallis entropies, variances and squared-kernel
quantities for the two positive-linear-operator families, plus the
grid synchronicity check.

For an operator with kernel density W(x, .) the quantities are

    squared kernel  s(x) = integral W(x, t)^2 dt
    Renyi entropy   -log s(x)
    Tsallis entropy 1 - s(x)
    variance        L e_2 (x) - (L e_1 (x))^2

The operator specs, ``EntropyPoint`` and ``SynchronicityReport`` are
immutable value types (:class:`heunops.exactalg.Frozen`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, islice
from math import comb
from operator import gt

from . import bspline
from .errors import (
    ConstraintViolated,
    DomainError,
    LengthMismatch,
    NonFinite,
    UnsupportedK,
)
from .exactalg import E0, E1, Frozen, Grid, Poly, PiecewisePoly, binary_form, rat
from .specfun import phi_integral


class BSplineOp(Frozen):
    """Kernel-integral operator on the whole line: order n, width sigma."""

    def __init__(self, n: int, sigma: bspline.SigmaSpec) -> None:
        self.__dict__.update(n=n, sigma=sigma)
        self.__post_init__()

    def __post_init__(self) -> None:
        bspline.require_order(self.n)
        bspline.require_sigma(self.sigma)


def _require_ints(n, k) -> None:
    """Reject a Kantorovich degree or order that is a bool or not an int."""
    for name, value in (("degree n", n), ("order k", k)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(f"Kantorovich {name} must be an int, got {value!r}")


def _require_kantorovich_order(n: int, k: int) -> None:
    """Reject non-int orders, orders outside 0 <= k <= n and the degree
    n = 0, whose Bernstein nodes j/n do not exist."""
    _require_ints(n, k)
    if n < 1:
        raise DomainError(f"Kantorovich operator needs degree n >= 1, got n = {n}")
    if not 0 <= k <= n:
        raise DomainError("Kantorovich order requires 0 <= k <= n")


class KantorovichOp(Frozen):
    """k-th Kantorovich modification of the degree-n Bernstein operator on [0, 1]."""

    def __init__(self, n: int, k: int) -> None:
        self.__dict__.update(n=n, k=k)
        self.__post_init__()

    def __post_init__(self) -> None:
        _require_kantorovich_order(self.n, self.k)


OperatorSpec = BSplineOp | KantorovichOp


class EntropyPoint(Frozen):
    def __init__(self, x: float, squared_kernel_integral: float, renyi: float, tsallis: float,
                 variance: float) -> None:
        self.__dict__.update(x=x, squared_kernel_integral=squared_kernel_integral, renyi=renyi,
                             tsallis=tsallis, variance=variance)
        self.__post_init__()

    def __post_init__(self) -> None:
        s = self.squared_kernel_integral
        if not s > 0:
            raise ConstraintViolated(f"squared kernel integral {s} must be > 0")
        if self.renyi != -math.log(s):
            raise ConstraintViolated(f"renyi {self.renyi} != -log({s})")
        if self.tsallis != 1.0 - s:
            raise ConstraintViolated(f"tsallis {self.tsallis} != 1 - {s}")


class SynchronicityReport(Frozen):
    """Verdict of :func:`synchronicity_check`.  A pass has ``worst_pair``
    None and ``worst_product`` 0.0; a failure names one pair i < j whose two
    differences have strictly opposite signs, and their float product."""

    def __init__(self, passed: bool, worst_pair: tuple[int, int] | None, worst_product: float) -> None:
        self.__dict__.update(passed=passed, worst_pair=worst_pair, worst_product=worst_product)


#: the second variable of the Bernstein binary forms
_ONE_MINUS_X = Poly.of(1, -1)


def bernstein_apply(n: int, f: Poly) -> Poly:
    """Bernstein operator on a polynomial, as an exact polynomial: the
    binary form  sum_j C(n,j) f(j/n) x^j (1-x)^(n-j)."""
    return binary_form([comb(n, j) * f(Fraction(j, n)) for j in range(n + 1)],
                       E1, _ONE_MINUS_X, n)


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
        m = n - k
        if k == 0:
            weights = [f(Fraction(j, n)) for j in range(m + 1)]
        else:
            weights = [_kantorovich_cell(n, k, j).integrate(weight=f) for j in range(m + 1)]
        return binary_form([comb(m, j) * w for j, w in enumerate(weights)], E1, _ONE_MINUS_X, m)
    raise DomainError(f"unknown method {method!r}")


def kantorovich_apply(n: int, k: int, f: Poly, x, method: str = "definition") -> Fraction:
    """Exact value of the Kantorovich-modified operator on a polynomial."""
    return kantorovich_poly(n, k, f, method)(rat(x))


# ---------------------------------------------------------------------------
# squared kernel of the Kantorovich family
# ---------------------------------------------------------------------------


def s_direct_poly(n: int, k: int) -> Poly:
    """Squared-kernel integral of the k-th Kantorovich modification as an
    exact polynomial in x, straight from the definition (m = n - k):

        sum_{j,j'} b_{m,j}(x) b_{m,j'}(x) * integral B_j B_j'

    The cells B_j sit on the equidistant knots j/n, ..., (j+k)/n, so
    B_j(t) = n M_k(nt - j) for the cardinal B-spline M_k, and the overlap
    integral depends only on d = |j - j'|.  By the symmetry of M_k and
    M_k * M_k = M_2k it is I_d = n M_2k(k + d)
    (:func:`bspline.cardinal_bspline`), which vanishes for d >= k; no cell
    is built.  Since
    b_{m,j} b_{m,j'} = C(m,j) C(m,j') x^(j+j') (1-x)^(2m-j-j'), the sum is
    the degree-2m binary form in (x, 1 - x) with coefficients

        a_l = sum_{j + j' = l, |j - j'| < k} C(m,j) C(m,j') I_{|j-j'|}.

    At the integer point k + d the denominator of M_2k divides (2k-1)!, so
    the a_l are summed as integers with the overlaps scaled by (2k-1)!, and
    the form is scaled back once.
    """
    _require_ints(n, k)
    if not 1 <= k <= n:
        raise UnsupportedK("squared kernel defined for 1 <= k <= n (k = 0 is the discrete family)")
    m = n - k
    scale = math.factorial(2 * k - 1)
    overlaps = [(scale * bspline.cardinal_bspline(2 * k, k + d)).numerator
                for d in range(min(k, m + 1))]
    binoms = [comb(m, j) for j in range(m + 1)]
    coeffs = [0] * (2 * m + 1)
    for j, cj in enumerate(binoms):
        for jp in range(max(0, j - k + 1), min(m, j + k - 1) + 1):
            coeffs[j + jp] += cj * binoms[jp] * overlaps[abs(j - jp)]
    return binary_form(coeffs, E1, _ONE_MINUS_X, 2 * m).scale(Fraction(n, scale))


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


def s2_integral_form(n: int, x: float) -> float:
    """Quadrature evaluation of the k = 2 squared kernel:

        (n / 3 pi) * integral_0^pi (1 - 4x(1-x) sin^2(phi/2))^(n-2)
                                   (1 + 2 cos^2(phi/2)) dphi

    by :func:`specfun.phi_integral`, which rejects a non-finite integrand.
    """
    if n < 2:
        raise UnsupportedK("integral form needs operator index >= 2")
    return n / (3 * math.pi) * phi_integral(x, n - 2, 2)


# ---------------------------------------------------------------------------
# profiles and synchronicity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _kantorovich_profile_polys(n: int, k: int) -> tuple[Poly, Poly]:
    """Squared-kernel polynomial and variance polynomial
    ``L e_2 - (L e_1)^2`` of the k-th Kantorovich modification.

    The variance is the closed form (m x(1-x) + k/12) / n^2, m = n - k.
    The operator draws the cell j with the Bernstein weight b_{m,j}(x) and
    then a point of the B-spline density on the knots j/n, ..., (j+k)/n,
    whose mean is (j + k/2)/n and whose variance is k / (12 n^2) (the
    cardinal M_k has variance k/12).  Under the weights b_{m,j}, j has
    mean m x and variance m x(1-x), so by the law of total variance the
    operator's variance is k / (12 n^2) + m x(1-x) / n^2.  It is the same
    exact polynomial as the definition route :func:`kantorovich_poly`
    gives, which is not run here.
    """
    m, nn = n - k, n * n
    return s_direct_poly(n, k), Poly.of(Fraction(k, 12 * nn), Fraction(m, nn), Fraction(-m, nn))


def _on_grids(f, grids: Sequence[Grid]) -> list:
    """The lists f(grid), one per grid, joined in order."""
    return list(chain.from_iterable(map(f, grids)))


def entropy_columns(op: OperatorSpec, grids: Sequence[Grid]) -> tuple[list[float], ...]:
    """The columns x, squared-kernel integral s, Renyi entropy -log s,
    Tsallis entropy 1 - s and variance at the points of ``grids``, in
    order, each grid on its own integer form: the points u/D over its one
    denominator D.

    The operator's exact data is looked up once per call.  B-spline rows
    scale the unit kernel's constants: s = c_n / sigma(x), c_n =
    (n/2) M_2n(n), and variance sigma(x)^2 / (3n), with sigma = p/q from
    :meth:`bspline.SigmaSpec.ratios_on_grid`; the rows before the first
    sigma <= 0 are rounded before it is reported, so an overflow there is
    raised first.  Kantorovich rows round the two polynomials of
    :func:`_kantorovich_profile_polys` on each grid once every point is
    in [0, 1].  Each x, s and variance is one int/int true division, the
    correct rounding of its exact rational, as ``float`` of a ``Fraction``."""
    points = chain.from_iterable(map(Grid.floats, grids))  # lazy: no x past a failing row is rounded
    if isinstance(op, BSplineOp):
        # W_n(x, .) is the unit kernel W_n(0, .) at sigma = 1, stretched by
        # w = p/q = sigma(x) and centred at x: exact, so s and the variance scale too
        cn, cd = bspline.c_constant(op.n).as_integer_ratio()
        un, ud = bspline.unit_variance(op.n).as_integer_ratio()
        widths = _on_grids(op.sigma.ratios_on_grid, grids)
        stop = next((i for i, (p, _) in enumerate(widths) if p <= 0), len(widths))
        s = [cn * q / (cd * p) for p, q in widths[:stop]]
        var = [un * p * p / (ud * q * q) for p, q in widths[:stop]]
        xs = list(islice(points, stop))
        if stop < len(widths):
            op.sigma.at(_on_grids(Grid.fractions, grids)[stop])
    elif isinstance(op, KantorovichOp):
        if op.k < 1:
            raise UnsupportedK("entropy profile needs k >= 1 (k = 0 has a discrete kernel)")
        bad = next((Fraction(u, g.den) for g in grids for u in g.numerators() if not 0 <= u <= g.den), None)
        if bad is not None:
            raise DomainError(f"x = {bad} outside the operator domain [0, 1]")
        s_poly, var_poly = _kantorovich_profile_polys(op.n, op.k)
        s, var = _on_grids(s_poly.rounded_on_grid, grids), _on_grids(var_poly.rounded_on_grid, grids)
        xs = list(points)
    else:
        raise DomainError(f"unknown operator spec {op!r}")
    return xs, s, [-math.log(v) for v in s], [1.0 - v for v in s], var


def entropy_profile(op: OperatorSpec, xs: Sequence) -> list[EntropyPoint]:
    """Per-point squared-kernel integral, both entropies, and the variance:
    the rows of :func:`entropy_columns` on one one-point grid per point."""
    return list(map(EntropyPoint, *entropy_columns(op, [Grid.point(x) for x in xs])))


def synchronicity_check(f_vals: Sequence[float], g_vals: Sequence[float]) -> SynchronicityReport:
    """Pass iff no pair i, j has differences f_i - f_j and g_i - g_j of
    strictly opposite signs, i.e. the two sequences move together on the
    grid.  A NaN or infinite value raises :class:`NonFinite`.

    Signs are read from comparisons, which are exact, so no product can
    underflow into a pass.  One O(N log N) sort by (f, g) decides it: equal
    f values, +0.0 and -0.0 among them, impose nothing and leave their g
    values in ascending order, so the g values in that order never fall
    iff every g is at least the largest g of each smaller f.  A fall is a
    failing pair, reported with its product."""
    n = len(f_vals)
    if n != len(g_vals):
        raise LengthMismatch(f"{n} f-values vs {len(g_vals)} g-values")
    if n < 2:
        raise LengthMismatch("need at least two grid points")
    for v in (*f_vals, *g_vals):
        if isinstance(v, float) and not math.isfinite(v):
            raise NonFinite(f"synchronicity needs finite values, got {v}")
    _, gs, order = zip(*sorted(zip(f_vals, g_vals, range(n))))
    fall = next(compress(range(n - 1), map(gt, gs, gs[1:])), None)
    if fall is None:
        return SynchronicityReport(True, None, 0.0)
    i, j = sorted(order[fall:fall + 2])
    return SynchronicityReport(False, (i, j), (f_vals[i] - f_vals[j]) * (g_vals[i] - g_vals[j]))

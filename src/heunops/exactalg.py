"""Exact arithmetic over the rationals: dense polynomials and compactly
supported piecewise polynomials.

Coefficients are stdlib :class:`fractions.Fraction` throughout; nothing in
this module ever rounds.  ``Poly`` and ``PiecewisePoly`` are immutable value
types, so they are safe to share freely between threads.

Each ``Poly`` carries its integer form (its coefficients times the lcm of
their denominators), built on first use and kept on the object.  Products,
binary forms, the exact value :meth:`Poly.__call__` at a rational point and
the correctly rounded evaluation :meth:`Poly.rounded` run over Python ints
on these forms and divide once at the end.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union

from .errors import IndexOutOfRange, NonFinite

Rational = Fraction

#: degree reported for the zero polynomial
NEG_INFINITY = float("-inf")

_Scalar = Union[Fraction, int, str]


def rat(value: _Scalar) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    Accepts Fractions, ints and strings such as ``"33/40"``.  Floats are
    rejected: converting binary floats silently would defeat exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of ``x**i``; trailing zeros are trimmed
    on construction.  The zero polynomial is the empty tuple and reports
    degree ``NEG_INFINITY``.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(rat(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(*coeffs: _Scalar) -> "Poly":
        return Poly(tuple(rat(c) for c in coeffs))

    @staticmethod
    def constant(c: _Scalar) -> "Poly":
        return Poly((rat(c),))

    @staticmethod
    def monomial(power: int, coeff: _Scalar = 1) -> "Poly":
        return Poly((Fraction(0),) * power + (rat(coeff),))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> Union[int, float]:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """``(C, L)``: L is the lcm of the coefficient denominators and
        C_i = L * coeffs[i], lowest degree first.

        Built once per object, on first use.  It is not a dataclass field,
        so ``==``, ``hash`` and ``repr`` never see it.
        """
        lcm = math.lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (lcm // c.denominator) for c in self.coeffs), lcm

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    # -- evaluation ----------------------------------------------------

    def _int_horner(self, u: int, v: int) -> tuple[int, int]:
        """``(N, L v^d)``, the numerator and denominator of the value at u/v.

        With the integer form (C, L) and d the degree, the value is
        sum C_k u^k v^(d-k) / (L v^d): homogeneous Horner over the integers.
        """
        ints, lcm = self.integer_form
        it = reversed(ints)
        acc, vpow = next(it, 0), 1
        for c in it:
            vpow *= v
            acc = acc * u + c * vpow
        return acc, lcm * vpow

    def __call__(self, x):
        """Exact value for Fraction/int arguments, from :meth:`_int_horner`
        and one ``Fraction``; float Horner for floats."""
        if isinstance(x, (int, Fraction)):
            return Fraction(*self._int_horner(x.numerator, x.denominator))
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def rounded(self, x) -> float:
        """Value at ``x``, rounded once: a float ``x`` is converted exactly,
        because float Horner on large alternating coefficients cancels.

        The integer value of :meth:`_int_horner` is divided once, correctly
        rounded, which is what ``float`` of the equal ``Fraction`` computes
        (``OverflowError`` included).
        """
        if isinstance(x, (int, Fraction)):
            u, v = x.numerator, x.denominator
        else:
            u, v = float(x).as_integer_ratio()
        num, den = self._int_horner(u, v)
        return num / den

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        """Exact product.  A scalar scales; two polynomials are multiplied
        in integer form: with (C, L) and (D, M) their integer forms, the
        product is the convolution of C and D over L M, and one
        ``Fraction`` is built per output coefficient."""
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        (p, lp), (q, lq) = self.integer_form, _as_poly(other).integer_form
        den = lp * lq
        return Poly(tuple(Fraction(t, den) for t in _int_mul(p, q)))

    __rmul__ = __mul__

    def scale(self, c: _Scalar) -> "Poly":
        c = rat(c)
        return Poly(tuple(c * a for a in self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def compose_affine(self, a: _Scalar, b: _Scalar) -> "Poly":
        """Exact substitution ``p(a*x + b)``, the binary form of ``p`` in
        (a x + b, 1); ``a = 0`` yields a constant."""
        return binary_form(self.coeffs, Poly.of(b, a), E0, max(len(self.coeffs) - 1, 0))

    # -- calculus --------------------------------------------------------

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def antiderivative(self) -> "Poly":
        """Antiderivative with constant term fixed to 0."""
        return Poly((Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))

    def integrate(self, lo: _Scalar, hi: _Scalar) -> Fraction:
        anti = self.antiderivative()
        return anti(rat(hi)) - anti(rat(lo))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = " + ".join(f"{c}*x^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c)
        return f"Poly({terms})"


def _as_poly(v) -> Poly:
    if isinstance(v, Poly):
        return v
    return Poly.constant(rat(v))


#: convenience monomials e_0, e_1, e_2
E0 = Poly.constant(1)
E1 = Poly.monomial(1)
E2 = Poly.monomial(2)


def _int_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """Product of two integer coefficient lists (lowest degree first)."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def binary_form(coeffs: Sequence[_Scalar], a: Poly, b: Poly, degree: int) -> Poly:
    """Exact ``sum_k coeffs[k] * a**k * b**(degree - k)``.

    Fewer than ``degree + 1`` coefficients leave the missing high terms
    zero; more raise :class:`IndexOutOfRange`.

    The form is homogeneous of degree d = ``degree`` in (a, b).  With L the
    lcm of the denominators of the coefficients c_k and D that of the
    coefficients of a and b (the lcm of their integer-form scales), it
    equals

        sum_k (L c_k) (D a)^k (D b)^(d-k) / (L D^d),

    where every factor of the sum is an integer polynomial.  Horner's rule
    in D a then runs over Python ints, each power of D b is built once, and
    one ``Fraction`` per output coefficient is formed at the end.
    """
    if len(coeffs) > degree + 1:
        raise IndexOutOfRange(f"{len(coeffs)} coefficients exceed a form of degree {degree}")
    ci, lc = Poly(tuple(coeffs)).integer_form
    (ai, la), (bi, lb) = a.integer_form, b.integer_form
    d = math.lcm(la, lb)
    ai, bi = [t * (d // la) for t in ai], [t * (d // lb) for t in bi]
    b_powers = [[1]]
    for _ in range(degree):
        b_powers.append(_int_mul(b_powers[-1], bi))
    total: list[int] = []
    for k in reversed(range(len(ci))):
        total = _int_mul(total, ai)
        term = b_powers[degree - k]
        total += [0] * (len(term) - len(total))
        for i, t in enumerate(term):
            total[i] += ci[k] * t
    den = lc * d**degree
    return Poly(tuple(Fraction(t, den) for t in total))


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial with exact rational breakpoints, zero outside
    its support.

    Evaluation at a breakpoint uses the right-hand piece (the left-hand
    piece at the last breakpoint), which only matters for discontinuous
    degree-0 splines.
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Poly, ...]

    def __post_init__(self) -> None:
        bps = tuple(rat(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if len(self.pieces) != len(bps) - 1:
            raise ValueError("need exactly one piece per breakpoint interval")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    def piece_index(self, t) -> int:
        """Index of the piece governing ``t``; -1 outside the support."""
        lo, hi = self.support
        if t < lo or t > hi:
            return -1
        if t == hi:
            return len(self.pieces) - 1
        return bisect_right(self.breakpoints, t) - 1

    def __call__(self, t):
        if isinstance(t, float) and not math.isfinite(t):
            raise NonFinite(f"point t = {t} is not finite")
        i = self.piece_index(t)
        if i < 0:
            return Fraction(0) if isinstance(t, (Fraction, int)) else 0.0
        return self.pieces[i](t)

    def scale(self, c: _Scalar) -> "PiecewisePoly":
        c = rat(c)
        return PiecewisePoly(self.breakpoints, tuple(p.scale(c) for p in self.pieces))

    def shift(self, c: _Scalar) -> "PiecewisePoly":
        """Translate: the result at ``t`` equals ``self(t - c)``."""
        c = rat(c)
        return PiecewisePoly(
            tuple(b + c for b in self.breakpoints),
            tuple(p.compose_affine(1, -c) for p in self.pieces),
        )

    def integrate(self, weight: Poly | None = None) -> Fraction:
        """Exact ``∫ weight(t) * self(t) dt`` over the support (weight defaults to 1)."""
        total = Fraction(0)
        for i, p in enumerate(self.pieces):
            q = p if weight is None else p * weight
            total += q.integrate(self.breakpoints[i], self.breakpoints[i + 1])
        return total

    def moment(self, order: int) -> Fraction:
        return self.integrate(Poly.monomial(order))


def integrate_product(f: PiecewisePoly, g: PiecewisePoly) -> Rational:
    """Exact ``∫ f(t) g(t) dt`` over the common refinement of both meshes.

    Returns 0 when the supports are disjoint.  Symmetric and bilinear by
    construction; no tolerance appears anywhere.
    """
    lo = max(f.support[0], g.support[0])
    hi = min(f.support[1], g.support[1])
    if lo >= hi:
        return Fraction(0)
    cuts = sorted({b for b in f.breakpoints + g.breakpoints if lo <= b <= hi} | {lo, hi})
    total = Fraction(0)
    for u, v in zip(cuts, cuts[1:]):
        mid = (u + v) / 2
        fi = f.piece_index(mid)
        gi = g.piece_index(mid)
        if fi < 0 or gi < 0:
            continue
        total += (f.pieces[fi] * g.pieces[gi]).integrate(u, v)
    return total

"""Exact arithmetic over the rationals: dense polynomials and compactly
supported piecewise polynomials.

Nothing in this module ever rounds.  ``Poly`` and ``PiecewisePoly`` are
immutable value types, so they are safe to share freely between threads.
:class:`Frozen` is the base of ``PiecewisePoly`` and of the library's other
immutable value types: plain classes with the value semantics of a frozen
dataclass, so that importing the library does not import ``dataclasses``.

A ``Poly`` is stored fraction-free, in integer form: integer numerators
over one positive denominator that shares no factor with all of them (the
representation FLINT uses for ``fmpq_poly``; Hart, "FLINT: Fast Library
for Number Theory").  Sums, products, scaling, derivatives,
antiderivatives, binary forms, the exact value :meth:`Poly.__call__` at a
rational point and the correctly rounded :meth:`Poly.rounded` run over
Python ints and normalise once with ``math.gcd``; the last two share one
integer Horner loop, :func:`homogeneous_horner`.  The coefficients as
stdlib :class:`fractions.Fraction` are a view, built on first read.

A :class:`Grid` is an arithmetic progression of rationals over one
denominator, the points of every command-line grid.
:meth:`Poly.rounded_on_grid` evaluates a polynomial at all of them over
the integers (:func:`horner_on_grid`) and rounds each value once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import zip_longest

from .errors import DomainError, IndexOutOfRange, NonFinite, NotExact

#: degree reported for the zero polynomial
NEG_INFINITY = float("-inf")

_Scalar = Fraction | int | str


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
    raise NotExact(f"expected an exact rational, got {type(value).__name__}")


def parse_number(name: str, value, kind=Fraction):
    """``kind(value)``: ``kind`` is ``Fraction`` (the default), :func:`rat`
    or ``int``.  A malformed ``value`` such as ``"1/0"`` or ``"abc"`` raises
    a :class:`DomainError` that names the parameter ``name`` and ``value``."""
    try:
        return kind(value)
    except (ValueError, ZeroDivisionError) as exc:
        what = "an integer" if kind is int else "a rational"
        raise DomainError(f"cannot parse {name}={value!r} as {what}") from exc


def check_point(x):
    """``x``, after rejecting a point that is not an int, ``Fraction`` or
    float (a bool included), and a NaN or infinite one: no function has a
    value there."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, float)):
        raise DomainError(f"point x = {x!r} is not an int, Fraction or float")
    if isinstance(x, float) and not math.isfinite(x):
        raise NonFinite(f"point x = {x} is not finite")
    return x


def _frozen(message: str) -> Exception:
    """A ``dataclasses.FrozenInstanceError``; ``dataclasses`` (which loads
    ``inspect``, ``ast`` and ``dis``) is imported only when one is raised."""
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class Frozen:
    """Base of the library's immutable value types.

    A subclass declares its fields as the parameters of its ``__init__``,
    which stores each argument, in that order, as the only entries of the
    instance ``__dict__`` and then calls ``__post_init__`` if the class
    validates its fields.  ``FIELDS`` (and ``__match_args__``) is the tuple
    of field names, read off that signature when the class is created;
    nothing is generated.  Instances behave like those of a frozen
    dataclass: ``==`` holds only between instances of one class with equal
    fields, ``hash`` is the hash of the field tuple, ``repr`` is
    ``Name(field=value, ...)``, ``vars()`` lists the fields in order, and
    assigning or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``.
    """

    FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            cls.FIELDS = code.co_varnames[1:code.co_argcount]
        cls.__match_args__ = cls.FIELDS

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"


class Grid(Frozen):
    """The points (start + i step) / den, i = 0, 1, ..., count - 1: an
    arithmetic progression of rationals over one denominator den > 0, with
    the fractions left unreduced.  A float table reads :meth:`floats`, one
    int/int division per point; :meth:`fractions` builds the exact points."""

    def __init__(self, start: int, step: int, den: int, count: int) -> None:
        self.__dict__.update(start=start, step=step, den=den, count=count)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not all(type(v) is int for v in vars(self).values()):
            raise DomainError(f"grid fields must be ints: {self!r}")
        if self.den <= 0 or self.count < 0:
            raise DomainError(f"grid needs den > 0 and count >= 0: {self!r}")

    @staticmethod
    def point(x: _Scalar) -> Grid:
        """The one-point grid at the rational ``x``."""
        x = rat(x)
        return Grid(x.numerator, 0, x.denominator, 1)

    def numerators(self) -> list[int]:
        """start + i step for each point, in order."""
        start, step = self.start, self.step
        return [start + i * step for i in range(self.count)]

    def floats(self) -> Iterator[float]:
        """Each point correctly rounded, in order, as ``float`` of its
        ``Fraction`` gives it.  An iterator: a point past the float range
        raises ``OverflowError`` only when it is reached."""
        den = self.den
        return (u / den for u in self.numerators())

    def fractions(self) -> list[Fraction]:
        den = self.den
        return [Fraction(u, den) for u in self.numerators()]


def homogeneous_horner(coeffs: Sequence[int], u: int, v: int) -> tuple[int, int]:
    """``(N, v^d)`` with N = sum_k C_k u^k v^(d-k), the binary form of the
    integer coefficients C = ``coeffs`` (lowest degree first, d = len(C) - 1)
    at (u, v): v^d times the value at u/v of the polynomial with those
    coefficients, by Horner's rule over the integers.  No coefficients give
    ``(0, 1)``."""
    it = reversed(coeffs)
    acc, vpow = next(it, 0), 1
    for c in it:
        vpow *= v
        acc = acc * u + c * vpow
    return acc, vpow


def horner_on_grid(coeffs: Sequence[int], grid: Grid) -> list[int]:
    """sum_k C_k D^(d-k) u^k at each numerator u of ``grid``, which is D^d
    times the value at u/D of the polynomial with the integer coefficients
    C = ``coeffs`` (lowest degree first, d = len(C) - 1), D the grid's
    denominator.

    The coefficients are scaled by the powers of D once per grid, and
    Horner's rule runs over the integers in u, or in u^2 when the
    polynomial is even or odd (Knuth, *TAOCP* vol. 2, §4.6.4).
    """
    if not any(coeffs):
        return [0] * grid.count
    d, dpow = len(coeffs) - 1, 1
    scaled = [0] * (d + 1)
    for k in reversed(range(d + 1)):
        scaled[k] = coeffs[k] * dpow
        dpow *= grid.den
    odd = not any(coeffs[::2])
    square = odd or not any(coeffs[1::2])
    top, *rest = reversed(scaled[odd::2] if square else scaled)
    out = []
    for u in grid.numerators():
        t = u * u if square else u
        acc = top
        for c in rest:
            acc = acc * t + c
        out.append(acc * u if odd else acc)
    return out


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Stored in integer form: numerators C_i, lowest degree first, over one
    positive denominator L with gcd(L, C_0, C_1, ...) = 1, so that
    coefficient i is C_i / L.  Trailing zeros are trimmed, and the zero
    polynomial is ``((), 1)`` and reports degree ``NEG_INFINITY``.  The
    form is unique, so ``==`` and ``hash`` compare it directly.

    ``coeffs`` is a ``Fraction`` view of the form, built on first read and
    kept; a ``Poly`` built from coefficients keeps those as its view.
    Instances are immutable.
    """

    __slots__ = ("_ints", "_den", "_coeffs")

    def __new__(cls, coeffs: Iterable[_Scalar] = ()) -> "Poly":
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        den = math.lcm(*(c.denominator for c in cs))
        return _make(tuple(c.numerator * (den // c.denominator) for c in cs), den, tuple(cs))

    def __setattr__(self, name, value=None):
        raise _frozen(f"Poly is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _make, (self._ints, self._den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(*coeffs: _Scalar) -> "Poly":
        return Poly(coeffs)

    @staticmethod
    def constant(c: _Scalar) -> "Poly":
        return Poly((rat(c),))

    @staticmethod
    def monomial(power: int, coeff: _Scalar = 1) -> "Poly":
        return Poly((Fraction(0),) * power + (rat(coeff),))

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as ``Fraction``s, lowest degree first."""
        cs = self._coeffs
        if cs is None:
            den = self._den
            cs = tuple(Fraction(c, den) for c in self._ints)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """``(C, L)``: L is the lcm of the coefficient denominators and
        C_i = L * coeffs[i], lowest degree first."""
        return self._ints, self._den

    @property
    def degree(self) -> int | float:
        return len(self._ints) - 1 if self._ints else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self._ints

    def __bool__(self) -> bool:
        return bool(self._ints)

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self._ints):
            return self.coeffs[power]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._den == other._den and self._ints == other._ints
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._ints, self._den))

    # -- evaluation ----------------------------------------------------

    def __call__(self, x):
        """Exact value for Fraction/int arguments: with the integer form
        (C, L), the :func:`homogeneous_horner` value N / v^d at x = u/v over
        L, as one ``Fraction``.  Float Horner over :attr:`coeffs` for floats."""
        if isinstance(x, (int, Fraction)):
            num, vpow = homogeneous_horner(self._ints, x.numerator, x.denominator)
            return Fraction(num, self._den * vpow)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def rounded(self, x) -> float:
        """Value at ``x``, rounded once: a float ``x`` is converted exactly,
        because float Horner on large alternating coefficients cancels.

        The integers N and L v^d of :meth:`__call__` are divided once,
        correctly rounded, which is what ``float`` of the equal ``Fraction``
        computes (``OverflowError`` included).
        """
        if isinstance(x, (int, Fraction)):
            u, v = x.numerator, x.denominator
        else:
            u, v = float(x).as_integer_ratio()
        num, vpow = homogeneous_horner(self._ints, u, v)
        return num / (self._den * vpow)

    def rounded_on_grid(self, grid: Grid) -> list[float]:
        """:meth:`rounded` at each point of ``grid``, bit for bit.

        With (C, L) the integer form, d the degree and D the grid's
        denominator, the value at u/D is sum C_k D^(d-k) u^k / (L D^d): the
        integers of :func:`horner_on_grid` over one denominator, each
        divided once, correctly rounded (``OverflowError`` included).
        """
        den = self._den * grid.den ** max(len(self._ints) - 1, 0)
        return [num / den for num in horner_on_grid(self._ints, grid)]

    # -- ring operations -------------------------------------------------

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """``self + sign * other`` over the lcm of the two denominators."""
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, sign * (den // other._den)
        return _normal([a * s + b * t for a, b in zip_longest(self._ints, other._ints, fillvalue=0)], den)

    def __add__(self, other) -> "Poly":
        return self._combine(_as_poly(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(tuple(-a for a in self._ints), self._den)

    def __sub__(self, other) -> "Poly":
        return self._combine(_as_poly(other), -1)

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other)._combine(self, -1)

    def __mul__(self, other) -> "Poly":
        """Exact product.  A scalar scales; two polynomials are multiplied
        in integer form: with (C, L) and (D, M) their integer forms, the
        product is the convolution of C and D over L M."""
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        other = _as_poly(other)
        return _normal(_int_mul(self._ints, other._ints), self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c: _Scalar) -> "Poly":
        c = rat(c)
        if not c:
            return _ZERO
        u = c.numerator
        return _normal([a * u for a in self._ints], self._den * c.denominator)

    def compose_affine(self, a: _Scalar, b: _Scalar) -> "Poly":
        """Exact substitution ``p(a*x + b)``, the binary form of ``p`` in
        (a x + b, 1); ``a = 0`` yields a constant."""
        return _binary_form(self._ints, self._den, Poly.of(b, a), E0, max(len(self._ints) - 1, 0))

    # -- calculus --------------------------------------------------------

    def derivative(self) -> "Poly":
        return _normal([i * c for i, c in enumerate(self._ints)][1:], self._den)

    def antiderivative(self) -> "Poly":
        """Antiderivative with constant term fixed to 0: C_i x^i / L
        becomes C_i (m / (i+1)) x^(i+1) / (L m) with m = lcm(1, ..., d+1)."""
        m = math.lcm(*range(1, len(self._ints) + 1))
        return _normal([0] + [c * (m // i) for i, c in enumerate(self._ints, 1)], self._den * m)

    def integrate(self, lo: _Scalar, hi: _Scalar) -> Fraction:
        anti = self.antiderivative()
        lo, hi = rat(lo), rat(hi)
        n1, d1 = homogeneous_horner(anti._ints, hi.numerator, hi.denominator)
        n0, d0 = homogeneous_horner(anti._ints, lo.numerator, lo.denominator)
        return Fraction(n1 * d0 - n0 * d1, anti._den * d1 * d0)

    def __repr__(self) -> str:
        if not self._ints:
            return "Poly(0)"
        terms = " + ".join(f"{c}*x^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c)
        return f"Poly({terms})"


def _make(ints: tuple[int, ...], den: int, coeffs: tuple[Fraction, ...] | None = None) -> Poly:
    """The ``Poly`` of an integer form that is already normal, with its
    ``Fraction`` view if one is at hand."""
    p = object.__new__(Poly)
    object.__setattr__(p, "_ints", ints)
    object.__setattr__(p, "_den", den)
    object.__setattr__(p, "_coeffs", coeffs)
    return p


def _normal(ints: list[int], den: int) -> Poly:
    """The ``Poly`` sum ints[i] x^i / den, den > 0: trailing zeros trimmed
    and the gcd of den and the numerators divided out."""
    while ints and not ints[-1]:
        ints.pop()
    g = math.gcd(den, *ints)
    if g == 1:
        return _make(tuple(ints), den)
    return _make(tuple(c // g for c in ints), den // g)


def _as_poly(v) -> Poly:
    if isinstance(v, Poly):
        return v
    return Poly.constant(rat(v))


_ZERO = Poly()

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
    """
    if len(coeffs) > degree + 1:
        raise IndexOutOfRange(f"{len(coeffs)} coefficients exceed a form of degree {degree}")
    c = Poly(coeffs)
    return _binary_form(c._ints, c._den, a, b, degree)


def _binary_form(ci: Sequence[int], lc: int, a: Poly, b: Poly, degree: int) -> Poly:
    """:func:`binary_form` of the coefficients C_k / L given in integer form.

    The form is homogeneous of degree d = ``degree`` in (a, b).  With D
    the lcm of the denominators of a and b, it equals

        sum_k C_k (D a)^k (D b)^(d-k) / (L D^d),

    where every factor of the sum is an integer polynomial.  Horner's rule
    in D a then runs over Python ints and each power of D b is built once.
    """
    if not ci:
        return _ZERO
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
    return _normal(total, lc * d**degree)


class PiecewisePoly(Frozen):
    """Piecewise polynomial with exact rational breakpoints, zero outside
    its support.

    Evaluation at a breakpoint uses the right-hand piece (the left-hand
    piece at the last breakpoint), which only matters for discontinuous
    degree-0 splines.
    """

    def __init__(self, breakpoints: tuple[Fraction, ...], pieces: tuple[Poly, ...]) -> None:
        self.__dict__.update(breakpoints=breakpoints, pieces=pieces)
        self.__post_init__()

    def __post_init__(self) -> None:
        bps = tuple(rat(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if len(self.pieces) != len(bps) - 1:
            raise DomainError("need exactly one piece per breakpoint interval")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise DomainError("breakpoints must be strictly increasing")

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
        check_point(t)
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


def integrate_product(f: PiecewisePoly, g: PiecewisePoly) -> Fraction:
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

"""Output checks, run outside the timed region.

Each checker takes an op and the op's standard output and returns the
number of result rows it produced; it raises :class:`CheckFailed` when the
output is wrong.  Values are compared with routes that do not share the
program's code path: closed forms, scipy, and mpmath's Taylor ODE
integrator.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as Fr
from functools import lru_cache
from math import comb

import mpmath
import numpy as np
from scipy.interpolate import BSpline
from scipy.special import eval_legendre, hyp2f1, ive

from workloads import Op, grid_points

REL_TOL = 1e-10  # float routes: |value - reference| <= REL_TOL * max(1, |reference|)
EXACT_TOL = 1e-12  # routes that are exact up to the final rounding
ODE_DPS = 17


class CheckFailed(Exception):
    pass


def _close(value: float, ref: float, tol: float, what: str) -> None:
    if not abs(value - ref) <= tol * max(1.0, abs(ref)):
        raise CheckFailed(f"{what}: got {value!r}, expected {ref!r}")


def _rows(stdout: str, count: int) -> list[dict]:
    try:
        rows = json.loads(stdout)["rows"]
    except (ValueError, KeyError) as exc:
        raise CheckFailed(f"unreadable JSON output: {exc}") from exc
    if len(rows) != count:
        raise CheckFailed(f"{len(rows)} rows for a grid of {count} points")
    return rows


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def check_verify(op: Op, stdout: str) -> int:
    doc = json.loads(stdout)
    rows = doc["rows"]
    if not rows or doc["pass"] is not True:
        raise CheckFailed("suite reports a failing check")
    for row in rows:
        if row["pass"] is not True or row["id"] != op.params["id"] or row["mode"] != op.params["mode"]:
            raise CheckFailed(f"row {row} does not pass")
    return sum(row["points_checked"] for row in rows)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def cardinal_bspline(m: int, t: Fr) -> Fr:
    """Cardinal B-spline M_m (unit knots 0..m, integral 1), exact."""
    return sum((-1) ** k * comb(m, k) * (t - k) ** (m - 1)
               for k in range(m + 1) if t > k) / math.factorial(m - 1)


@lru_cache(maxsize=None)
def squared_kernel_constant(n: int) -> Fr:
    """c_n = sigma * integral W_n^2 = (n/2) M_2n(n), since M_n * M_n = M_2n."""
    return Fr(n, 2) * cardinal_bspline(2 * n, Fr(n))


@lru_cache(maxsize=None)
def _kantorovich_cells(n: int, k: int):
    """Per knot interval: Gauss nodes, weights and the B-spline basis
    elements (knots j/n..(j+k)/n) that are nonzero there."""
    nodes, weights = np.polynomial.legendre.leggauss(k + 2)  # exact for degree 2k+3
    cells = []
    for cell in range(n):
        lo, hi = cell / n, (cell + 1) / n
        t = (hi - lo) / 2 * nodes + (hi + lo) / 2
        basis = []
        for j in range(max(0, cell - k + 1), min(cell, n - k) + 1):
            element = BSpline.basis_element(np.arange(j, j + k + 1) / n, extrapolate=False)
            basis.append((j, element(t)))
        cells.append((t, (hi - lo) / 2 * weights, basis))
    return cells


def kantorovich_moments(n: int, k: int, x: float) -> tuple[float, float]:
    """Squared-kernel integral and variance of the k-th Kantorovich
    operator at x, by Gauss quadrature of W(x, t) = n sum_j b_j(x) B_j(t)."""
    s = m1 = m2 = 0.0
    for t, w, basis in _kantorovich_cells(n, k):
        kern = np.zeros_like(t)
        for j, values in basis:
            kern += n * comb(n - k, j) * x**j * (1 - x) ** (n - k - j) * values
        s += w @ kern**2
        m1 += w @ (t * kern)
        m2 += w @ (t * t * kern)
    return s, m2 - m1 * m1


def check_entropy(op: Op, stdout: str) -> int:
    from heunops.entropy import s2_sum_poly

    p = op.params
    xs = grid_points(*p["grid"])
    rows = _rows(stdout, len(xs))
    for x, row in zip(xs, rows):
        s, renyi, tsallis, var = (float(row[key]) for key in
                                  ("squared_kernel_integral", "renyi", "tsallis", "variance"))
        where = f"x={x}"
        if float(row["x"]) != float(x):
            raise CheckFailed(f"{where}: row x is {row['x']}")
        if tsallis != 1.0 - s or renyi != -math.log(s):
            raise CheckFailed(f"{where}: entropies do not match s = {s!r}")
        if p["op"] == "kantorovich":
            ref_s, ref_var = kantorovich_moments(p["n"], p["k"], float(x))
            _close(s, ref_s, REL_TOL, f"{where} squared kernel vs quadrature")
            _close(var, ref_var, REL_TOL, f"{where} variance vs quadrature")
            if p["k"] == 2:
                _close(s, float(s2_sum_poly(p["n"])(x)), EXACT_TOL, f"{where} closed sum form")
        else:
            sigma = p["sigma"][0] + (p["sigma"][1] * x * x if len(p["sigma"]) == 2 else 0)
            _close(s * float(sigma), float(squared_kernel_constant(p["n"])), EXACT_TOL,
                   f"{where} sigma * s = c_n")
            _close(var, float(sigma * sigma / (3 * p["n"])), EXACT_TOL,
                   f"{where} variance sigma^2/(3n)")
    return len(rows)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _mp(v) -> mpmath.mpf:
    v = Fr(v)
    return mpmath.mpf(v.numerator) / v.denominator


def _ode_value(series, rhs, x: float) -> float:
    """Solve y'' = rhs(x, y, y') from a small |x0| (start values from a
    short local series) out to x with mpmath.odefun."""
    with mpmath.workdps(ODE_DPS):
        sign = 1 if x > 0 else -1
        h = mpmath.mpf(1) / 32
        x0 = sign * h
        y = dy = mpmath.mpf(0)
        for k, c in enumerate(series()):
            y += c * x0**k
            dy += k * c * x0 ** (k - 1) if k else 0
        # w(t) = y(sign * t) for t >= h
        sol = mpmath.odefun(lambda t, w: [w[1], rhs(sign * t, w[0], sign * w[1])], h, [y, sign * dy])
        return float(sol(abs(x))[0])


def heun_by_ode(p: dict, x: float) -> float:
    """Local Heun function from its ODE (normalised y(0) = 1)."""
    a, q, al, be, ga, de = (_mp(p[k]) for k in ("a", "q", "alpha", "beta", "gamma", "delta"))
    eps = al + be + 1 - ga - de

    def series():
        prev, c = mpmath.mpf(0), mpmath.mpf(1)
        for k in range(64):
            yield c
            num = (((1 + a) * k * (k - 1) + (ga * (1 + a) + de * a + eps) * k + q) * c
                   - (k - 1 + al) * (k - 1 + be) * prev)
            prev, c = c, num / (a * (k + 1) * (k + ga))

    def rhs(t, y, dy):
        return -(ga / t + de / (t - 1) + eps / (t - a)) * dy - (al * be * t - q) / (t * (t - 1) * (t - a)) * y

    return _ode_value(series, rhs, x)


def confluent_heun_by_ode(p: dict, x: float) -> float:
    """Confluent Heun function from its ODE (normalised u(0) = 1)."""
    pp, ga, de, al, sg = (_mp(p[k]) for k in ("p", "gamma", "delta", "alpha", "sigma"))

    def series():
        prev, c = mpmath.mpf(0), mpmath.mpf(1)
        for k in range(64):
            yield c
            num = (k * (k - 1) + (ga + de - 4 * pp) * k - sg) * c + 4 * pp * (k - 1 + al) * prev
            prev, c = c, num / ((k + 1) * (k + ga))

    def rhs(t, u, du):
        return -(4 * pp + ga / t + de / (t - 1)) * du - (4 * pp * al * t - sg) / (t * (t - 1)) * u

    return _ode_value(series, rhs, x)


def _float_reference(func: str, p: dict, x: float) -> float:
    if func == "2f1":
        return hyp2f1(float(p["a"]), float(p["b"]), float(p["c"]), x)
    if func == "legendre":
        return eval_legendre(p["n"], x)
    n = p.get("n")
    if func == "F":  # sum_k C(n,k)^2 t^k = 2F1(-n, -n; 1; t)
        return (1 - x) ** (2 * n) * hyp2f1(-n, -n, 1, (x / (1 - x)) ** 2)
    if func == "U":
        return hyp2f1(-n, -n, 1, x * x) / (1 + x) ** (2 * n)
    if func == "G":  # sum_k C(n+k-1,k)^2 t^k = 2F1(n, n; 1; t)
        return hyp2f1(n, n, 1, (x / (1 + x)) ** 2) / (1 + x) ** (2 * n)
    if func == "J":
        return (1 - x) ** (2 * (n + 1)) * hyp2f1(n + 1, n + 1, 1, x * x)
    if func == "K":  # squared Poisson weights: exp(-2nx) I0(2nx) and its derivative
        z = 2 * n * x
        return ive(0, z) if p["j"] == 0 else 2 * n * (ive(1, z) - ive(0, z))
    raise ValueError(func)


def check_eval(op: Op, stdout: str) -> int:
    from heunops import specfun

    func, p, exact = op.params["func"], op.params["params"], op.params["exact"]
    xs = grid_points(*op.params["grid"])
    rows = _rows(stdout, len(xs))
    values = []
    for x, row in zip(xs, rows):
        if (Fr(row["x"]) != x) if exact else (float(row["x"]) != float(x)):
            raise CheckFailed(f"row x {row['x']} is not grid point {x}")
        values.append(float(Fr(row["value"])) if exact else float(row["value"]))
    if func in ("hl", "hc"):
        if op.params["terminating"]:
            if func == "hl":
                poly = specfun.heun_poly(specfun.HeunParams(*(Fr(p[k]) for k in (
                    "a", "q", "alpha", "beta", "gamma", "delta"))))
            else:
                poly = specfun.confluent_heun_poly(specfun.ConfluentHeunParams(*(Fr(p[k]) for k in (
                    "p", "gamma", "delta", "alpha", "sigma"))))
            for x, v in zip(xs, values):
                _close(v, float(poly(x)), EXACT_TOL, f"x={x} vs exact polynomial")
        else:  # the farthest point from the origin, where the series works hardest
            i = max(range(len(xs)), key=lambda i: (abs(xs[i]), xs[i]))
            ode = heun_by_ode if func == "hl" else confluent_heun_by_ode
            _close(values[i], ode(p, float(xs[i])), REL_TOL, f"x={xs[i]} vs mpmath.odefun")
    else:
        for x, v in zip(xs, values):
            _close(v, float(_float_reference(func, p, float(x))), REL_TOL, f"x={x} vs scipy")
    return len(rows)


CHECKERS = {"verify": check_verify, "entropy": check_entropy, "eval": check_eval}

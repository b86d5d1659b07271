"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import json
import time
from fractions import Fraction as F

from heunops import identities, specfun
from heunops.bspline import ConstantSigma, QuadraticSigma, apply_Ln, c_constant, kernel
from heunops.cli import main
from heunops.entropy import (
    BSplineOp,
    KantorovichOp,
    entropy_profile,
    kantorovich_apply,
    kantorovich_poly,
    synchronicity_check,
)
from heunops.exactalg import E0, E1, E2, Poly, integrate_product
from heunops.identities import IdentityId, verify, verify_all

X9 = [F(i, 8) for i in range(9)]
SIGMAS = (F(1, 2), F(1), F(7, 3))
XS = (F(-1), F(0), F(5, 2))


def _announce(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_01_constants():
    assert c_constant(1) == F(1, 2)
    assert c_constant(2) == F(2, 3)
    assert c_constant(3) == F(33, 40)
    for n in range(1, 9):
        for s in SIGMAS:
            for x in XS:
                inst = kernel(n, ConstantSigma(s), x)
                assert s * integrate_product(inst.density, inst.density) == c_constant(n)
    _announce(1, "c_1, c_2, c_3 exact; sigma * squared-kernel integral independent of x and sigma")


def test_criterion_02_variances():
    for n in range(1, 9):
        for s in SIGMAS:
            for x in XS:
                v = apply_Ln(n, ConstantSigma(s), E2, x) - apply_Ln(n, ConstantSigma(s), E1, x) ** 2
                assert v == s * s / F(3 * n)
    for n in range(0, 7):
        m = n + 2
        e1 = kantorovich_poly(m, 2, E1)
        e2 = kantorovich_poly(m, 2, E2)
        for x in X9:
            assert e2(x) - e1(x) ** 2 == F(n, m * m) * x * (1 - x) + F(1, 6 * m * m)
    _announce(2, "variances from moments equal both closed forms exactly")


def test_criterion_03_squared_kernel_three_way():
    for m in range(2, 9):
        exact = verify(IdentityId.I22, {"m": m}, "exact")
        assert exact.passed and exact.max_abs_err == 0.0
        numeric = verify(IdentityId.I22, {"m": m}, "numeric")
        assert numeric.passed and numeric.max_abs_err <= 1e-9
    _announce(3, "direct = sum form exactly, |integral - sum| <= 1e-9, operator index <= 8")


def test_criterion_04_kantorovich_representation():
    for n in range(1, 7):
        for k in (1, 2, 3):
            if k > n:
                continue
            for f in (E0, E1, E2):
                for x in (F(0), F(1, 4), F(1, 2), F(1)):
                    assert kantorovich_apply(n, k, f, x, "definition") == kantorovich_apply(
                        n, k, f, x, "bspline-form"
                    )
    _announce(4, "definition route = kernel route exactly for e_0, e_1, e_2; n <= 6, k in {1,2,3}")


def test_criterion_05_exact_identity_suite():
    for n in range(1, 9):
        assert verify(IdentityId.I35, {"n": n}, "exact").passed
    for n in range(0, 9):
        assert verify(IdentityId.I36, {"n": n}, "exact").passed
        assert verify(IdentityId.I37, {"n": n}, "exact").passed
        assert verify(IdentityId.I38, {"n": n}, "exact").passed
        assert verify(IdentityId.I39, {"n": n}, "exact").passed
    for n in range(1, 9):
        assert verify(IdentityId.I33, {"n": n}, "ode").passed
    for n in range(0, 9):
        for i in range(n + 1):
            assert verify(IdentityId.I314, {"n": n, "i": i}, "ode").passed
    for n in range(1, 7):
        rep = verify(IdentityId.I313, {"n": n}, "exact")
        assert rep.passed and rep.max_abs_err == 0.0
    _announce(5, "I35-I39 exact (n <= 8); I33/I314 zero residual (n <= 8, all i); I313 coefficientwise")


def test_criterion_06_numeric_identity_suite():
    for q in (F(1, 2), F(-1, 2), F(1), F(-1), F(3, 2)):
        r31 = verify(IdentityId.I31, {"q": q}, "numeric")
        assert r31.passed and r31.max_abs_err <= 1e-9
        r32 = verify(IdentityId.I32, {"q": q}, "numeric")
        assert r32.passed and r32.max_abs_err <= 1e-9
    for entry in identities.REGISTRY[IdentityId.I311_312].default_params:
        rep = verify(IdentityId.I311_312, entry, "numeric")
        assert rep.passed and rep.max_abs_err <= 1e-9
        assert verify(IdentityId.I311_312, entry, "exact").passed
    _announce(6, "all representations agree to 1e-9 on x in {0.05..0.45}, ladder right sides agree")


def test_criterion_07_confluent_suite():
    for n in (1, 2, 3):
        rep = verify(IdentityId.I45, {"n": n}, "numeric")
        assert rep.passed and rep.max_abs_err <= 1e-9
    for ps in identities.REGISTRY[IdentityId.I42].default_params:
        assert verify(IdentityId.I42, ps, "numeric").passed  # 1e-9 series / 1e-6 FD inside
        assert verify(IdentityId.I43, ps, "numeric").passed
        assert verify(IdentityId.I42, ps, "exact").passed
        assert verify(IdentityId.I43, ps, "exact").passed
    for n in (1, 2, 3):
        assert verify(IdentityId.I46, {"n": n}, "numeric").passed
        assert verify(IdentityId.I47, {"n": n}, "numeric").passed
        for j in range(7):
            r48 = verify(IdentityId.I48, {"n": n, "j": j}, "numeric")
            assert r48.passed and r48.max_abs_err <= 1e-8
            assert verify(IdentityId.I410, {"n": n, "j": j}, "ode").passed
        for j in range(13):
            r49 = verify(IdentityId.I49, {"n": n, "j": j}, "exact")
            assert r49.passed and r49.max_abs_err == 0.0
    _announce(7, "confluent suite: 4.2/4.3/4.5-4.8 at stated tolerances, 4.9 exact, 4.10 zero residual")


def test_criterion_08_synchronicity():
    xs_r = [F(-2) + F(4, 32) * i for i in range(33)]
    xs_u = [F(i, 32) for i in range(33)]
    cases = []
    for n in (1, 2, 4):
        cases.append(("bspline const", entropy_profile(BSplineOp(n, ConstantSigma(F(7, 5))), xs_r)))
        cases.append(("bspline quad", entropy_profile(BSplineOp(n, QuadraticSigma(1, 1)), xs_r)))
        cases.append(("kantorovich", entropy_profile(KantorovichOp(n + 2, 2), xs_u)))
    for label, pts in cases:
        v = [p.variance for p in pts]
        r = [p.renyi for p in pts]
        t = [p.tsallis for p in pts]
        assert synchronicity_check(v, r).passed, label
        assert synchronicity_check(v, t).passed, label
        assert synchronicity_check(r, t).passed, label
    _announce(8, "variance/Renyi/Tsallis pairwise synchronous on 33-point grids, both families")


def test_criterion_09_mutation_controls(monkeypatch):
    real_rhs = identities.i314_rhs
    monkeypatch.setattr(identities, "i314_rhs",
                        lambda n, i: real_rhs(n, i) + Poly.monomial(1, F(1, 1000)))
    failing = {r.id for r in verify_all() if not r.passed}
    assert failing == {IdentityId.I314}
    monkeypatch.undo()

    real_f = specfun.f_poly
    monkeypatch.setattr(specfun, "f_poly",
                        lambda n: real_f(n) + Poly.monomial(1, F(1, 1000)))
    failing = {r.id for r in verify_all() if not r.passed}
    expected = {IdentityId.I33, IdentityId.I34, IdentityId.I35, IdentityId.I36,
                IdentityId.I37, IdentityId.I39, IdentityId.I313}
    assert failing == expected
    monkeypatch.undo()
    _announce(9, "each injected perturbation fails exactly its own identity checks")


def test_criterion_10_cli_contract(capsys):
    assert main(["verify", "--id", "I39", "--params", "n=5", "--mode", "exact"]) == 0
    capsys.readouterr()
    assert main(["verify", "--id", "I48", "--params", "n=3,j=4",
                 "--mode", "numeric", "--tol", "1e-13"]) == 1
    capsys.readouterr()
    assert main(["verify", "--id", "I99"]) == 2
    capsys.readouterr()

    main(["registry", "--json"])
    first = capsys.readouterr().out
    main(["registry", "--json"])
    second = capsys.readouterr().out
    assert first == second
    assert len(json.loads(first)["rows"]) == 21

    start = time.monotonic()
    code = main(["verify", "--all"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 60.0
    assert out.splitlines()[-1].endswith("checks passed")
    _announce(10, f"exit codes 0/1/2, byte-identical reruns, verify --all in {elapsed:.1f}s")

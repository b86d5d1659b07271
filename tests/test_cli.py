"""Command-line contract: exit codes, exact output strings, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heunops import cli, identities, specfun
from heunops.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exits(capsys, call):
    """The exit code, stdout and stderr of a ``call`` that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestEval:
    def test_exact_constant(self, capsys):
        code, out, _ = run(capsys, "eval", "c_n", "n=3", "--exact")
        assert code == 0 and out == "33/40\n"

    def test_exact_weight_sum(self, capsys):
        code, out, _ = run(capsys, "eval", "F", "n=1", "x=1/4", "--exact")
        assert code == 0 and out == "5/8\n"

    # regression: the J series printed 6390.9999999999973, failed near 1 and
    # had no --exact; float F overflowed from n ~ 520 on
    @pytest.mark.parametrize("argv, out", (
        (["J", "n=2", "x=1/2", "--exact"], "11/81\n"),
        (["J", "n=2", "x=-3/4"], "6391\n"),
        (["J", "n=3", "x=9999/10000"], "1.5625781312505471e-05\n"),
        (["F", "n=600", "x=3/10"], "0.025127762869435213\n"),
        (["G", "n=2", "x=1/2", "--exact"], "5/16\n"),
    ), ids=("J-exact", "J-negative", "J-near-1", "F-large-n", "G-exact"))
    def test_kernel_sum_value(self, capsys, argv, out):
        assert run(capsys, "eval", *argv) == (0, out, "")

    # regression: the first four printed inf, inf, 4.88e-79 and 0, and the
    # fifth exited 2 with a bare "(34, 'Numerical result out of range')";
    # the last three exited 2 from the limits of the float weight sum;
    # references (1-p)^(2n) 2F1(n, n; 1; p^2), p = x/(1+x), by mpmath at 50 digits
    @pytest.mark.parametrize("n, x, ref", (
        ("20", "10", 6.1302529349166009e-3),
        ("5", "30", 4.4832705173717202e-3),
        ("20", "1000", 6.4260538294127349e-5),
        ("100", "100", 2.8175294345940031e-4),
        ("1", "100", 4.9751243781094527e-3),
        ("100", "700", 4.0422306705708573e-5),
        ("20", "10000", 6.4289445927966176e-6),
        ("300", "10000", 1.6306328945193987e-6),
    ))
    def test_negative_binomial_sum_at_large_x(self, capsys, n, x, ref):
        code, out, err = run(capsys, "eval", "G", f"n={n}", f"x={x}")
        assert code == 0 and err == ""
        assert abs(float(out) - ref) <= 1e-12 * ref

    def test_float_poisson_sum(self, capsys):
        code, out, _ = run(capsys, "eval", "K", "n=1", "x=1")
        assert code == 0
        assert abs(float(out) - 0.308508322553671) < 1e-14
        assert len(out.strip().replace("0.", "")) == 17  # 17 significant digits

    def test_exact_heun_polynomial(self, capsys):
        code, out, _ = run(
            capsys, "eval", "hl", "a=1/2", "q=-1", "alpha=-2", "beta=1",
            "gamma=1", "delta=1", "x=1/4", "--exact",
        )
        assert code == 0 and out == "5/8\n"

    def test_exact_rejected_for_series_only(self, capsys):
        code, _, err = run(capsys, "eval", "K", "n=1", "x=1", "--exact")
        assert code == 2 and "exact" in err

    def test_grid_output(self, capsys):
        code, out, _ = run(capsys, "eval", "legendre", "n=2", "--grid", "0:1:3", "--exact")
        assert code == 0
        assert out.splitlines() == ["x,value", "0,-1/2", "1/2,-1/8", "1,1"]

    def test_exact_gauss_polynomial(self, capsys):
        code, out, _ = run(capsys, "eval", "2f1", "a=-3", "b=1/2", "c=3/2", "x=2/7", "--exact")
        expected = specfun.hyp2f1_poly(-3, Fraction(1, 2), Fraction(3, 2))(Fraction(2, 7))
        assert code == 0 and out == f"{expected}\n" and "/" in out

    def test_derivative_at_zero_takes_no_point(self, capsys):
        # (-2n)^j (1 + C(3,2) C(2,1)/4) = -64 * 5/2 at n = 2, j = 3
        assert run(capsys, "eval", "kn_deriv_zero", "n=2", "j=3") == (0, "-160\n", "")
        assert run(capsys, "eval", "kn_deriv_zero", "n=2", "j=3", "--exact") == (0, "-160\n", "")

    def test_one_point_grid(self, capsys):
        code, out, _ = run(capsys, "eval", "legendre", "n=2", "--grid", "1/2:1/2:1", "--exact")
        assert code == 0 and out.splitlines() == ["x,value", "1/2,-1/8"]

    # regression: the CSV form printed its header, and the first also its
    # first row, before the error; the whole table is formatted first
    @pytest.mark.parametrize("fmt", ((), ("--json",)), ids=("csv", "json"))
    @pytest.mark.parametrize("argv", (
        ["G", "n=0", "--grid=0:1e400:3"],  # the point 5e399 is past the float range
        ["kn_deriv_zero", "n=100", "j=400", "--grid=0:1:2"],  # and so is the value
    ), ids=("point", "value"))
    def test_failing_table_prints_nothing(self, capsys, argv, fmt):
        code, out, err = run(capsys, "eval", *argv, *fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("n", ("709", "1000"))
    def test_poisson_sum_past_underflow_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "eval", "K", f"n={n}", "x=1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "708" in err

    def test_missing_param(self, capsys):
        code, _, err = run(capsys, "eval", "F", "n=1")
        assert code == 2 and "x" in err

    def test_unknown_function_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "nosuch", "n=1"])
        assert exc.value.code == 2

    def test_params_parsed_once_per_command(self, capsys, monkeypatch):
        calls = []
        real_frac = cli._frac

        def counting_frac(params, key):
            calls.append(key)
            return real_frac(params, key)

        monkeypatch.setattr(cli, "_frac", counting_frac)
        code, out, _ = run(capsys, "eval", "hl", "a=1/2", "q=-1", "alpha=-2", "beta=1",
                           "gamma=1", "delta=1", "--grid", "0:1:5", "--exact")
        assert code == 0 and len(out.splitlines()) == 6
        assert len(calls) == 6

    def test_bspline_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "bspline", "knots=0;1/3;2/3;1", "x=1/2", "--exact")
        assert code == 0 and out == "9/4\n"

    def test_negative_grid_start_in_either_form(self, capsys):
        joined = run(capsys, "eval", "legendre", "n=3", "--grid=-1:1:3")
        split = run(capsys, "eval", "legendre", "n=3", "--grid", "-1:1:3")
        assert joined == split and joined[0] == 0
        assert [row.split(",")[0] for row in joined[1].splitlines()] == ["x", "-1", "0", "1"]

    def test_exact_zero_prints_unsigned(self, capsys):
        # the float recurrence gives P_3(0) = -0.0
        code, out, _ = run(capsys, "eval", "legendre", "n=3", "--grid=-1:1:3")
        assert code == 0 and out.splitlines() == ["x,value", "-1,-1", "0,0", "1,1"]

    @pytest.mark.parametrize("json_out", (False, True), ids=("csv", "json"))
    def test_x_cell_that_rounds_to_zero_prints_unsigned(self, capsys, json_out):
        # -1e-400 rounds to -0.0; the x cells of a float table print as its value cells do
        code, out, _ = run(capsys, "eval", "legendre", "n=3", "--grid=-1e-400:0:2", *["--json"] * json_out)
        rows = [list(r.values()) for r in json.loads(out)["rows"]] if json_out else out.splitlines()[1:]
        assert code == 0 and rows == ([["0", "0"]] * 2 if json_out else ["0,0"] * 2)

    def test_float_overflow_is_usage_error(self, capsys):
        # the exact degree-200 polynomial at x = 1000 exceeds the float range
        code, out, err = run(capsys, "eval", "2f1", "a=-200", "b=1/2", "c=3/2", "x=1000")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "too large for a float" in err and "Traceback" not in err

    def test_gauss_degree_above_cap_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "2f1", "a=-30000", "b=1/3", "c=3/2", "x=1/2")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and "degree 30000" in err

    def test_coefficient_beyond_the_float_range_is_usage_error(self, capsys):
        # alpha beta = 1e320 is beyond the float range; the sum used to run all
        # MAX_TERMS terms over NaN coefficients and then report no convergence
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "hl", "a=0.5", "q=0", "alpha=1e160", "beta=1e160", "gamma=1",
                             "delta=1", "x=0.1")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err.startswith("error: coefficient overflow: c_1 ")
        # x = 0.1 is far inside the radius 0.5: the parameters are the cause
        assert "float range" in err and "disk" not in err

    @pytest.mark.parametrize("argv, key", (
        (["eval", "K", "n=1", "x=1", "jj=2"], "jj"),
        (["eval", "c_n", "n=3", "x=1", "--exact"], "x"),
        (["eval", "2f1", "a=-1", "b=1", "c=1", "d=2", "--grid", "0:1:3"], "d"),
        (["verify", "--id", "I39", "--params", "n=3,bogus=1"], "bogus"),
    ), ids=("eval-K", "eval-c_n", "eval-2f1", "verify"))
    def test_unknown_parameter_is_usage_error(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("argv", (
        ["eval", "F", "n=1", "n=2", "x=1/4", "--exact"],
        ["verify", "--id", "I39", "--params", "n=3", "--params", "n=4"],
    ), ids=("eval", "verify"))
    def test_repeated_parameter_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: parameter n is given twice\n"

    @pytest.mark.parametrize("tail", ([], ["--json"], ["--exact"]))
    def test_point_with_grid_is_usage_error(self, capsys, tail):
        code, out, err = run(capsys, "eval", "legendre", "n=2", "x=1/2", "--grid", "0:1:3", *tail)
        assert code == 2 and out == ""
        assert err == "error: --grid sets the points and takes no x\n"

    def test_negative_poisson_index_is_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "K", "n=-1", "x=1/2")
        assert code == 2 and out == ""
        assert err == "error: family index must be non-negative\n"

    def test_missing_grid_value_is_usage_error(self, capsys):
        for tail in ([], ["--json"]):
            with pytest.raises(SystemExit) as exc:
                main(["eval", "legendre", "n=3", "--grid", *tail])
            assert exc.value.code == 2
            assert "--grid: expected one argument" in capsys.readouterr().err

    @settings(max_examples=80, deadline=None)
    @given(st.fractions(-50, 50, max_denominator=10**6), st.fractions(-50, 50, max_denominator=10**6),
           st.integers(1, 50))
    def test_grid_points_equal_fraction_steps(self, a, b, count):
        if count == 1:
            b = a
        grid = cli._parse_grid(f"{a}:{b}:{count}")
        xs = grid.fractions()
        step = (b - a) / (count - 1) if count > 1 else 0
        assert xs == [a + step * i for i in range(count)]
        assert all(type(x) is Fraction for x in xs)
        assert list(grid.floats()) == [float(x) for x in xs]

    @pytest.mark.parametrize("tail, message", (
        (["U", "n=2", "x=-1"], "U is undefined at x = -1"),
        (["U", "n=2", "--grid=-2:0:3"], "U is undefined at x = -1"),
        (["J", "n=3", "--grid=0:2:5"], "J series requires |x| < 1"),
        (["G", "n=4", "--grid=1:-1:3"], "G is evaluated on x >= 0 only"),
        (["F", "n=-1", "--grid=0:1:3"], "family index must be non-negative"),
    ), ids=("tail0", "tail1", "J-past-1", "G-below-0", "n-minus-1"))
    def test_u_pole_is_usage_error(self, capsys, tail, message):
        # the float and the exact rows of F, U, J and G come from one table
        # and fail alike, at an inner grid point too
        for exact in ((), ("--exact",)):
            code, out, err = run(capsys, "eval", *tail, *exact)
            assert code == 2 and out == ""
            assert err == f"error: {message}\n"

    def test_grid_tokens_after_double_dash_are_left_alone(self):
        assert cli._join_grid_values(["eval", "F", "--grid", "-1:1:3", "--", "--grid", "-2"]) == [
            "eval", "F", "--grid=-1:1:3", "--", "--grid", "-2"]


class TestVerify:
    def test_single_identity_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "I39", "--params", "n=5", "--mode", "exact")
        assert code == 0
        assert "PASS" in out

    def test_unknown_identity(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "I99")
        assert code == 2 and "I99" in err

    def test_inadmissible_mode(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "I39", "--params", "n=2", "--mode", "numeric")
        assert code == 2

    def test_missing_param_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--id", "I22", "--params", "x=1")
        assert code == 2 and out == ""
        assert "['m']" in err and "Traceback" not in err

    def test_zero_normalization_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--id", "I48", "--params", "n=0,j=1")
        assert code == 2 and out == ""
        assert err.startswith("error: I48 needs n >= 1") and "Fraction" not in err

    @pytest.mark.parametrize("iid", ("I46", "I47"))
    def test_k1_ladder_zero_n_is_usage_error(self, capsys, iid):
        for mode in ("exact", "numeric"):
            code, out, err = run(capsys, "verify", "--id", iid, "--params", "n=0", "--mode", mode)
            assert code == 2 and out == ""
            assert "n >= 1" in err and "division" not in err

    # each used to exit 2 naming f_poly's degree, gamma or a non-terminating
    # series, or to pass (I49, I410) and print 6 (kn_deriv_zero) at n = -1
    @pytest.mark.parametrize("argv, err", (
        (["verify", "--id", "I34", "--params", "n=0"],
         "I34 needs n >= 1: its right side holds F_(n-1); got n = 0"),
        (["verify", "--id", "I35", "--params", "n=0"],
         "I35 needs n >= 1: its right side holds F_(n-1); got n = 0"),
        (["verify", "--id", "I313", "--params", "n=0"],
         "I313 needs n >= 1: its Heun series terminates only there; got n = 0"),
        (["verify", "--id", "I48", "--params", "n=1,j=-1"],
         "the K family needs n >= 0 and j >= 0, got n = 1, j = -1"),
        (["verify", "--id", "I410", "--params", "n=1,j=-1"],
         "the K family needs n >= 0 and j >= 0, got n = 1, j = -1"),
        (["verify", "--id", "I49", "--params", "n=-1,j=2"], "family index must be non-negative"),
        (["verify", "--id", "I410", "--params", "n=-1,j=2"],
         "the K family needs n >= 0 and j >= 0, got n = -1, j = 2"),
        (["eval", "kn_deriv_zero", "n=-1", "j=2"], "family index must be non-negative"),
    ), ids=("I34", "I35", "I313", "I48-j", "I410-j", "I49-n", "I410-n", "kn_deriv_zero-n"))
    def test_parameters_outside_the_domain_are_named(self, capsys, argv, err):
        assert run(capsys, *argv) == (2, "", f"error: {err}\n")

    def test_tol_with_a_mode_the_identity_lacks(self, capsys):
        for tol in ("1e-3", "nan"):
            code, out, err = run(capsys, "verify", "--id", "I39", "--params", "n=3", "--mode", "numeric",
                                 "--tol", tol)
            assert (code, out, err) == (2, "", "error: I39 does not support mode 'numeric'\n")

    @pytest.mark.parametrize("extra", (["--id", "I39"], ["--params", "n=1"], ["--mode", "numeric"],
                                       ["--tol", "1e300"]))
    def test_all_rejects_single_check_options(self, capsys, extra):
        code, out, err = run(capsys, "verify", "--all", *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: --all") and extra[0] in err

    @pytest.mark.parametrize("argv, hint", (
        (["--id", "I39", "--params", "n=3", "--tol", "5"], "I39 has no numeric mode"),
        (["--id", "I39", "--params", "n=3", "--mode", "exact", "--tol", "5"], "I39 has no numeric mode"),
        (["--id", "I22", "--params", "m=3", "--tol", "1e-8"], "--mode numeric"),
        (["--id", "I33", "--mode", "ode", "--tol", "1e-3"], "--mode numeric"),
    ))
    def test_tol_outside_numeric_mode_is_usage_error(self, capsys, argv, hint):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --tol applies only to numeric mode") and hint in err

    @pytest.mark.parametrize("tol", ("nan", "-1", "0", "inf", "-inf"))
    def test_meaningless_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--id", "I48", "--params", "n=3,j=4",
                             "--mode", "numeric", f"--tol={tol}")
        assert code == 2 and out == ""
        assert err.startswith("error: tolerance must be finite and > 0")

    def test_huge_finite_tolerance_is_valid(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "I48", "--params", "n=3,j=4",
                           "--mode", "numeric", "--tol", "1e300")
        assert code == 0 and "PASS" in out

    def test_failure_exit_code(self, capsys):
        # an absurd tolerance turns a passing numeric check into a failure
        code, out, _ = run(capsys, "verify", "--id", "I48", "--params", "n=3,j=4",
                           "--mode", "numeric", "--tol", "1e-13")
        assert code == 1
        assert "FAIL" in out

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "I49", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["command"] == "verify" and doc["pass"] is True
        assert len(doc["rows"]) == 39  # 3 n-values x 13 j-values

    def test_json_all(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["pass"] is True
        assert len(doc["rows"]) == 336
        assert all(row["pass"] is True for row in doc["rows"])


class TestEntropy:
    def test_bspline_columns(self, capsys):
        code, out, _ = run(capsys, "entropy", "--op", "bspline", "--n", "1",
                           "--sigma", "const:1", "--grid", "0:1:3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,squared_kernel_integral,renyi,tsallis,variance"
        for line in lines[1:4]:
            cells = line.split(",")
            assert abs(float(cells[2]) - math.log(2)) < 1e-15
            assert abs(float(cells[4]) - 1 / 3) < 1e-15
        assert lines[-1].startswith("# synchronicity") and "fail" not in lines[-1]

    def test_kantorovich_center_value(self, capsys):
        code, out, _ = run(capsys, "entropy", "--op", "kantorovich", "--n", "3", "--k", "2",
                           "--grid", "0:1:5")
        row = out.splitlines()[3].split(",")  # x = 0.5
        assert code == 0 and float(row[0]) == 0.5 and float(row[1]) == 1.25

    def test_constant_tsallis(self, capsys):
        code, out, _ = run(capsys, "entropy", "--op", "kantorovich", "--n", "2", "--k", "2",
                           "--grid", "0:1:5")
        assert code == 0
        for line in out.splitlines()[1:6]:
            assert abs(float(line.split(",")[3]) + 1 / 3) < 1e-15

    def test_negative_grid_start_in_either_form(self, capsys):
        argv = ["entropy", "--op", "bspline", "--n", "3", "--sigma", "quad:1:1/2"]
        joined = run(capsys, *argv, "--grid=-2:2:33")
        split = run(capsys, *argv, "--grid", "-2:2:33")
        assert joined == split and joined[0] == 0 and len(joined[1].splitlines()) == 35

    def test_zero_renyi_prints_unsigned(self, capsys):
        # s = 1 everywhere, and -log(1.0) is -0.0
        code, out, _ = run(capsys, "entropy", "--op", "bspline", "--n", "2",
                           "--sigma", "const:2/3", "--grid=-1:1:3")
        assert code == 0
        for line in out.splitlines()[1:4]:
            assert line.split(",")[1:4] == ["1", "0", "0"]

    def test_domain_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "entropy", "--op", "kantorovich", "--n", "3", "--k", "2",
                           "--grid=-1:2:4")
        assert code == 2
        code, _, err = run(capsys, "entropy", "--op", "kantorovich", "--n", "3", "--k", "2",
                           "--grid", "0:2:5")
        assert code == 2

    def test_grid_count_bounded(self, capsys, monkeypatch):
        limit = cli._MAX_GRID_POINTS
        code, out, err = run(capsys, "entropy", "--op", "kantorovich", "--n", "3",
                             "--grid", f"0:1:{limit + 1}")
        assert code == 2 and out == ""
        assert str(limit) in err
        # the limit itself is accepted
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 5)
        assert cli._parse_grid("0:1:5").count == 5
        with pytest.raises(cli.HeunopsError, match="limit of 5"):
            cli._parse_grid("0:1:6")

    def test_table_sigma_from_file(self, capsys, tmp_path):
        table = tmp_path / "sigma.csv"
        table.write_text("# x,sigma\n-2,1\n0,2\n2,1\n")
        code, out, _ = run(capsys, "entropy", "--op", "bspline", "--n", "2",
                           "--sigma", f"table:{table}", "--grid=-1:1:5")
        assert code == 0
        # width interpolates to 3/2 at x = +-1 and 2 at x = 0
        rows = [line.split(",") for line in out.splitlines()[1:6]]
        assert abs(float(rows[2][4]) - (2 * 2) / 6) < 1e-15
        assert abs(float(rows[0][4]) - (1.5 * 1.5) / 6) < 1e-15

    @pytest.mark.parametrize("text, line, fields", (("0,1\n1\n", 2, 1), ("# x,sigma\n0,1,9\n1,2\n", 2, 3)))
    def test_table_sigma_row_needs_two_fields(self, capsys, tmp_path, text, line, fields):
        table = tmp_path / "sigma.csv"
        table.write_text(text)
        code, out, err = run(capsys, "entropy", "--op", "bspline", "--n", "2",
                             "--sigma", f"table:{table}", "--grid", "0:1:3")
        assert code == 2 and out == ""
        assert f"line {line}: expected 2 fields x,sigma, got {fields}" in err

    @pytest.mark.parametrize("op, extra", (("kantorovich", ["--sigma", "const:1"]),
                                           ("bspline", ["--k", "2"])))
    def test_option_of_the_other_family_is_rejected(self, capsys, op, extra):
        code, out, err = run(capsys, "entropy", "--op", op, "--n", "3", *extra, "--grid", "0:1:3")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {extra[0]} applies only to")

    def test_json_has_synchronicity(self, capsys):
        code, out, _ = run(capsys, "entropy", "--op", "kantorovich", "--n", "4", "--k", "2",
                           "--grid", "0:1:9", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["pass"] is True
        assert set(doc["synchronicity"]) == {"variance~renyi", "variance~tsallis", "renyi~tsallis"}


class TestRegistry:
    def test_row_count_and_tags(self, capsys):
        code, out, _ = run(capsys, "registry", "--json")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["rows"]) == 21
        eqs = {row["equation"] for row in doc["rows"]}
        assert "(3.9)" in eqs and "(4.8)" in eqs
        for row in doc["rows"]:
            assert set(row) >= {"id", "equation", "modes", "default_params", "description"}


class TestUsageErrors:
    """A command's argv is parsed by its own sub-parser; every other argv
    still goes to the top-level parser."""

    @pytest.mark.parametrize("argv, prog", (
        (["eval", "F", "n=3", "x=1/2", "--bogus"], "heunops eval"),
        (["verify", "--id", "I39", "--mode", "exact", "extra"], "heunops verify"),
    ), ids=("eval", "verify"))
    def test_unrecognized_argument_shows_command_usage(self, capsys, argv, prog):
        code, out, err = exits(capsys, lambda: main(argv))
        assert code == 2 and out == ""
        assert err.startswith(f"usage: {prog} ")
        assert err.splitlines()[-1] == f"{prog}: error: unrecognized arguments: {argv[-1]}"

    @pytest.mark.parametrize("argv, code, line", (
        ([], 2, "heunops: error: the following arguments are required: command"),
        (["--help"], 0, None),
        (["eval", "nosuch"], 2, "heunops eval: error: argument function: invalid choice: 'nosuch'"),
        (["eval", "--grid"], 2, "heunops eval: error: argument --grid: expected one argument"),
    ), ids=("empty", "help", "unknown-function", "grid-without-value"))
    def test_other_usage_as_before(self, capsys, argv, code, line):
        got = exits(capsys, lambda: main(argv))
        # the top-level parser alone is how main parsed every argv before
        assert got == exits(capsys, lambda: cli._parser().parse_args(argv))
        assert got[0] == code
        if line is None:
            assert got[1].startswith("usage: heunops [-h] {eval,verify,entropy,registry}")
            assert got[2] == ""
        else:
            assert got[1] == "" and got[2].splitlines()[-1].startswith(line)

    def test_command_argv_skips_top_level_parser(self, capsys, monkeypatch):
        parser = cli._parser()
        calls = []
        real = parser.parse_known_args

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counting)
        for argv in (["eval", "c_n", "n=3", "--exact", "--json"],
                     ["verify", "--id", "I39", "--mode", "exact", "--json"],
                     ["entropy", "--op", "kantorovich", "--n", "3", "--grid", "0:1:3", "--json"],
                     ["registry", "--json"]):
            assert run(capsys, *argv)[0] == 0
        assert calls == []
        exits(capsys, lambda: main([]))
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, message", (
        (["eval", "F", "n=1/0", "x=1"], "cannot parse n='1/0' as a rational"),
        (["eval", "K", "n=2", "j=x", "x=1"], "cannot parse j='x' as a rational"),
        (["eval", "F", "n=2", "x=1/2/3"], "cannot parse x='1/2/3' as a rational"),
        (["eval", "bspline", "knots=0;1;x", "x=1/2"], "cannot parse knot='x' as a rational"),
        (["eval", "F", "n=2", "--grid", "0:x:3"], "cannot parse grid b='x' as a rational"),
        (["verify", "--id", "I31", "--params", "q=abc"],
         "cannot parse I31 parameter q='abc' as a rational"),
        (["verify", "--id", "I39", "--params", "n=1/0", "--mode", "exact"],
         "cannot parse I39 parameter n='1/0' as a rational"),
        (["entropy", "--op", "bspline", "--n", "4", "--sigma", "const:abc", "--grid", "0:1:3"],
         "cannot parse sigma c='abc' as a rational"),
        (["entropy", "--op", "bspline", "--n", "4", "--sigma", "quad:1:y", "--grid", "0:1:3"],
         "cannot parse sigma d='y' as a rational"),
        (["entropy", "--op", "kantorovich", "--n", "3", "--grid", "1/0:1:3"],
         "cannot parse grid a='1/0' as a rational"),
        (["entropy", "--op", "kantorovich", "--n", "3", "--grid", "0:1:abc"],
         "cannot parse grid count='abc' as an integer"),
    ), ids=("int-zero-denominator", "int-letters", "rational", "knot", "grid-end", "identity-rational",
            "identity-index", "sigma-const", "sigma-quad", "grid-start", "grid-count"))
    def test_malformed_value_is_named(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_malformed_table_sigma_value_is_named(self, capsys, tmp_path):
        table = tmp_path / "sigma.csv"
        table.write_text("0,1\n1,1/0\n")
        code, out, err = run(capsys, "entropy", "--op", "bspline", "--n", "2",
                             "--sigma", f"table:{table}", "--grid", "0:1:3")
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse sigma table {table}, line 2: sigma='1/0' as a rational\n"


#: tokens for the command lines of the direct-parser property: positionals
#: of every kind, bad values of every type, values that start with "-",
#: and the tokens that argparse treats specially
_POSITIONALS = ("hl", "F", "c_n", "nosuch", "n=3", "x=1/2", "", "a b", "-x y", "-1", "-")
_VALUES = ("x", "3.5", " 7 ", "inf", "bogus", "", "-", "--", "-h", "-1", "-1:1:3", "--json", "--n",
           "a=b=c")
_SPECIAL = ("--", "-", "-h", "--help", "--bogus", "---json", "-json", "--JSON")


def _value(draw, keywords: dict) -> str:
    """A value for an argument: mostly a well-formed one of its kind."""
    if not draw(st.integers(0, 7)):
        return draw(st.sampled_from(_VALUES))
    if "choices" in keywords:
        good = keywords["choices"]
    elif keywords.get("type") is int:
        good = ("3", " 4 ", "-2", "0x1")
    elif keywords.get("type") is float:
        good = ("1e-3", "nan", "-1", "1_0")
    else:
        good = ("0:1:3", "n=5,x=1", "I39", "const:1")
    return draw(st.sampled_from(good))


@st.composite
def _command_lines(draw):
    """A command name and an argv after it, mostly of the plainest form:
    declared options with values of their kind, each argument in one of
    its spellings, and now and then a token that argparse alone handles."""
    def rarely() -> bool:
        return not draw(st.integers(0, 7))

    name = draw(st.sampled_from(tuple(cli._COMMANDS)))
    arguments = cli._COMMANDS[name][1]
    options = [(flag, kw) for flag, kw in arguments if flag.startswith("-")]
    tokens = [_value(draw, kw) for flag, kw in arguments
              if not flag.startswith("-") and "nargs" not in kw and not rarely()]
    tokens += draw(st.lists(st.sampled_from(_POSITIONALS), max_size=2 if tokens else 0))
    chosen = [(flag, kw) for flag, kw in options if kw.get("required") and not rarely()]
    chosen += draw(st.lists(st.sampled_from(options), max_size=4))
    for flag, kw in draw(st.permutations(chosen)):
        spelling = draw(st.sampled_from((flag[:-1],) + _SPECIAL)) if rarely() else flag
        value = _value(draw, kw)
        joined = [f"{spelling}={value}"]
        if kw.get("action") == "store_true":
            tokens += joined if rarely() else [spelling]
        elif rarely():
            tokens.append(spelling)
        else:
            tokens += draw(st.sampled_from(([spelling, value], joined)))
    if rarely():
        tokens.append(draw(st.sampled_from(_POSITIONALS)))
    return name, tokens


def _argparse_namespace(name: str, tokens: list[str]):
    """What the argparse sub-parser makes of ``tokens``; None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._parser().commands[name].parse_args(tokens)
        except SystemExit:
            return None


def _attributes(namespace) -> str:
    # by repr, so that a NaN tolerance equals itself and 3 differs from 3.0
    return repr(sorted(vars(namespace).items()))


class TestDirectParser:
    """A command line that the direct parser accepts is one that argparse
    accepts too, with the same attributes; anything else is argparse's."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(_command_lines())
    def test_accepts_only_what_argparse_parses_alike(self, line):
        name, tokens = line
        direct = cli._parse_command(name, tokens)
        if direct is not None:
            parsed = _argparse_namespace(name, tokens)
            assert parsed is not None, "argparse rejects a line that the direct parser accepts"
            assert _attributes(direct) == _attributes(parsed)

    @pytest.mark.parametrize("argv", (
        ["eval", "c_n", "n=3", "--exact"],
        ["eval", "F", "n=2", "x=1/2"],
        ["eval", "hl", "a=2", "q=1/2", "--grid=-1/2:1/2:9", "--json", "--exact", "--json"],
        ["eval", "legendre", "n=3", "--grid", "0:1:5"],
        ["verify", "--all"],
        ["verify", "--id", "I39", "--params", "n=5", "--params=x=1", "--mode", "exact"],
        ["verify", "--id=I22", "--mode=numeric", "--tol", "1e-3", "--tol=nan", "--json"],
        ["entropy", "--op", "kantorovich", "--n", "3", "--k=2", "--grid", "0:1:3"],
        ["entropy", "--grid=-1:1:9", "--n= 4 ", "--op=bspline", "--sigma", "quad:1:1/2", "--json"],
        ["entropy", "--op", "bspline", "--n", "4", "--grid=", "--sigma="],
        ["registry"],
        ["registry", "--json"],
    ))
    def test_well_formed_lines_are_parsed_alike(self, argv):
        direct = cli._parse_command(argv[0], argv[1:])
        assert direct is not None
        assert _attributes(direct) == _attributes(_argparse_namespace(argv[0], argv[1:]))

    @pytest.mark.parametrize("argv", (
        ["eval"], ["eval", "nosuch", "n=1"], ["eval", "F", "--exact", "n=1"], ["eval", "F", "-1"],
        ["eval", "F", "--gr", "0:1:3"], ["eval", "F", "--grid", "-1:1:3"], ["eval", "F", "--exact=1"],
        ["eval", "F", "--", "n=1"], ["eval", "F", "-h"], ["verify", "I39"], ["verify", "--mode", "bogus"],
        ["verify", "--tol", "x"], ["verify", "--tol", "-1"], ["verify", "--id"],
        ["entropy", "--op", "kantorovich", "--n", "3.5", "--grid", "0:1:3"],
        ["entropy", "--op", "kantorovich", "--n", "3"], ["registry", "--bogus"], ["registry", "x"],
    ))
    def test_other_lines_are_left_to_argparse(self, argv):
        assert cli._parse_command(argv[0], argv[1:]) is None


#: JSON text with quotes, backslashes, control characters, non-ASCII
#: characters and lone surrogates
_json_text = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u00e9\u20ac\U0001f600\ud800\udfff')),
    max_size=8)
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**300, 10**300),
    st.floats(), st.sampled_from((-0.0, math.nan, math.inf, -math.inf)), _json_text)


def _json_values(depth: int):
    """Nested JSON values up to ``depth`` levels of dicts, lists and tuples."""
    if depth == 0:
        return _json_scalars
    kids = _json_values(depth - 1)
    return st.one_of(
        kids,
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_json_text, kids, max_size=4),
        # table rows: a list of non-empty dicts of scalars
        st.lists(st.dictionaries(_json_text, _json_scalars, min_size=1, max_size=4),
                 min_size=1, max_size=4),
    )


class _Dict(dict):
    pass


class _List(list):
    pass


class _Pair(tuple):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class TestJsonWriter:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_json_values(4))
    def test_same_bytes_as_indented_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("doc", (
        # a subclass of dict, list or tuple is a container, in a row or as a row
        [{"a": _Dict(b=1)}, {"c": 2}],
        [{"a": 1.5}, {"b": _List([1, 2])}],
        [{"a": _Pair((1, "x"))}],
        [_Dict(a=1), {"b": 2}],
        # scalars of a mixed container, written inline, and their subclasses
        {"a": [1], "b": 2.5, "c": None, "d": True, "e": False, "f": -0.0, "g": 10**30, "h": "s"},
        {"a": [1], "b": _Int(3), "c": _Float(0.5), "d": _Str("t"), "e": math.inf, "f": math.nan},
        [[1], -math.inf, 1e-320, 7, None, True, "u", _Float(-2.0)],
    ))
    def test_subclasses_and_inline_scalars(self, doc):
        assert cli._dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.skipif(json.encoder.c_make_encoder is None or sys.version_info >= (3, 13),
                        reason="the writer is json.dumps itself here")
    def test_json_commands_skip_pure_python_encoder(self, capsys, monkeypatch):
        calls = []
        real = json.encoder._make_iterencode

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
        json.dumps({"rows": [1]}, indent=2)
        assert calls == [1]  # the count sees json.dumps's own route
        calls.clear()
        for argv in (["eval", "legendre", "n=3", "--grid=-1:1:5", "--json"],
                     ["verify", "--id", "I39", "--mode", "exact", "--json"],
                     ["entropy", "--op", "kantorovich", "--n", "3", "--grid", "0:1:3", "--json"],
                     ["registry", "--json"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.startswith("{\n")
        assert calls == []


#: the cells of float tables: signed zeros, infinities, nan, subnormals,
#: the ends of the float range, and floats, ints and Fractions
_table_floats = st.one_of(
    st.sampled_from((-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320,
                     2.2250738585072009e-308, 1e308, -1e308, sys.float_info.max)),
    st.floats())
_table_values = st.one_of(_table_floats, st.integers(-10**300, 10**300),
                          st.fractions(-10**300, 10**300))
_table_exact = st.one_of(st.integers(), st.fractions())

#: the tables of eval (x,value; float and --exact) and entropy (five float columns)
_TABLE_KINDS = {
    "eval": (("x", "value"), False),
    "eval-exact": (("x", "value"), True),
    "entropy": (cli._ENTROPY_COLUMNS, False),
}


def _per_row_strings(kind: str, rows: list[tuple]) -> list[list[str]]:
    """Each cell written as the CLI wrote it one row at a time: a grid point
    of a float eval table as it is, any other float cell with its zero
    unsigned, an exact cell by str."""
    if kind == "eval-exact":
        return [[str(x), str(v)] for x, v in rows]
    if kind == "eval":
        return [[format(x, ".17g"), format(float(v) + 0.0, ".17g")] for x, v in rows]
    return [[format(float(v) + 0.0, ".17g") for v in row] for row in rows]


class TestTableWriter:
    """The one-format tables against the per-row dicts and lines that the
    CLI built before, on derandomized cells and table sizes."""

    @pytest.mark.parametrize("kind", _TABLE_KINDS)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_same_bytes_as_per_row_writing(self, kind, data):
        columns, exact = _TABLE_KINDS[kind]
        cell_values = _table_exact if exact else _table_values
        first = _table_exact if exact else _table_floats if kind == "eval" else _table_values
        rows = data.draw(st.lists(st.tuples(first, *[cell_values] * (len(columns) - 1)),
                                  min_size=1, max_size=200))
        if exact:
            cell, cells = "%s", [v for row in rows for v in row]
        elif kind == "eval":  # the grid points are floats already and keep their sign
            cell, cells = "%.17g", [c for x, v in rows for c in (x, *cli._float_cells([v]))]
        else:
            cell, cells = "%.17g", cli._float_cells(v for row in rows for v in row)
        strings = _per_row_strings(kind, rows)
        head = {"command": kind, "params": {"function": "f", "n": "3", "exact": exact}}
        tail = {} if kind.startswith("eval") else {"pass": True, "synchronicity": {"a~b": False}}
        want = json.dumps({**head, "rows": [dict(zip(columns, r)) for r in strings], **tail},
                          indent=2)
        assert cli._json_table({**head, "rows": [], **tail}, columns, cells, cell) == want
        assert cli._csv_table(columns, cells, cell) == "\n".join(
            [",".join(columns), *(",".join(r) for r in strings)])

    @pytest.mark.parametrize("value", (10**400, -(10**400), Fraction(10**400, 3)))
    def test_float_cell_past_the_float_range_overflows(self, value):
        with pytest.raises(OverflowError) as exc:
            cli._float_cells([1.5, value])
        with pytest.raises(OverflowError) as per_row:
            format(float(value) + 0.0, ".17g")
        assert str(exc.value) == str(per_row.value)


def _readme_examples() -> list[tuple[list[str], str]]:
    """Each command of the README's Examples block: its argv after
    ``heunops`` or ``python -m heunops``, and its trailing comment."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        for prefix in ("heunops ", "python -m heunops "):
            if command.startswith(prefix):
                examples.append((shlex.split(command[len(prefix):]), comment.strip()))
    return examples


class TestReadme:
    @pytest.mark.parametrize("argv, comment", _readme_examples(), ids=" ".join)
    def test_examples_run(self, capsys, argv, comment):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        # a comment that is a number or p/q is the exact output
        if re.fullmatch(r"-?\d+(/\d+|\.\d+(e-?\d+)?)?", comment):
            assert out == comment + "\n"

    def test_examples_found(self):
        values = [comment for _, comment in _readme_examples() if comment[:1].isdigit()]
        assert len(_readme_examples()) == 10 and values == ["33/40", "5/8", "0.30850832255367105", "5/8"]


class TestModuleEntryPoint:
    #: the environment of a fresh ``python -m heunops`` that imports heunops from here
    ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")))))

    def test_python_m_heunops(self, capsys):
        proc = subprocess.run([sys.executable, "-m", "heunops", "registry"],
                              capture_output=True, env=self.ENV, check=False)
        code, out, _ = run(capsys, "registry")
        assert proc.returncode == code == 0
        assert proc.stdout == out.encode()

    def test_closed_pipe_exits_141_in_silence(self):
        # a reader that stops after one line, as `| head -1` does: no error
        # line, no traceback at exit, and the status of a SIGPIPE death
        argv = ["entropy", "--op", "kantorovich", "--n", "4", "--k", "2", "--grid=0:1:100000", "--json"]
        with subprocess.Popen([sys.executable, "-m", "heunops", *argv], env=self.ENV,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (141, b"")


class TestBuildOnce:
    """Work that does not depend on the point is done once per process or
    once per parameter set, however many calls or grid points use it."""

    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        # a well-formed command line builds no parser; the first malformed
        # one builds it, and every later one reuses it
        calls = []
        real = cli.build_parser

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for argv in (["registry"], ["registry", "--json"], ["eval", "c_n", "n=3", "--exact"]):
                assert run(capsys, *argv)[0] == 0
            assert calls == []
            for argv in (["registry", "--bogus"], ["eval", "nosuch"], ["entropy", "--n", "x"], []):
                assert exits(capsys, lambda: main(argv))[0] == 2
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1

    def test_shared_parser_leaks_no_state(self, capsys):
        parser = cli._parser()
        defaults = run(capsys, "verify", "--id", "I39", "--mode", "exact")
        one = run(capsys, "verify", "--id", "I39", "--params", "n=5", "--mode", "exact")
        again = run(capsys, "verify", "--id", "I39", "--mode", "exact")
        assert again == defaults and again != one
        entry = identities.REGISTRY[identities.IdentityId("I39")]
        assert len(again[1].splitlines()) == len(entry.default_params) + 1
        assert run(capsys, "eval", "legendre", "n=2", "--grid", "0:1:3", "--json")[1].startswith("{")
        assert run(capsys, "eval", "legendre", "n=2", "--grid", "0:1:3")[1].startswith("x,value\n")
        assert cli._parser() is parser

    @pytest.mark.parametrize("argv, rows", (
        (["hl", "a=1/2", "q=-20", "alpha=-40", "beta=1", "gamma=1", "delta=1", "--grid", "0:1:401"], 402),
        (["2f1", "a=-10", "b=1/2", "c=3/2", "--grid=-1:1:41"], 42),
    ), ids=("hl", "2f1"))
    def test_terminating_grid_builds_polynomial_once(self, capsys, monkeypatch, argv, rows):
        calls = []
        real = specfun._exact_stream

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(specfun, "_exact_stream", counting)
        specfun._series.cache_clear()
        code, out, _ = run(capsys, "eval", *argv)
        assert code == 0 and len(out.splitlines()) == rows
        # one exact stream, the record's prefix that the polynomial is read from
        assert len(calls) == 1


    @pytest.mark.parametrize("argv, points", (
        (["hl", "a=2", "q=-1/2", "alpha=1/2", "beta=3/2", "gamma=3/2", "delta=1/2", "--grid=-1/2:1/2:13"], 13),
        (["2f1", "a=1/2", "b=3/2", "c=2", "--grid=-3/4:3/4:41"], 41),
        (["hc", "p=1/3", "gamma=2", "delta=2", "alpha=1/2", "sigma=-7/5", "--grid=0:1/2:9"], 9),
    ), ids=("hl", "2f1", "hc"))
    def test_float_grid_resolves_parameters_once(self, capsys, argv, points):
        # one record lookup per grid, which builds the record
        specfun._series.cache_clear()
        code, out, _ = run(capsys, "eval", *argv)
        assert code == 0 and len(out.splitlines()) == points + 1
        info = specfun._series.cache_info()
        assert (info.misses, info.hits) == (1, 0)

    @pytest.mark.parametrize("argv, lines", (
        (["hl", "a=2", "q=-1/2", "alpha=1/2", "beta=3/2", "gamma=3/2", "delta=1/2", "--grid=-1/2:1/2:13"], 14),
        (["hl", "a=1/2", "q=-20", "alpha=-40", "beta=1", "gamma=1", "delta=1", "--grid", "0:1:41"], 42),
        (["2f1", "a=1/2", "b=3/2", "c=2", "--grid=-3/4:3/4:41"], 42),
        (["hc", "p=1/3", "gamma=2", "delta=2", "alpha=1/2", "sigma=-7/5", "--grid=0:1/2:9"], 10),
        (["hc", "p=1/2", "gamma=3/2", "delta=1/2", "alpha=1/2", "sigma=1", "x=1/4"], 1),
    ), ids=("hl", "hl-terminating", "2f1", "hc", "hc-point"))
    def test_float_series_grid_is_one_library_call(self, capsys, monkeypatch, argv, lines):
        # the single-point wrappers are never called; the grid is one call
        calls = {name: 0 for name in ("heun_local", "confluent_heun", "hyp2f1", "series_values")}

        def counting(name):
            real = getattr(specfun, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return count

        for name in calls:
            monkeypatch.setattr(specfun, name, counting(name))
        code, out, _ = run(capsys, "eval", *argv)
        assert code == 0 and len(out.splitlines()) == lines
        assert calls == {"heun_local": 0, "confluent_heun": 0, "hyp2f1": 0, "series_values": 1}

    def test_gauss_grid_builds_parameter_set_once(self, capsys, monkeypatch):
        built = []
        real = specfun.GaussParams.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(specfun.GaussParams, "__post_init__", counting)
        for argv in (["a=1/2", "b=3/2", "c=2", "--grid=-3/4:3/4:41"], ["a=-10", "b=1/2", "c=3/2", "--grid=-1:1:41"]):
            built.clear()
            code, out, _ = run(capsys, "eval", "2f1", *argv)
            assert code == 0 and len(out.splitlines()) == 42
            assert len(built) == 1


#: every eval function that takes --exact, with parameters that have an exact
#: value (terminating series), and the interval that its grid is drawn from
_EXACT_EVALS = (
    (["hl", "a=1/2", "q=-20", "alpha=-40", "beta=1", "gamma=1", "delta=1"], (-2, 2)),
    (["hc", "p=0", "gamma=1", "delta=1/2", "alpha=1/2", "sigma=105"], (-2, 2)),
    (["2f1", "a=-10", "b=1/2", "c=3/2"], (-3, 3)),
    (["legendre", "n=24"], (-1, 1)),
    (["F", "n=8"], (-2, 2)),
    (["U", "n=6"], (Fraction(-1, 2), 3)),
    (["J", "n=5"], (Fraction(-9, 10), Fraction(9, 10))),
    (["G", "n=7"], (0, 20)),
    (["bspline", "knots=-1;-1/3;1/3;1"], (Fraction(-3, 2), Fraction(3, 2))),
    (["c_n", "n=7"], None),
    (["kn_deriv_zero", "n=3", "j=9"], None),
)


class TestFloatRows:
    @pytest.mark.parametrize("argv, interval", _EXACT_EVALS, ids=[a[0] for a, _ in _EXACT_EVALS])
    def test_float_row_is_exact_row_rounded_once(self, capsys, argv, interval):
        # a seeded grid between two rational points of the interval, with
        # non-dyadic points; a function without x prints one value
        grid, count = [], 1
        if interval is not None:
            rng, (lo, hi) = random.Random(argv[0]), interval
            a, b = sorted(lo + (hi - lo) * Fraction(rng.randint(0, 97), 97) for _ in range(2))
            count = rng.randint(20, 60)
            grid = [f"--grid={a}:{b}:{count}"]
        code, exact, _ = run(capsys, "eval", *argv, *grid, "--exact")
        assert code == 0
        code, rounded, _ = run(capsys, "eval", *argv, *grid)
        assert code == 0
        header = len(grid)  # the "x,value" line of a grid
        exact_rows, float_rows = exact.splitlines()[header:], rounded.splitlines()[header:]
        assert len(exact_rows) == len(float_rows) == count
        for exact_row, float_row in zip(exact_rows, float_rows):
            want = [float(Fraction(v)) for v in exact_row.split(",")]
            got = [float(v) for v in float_row.split(",")]
            assert got == want, (exact_row, float_row)

    def test_legendre_past_the_float_range_is_usage_error(self, capsys):
        # P_1000(3) is about 1e765: the exact value cannot be rounded to a float
        code, out, err = run(capsys, "eval", "legendre", "n=1000", "x=3")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "too large for a float" in err and "Traceback" not in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        (
            ["registry", "--json"],
            ["entropy", "--op", "kantorovich", "--n", "3", "--k", "2", "--grid", "0:1:9"],
            ["eval", "hl", "a=1/2", "q=1", "alpha=2", "beta=1", "gamma=1", "delta=1", "x=1/4"],
            ["verify", "--id", "I45", "--json"],
        ),
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestGolden:
    """Exact outputs pinned by the sha256 of their stdout: a change to the
    exact layer must leave these bytes as they are."""

    @pytest.mark.parametrize(
        "argv, digest",
        (
            (["verify", "--all"],
             "10829309425f9f938fb75d3bb5e70b040031a36a311f1a56542eaa1381e7cebe"),
            (["verify", "--all", "--json"],
             "480352562ad44dc9a585522ddce0b4f998126212a225415dc547d4753062385a"),
            (["entropy", "--op", "kantorovich", "--n", "12", "--k", "3", "--grid", "0:1:129",
              "--json"],
             "e3b2652b78ef2ea0db2daec1e35be25b80217d781c12dbb70347e6524085e6c5"),
            (["entropy", "--op", "bspline", "--n", "8", "--sigma", "quad:1:1/2",
              "--grid=-2:2:33", "--json"],
             "89f8934bc04a42928fa97f94d8d641d68e776a2f36efaa60f2507b2f4d94c0d1"),
            (["eval", "hl", "a=1/2", "q=-20", "alpha=-40", "beta=1", "gamma=1", "delta=1",
              "--grid", "0:1:401"],
             "b52e0a7603f9c2319c7da563a6605364bb13061861a5ae3a264314c94cd46bc9"),
            (["eval", "hl", "a=2", "q=1/2", "alpha=1/2", "beta=3/2", "gamma=1", "delta=1",
              "--grid", "0:2/5:401"],
             "c810e2e412cc685ec9c8a64db1f27157999f8f0e62f8d0858a549e3e47d9b373"),
            (["eval", "hc", "p=0", "gamma=1", "delta=1/2", "alpha=1/2", "sigma=105",
              "--grid=-1:3/2:201"],
             "fe57fa98ae067033569247e458e37a03f4713f6bbac9736e0374d9a65586d0f9"),
            (["eval", "2f1", "a=-10", "b=1/2", "c=3/2", "--grid=-1:1:401"],
             "4950e192bdcf2bea3124586ae54d07af32c2406ff325913f1cf0de8e863d7aa9"),
            (["entropy", "--op", "kantorovich", "--n", "7", "--k", "1", "--grid", "0:1:33",
              "--json"],
             "7e5f72723f589fb4d7cb08f15cd368f907e2da13f73a7e3f0fcd333b52ed885d"),
            (["entropy", "--op", "kantorovich", "--n", "9", "--k", "4", "--grid", "0:1:33",
              "--json"],
             "3951b65d5a319d49e45a28ec5fb11a4cfcf11fa1f88aae53277a28f0075d8d60"),
            (["eval", "legendre", "n=12", "--grid=-1:1:41", "--exact"],
             "6054a7165f3f8e68fe28a73f6de10407de89b85f864d0917040cc4131d475f03"),
            (["eval", "F", "n=8", "--grid=0:1:33", "--exact"],
             "ac91ac4478a59566963381bd9e7f7a93a2cf8d399f36e10bd08191f1b1880616"),
            (["eval", "U", "n=6", "--grid=-1/2:2:33", "--exact"],
             "0eae8fa087666864363b76d4b0d1c38ce3059eed091d69ae7b224ea917f5b28e"),
            (["eval", "hc", "p=1/2", "gamma=3/2", "delta=1/2", "alpha=1/2", "sigma=1",
              "--grid=-3/4:3/4:41"],
             "eb36e68161f243f4c8b9d1cb048ae9b490d8c5443ea3e50844338ed96ee97777"),
            (["eval", "2f1", "a=1/2", "b=3/2", "c=2", "--grid=-3/4:3/4:41"],
             "3a12df777ab6ddbad73ae02799b8299daaaded0239be5525904ee82c2669ee92"),
            # float rows, each the correct rounding of the exact value at its
            # grid point (regression: 34 J rows and 7 F rows were not)
            (["eval", "J", "n=2", "--grid=-3/4:3/4:41"],
             "ed4954f454bf49c14eef42f49d53341034c22663418a084eb9fc91dd24baa181"),
            (["eval", "F", "n=8", "--grid=0:1:33"],
             "ac66ee4f5c08bee865fb1130f1411ab917736e6eb3d9d9c44128538e78a25546"),
            # --json layouts: float rows, exact rows, and the nested registry
            (["eval", "hl", "a=1/2", "q=-20", "alpha=-40", "beta=1", "gamma=1", "delta=1",
              "--grid", "0:1:41", "--json"],
             "8f00cd6f4176d42b747bd5251b7f6775e094aa9ee919aec287707d2b385bb017"),
            (["eval", "legendre", "n=12", "--grid=-1:1:41", "--exact", "--json"],
             "dfc8243ff2f691a4c72d0acc6732451982fcefa6b874024d345963af44fe433f"),
            (["registry", "--json"],
             "502cc78c8bc743d6aa6c938e37f520a30a5d4bbb1ebc503cd249986ad0531113"),
            # float rows of every float route: weight sums, Legendre, series;
            # the G rows were recorded from the closed form (3.4) over Fractions
            (["eval", "G", "n=4", "--grid=0:11/4:101", "--json"],
             "63200e4b0203bd3c3b0566ebf8c16591c46e46e88ec2157a52f98302c6376e91"),
            (["eval", "K", "n=2", "j=1", "--grid=0:2:101"],
             "8d604e96d984e5bf2269ab37d62c9d37f04e2aca91dfdbe777e16d5c93c7fed6"),
            # the Legendre rows are the exact values rounded once (regression:
            # 93 of the 123 rows at n = 8, 16, 24 were the float recurrence's)
            (["eval", "legendre", "n=16", "--grid=-1/2:1:41"],
             "2c79c72bcd76ae387f7e679fbb100cc6a4b9e2042179f1164284db6edc68da40"),
            (["eval", "hl", "a=2", "q=1/2", "alpha=1/2", "beta=3/2", "gamma=1", "delta=1",
              "--grid=-1/2:1/2:41", "--json"],
             "4780816dc63f6b56a0f722b5b7280fd9e18830f88ae2c4a45422f4cb7a067d85"),
            (["eval", "hc", "p=1", "gamma=2", "delta=0", "alpha=3/2", "sigma=6",
              "--grid=-3/4:3/4:41", "--json"],
             "0a2517f733cd95f7c266b358f08502a7516f3d979742c570e63c007691f7150d"),
            # large entropy grids, where each synchronicity check sorts
            (["entropy", "--op", "bspline", "--n", "4", "--sigma", "quad:1:1/2",
              "--grid=-1:1:2049", "--json"],
             "b7c13de1f268f09d30ff81005d6461a0042c3bbce3529dc2961ee74be1a44a5e"),
            (["entropy", "--op", "kantorovich", "--n", "6", "--k", "2", "--grid", "0:1:4097",
              "--json"],
             "49665df39386d5b8382eeaaf6199e6dc8b676e6b5058228683f4f6fc5a6227d8"),
            # float rows on the grid's integer form (U, a rational function
            # whose numerator is even) and one-point rows of the float routes
            (["eval", "U", "n=6", "--grid=-1/2:2:33"],
             "801144426093bebd2ca17a35bdbcb76ec7fffbf1eec65fb2d9f20d4fc3f46711"),
            (["eval", "G", "n=4", "x=7/3"],
             "bc68211c25ca93b73f2f36b277946340d1dbd50d04a2acf0c8a51f30e64762cd"),
            (["eval", "legendre", "n=24", "x=-5/7"],
             "c92dbc7e2c33a7657848e50291f2150863a2958f88ee4a07695521dc9db5d0b6"),
            (["eval", "J", "n=3", "x=9999/10000"],
             "fcba5fa4cfb74f86aa664f0e48ad80303cefd70a89836806a0efd95ac7bd3746"),
            (["eval", "hl", "a=1/2", "q=-20", "alpha=-40", "beta=1", "gamma=1", "delta=1",
              "x=2/5"],
             "9a64d4798eb61ad1a2ddbcf41943abf88c005f74357cf4c44931a65506f0c466"),
            # exact rows of J and G, recorded from kernel_sum at each point
            (["eval", "J", "n=3", "--grid=-3/4:3/4:41", "--exact"],
             "56b2c0cc3aea676df6e2faec5369607717bc775cf0c3b64b691a970e829875e4"),
            (["eval", "G", "n=4", "--grid=0:11/4:33", "--exact"],
             "e59052fd3ca1cb121770bcfb8947b82a5822501ddf16f9cef54fa2ac3c934d66"),
            # CSV entropy tables: a constant width on a non-dyadic grid with a
            # negative start, and Kantorovich rows on an inner grid
            (["entropy", "--op", "bspline", "--n", "5", "--sigma", "const:3/4", "--grid=-7/4:5/4:41"],
             "00f40d45d118bcf6d964a386481ef809063db2536814a92b28cf4de77b02b004"),
            (["entropy", "--op", "kantorovich", "--n", "10", "--k", "2", "--grid=1/16:15/16:37"],
             "915d46b2b17bdc53ecf1ca89b51a9a6873898aed689a49ee24fc749b22129336"),
        ),
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

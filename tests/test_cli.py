"""Command-line contract: exit codes, exact output strings, determinism."""

import hashlib
import json
import math

import pytest

from heunops import cli
from heunops.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_exact_constant(self, capsys):
        code, out, _ = run(capsys, "eval", "c_n", "n=3", "--exact")
        assert code == 0 and out == "33/40\n"

    def test_exact_weight_sum(self, capsys):
        code, out, _ = run(capsys, "eval", "F", "n=1", "x=1/4", "--exact")
        assert code == 0 and out == "5/8\n"

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
        assert len(cli._parse_grid("0:1:5")) == 5
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
             "dba842e07ca9ef42eea4da6f5a18e46fd1de15a3716cba370244766ebabff8d2"),
            (["verify", "--all", "--json"],
             "3c48dd784799761e471d5f710d750b1848d92bf756e1b7160247b6e2fd1fd9a6"),
            (["entropy", "--op", "kantorovich", "--n", "12", "--k", "3", "--grid", "0:1:129",
              "--json"],
             "e3b2652b78ef2ea0db2daec1e35be25b80217d781c12dbb70347e6524085e6c5"),
            (["entropy", "--op", "bspline", "--n", "8", "--sigma", "quad:1:1/2",
              "--grid=-2:2:33", "--json"],
             "89f8934bc04a42928fa97f94d8d641d68e776a2f36efaa60f2507b2f4d94c0d1"),
        ),
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

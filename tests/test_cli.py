import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liejet import cli, groups
from liejet.algebra import MissingAtomError
from liejet.cli import main

SRC = str(Path(groups.__file__).resolve().parents[1])


@pytest.fixture()
def v5_file(tmp_path):
    path = tmp_path / "v5.vf"
    path.write_text("xi1 = 2*x1; xi2 = 0; phi = 2*u")
    return str(path)


@pytest.fixture()
def v6_file(tmp_path):
    path = tmp_path / "v6.vf"
    path.write_text("xi1 = u; xi2 = 0; phi = 0")
    return str(path)


@pytest.fixture()
def element_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "Q": [["2", "0"], ["0", "1/2"]],
        "P": ["0", "0"],
        "D": ["0", "0"],
        "c": "1",
        "R": ["0", "0"],
        "d": "0",
    }))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


class TestCheck:
    def test_ma_generator_passes(self, capsys, v5_file):
        code, out = run(capsys, ["--n", "2", "check", "--eq", "ma",
                                 "--field", v5_file])
        assert code == 0
        assert "identically-zero" in out

    def test_am_dichotomy_exit_codes(self, capsys, v6_file):
        code, _ = run(capsys, ["--n", "2", "--theta", "1", "check",
                               "--eq", "am", "--field", v6_file])
        assert code == 1
        code, _ = run(capsys, ["--n", "2", "--theta", "3/4", "check",
                               "--eq", "am", "--field", v6_file])
        assert code == 0

    def test_json_report_shape(self, capsys, v6_file):
        code, rep = run_json(capsys, ["--n", "2", "--theta", "1",
                                      "--output", "json", "check",
                                      "--eq", "am", "--field", v6_file])
        assert code == 1
        assert rep["schema"] == 1
        assert rep["command"] == "check"
        assert rep["config"]["theta"] == "1"
        assert rep["results"][0]["verdict"] == "fails"
        # rationals ride as strings
        assert isinstance(rep["results"][0]["residual"], str)
        assert "/" in rep["results"][0]["residual"] or \
            rep["results"][0]["residual"].lstrip("-").isdigit()

    def test_custom_equation(self, capsys, tmp_path):
        field = tmp_path / "vu.vf"
        field.write_text("phi = 1")
        code, out = run(capsys, [
            "--n", "2", "check", "--eq", "custom",
            "--expr", "u[1,1]*u[2,2] - u[1,2]^2 - 1",
            "--field", str(field)])
        assert code == 0
        assert "identically-zero" in out

    def test_json_error_object(self, capsys, tmp_path):
        bad = tmp_path / "bad.vf"
        bad.write_text("phi = u[1,1]")
        code, rep = run_json(capsys, ["--n", "2", "--output", "json",
                                      "check", "--eq", "ma",
                                      "--field", str(bad)])
        assert code == 1
        assert rep["error"]["type"] == "JetInCoefficientError"

    def test_sampling_exhausted_is_an_error_report(self, capsys, tmp_path):
        # u[1,1] = -1 contradicts the convex Hessian every sample draws
        field = tmp_path / "f.vf"
        field.write_text("phi = x1^2")
        code = main(["--output", "json", "check", "--eq", "custom",
                     "--expr", "u[1,1] + 1", "--field", str(field)])
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out)["error"]["type"] == "SamplingExhaustedError"
        assert "Traceback" not in err


class TestClassify:
    @pytest.mark.parametrize("theta,expected", [("1", 10), ("3/4", 12)])
    def test_am_dimensions(self, capsys, theta, expected):
        code, rep = run_json(capsys, ["--n", "2", "--theta", theta,
                                      "--output", "json",
                                      "classify", "--eq", "am"])
        assert code == 0
        assert rep["results"][0]["dimension"] == expected
        assert rep["results"][0]["matches"]

    def test_ma_dimension(self, capsys):
        code, rep = run_json(capsys, ["--n", "2", "--output", "json",
                                      "classify", "--eq", "ma"])
        assert code == 0
        assert rep["results"][0]["dimension"] == 9

    def test_ma_n1_is_sl3(self, capsys):
        # u'' = 1: the 8-dimensional sl(3) needs degree-4 coefficients
        code, rep = run_json(capsys, ["--n", "1", "--degree", "4", "--output",
                                      "json", "classify", "--eq", "ma"])
        assert code == 0
        assert rep["results"][0]["dimension"] == 8
        assert rep["results"][0]["expected"] == 8
        code, rep = run_json(capsys, ["--n", "1", "--degree", "2", "--output",
                                      "json", "classify", "--eq", "ma"])
        assert code == 1
        assert rep["results"][0]["dimension"] == 6
        assert not rep["results"][0]["matches"]


class TestDetermining:
    def test_listing(self, capsys):
        code, rep = run_json(capsys, ["--n", "2", "--output", "json",
                                      "determining", "--eq", "ma"])
        assert code == 0
        eqs = rep["results"][0]["equations"]
        assert eqs and all(e.endswith("= 0") for e in eqs)
        assert "xi1_u = 0" in eqs

    def test_am_needs_theta(self, capsys):
        code, _ = run(capsys, ["--n", "2", "determining", "--eq", "am"])
        assert code == 1


class TestBracketTable:
    @pytest.mark.parametrize("basis", ["ma", "am-generic", "am-special"])
    def test_closed(self, capsys, basis):
        code, rep = run_json(capsys, ["--n", "2", "--output", "json",
                                      "bracket-table", "--basis", basis])
        assert code == 0
        assert rep["results"][0]["closed"]

    def test_ma_basis_below_n2_is_an_error_report(self, capsys):
        code = main(["--n", "1", "--output", "json", "bracket-table",
                     "--basis", "ma"])
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ValueError"
        assert "Traceback" not in err


class TestOrbit:
    def test_quadratic_transport(self, capsys, element_file):
        code, rep = run_json(capsys, [
            "--n", "2", "--theta", "3/4", "--output", "json",
            "orbit", "--eq", "am", "--element", element_file,
            "--solution", "quadratic:identity", "--points", "3"])
        assert code == 0
        assert rep["results"][0]["passed"]
        assert rep["results"][0]["residual_polynomial_zero"]

    def test_residual_polynomial_built_once(self, capsys, element_file,
                                            monkeypatch):
        calls = []
        inner = groups.residual_polynomial

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(groups, "residual_polynomial", counting)
        monkeypatch.setattr(cli, "residual_polynomial", counting)
        code, rep = run_json(capsys, [
            "--n", "2", "--theta", "3/4", "--output", "json",
            "orbit", "--eq", "am", "--element", element_file,
            "--solution", "quadratic:identity", "--points", "3"])
        assert code == 0
        assert len(rep["results"][0]["residuals"]) == 3
        assert len(calls) == 1

    def test_zero_denominator_is_an_error_report(self, capsys, tmp_path):
        g = tmp_path / "g0.json"
        g.write_text(json.dumps({"Q": [["1/0", "0"], ["0", "1"]]}))
        code = main(["--n", "2", "--theta", "3/4", "--output", "json",
                     "orbit", "--eq", "am", "--element", str(g),
                     "--solution", "quadratic:identity"])
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ZeroDivisionError"
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc", [[1, 2], {"Q": 5}, {"Q": [[1, 0], [0]]},
                                     {"Q": [[1, 0], [0, 1]], "P": [0]},
                                     {"Q": [[1, 0], [0, 1]], "c": None}])
    def test_malformed_element_is_an_error_report(self, capsys, tmp_path, doc):
        g = tmp_path / "bad.json"
        g.write_text(json.dumps(doc))
        code = main(["--n", "2", "--theta", "3/4", "--output", "json",
                     "orbit", "--eq", "am", "--element", str(g),
                     "--solution", "quadratic:identity"])
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ValueError"
        assert "Traceback" not in err

    def test_am1d_transport(self, capsys, tmp_path):
        g = tmp_path / "g1.json"
        g.write_text(json.dumps({"Q": [["2"]], "c": "3", "D": ["1/3"]}))
        code, rep = run_json(capsys, [
            "--n", "1", "--theta", "1/2", "--output", "json",
            "orbit", "--eq", "am", "--element", str(g),
            "--solution", "am1d:theta=1/2,a=1,b=1", "--points", "3"])
        assert code == 0
        assert rep["results"][0]["passed"]

    def test_local_element_on_a_callable_is_an_error_report(self, capsys,
                                                           tmp_path):
        g = tmp_path / "g1.json"
        g.write_text(json.dumps({"Q": [["1"]], "P": ["1/10"],
                                 "regime": "am-special"}))
        code = main(["--n", "1", "--theta", "1/2", "--output", "json",
                     "orbit", "--eq", "am", "--element", str(g),
                     "--solution", "am1d:theta=1/2,a=1,b=1"])
        out, err = capsys.readouterr()
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert "local element" in error["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("points", ["0", "-2"])
    @pytest.mark.parametrize("n, element, solution", [
        ("2", {"Q": [["2", "0"], ["0", "1/2"]]}, "quadratic:identity"),
        ("1", {"Q": [["2"]], "c": "3"}, "am1d:theta=1/2,a=1,b=1")])
    def test_points_below_one_is_an_error_report(self, capsys, tmp_path,
                                                  points, n, element,
                                                  solution):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(element))
        code = main(["--n", n, "--theta", "1/2", "--output", "json",
                     "orbit", "--eq", "am", "--element", str(g),
                     "--solution", solution, "--points", points])
        out, err = capsys.readouterr()
        assert code == 1
        rep = json.loads(out)
        assert rep["error"]["type"] == "ValueError"
        assert rep["error"]["message"] == "points must be >= 1"
        assert "Traceback" not in err


    def test_local_element_on_a_polynomial_is_exact(self, capsys, tmp_path,
                                                    monkeypatch):
        def no_float_path(*args, **kwargs):
            raise AssertionError("finite differences reached")

        monkeypatch.setattr(groups, "fd_jet_values", no_float_path)
        g = tmp_path / "shear.json"
        g.write_text(json.dumps({"Q": [["1", "0"], ["0", "1"]],
                                 "P": ["1/10", "0"], "regime": "am-special"}))
        for theta, want in (("3/4", 0), ("1", 1)):
            code, rep = run_json(capsys, [
                "--n", "2", "--theta", theta, "--output", "json", "orbit",
                "--eq", "am", "--element", str(g),
                "--solution", "quadratic:diag=1,2", "--points", "2"])
            res = rep["results"][0]
            assert code == want
            assert res["passed"] is res["residual_polynomial_zero"] is (want == 0)
            for values in (*res["points"], *res["source_points"],
                           res["residuals"]):
                assert all(isinstance(v, str) for v in values)
                [Fraction(v) for v in values]
            assert (set(res["residuals"]) == {"0"}) is (want == 0)

    @pytest.mark.parametrize("element", [
        # delta = x1 vanishes at the center
        {"Q": [["0", "0"], ["0", "1"]], "P": ["1", "0"], "D": ["1", "0"],
         "c": "0"},
        # delta = 1 - 9 x1 / 2 vanishes at the first source point (2/9, -1/3)
        {"Q": [["1", "0"], ["0", "1"]], "P": ["-9/2", "0"]}])
    def test_degenerate_point_map_is_an_error_report(self, capsys, tmp_path,
                                                     element):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({**element, "regime": "am-special"}))
        code = main(["--n", "2", "--theta", "3/4", "--output", "json",
                     "orbit", "--eq", "am", "--element", str(g),
                     "--solution", "quadratic:identity", "--points", "1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotInvertibleHereError"
        assert "Traceback" not in err


def test_closed_pipe_is_not_a_traceback(tmp_path):
    (tmp_path / "v.vf").write_text("xi1 = 1")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "liejet.cli", "--n", "2", "check",
             "--eq", "custom", "--expr", "u[1,1]*u[2,2] - u[1,2]^2 - 1",
             "--field", "v.vf", "--output", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


class TestSample:
    def test_missing_atom_is_an_error_report(self, capsys, monkeypatch):
        def missing(*args):
            raise MissingAtomError("x3")

        monkeypatch.setattr(cli, "sample_on_variety", missing)
        code = main(["--n", "2", "--output", "json", "sample", "--eq", "ma"])
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out)["error"] == {"type": "MissingAtomError",
                                            "message": "x3"}
        assert "Traceback" not in err

    def test_points_and_determinism(self, capsys):
        argv = ["--n", "2", "--theta", "3/4", "--seed", "99",
                "--output", "json", "sample", "--eq", "am", "--count", "3"]
        code1, out1 = run(capsys, argv)
        code2, out2 = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical reports
        rep = json.loads(out1)
        assert len(rep["results"]) == 3
        assert all("u[1,1]" in point for point in rep["results"])

    def test_seed_changes_points(self, capsys):
        base = ["--n", "2", "--output", "json", "sample", "--eq", "ma",
                "--count", "2"]
        _, rep1 = run_json(capsys, ["--seed", "1"] + base)
        _, rep2 = run_json(capsys, ["--seed", "2"] + base)
        assert rep1["results"] != rep2["results"]

    def test_seed_env_var_default(self, capsys, monkeypatch):
        base = ["--n", "2", "--output", "json", "sample", "--eq", "ma",
                "--count", "2"]
        monkeypatch.setenv("LIEJET_SEED", "12345")
        _, from_env = run_json(capsys, base)
        monkeypatch.delenv("LIEJET_SEED")
        _, from_flag = run_json(capsys, ["--seed", "12345"] + base)
        assert from_env["results"] == from_flag["results"]
        assert from_env["config"]["seed"] == 12345


class TestProlong:
    def test_coefficients_with_explicit_diff(self, capsys, tmp_path):
        field = tmp_path / "vx.vf"
        field.write_text("xi1 = x1; xi2 = 0; phi = 0")
        code, rep = run_json(capsys, ["--n", "2", "--output", "json",
                                      "prolong", "--field", str(field),
                                      "--order", "2", "--explicit"])
        assert code == 0
        by_index = {r["index"]: r for r in rep["results"]}
        assert by_index["1,1"]["coefficient"] == "-2*u[1,1]"
        assert all(r["explicit_matches"] for r in rep["results"])


class TestConfigValidation:
    def test_bad_theta(self, capsys):
        assert main(["--theta", "0", "sample", "--eq", "ma"]) == 2

    def test_bad_n(self, capsys):
        assert main(["--n", "0", "sample", "--eq", "ma"]) == 2

    def test_decimal_theta_rejected(self, capsys):
        assert main(["--theta", "0.75", "sample", "--eq", "am"]) == 2

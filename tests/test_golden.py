"""Byte-for-byte comparison of CLI JSON reports with stored golden files.

Each case runs one fast command through `main(argv)` with `--output json`
and compares stdout with `tests/golden/<name>.json` and the exit code with
the one recorded here.  The set covers every `check` verdict and every
subcommand, so a refactor that must not change results (verdicts, counts,
witnesses, term order, formatting) is checked against fixed reports.
"""

import json
from pathlib import Path

import pytest

from liejet.cli import main

GOLDEN = Path(__file__).parent / "golden"

DILATION = "xi1 = 2*x1; xi2 = 0; phi = 2*u"
GRAPH_SHEAR = "xi1 = u; xi2 = 0; phi = 0"
PROLONG_FIELD = "xi1 = x1*u; xi2 = x2^2; phi = u^2 + x1"
# the field of the benchmark's N=3 prolongation job
PROLONG_FIELD_N3 = ("xi1 = x1*u + x2^2\nxi2 = u^2 - x3\nxi3 = x1*x2\n"
                    "phi = x1*x2*u + u^2\n")
ELEMENT = json.dumps({"Q": [["2", "0"], ["0", "1/2"]], "P": ["0", "0"],
                      "D": ["1", "0"], "c": "3", "R": ["1/2", "0"], "d": "1"})
DET_MINUS_ONE_X1 = "(u[1,1]*u[2,2] - u[1,2]^2 - 1)*x1"
# the local graph shear x1 -> x1 + u/10 (exact residuals)
SHEAR = json.dumps({"Q": [["1", "0"], ["0", "1"]], "P": ["1/10", "0"],
                    "D": ["0", "0"], "c": "1", "R": ["0", "0"], "d": "0",
                    "regime": "am-special"})
# a P = 0 element moving the N=1 closed-form family
MOVE_1D = json.dumps({"Q": [["2"]], "P": ["0"], "D": ["1/3"], "c": "3",
                      "R": ["1/5"], "d": "2"})

# name -> (exit code, liejet arguments, files written into the working dir)
CASES = {
    "check-ma-dilation": (
        0, ["--n", "2", "check", "--eq", "ma", "--field", "v.vf"],
        {"v.vf": DILATION}),
    "check-am-shear-t3_4": (
        0, ["--n", "2", "--theta", "3/4", "check", "--eq", "am",
            "--field", "v.vf"], {"v.vf": GRAPH_SHEAR}),
    "check-am-shear-t1": (
        1, ["--n", "2", "--theta", "1", "check", "--eq", "am",
            "--field", "v.vf"], {"v.vf": GRAPH_SHEAR}),
    "check-custom-x1": (
        0, ["--n", "2", "check", "--eq", "custom", "--expr", DET_MINUS_ONE_X1,
            "--field", "v.vf"], {"v.vf": "xi1 = 1"}),
    "classify-ma": (0, ["--n", "2", "classify", "--eq", "ma"], {}),
    "classify-am-t3_4": (
        0, ["--n", "2", "--theta", "3/4", "classify", "--eq", "am"], {}),
    "determining-ma": (0, ["--n", "2", "determining", "--eq", "ma"], {}),
    "determining-am-t1_2": (
        0, ["--n", "2", "--theta", "1/2", "determining", "--eq", "am"], {}),
    "determining-am-t3_4": (
        0, ["--n", "2", "--theta", "3/4", "determining", "--eq", "am"], {}),
    # the alpha! column scaling with u-exponents >= 2 and x-exponents up to 4
    "classify-am-t1-d3": (
        0, ["--n", "2", "--theta", "1", "--degree", "3", "classify",
            "--eq", "am"], {}),
    "classify-ma-n1-d4": (
        0, ["--n", "1", "--degree", "4", "classify", "--eq", "ma"], {}),
    "classify-ma-n3-d3": (
        0, ["--n", "3", "--degree", "3", "classify", "--eq", "ma"], {}),
    "bracket-table-ma": (0, ["--n", "2", "bracket-table", "--basis", "ma"], {}),
    "bracket-table-am-generic": (
        0, ["--n", "2", "bracket-table", "--basis", "am-generic"], {}),
    "bracket-table-am-special": (
        0, ["--n", "2", "bracket-table", "--basis", "am-special"], {}),
    "bracket-table-am-special-n3": (
        0, ["--n", "3", "bracket-table", "--basis", "am-special"], {}),
    "prolong-explicit-n3-o4": (
        0, ["--n", "3", "prolong", "--field", "v.vf", "--order", "4",
            "--explicit"], {"v.vf": PROLONG_FIELD_N3}),
    "prolong-explicit-o4": (
        0, ["--n", "2", "prolong", "--field", "v.vf", "--order", "4",
            "--explicit"], {"v.vf": PROLONG_FIELD}),
    "sample-am": (0, ["--n", "2", "sample", "--eq", "am", "--count", "5"], {}),
    "orbit-quadratic": (
        0, ["--n", "2", "--theta", "3/4", "orbit", "--eq", "am",
            "--element", "g.json", "--solution", "quadratic:diag=2,1/3",
            "--points", "3"], {"g.json": ELEMENT}),
    "orbit-shear-t3_4": (
        0, ["--n", "2", "--theta", "3/4", "orbit", "--eq", "am",
            "--element", "g.json", "--solution", "quadratic:diag=1,2",
            "--points", "3"], {"g.json": SHEAR}),
    "orbit-am1d-t1_2": (
        0, ["--n", "1", "--theta", "1/2", "orbit", "--eq", "am",
            "--element", "g.json", "--solution", "am1d:theta=1/2,a=1,b=1",
            "--points", "5"], {"g.json": MOVE_1D}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, tmp_path, monkeypatch):
    exit_code, argv, files = CASES[name]
    for file_name, text in files.items():
        (tmp_path / file_name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--output", "json"]) == exit_code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()

"""Which functions of the liejet package no CLI call enters.

Every golden CLI call (`test_golden.CASES`) and the calls in `EXTRA` run in
this process under `sys.setprofile`.  Every function and method of
`src/liejet`, nested ones included, is found with `ast`.  The functions
never entered must be exactly the ones in `NOT_REACHED`, each with the
reason it is kept: code that no CLI call runs is either used, listed here
with its reason, or deleted.
"""

import ast
import json
import sys
from functools import partial
from pathlib import Path

import liejet
from liejet import algebra, cli, dsl, equations, groups, jets, symmetry
from test_golden import CASES, PROLONG_FIELD

SRC = Path(liejet.__file__).resolve().parent
MODULES = (algebra, cli, dsl, equations, groups, jets, symmetry)

MA_ELEMENT = json.dumps({"Q": [["2", "0"], ["0", "1/2"]], "D": ["1", "0"],
                         "c": "1"})

# name -> (exit code, liejet arguments, files written into the working dir)
EXTRA = {
    "prolong-recursive-only": (
        0, ["--n", "2", "prolong", "--field", "v.vf", "--order", "2"],
        {"v.vf": PROLONG_FIELD}),
    "orbit-ma": (
        0, ["--n", "2", "orbit", "--eq", "ma", "--element", "g.json",
            "--solution", "quadratic:identity", "--points", "2"],
        {"g.json": MA_ELEMENT}),
    "sample-ma": (0, ["--n", "2", "sample", "--eq", "ma", "--count", "2"], {}),
    "check-custom-theta": (
        0, ["--n", "2", "--theta", "3/4", "check", "--eq", "custom",
            "--expr", "theta*u[1,1]*u[2,2] - u[1,2]^2 - 1", "--field", "v.vf"],
        {"v.vf": "xi1 = 1"}),
    "error-prolong-order-0": (
        1, ["--n", "2", "prolong", "--field", "v.vf", "--order", "0"],
        {"v.vf": PROLONG_FIELD}),
    "error-dsl-parse": (
        1, ["--n", "2", "check", "--eq", "custom", "--expr", "u[1,1] +",
            "--field", "v.vf"], {"v.vf": "xi1 = 1"}),
}

NOT_REACHED = {
    "algebra.Poly.__bool__": "protocol method",
    "algebra.Poly.__repr__": "protocol method",
    "algebra.Poly.__rsub__": "protocol method",
    "algebra.Poly.collect": "tracer hook (perfbench/tracer.py wraps it)",
    "groups.SolutionSample.gradient": "tracer hook (perfbench/tracer.py wraps it)",
    "groups.make_ma_element": "oracle: the second-order group element",
    "symmetry._Equations.equations": "tracer hook (perfbench/tracer.py reads it)",
    "symmetry.satisfies_determining": "oracle of the determining system",
    "symmetry.degree_certified": "certificate: the degree bound of a count",
    "symmetry.mutual_span": "oracle: two-sided span of two bases",
    "symmetry.NotClosedError.__init__": "error path only",
}


def _functions() -> dict:
    """(file, first line) -> dotted name of every function in the package;
    the first line of a decorated function is its first decorator's."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno,
                             *(d.lineno for d in child.decorator_list)])
                out[path, first] = name
                walk(child, name, path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", path)
            else:
                walk(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)
    return out


def _clear_caches() -> None:
    # a cache filled by an earlier test would hide the functions it skips
    for module in MODULES:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _profile(codes: set, frame, event, arg) -> None:
    if event == "call":
        codes.add(frame.f_code)


def test_unreached_functions_are_listed(tmp_path, monkeypatch, capsys):
    functions = _functions()
    calls = {**CASES, **EXTRA}
    for name, (_, _, files) in calls.items():
        (tmp_path / name).mkdir()
        for file_name, text in files.items():
            (tmp_path / name / file_name).write_text(text)
    _clear_caches()
    codes: set = set()
    exit_codes = {}
    previous = sys.getprofile()
    sys.setprofile(partial(_profile, codes))
    try:
        for name, (_, argv, _) in calls.items():
            monkeypatch.chdir(tmp_path / name)
            exit_codes[name] = cli.main([*argv, "--output", "json"])
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert exit_codes == {name: call[0] for name, call in calls.items()}
    entered = {functions.get((Path(c.co_filename).resolve(), c.co_firstlineno))
               for c in codes}
    never = set(functions.values()) - entered
    assert sorted(never) == sorted(NOT_REACHED)

"""The job lists of the three workloads and the answer each job must give.

Every expected answer comes from the mathematics, not from the program's
own output:

* the algebra of det D^2 u = 1 has dimension (N+1)^2 at every N and ansatz
  degree;
* the fourth-order algebra has dimension N^2 + 2N + 2, plus N graph shears
  at the special parameter theta = (N+1)/(N+2) (12 at N=2, theta=3/4, and
  10 at every other theta);
* the symmetry condition is linear, so a rational combination of
  classified generators is a symmetry, and adding one non-symmetry (a graph
  shear away from the special theta, or phi = x1^2) makes it fail;
* classified bases close under the bracket;
* a graph-shear element transports solutions at the special theta only.

A job whose inputs do not depend on the workload seed is "fixed"; the
`results` JSON and exit code of every exact fixed job are also compared with
digests captured at the parent commit (see digests.json).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

PASSING_VERDICTS = ("identically-zero", "multiplier-found", "zero-on-variety")


@dataclass(frozen=True)
class Job:
    id: str
    args: tuple[str, ...]  # liejet arguments; --output json is added
    expect: Callable[[int, list], str | None]  # (exit, results) -> problem
    files: tuple[tuple[str, str], ...] = ()  # (name, text) written beside it
    digest: bool = False
    timeout_s: float = 60.0
    known_failure: str | None = None  # why the job gives a known wrong answer
    # (exit, results) -> True when the answer is exactly that wrong answer
    known_answer: Callable[[int, list], bool] | None = None


# -- expectations ----------------------------------------------------------------


def _expect_exit(code: int, exit_code: int) -> str | None:
    if exit_code != code:
        return f"exit code {exit_code}, expected {code}"
    return None


def dimension(expected: int):
    def check(exit_code, results):
        got = results[0]["dimension"]
        if got != expected:
            return f"dimension {got}, expected {expected}"
        return _expect_exit(0, exit_code)
    return check


def prolongations_agree(exit_code, results):
    if not results or not all(r["explicit_matches"] for r in results):
        return "recursive and explicit prolongations differ"
    return _expect_exit(0, exit_code)


def determining_listed(exit_code, results):
    if not results[0]["equations"] or not results[0]["unknowns"]:
        return "empty determining system"
    return _expect_exit(0, exit_code)


def closed(exit_code, results):
    if results[0]["closed"] is not True:
        return "bracket table not closed"
    return _expect_exit(0, exit_code)


def verdict(passes: bool, exact: str | None = None):
    def check(exit_code, results):
        got = results[0]["verdict"]
        if passes and got not in PASSING_VERDICTS:
            return f"verdict {got}, expected a symmetry"
        if not passes and (got != "fails" or results[0]["residual"] == "0"):
            return f"verdict {got}, expected fails with a nonzero witness"
        if exact is not None and got != exact:
            return f"verdict {got}, expected {exact}"
        return _expect_exit(0 if passes else 1, exit_code)
    return check


def sample_count(count: int):
    def check(exit_code, results):
        if len(results) != count:
            return f"{len(results)} points, expected {count}"
        return _expect_exit(0, exit_code)
    return check


def orbit(passes: bool):
    def check(exit_code, results):
        if results[0]["passed"] is not passes:
            residuals = [abs(float(v)) for v in results[0]["residuals"]]
            return (f"orbit {'FAIL' if passes else 'PASS'} (max residual "
                    f"{max(residuals):.3g}), expected "
                    f"{'PASS' if passes else 'FAIL'}")
        return _expect_exit(0 if passes else 1, exit_code)
    return check


def false_fail_at(point: int, low: float, high: float):
    """A float orbit that FAILs only through one point: exit 1, every
    residual below the tolerance except the one at `point` (1-based), which
    lies in [low, high)."""
    def matches(exit_code, results):
        res = results[0]
        values = [abs(float(v)) for v in res["residuals"]]
        return (exit_code == 1 and res["passed"] is False
                and len(values) >= point
                and all(low <= v < high if i == point - 1
                        else v < res["tolerance"]
                        for i, v in enumerate(values)))
    return matches


# -- generators as DSL text --------------------------------------------------------
# A point field is a map component -> {monomial: coefficient}, with
# components "xi1".."xiN", "phi" and monomials written in the DSL.

Field = dict[str, dict[str, Fraction]]


def _gen(**components) -> Field:
    return {c: {m: Fraction(v) for m, v in terms.items()}
            for c, terms in components.items()}


def ma_basis(n: int) -> list[Field]:
    """The (N+1)^2 generators of det D^2 u = 1."""
    out = [_gen(**{f"xi{i}": {"1": 1}}) for i in range(1, n + 1)]
    out.append(_gen(phi={"1": 1}))
    out += [_gen(phi={f"x{i}": 1}) for i in range(1, n + 1)]
    out += [_gen(**{f"xi{i}": {f"x{j}": 1}})
            for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    out += [_gen(**{f"xi{i}": {f"x{i}": 1}, f"xi{i + 1}": {f"x{i + 1}": -1}})
            for i in range(1, n)]
    out.append(_gen(xi1={"x1": n}, phi={"u": 2}))
    return out


def am_basis(n: int, special: bool) -> list[Field]:
    """N^2 + 2N + 2 fourth-order generators, plus the N graph shears
    u d/dx^i at the special theta."""
    out = [_gen(**{f"xi{i}": {"1": 1}}) for i in range(1, n + 1)]
    out += [_gen(phi={"1": 1}), _gen(phi={"u": 1})]
    out += [_gen(phi={f"x{i}": 1}) for i in range(1, n + 1)]
    out += [_gen(**{f"xi{i}": {f"x{j}": 1}})
            for i in range(1, n + 1) for j in range(1, n + 1)]
    if special:
        out += [graph_shear(i) for i in range(1, n + 1)]
    return out


def graph_shear(i: int = 1) -> Field:
    return _gen(**{f"xi{i}": {"u": 1}})


NON_SYMMETRY = _gen(phi={"x1^2": 1})


def _rand_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
                    rng.choice((1, 2, 3, 4)))


def combination(rng: random.Random, fields: list[Field]) -> Field:
    """A rational combination with every coefficient nonzero."""
    out: Field = {}
    for f in fields:
        c = _rand_coeff(rng)
        for comp, terms in f.items():
            acc = out.setdefault(comp, {})
            for mono, v in terms.items():
                acc[mono] = acc.get(mono, Fraction(0)) + c * v
    return out


def field_text(f: Field) -> str:
    lines = []
    for comp in sorted(f):
        terms = [f"({c})*{m}" if m != "1" else f"({c})"
                 for m, c in sorted(f[comp].items()) if c]
        lines.append(f"{comp} = {' + '.join(terms) or '0'}")
    return "\n".join(lines) + "\n"


# -- the workloads -----------------------------------------------------------------

PROLONG_FIELD = "xi1 = x1*u + x2^2\nxi2 = u^2 - x3\nxi3 = x1*x2\nphi = x1*x2*u + u^2\n"


def derive_jobs() -> list[Job]:
    jobs = [Job("prolong-n3-o4", ("--n", "3", "prolong", "--field", "v.vf",
                                  "--order", "4", "--explicit"),
                prolongations_agree, files=(("v.vf", PROLONG_FIELD),))]
    for n, degree in ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (5, 2), (4, 3)):
        jobs.append(Job(f"classify-ma-n{n}-d{degree}",
                        ("--n", str(n), "--degree", str(degree),
                         "classify", "--eq", "ma"),
                        dimension((n + 1) ** 2)))
    for theta, degree in (("1/2", 2), ("1", 2), ("2", 2), ("3/4", 2),
                          ("3/4", 3)):
        special = Fraction(theta) == Fraction(3, 4)
        jobs.append(Job(f"classify-am-n2-t{theta.replace('/', '_')}-d{degree}",
                        ("--n", "2", "--theta", theta, "--degree", str(degree),
                         "classify", "--eq", "am"),
                        dimension(12 if special else 10)))
    jobs.append(Job("determining-am-n2-t3_4",
                    ("--n", "2", "--theta", "3/4", "determining", "--eq", "am"),
                    determining_listed))
    for basis in ("ma", "am-special"):
        jobs.append(Job(f"brackets-{basis}-n3",
                        ("--n", "3", "bracket-table", "--basis", basis), closed))
    return [Job(j.id, j.args, j.expect, j.files, digest=True) for j in jobs]


def check_jobs(seed: int) -> list[Job]:
    jobs = []

    def seeded(job_id, eq, theta, fields, passes, exact=None):
        rng = random.Random(f"{seed}:{job_id}")
        combo = combination(rng, fields)
        jobs.append(Job(job_id, ("--n", "3", "--seed", str(seed),
                                 "--theta", theta, "check", "--eq", eq,
                                 "--field", "v.vf"),
                        verdict(passes, exact),
                        files=(("v.vf", field_text(combo)),)))

    am_special = am_basis(3, special=True)
    am_generic = am_basis(3, special=False)
    ma = ma_basis(3)
    seeded("am-t4_5-special", "am", "4/5", am_special, True)
    seeded("am-t4_5-generic", "am", "4/5", am_generic, True)
    seeded("am-t4_5-nonsym", "am", "4/5", am_special + [NON_SYMMETRY], False)
    seeded("am-t1-generic", "am", "1", am_generic, True)
    seeded("am-t1-shear", "am", "1", am_generic + [graph_shear(2)], False)
    seeded("am-t1-nonsym", "am", "1", am_generic + [NON_SYMMETRY], False)
    # every generator of det D^2 u = 1 annihilates it identically
    seeded("ma-basis", "ma", "sym", ma, True, exact="identically-zero")
    seeded("ma-shear", "ma", "sym", ma + [graph_shear(3)], False)
    seeded("ma-nonsym", "ma", "sym", ma + [NON_SYMMETRY], False)

    # product equations (det - 1) * g: the translation or shift leaves only a
    # multiple of det - 1, which no exact division by F certifies, so the
    # verdict is the sampled one
    det2 = "u[1,1]*u[2,2] - u[1,2]^2"
    for job_id, factor, field in (("custom-x1", "x1", "xi1 = 1\n"),
                                  ("custom-u", "u", "phi = 1\n")):
        jobs.append(Job(job_id, ("--n", "2", "check", "--eq", "custom",
                                 "--expr", f"({det2} - 1)*{factor}",
                                 "--field", "v.vf"),
                        verdict(True, exact="zero-on-variety"),
                        files=(("v.vf", field),), digest=True))
    jobs.append(Job("sample-am-n3-t4_5",
                    ("--n", "3", "--theta", "4/5", "sample", "--eq", "am",
                     "--count", "20"),
                    sample_count(20), digest=True))
    return jobs


def _element(q, p=None, dvec=None, c=1, r=None, d=0, regime="am-special") -> str:
    n = len(q)
    data = {"Q": [[str(Fraction(v)) for v in row] for row in q],
            "P": [str(Fraction(v)) for v in p or [0] * n],
            "D": [str(Fraction(v)) for v in dvec or [0] * n],
            "c": str(Fraction(c)),
            "R": [str(Fraction(v)) for v in r or [0] * n],
            "d": str(Fraction(d)),
            "regime": regime}
    return json.dumps(data)


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transport_jobs() -> list[Job]:
    jobs = []

    def orbit_job(job_id, n, theta, element, solution, points, passes,
                  exact=False, timeout_s=60.0, known_failure=None,
                  known_answer=None):
        jobs.append(Job(job_id, ("--n", str(n), "--theta", theta, "orbit",
                                 "--eq", "am", "--element", "g.json",
                                 "--solution", solution,
                                 "--points", str(points)),
                        orbit(passes), files=(("g.json", element),),
                        digest=exact, timeout_s=timeout_s,
                        known_failure=known_failure,
                        known_answer=known_answer))

    # local graph shear x -> x + P u (P != 0): a symmetry only at theta = 3/4
    shear2 = _element(_identity(2), p=["1/10", 0])
    rotation2 = _element([["63/65", 0], [0, 1]], p=["-16/65", 0],
                         dvec=["16/65", 0], c="63/65")
    for theta, passes in (("3/4", True), ("1", False)):
        tag = theta.replace("/", "_")
        orbit_job(f"shear-n2-t{tag}", 2, theta, shear2, "quadratic:diag=1,2",
                  3, passes)
        orbit_job(f"rotation-n2-t{tag}", 2, theta, rotation2,
                  "quadratic:identity", 3, passes)
    # P = 0 elements on the N=1 closed-form family
    moved = _element([[2]], dvec=["1/3"], c=3, r=["1/5"], d=2,
                     regime="am-generic")
    for theta in ("1/2", "1"):
        orbit_job(f"am1d-t{theta.replace('/', '_')}", 1, theta, moved,
                  f"am1d:theta={theta},a=1,b=1", 5, True)
    # an exact polynomial transport
    orbit_job("exact-n3-t4_5", 3, "4/5",
              _element([[2, 0, 0], [0, 1, 0], [0, 0, "1/2"]], dvec=[1, 0, -1],
                       c=3, r=[1, 2, 3], d=5, regime="am-generic"),
              "quadratic:diag=1,2,3", 5, True, exact=True)
    orbit_job("shear-n3-t4_5-5pt", 3, "4/5", _element(_identity(3),
                                                      p=["1/10", 0, 0]),
              "quadratic:diag=1,2,3", 5, True, timeout_s=150.0,
              known_failure="false FAIL: finite-difference residual 1.89e-6 "
                            "at point 4 of 5 against the 1e-6 tolerance; "
                            "the 3- and 4-point runs pass",
              known_answer=false_fail_at(4, 1e-6, 1e-5))
    return jobs


WORKLOADS = {
    "derive": lambda seed: derive_jobs(),
    "check": check_jobs,
    "transport": lambda seed: transport_jobs(),
}

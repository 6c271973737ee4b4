"""Command-line driver and machine-readable reports.

Subcommands: prolong, check, classify, determining, bracket-table, orbit,
sample.  Output is human text or JSON (schema 1); every rational is
serialized as a string "p/q" so exactness survives the wire, and JSON
reports are byte-identical for identical configurations (timing is only
reported in text mode).  Exit code 0 means every requested check passed;
an engine error becomes a typed error report with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction

# Only what argument parsing and every subcommand share is imported here;
# each subcommand imports the rest of the engine itself, so a process loads
# (and, without a bytecode cache, compiles) only the modules it runs.
from .algebra import CONST_BITS_MAX, KIND_JET, Poly, THETA, atom_str, coord, poly_str
from .equations import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    PdeSystem,
    build_affine_maximal,
    build_monge_ampere,
    sample_on_variety,
)

SCHEMA_VERSION = 1


class SessionConfig(namedtuple("SessionConfig",
                               "n theta seed trials ansatz_degree output")):
    """The shared options; a `theta` of None means symbolic."""

    def __new__(cls, n, theta, seed, trials, ansatz_degree, output):
        self = super().__new__(cls, n, theta, seed, trials, ansatz_degree, output)
        if self.n < 1:
            raise ValueError("N must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.theta is not None and self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.ansatz_degree < 1:
            raise ValueError("ansatz degree must be >= 1")
        if self.output not in ("text", "json"):
            raise ValueError("output must be 'text' or 'json'")
        return self

    def to_dict(self, reads_theta: bool) -> dict:
        """The options as reported; theta is null for a command without the
        parameter (MA, prolong, bracket-table)."""
        theta = "sym" if self.theta is None else str(self.theta)
        return {**self._asdict(), "theta": theta if reads_theta else None}


def _parse_theta(text: str) -> Fraction | None:
    if text == "sym":
        return None
    # exact rationals only: integer or p/q with integer parts, no decimals
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"theta must be an exact rational p/q or 'sym', got {text!r}"
        ) from None


def _build_system(config: SessionConfig, eq: str, expr: str | None) -> PdeSystem:
    if eq == "ma":
        return build_monge_ampere(config.n)
    if eq == "am":
        return build_affine_maximal(config.n, config.theta)
    if eq == "custom":
        if not expr:
            raise ValueError("--expr is required for a custom equation")
        from .dsl import parse_expression
        F = parse_expression(expr, config.n)
        if config.theta is not None:
            F = F.substitute_atoms({THETA: Poly.const(config.theta)})
        # the top variable: a highest-order jet in which F is affine-linear
        tops = [a for a in F.atoms()
                if a[0] == KIND_JET and F.diff(a).diff(a).is_zero]
        if not tops:
            raise ValueError("no jet variable occurs affine-linearly; "
                             "cannot sample this equation")
        return PdeSystem(n=config.n, F=F,
                         top_var=max(tops, key=lambda a: (len(a[1]), a)))
    raise ValueError(f"unknown equation {eq!r}")


def _jetpoint_dict(pt: dict) -> dict:
    return {atom_str(a): str(v) for a, v in sorted(pt.items())}


def _report_dict(rep: CheckReport) -> dict:
    out = {
        "verdict": rep.verdict,
        "passed": rep.passed,
        "samples": rep.samples,
        "seed": rep.seed,
        "trials": rep.trials,
    }
    if rep.multiplier is not None:
        out["multiplier"] = poly_str(rep.multiplier)
    if rep.witness is not None:
        out["witness"] = _jetpoint_dict(rep.witness)
    if rep.residual is not None:
        out["residual"] = str(rep.residual)
    return out


class _Emitter:
    def __init__(self, command: str, config: SessionConfig, reads_theta: bool):
        self.command = command
        self.config = config
        self.reads_theta = reads_theta
        self.t0 = time.perf_counter()

    def _print_json(self, **body) -> None:
        report = {"schema": SCHEMA_VERSION, "command": self.command,
                  "config": self.config.to_dict(self.reads_theta), **body}
        print(json.dumps(report, sort_keys=True, indent=2))

    def emit(self, results, exit_code: int) -> int:
        ms = (time.perf_counter() - self.t0) * 1000.0
        if self.config.output == "json":
            # timing_ms stays null so reports are byte-stable
            self._print_json(results=results, timing_ms=None)
        else:
            print(f"[{self.command}] done in {ms:.1f} ms")
        return exit_code

    def error(self, exc: Exception) -> int:
        if self.config.output == "json":
            self._print_json(error={"type": type(exc).__name__,
                                    "message": str(exc)})
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


def _text(config: SessionConfig) -> bool:
    return config.output == "text"


# -- subcommands -------------------------------------------------------------------


def cmd_prolong(args, config: SessionConfig, em: _Emitter) -> int:
    from .dsl import parse_vector_field
    from .jets import prolong_explicit, prolong_recursive
    with open(args.field, encoding="utf-8") as fh:
        v = parse_vector_field(fh.read(), config.n)
    # the closed formula goes first, so an order it lacks is refused before
    # the recursion runs; an order below 1 is left to the recursion's report
    explicit = (prolong_explicit(v, args.order)
                if args.explicit and args.order >= 1 else None)
    coeffs = prolong_recursive(v, args.order)
    results = []
    mismatch = False
    for J in sorted(coeffs):
        if not J:
            continue
        entry = {"index": ",".join(map(str, J)),
                 "coefficient": poly_str(coeffs[J])}
        if explicit is not None:
            same = explicit[J] == coeffs[J]
            entry["explicit_matches"] = same
            mismatch |= not same
        results.append(entry)
        if _text(config):
            suffix = ""
            if explicit is not None:
                suffix = "  [explicit ok]" if entry["explicit_matches"] \
                    else "  [EXPLICIT MISMATCH]"
            print(f"phi^({entry['index']}) = {entry['coefficient']}{suffix}")
    return em.emit(results, 1 if mismatch else 0)


def cmd_check(args, config: SessionConfig, em: _Emitter) -> int:
    from .dsl import parse_vector_field
    from .symmetry import infinitesimal_check
    sys_ = _build_system(config, args.eq, args.expr)
    with open(args.field, encoding="utf-8") as fh:
        v = parse_vector_field(fh.read(), config.n)
    rep = infinitesimal_check(sys_, v, trials=config.trials, seed=config.seed)
    result = _report_dict(rep)
    if args.eq == "custom":
        result["unverified_equation"] = True
    if _text(config):
        print(f"verdict: {rep.verdict}")
        if rep.multiplier is not None:
            print(f"multiplier: {poly_str(rep.multiplier)}")
        if rep.residual is not None:
            print(f"witness residual: {rep.residual}")
    return em.emit([result], 0 if rep.passed else 1)


def cmd_classify(args, config: SessionConfig, em: _Emitter) -> int:
    from .dsl import format_vector_field
    from .symmetry import ansatz_dimension, expected_dimension
    sys_ = _build_system(config, args.eq, None)
    dim, basis = ansatz_dimension(sys_, config.ansatz_degree)
    expected = expected_dimension(args.eq, config.n, config.theta)
    matches = dim == expected
    result = {
        "dimension": dim,
        "expected": expected,
        "matches": matches,
        "basis": [format_vector_field(v) for v in basis],
    }
    if _text(config):
        print(f"ansatz degree {config.ansatz_degree}: dimension {dim} "
              f"(expected {expected}){'' if matches else '  MISMATCH'}")
        for line in result["basis"]:
            print("  " + line)
    return em.emit([result], 0 if matches else 1)


def cmd_determining(args, config: SessionConfig, em: _Emitter) -> int:
    from .symmetry import extract_determining
    sys_ = _build_system(config, args.eq, None)
    if args.eq == "am" and config.theta is None:
        raise ValueError("determining listing needs --theta p/q for am")
    eqs = extract_determining(sys_)
    unknowns = sorted({a for eq in eqs for a in eq.atoms()})
    result = {
        "unknowns": [atom_str(a) for a in unknowns],
        "equations": [poly_str(eq) + " = 0" for eq in eqs],
    }
    if _text(config):
        print(f"{len(eqs)} equations in {len(unknowns)} unknowns")
        for line in result["equations"]:
            print("  " + line)
    return em.emit([result], 0)


def cmd_bracket_table(args, config: SessionConfig, em: _Emitter) -> int:
    from .symmetry import (
        NotClosedError,
        affine_maximal_basis,
        closure_check,
        monge_ampere_basis,
    )
    if args.basis == "ma":
        basis = monge_ampere_basis(config.n)
    elif args.basis == "am-generic":
        basis = affine_maximal_basis(config.n, special=False)
    else:
        basis = affine_maximal_basis(config.n, special=True)
    try:
        structure = closure_check(basis)
    except NotClosedError as exc:
        if _text(config):
            print(f"NOT CLOSED at pair {exc.pair}")
        return em.emit([{"closed": False, "pair": list(exc.pair)}], 1)
    constants = {f"{i},{j}": [str(c) for c in coeffs]
                 for (i, j), coeffs in sorted(structure.items())}
    if _text(config):
        print(f"basis {args.basis}: closed, "
              f"{len(constants)} bracket pairs")
        for key, coeffs in constants.items():
            nz = {k: c for k, c in enumerate(coeffs) if c != "0"}
            print(f"  [{key}] -> {nz if nz else '0'}")
    return em.emit([{"closed": True, "structure_constants": constants}], 0)


def _parse_solution_spec(spec: str, n: int) -> SolutionSample:
    from .groups import solution_family
    name, _, rest = spec.partition(":")
    if name == "quadratic":
        if rest in ("identity", "", None):
            m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        elif rest.startswith("diag="):
            diag = [_read_number(v) for v in rest[5:].split(",")]
            if len(diag) != n:
                raise ValueError(f"need {n} diagonal entries")
            m = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        else:
            raise ValueError(f"unknown quadratic spec {rest!r}")
        return solution_family("quadratic", {"M": m})
    if name == "am1d":
        pairs = (part.partition("=") for part in rest.split(","))
        return solution_family("am1d", {key.strip(): _read_number(value)
                                        for key, _, value in pairs})
    raise ValueError(f"unknown solution family {name!r}")


_ELEMENT_KEYS = ("Q", "P", "D", "R", "c", "d", "regime")


def _load_element(path: str, n: int) -> GroupElement:
    from .groups import make_am_element
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh, parse_int=str)  # an integer keeps its text
    if not isinstance(data, dict):
        raise ValueError("the element file must hold a JSON object")
    unknown = sorted(set(data) - set(_ELEMENT_KEYS))
    if unknown:
        raise ValueError(f"unknown element key(s) {', '.join(unknown)}; "
                         f"the keys are {', '.join(_ELEMENT_KEYS)}")
    q = data.get("Q")
    if not (isinstance(q, list) and len(q) == n):
        raise ValueError(f"element Q must be a list of {n} rows")
    q = [_element_numbers(row, "Q row", n) for row in q]
    p, dvec, r = (_element_numbers(data.get(k, ["0"] * n), k, n) for k in "PDR")
    c, d = _element_numbers([data.get("c", "1"), data.get("d", "0")], "c, d", 2)
    regime = data.get("regime", "am-generic")
    if regime not in ("am-generic", "am-special"):
        raise ValueError("element regime must be 'am-generic' or 'am-special'")
    return make_am_element(q, p, dvec, c, r, d, regime=regime)


def _element_numbers(value, name: str, n: int) -> list[Fraction]:
    # a JSON integer arrives as its text, a JSON float is a binary fraction
    # (0.1 would be 3602879701896397/2^55) and a boolean is no number: only
    # strings are exact
    if not (isinstance(value, list) and len(value) == n
            and all(isinstance(v, str) for v in value)):
        raise ValueError(f"element {name} must be {n} numbers, each an "
                         f"integer or a string such as \"1/10\"")
    return [_read_number(v) for v in value]


class NumberTooLargeError(ValueError):
    """A number past CONST_BITS_MAX characters, or bits in its numerator or
    denominator."""


def _read_number(text: str) -> Fraction:
    """An integer or a decimal such as "1/10", "0.1" or "5e-3" as an exact
    Fraction, refused past CONST_BITS_MAX characters or bits in numerator or
    denominator.  An exponent e is weighed before `Fraction` builds 10**e: a
    nonzero mantissa of k characters lies between 2^-4k and 2^4k, so for
    3|e| > 4k + CONST_BITS_MAX + 1 one of the two is too long."""
    if len(text) > CONST_BITS_MAX:  # before `int` refuses past 4300 digits
        raise NumberTooLargeError(f"a number exceeds {CONST_BITS_MAX} characters")
    mantissa, _, e = text.lower().partition("e")
    try:
        huge = 3 * abs(int(e)) > 4 * len(mantissa) + CONST_BITS_MAX + 1
    except ValueError:  # no exponent, or a malformed one Fraction reports
        huge = False
    q = Fraction(mantissa + "e0" if huge else text)  # only 0 passes if huge
    if (huge and q) or max(abs(q.numerator).bit_length(),
                           q.denominator.bit_length()) > CONST_BITS_MAX:
        raise NumberTooLargeError(f"a number exceeds {CONST_BITS_MAX} bits")
    return q


def cmd_orbit(args, config: SessionConfig, em: _Emitter) -> int:
    from .groups import act
    if args.points < 1:
        raise ValueError("points must be >= 1")
    sys_ = _build_system(config, args.eq, None)
    if sys_.theta_symbolic:
        raise ValueError("orbit residuals need --theta p/q")
    g = _load_element(args.element, config.n)
    s = _parse_solution_spec(args.solution, config.n)
    if g.local and s.kind == "polynomial":
        result = _exact_local_orbit(g, s, sys_, args.points)
    else:
        result = _transformed_orbit(act(g, s), sys_, args.points)
    passed = result["passed"]
    if _text(config):
        print(f"transformed solution kind: {result['kind']}")
        for p, v in zip(result["points"], result["residuals"]):
            print(f"  residual{tuple(p)} = {v}")
        print("PASS" if passed else "FAIL")
    return em.emit([result], 0 if passed else 1)


def _exact_local_orbit(g: GroupElement, s: SolutionSample, sys_: PdeSystem,
                       count: int) -> dict:
    from .groups import transport_local
    # exact: the images of rational source points, and the cleared residual
    # polynomial as the certificate
    tr = transport_local(g, s, sys_)
    sources = _orbit_points(s, count)
    points, values = zip(*(tr.at(x0) for x0 in sources))
    return {
        "kind": "polynomial",
        "local": True,
        "residual_polynomial_zero": tr.cleared.is_zero,
        "delta_power": tr.power,
        "source_points": [[str(c) for c in p] for p in sources],
        "points": [[str(c) for c in p] for p in points],
        "residuals": [str(v) for v in values],
        "passed": tr.cleared.is_zero,
    }


# pass bound on the finite-difference residuals of a callable orbit
_FD_TOLERANCE = 1e-8


def _transformed_orbit(transformed: SolutionSample, sys_: PdeSystem,
                       count: int) -> dict:
    from .groups import residual, residual_polynomial
    pts = _orbit_points(transformed, count)
    if transformed.kind == "polynomial":
        # the polynomial is the certificate and gives the point values too
        rp = residual_polynomial(transformed, sys_)
        values = [rp.evaluate({coord(i + 1): c for i, c in enumerate(p)})
                  for p in pts]
        return {
            "kind": "polynomial",
            "residual_polynomial_zero": rp.is_zero,
            "points": [[str(c) for c in p] for p in pts],
            "residuals": [str(v) for v in values],
            "passed": rp.is_zero,
        }
    # callables only come from P = 0 elements: act refuses local ones
    values = residual(transformed, sys_, pts)
    return {
        "kind": "callable",
        "local": False,
        "tolerance": _FD_TOLERANCE,
        "points": [[float(c) for c in p] for p in pts],
        "residuals": [float(v) for v in values],
        "passed": bool(max(abs(v) for v in values) < _FD_TOLERANCE),
    }


def _orbit_points(s: SolutionSample, count: int) -> list[list[Fraction]]:
    # deterministic points inside the domain hint
    n = s.n
    radius = s.radius if math.isfinite(s.radius) else 1.0
    scale = Fraction(radius).limit_denominator(1000) / 3
    out = []
    for k in range(count):
        pt = []
        for i in range(n):
            step = Fraction((k + 1) * (i + 2), 3 * count)
            sign = -1 if (k + i) % 2 else 1
            pt.append(Fraction(s.center[i]).limit_denominator(1000)
                      + sign * scale * step)
        out.append(pt)
    return out


def cmd_sample(args, config: SessionConfig, em: _Emitter) -> int:
    sys_ = _build_system(config, args.eq, None)
    pts = sample_on_variety(sys_, config.seed, args.count)
    results = [_jetpoint_dict(p) for p in pts]
    if _text(config):
        print(json.dumps(results, sort_keys=True, indent=2))
    return em.emit(results, 0)


# -- argument parsing ----------------------------------------------------------------


def _add_common_options(ap, root: bool) -> None:
    # Shared options are accepted both before and after the subcommand;
    # values given after it win (the subcommand copies default to SUPPRESS
    # so unset options fall through to the root values).
    def default(value):
        return {"default": value if root else argparse.SUPPRESS}

    ap.add_argument("--n", type=int, help="space dimension N", **default(2))
    ap.add_argument("--theta", help="exact rational p/q or 'sym' (default)",
                    **default("sym"))
    ap.add_argument("--seed", type=int,
                    help=f"sampling seed (default {DEFAULT_SEED})",
                    **default(DEFAULT_SEED))
    ap.add_argument("--trials", type=int, **default(DEFAULT_TRIALS),
                    help="sampled points searched for a failure witness")
    ap.add_argument("--degree", type=int, help="ansatz degree", **default(2))
    ap.add_argument("--output", choices=("text", "json"), **default("text"))


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liejet",
        description="Exact symmetry analysis of the Monge-Ampere and "
                    "affine maximal equations")
    _add_common_options(ap, root=True)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_options(common, root=False)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prolong", help="print prolongation coefficients",
                       parents=[common])
    p.add_argument("--field", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--explicit", action="store_true",
                   help="also run the closed formulas and diff")
    p.set_defaults(func=cmd_prolong)

    p = sub.add_parser("check", help="infinitesimal invariance check", parents=[common])
    p.add_argument("--eq", choices=("ma", "am", "custom"), required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--expr", help="custom equation text (with --eq custom)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="bounded-degree ansatz dimension", parents=[common])
    p.add_argument("--eq", choices=("ma", "am"), required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("determining", help="list the determining system", parents=[common])
    p.add_argument("--eq", choices=("ma", "am"), required=True)
    p.set_defaults(func=cmd_determining)

    p = sub.add_parser("bracket-table", help="Lie bracket structure constants", parents=[common])
    p.add_argument("--basis", choices=("ma", "am-generic", "am-special"),
                   required=True)
    p.set_defaults(func=cmd_bracket_table)

    p = sub.add_parser("orbit", help="residual of a transformed solution", parents=[common])
    p.add_argument("--eq", choices=("ma", "am"), required=True)
    p.add_argument("--element", required=True, help="JSON element file")
    p.add_argument("--solution", required=True,
                   help="family spec, e.g. quadratic:identity or "
                        "am1d:theta=1/2,a=1,b=1")
    p.add_argument("--points", type=int, default=5)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("sample", help="dump on-variety jet points (JSON)", parents=[common])
    p.add_argument("--eq", choices=("ma", "am"), required=True)
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(func=cmd_sample)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_argparser()
    args = ap.parse_args(argv)
    try:
        config = SessionConfig(
            n=args.n,
            theta=_parse_theta(args.theta),
            seed=args.seed,
            trials=args.trials,
            ansatz_degree=args.degree,
            output=args.output,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # only the fourth-order and custom equations carry theta
    em = _Emitter(args.command, config, getattr(args, "eq", None) in ("am", "custom"))
    try:
        try:
            code = args.func(args, config, em)
        except BrokenPipeError:
            raise
        except (ValueError, OSError, KeyError, RuntimeError,
                ArithmeticError) as exc:
            code = em.error(exc)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so the flush at
        # interpreter exit cannot fail again, and report failure.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

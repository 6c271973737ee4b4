"""Run the liejet CLI with spans around each layer's public functions.

    python tracer.py <spans.json> <job id> <liejet arguments...>

The wrappers are installed from outside: every attribute of a liejet module
or class that holds one of the traced functions is replaced, so calls made
through `from .algebra import divide_exact` are traced too.  Spans are
aggregated in memory by (parent span, name) and written when the CLI
returns, with the job id and the per-layer metrics: `<span>_s` (self time),
`<span>_calls` and the counters.  A span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import liejet.algebra
import liejet.cli
import liejet.dsl
import liejet.equations
import liejet.groups
import liejet.jets
import liejet.symmetry

clock = time.perf_counter
counts: dict[str, int] = {}
spans: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total, self]
stack: list[list] = []  # open spans: [name, child time]


def count(name: str, value: int = 1) -> None:
    counts[name] = counts.get(name, 0) + value


def span(name: str, before=None, after=None):
    """Wrap a function in a timed span; `before(args)` and `after(result)`
    update counters."""
    def wrap(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                agg = spans.setdefault((parent[0] if parent else "", name),
                                       [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
            if after is not None:
                after(result)
            return result
        return traced
    return wrap


def counted(name: str):
    """Count calls without opening a span; the time stays with the caller."""
    def wrap(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return traced
    return wrap


def _mul_pairs(args):
    a, b = args
    count("algebra.mul_term_pairs",
          len(a.terms) * (len(b.terms) if isinstance(b, liejet.algebra.Poly) else 1))


def _nullspace_size(args):
    rows = args[0]
    count("algebra.nullspace_rows", len(rows))
    count("algebra.nullspace_cols",
          args[1] if len(args) > 1 and args[1] is not None
          else len(rows[0]) if rows else 0)


_VERDICTS = {"identically-zero": "identical", "multiplier-found": "multiplier",
             "zero-on-variety": "on_variety", "fails": "fails"}

Poly = liejet.algebra.Poly
SolutionSample = liejet.groups.SolutionSample
TRACED = [
    # (owner, attribute, wrapper)
    (Poly, "__mul__", span("algebra.mul", before=_mul_pairs)),
    (Poly, "collect", span("algebra.collect")),
    (Poly, "coefficient_powers", span("algebra.coefficient_powers")),
    (Poly, "diff", span("algebra.diff")),
    (Poly, "substitute_atoms", span("algebra.substitute")),
    (Poly, "evaluate", span("algebra.evaluate")),
    (Poly, "evaluate_float", span("algebra.evaluate_float")),
    (liejet.algebra, "divide_exact", span(
        "algebra.divide_exact",
        after=lambda r: count("algebra.divide_exact_hits", r is not None))),
    (liejet.algebra, "nullspace", span("algebra.nullspace",
                                       before=_nullspace_size)),
    (liejet.algebra, "solve_exact", span("algebra.solve_exact")),
    (liejet.algebra, "poly_str", span("algebra.poly_str")),
    (liejet.jets, "apply_prolonged", span(
        "jets.apply_prolonged",
        after=lambda r: count("jets.residual_terms", len(r.terms)))),
    (liejet.jets, "prolong_recursive", span("jets.prolong_recursive")),
    (liejet.jets, "total_derivative", span("jets.total_derivative")),
    (liejet.jets, "prolong_explicit", span("jets.prolong_explicit")),
    (liejet.equations, "build_monge_ampere", span(
        "equations.build",
        after=lambda r: count("equations.F_terms", len(r.F.terms)))),
    (liejet.equations, "build_affine_maximal", span(
        "equations.build",
        after=lambda r: count("equations.F_terms", len(r.F.terms)))),
    (liejet.equations, "sample_point", span(
        "equations.sample_point",
        after=lambda r: count("equations.sample_points"))),
    (liejet.equations, "solve_top_value", counted("equations.sample_attempts")),
    (liejet.symmetry, "infinitesimal_check", span(
        "symmetry.infinitesimal_check",
        after=lambda r: count("symmetry.verdict_" + _VERDICTS[r.verdict]))),
    (liejet.symmetry, "extract_determining", span(
        "symmetry.extract_determining",
        after=lambda r: count("symmetry.determining_equations",
                              len(r.equations)))),
    (liejet.symmetry, "ansatz_dimension", span("symmetry.ansatz_dimension")),
    (liejet.symmetry, "closure_check", span("symmetry.closure_check")),
    (liejet.groups, "act", span("groups.act")),
    (liejet.groups, "residual", span("groups.residual")),
    (liejet.groups, "fd_jet_values", span("groups.fd_jet_values")),
    (liejet.groups, "fd_derivative", counted("groups.fd_derivative_calls")),
    (SolutionSample, "__call__", counted("groups.sample_evals")),
    (SolutionSample, "gradient", counted("groups.gradient_calls")),
    (liejet.dsl, "parse_expression", span("dsl.parse")),
    (liejet.dsl, "parse_vector_field", span("dsl.parse")),
]


def install() -> None:
    owners = [m for name, m in sys.modules.items()
              if name == "liejet" or name.startswith("liejet.")]
    owners += [Poly, SolutionSample]
    for owner, attr, wrapper in TRACED:
        original = getattr(owner, attr)
        traced = wrapper(original)
        for holder in owners:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)


def metrics() -> dict:
    """The counters, plus `<span>_s` (self time) and `<span>_calls`."""
    out: dict[str, float] = dict(counts)
    for (_, name), (calls, _, self_s) in spans.items():
        out[name + "_s"] = out.get(name + "_s", 0.0) + self_s
        out[name + "_calls"] = out.get(name + "_calls", 0) + calls
    return out


def main() -> int:
    out_path, job_id, *argv = sys.argv[1:]
    install()
    try:
        return liejet.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"job": job_id, "metrics": metrics(),
                       "spans": [{"parent": parent, "name": name, "calls": c,
                                  "total_s": total, "self_s": self_s}
                                 for (parent, name), (c, total, self_s)
                                 in sorted(spans.items())]}, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())

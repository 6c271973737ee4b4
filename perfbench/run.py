"""End-to-end benchmark of the liejet CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload derive --seed 1 --seconds 30 --trace 0

One client runs the workload's jobs in a closed loop: each job is a fresh
`python -m liejet.cli ... --output json` process, started only after the
previous one has ended, and timed from outside.  Passes over the job list
repeat until --seconds have gone by (at least one pass).  Every answer is
checked against the mathematically expected result and, for exact jobs
whose inputs do not depend on the seed, byte-compared with digests captured
at the parent commit.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and one
traced pass (spans recorded by perfbench/tracer.py around each layer's
public functions) and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --capture-digests

re-captures digests.json from the code in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, Job  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH_DIR / "digests.json"
TRACER = BENCH_DIR / "tracer.py"

RUN_BUDGET_S = 165.0  # a run must end well within 180 s
SETUP_BLOCK = 10  # imports timed back to back for one set-up sample

# metric name -> unit, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Outcome:
    job: Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    problem: str | None  # None when the job gave the expected answer
    known: bool = False  # the problem is the job's known wrong answer
    mismatch: bool = False  # results or exit code differ from the digest


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("LIEJET_SEED", None)
    return env


def _spawn(argv: list[str], cwd: Path, timeout_s: float):
    """Run one process to completion and time it from outside.

    Returns (exit code, or None after a timeout; stdout; stderr; wall s;
    user+sys cpu s; peak rss MB).  A blocking wait4 reaps the child the
    moment it ends; a timer kills it if it runs past `timeout_s`.
    """
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        expired = threading.Event()

        def expire():
            # signal without polling: only the wait4 below reaps the child
            expired.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(timeout_s, 0.0), expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    killed = expired.is_set() and proc.returncode == -signal.SIGKILL
    return (None if killed else proc.returncode,
            (cwd / "stdout").read_text(), (cwd / "stderr").read_text(),
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _job_dir(job: Job) -> Path:
    return WORK / job.id


def _write_inputs(jobs: list[Job]) -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    for job in jobs:
        d = _job_dir(job)
        d.mkdir(parents=True)
        for name, text in job.files:
            (d / name).write_text(text)


def _canonical(report: dict, exit_code: int) -> str:
    blob = json.dumps(report["results"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{exit_code}\n{blob}".encode()).hexdigest()


def run_job(job: Job, timeout_s: float, digests: dict, traced: bool) -> Outcome:
    liejet_args = [*job.args, "--output", "json"]
    if traced:
        argv = [sys.executable, str(TRACER), "spans.json", job.id, *liejet_args]
    else:
        argv = [sys.executable, "-m", "liejet.cli", *liejet_args]
    code, out, err, wall, cpu, rss = _spawn(argv, _job_dir(job),
                                            min(job.timeout_s, timeout_s))
    outcome = Outcome(job, wall, cpu, rss, None)
    if code is None:
        outcome.problem = f"timed out after {wall:.1f} s"
    elif "Traceback (most recent call last)" in err:
        outcome.problem = "traceback: " + err.strip().splitlines()[-1]
    else:
        try:
            report = json.loads(out)
        except ValueError:
            outcome.problem = (f"no JSON report (exit {code}): "
                               f"{(out or err).strip()[-200:]!r}")
            return outcome
        if "results" not in report:
            error = report.get("error", {})
            outcome.problem = (f"error report (exit {code}) "
                               f"{error.get('type')}: {error.get('message')}")
            return outcome
        results = report["results"]
        try:
            outcome.problem = job.expect(code, results)
            outcome.known = (outcome.problem is not None
                             and job.known_answer is not None
                             and job.known_answer(code, results))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            outcome.problem = f"malformed results: {exc!r}"
        want = digests.get(job.id) if job.digest else None
        if want is not None and _canonical(report, code) != want:
            outcome.mismatch = True
            outcome.problem = outcome.problem or "results differ from digest"
    return outcome


def run_pass(jobs: list[Job], deadline: float, digests: dict,
             traced: bool) -> list[Outcome]:
    """Run the job list once."""
    return [run_job(job, deadline - time.perf_counter(), digests, traced)
            for job in jobs]


def pass_wall(outcomes: list[Outcome]) -> float:
    """One pass over the job list: the jobs' wall times, process starts
    included, without the benchmark's own work between jobs."""
    return sum(o.wall_s for o in outcomes)


def _probe(code: str) -> tuple[str, float]:
    probe = WORK / "setup"
    probe.mkdir(parents=True, exist_ok=True)
    status, out, err, wall, *_ = _spawn([sys.executable, "-c", code], probe,
                                        60.0)
    if status != 0:
        sys.exit(f"import liejet.cli failed: {err.strip()[-300:]}")
    return out, wall


def check_import() -> None:
    """Import once untimed (this also writes the bytecode cache) and make
    sure the package comes from this checkout."""
    out, _ = _probe("import liejet.cli; print(liejet.cli.__file__)")
    if SRC.resolve() not in Path(out.strip()).resolve().parents:
        sys.exit(f"liejet.cli imports from {out.strip()}, not from {SRC}")


def import_time() -> float:
    """Wall time of `python -c "import liejet.cli"`: the fastest of a block
    of back-to-back imports, which is what the host's moment-to-moment noise
    disturbs least."""
    return min(_probe("import liejet.cli")[1] for _ in range(SETUP_BLOCK))


def load_digests() -> tuple[dict, str]:
    """Job id -> digest, and the revision they were captured at."""
    if not DIGESTS.is_file():
        return {}, "nowhere"
    data = json.loads(DIGESTS.read_text())
    return data["jobs"], data["captured_at"]["git_rev"]


def read_traces(jobs: list[Job]) -> dict:
    """Per-layer metrics summed over the traced pass's jobs."""
    summed: dict[str, float] = {}
    for job in jobs:
        path = _job_dir(job) / "spans.json"
        if not path.is_file():
            continue
        for name, value in json.loads(path.read_text())["metrics"].items():
            summed[name] = summed.get(name, 0) + value
    return summed


def end_to_end(passes: list[list[Outcome]], setup: list[float]) -> dict:
    med = statistics.median
    return {
        "wall_s": med([pass_wall(p) for p in passes]),
        "cpu_s": med([sum(o.cpu_s for o in p) for p in passes]),
        "peak_rss_mb": max(o.rss_mb for p in passes for o in p),
        "setup_s": med(setup),
    }


def job_p50(outcomes: list[Outcome]) -> float:
    return statistics.median(o.wall_s for o in outcomes)


def per_layer(untraced: list[Outcome], traced: list[Outcome],
              jobs: list[Job]) -> dict:
    found = read_traces(jobs)
    attempts = found.get("equations.sample_attempts", 0)
    found["equations.sample_yield"] = (
        found.get("equations.sample_points", 0) / attempts if attempts else 0.0)
    found["cli.results_mismatches"] = sum(o.mismatch
                                          for o in untraced + traced)
    found["trace.overhead_s"] = pass_wall(traced) - pass_wall(untraced)
    found["cli.job_p50_s"] = job_p50(untraced)
    return {name: (found.get(name, 0), unit)
            for name, unit in PER_LAYER.items()}


def capture_digests() -> None:
    """Record the exit code and canonical results of every exact fixed job."""
    jobs = [j for w in WORKLOADS.values() for j in w(0) if j.digest]
    _write_inputs(jobs)
    check_import()
    recorded = {}
    for job in jobs:
        code, out, err, *_ = _spawn(
            [sys.executable, "-m", "liejet.cli", *job.args, "--output", "json"],
            _job_dir(job), job.timeout_s)
        report = json.loads(out)
        problem = job.expect(code, report["results"])
        if problem:
            sys.exit(f"{job.id}: {problem}; not capturing a wrong answer")
        recorded[job.id] = _canonical(report, code)
        print(f"{job.id}: {recorded[job.id][:16]}")
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    DIGESTS.write_text(json.dumps({
        "captured_at": {"git_rev": rev or "unknown",
                        "python": platform.python_version(),
                        "nproc": os.cpu_count()},
        "jobs": recorded}, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Set up, run and check one workload; prints a job table and returns
    (outcomes of every pass, {metric: (value, unit)})."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    jobs = WORKLOADS[name](seed)
    digests, rev = load_digests()
    _write_inputs(jobs)
    check_import()
    print(f"# workload {name}, seed {seed}, {len(jobs)} jobs; python "
          f"{platform.python_version()}, nproc {os.cpu_count()}; "
          f"digests from {rev}")

    # untraced runs take one set-up sample before the first pass and one
    # after each pass, so the samples span the run as the passes do
    setup = [] if trace else [import_time()]
    t0 = time.perf_counter()
    passes = [run_pass(jobs, deadline, digests, False)]
    per_pass = time.perf_counter() - t0
    if trace:
        passes.append(run_pass(jobs, deadline, digests, True))
    else:
        setup.append(import_time())
        # as many whole passes as fill `seconds` most closely
        wanted = max(1, round(seconds / per_pass))
        while (len(passes) < wanted
               and time.perf_counter() + per_pass < deadline):
            passes.append(run_pass(jobs, deadline, digests, False))
            setup.append(import_time())

    for o in passes[0]:
        print(f"# {o.job.id:<28} wall {o.wall_s:7.3f} s  cpu {o.cpu_s:7.3f} s"
              f"  rss {o.rss_mb:6.1f} MB  {'FAILED' if o.problem else 'ok'}")
    outcomes = [o for p in passes for o in p]
    failed = [o for o in outcomes if o.problem]
    for o in failed:
        note = f" [known: {o.job.known_failure}]" if o.known else ""
        print(f"FAILED {o.job.id}: {o.problem}{note}")
    print(f"# {len(passes)} pass(es); failed_frac {len(failed)}/{len(outcomes)}"
          f" = {len(failed) / len(outcomes):.4f}")

    if trace:
        metrics = per_layer(passes[0], passes[1], jobs)
    else:
        # printed but not gated: too unsteady on a shared host (see README)
        p50 = statistics.median(job_p50(p) for p in passes)
        print(f"# {name}.job_p50_s = {p50:.6g} s")
        metrics = {k: (v, END_TO_END[k])
                   for k, v in end_to_end(passes, setup).items()}
    for metric, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name}.{metric} = {shown} {unit}")
    shutil.rmtree(WORK, ignore_errors=True)
    return outcomes, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--capture-digests", action="store_true")
    args = ap.parse_args()
    if not (SRC / "liejet" / "cli.py").is_file():
        print(f"error: no liejet sources under {SRC}", file=sys.stderr)
        return 2
    if args.capture_digests:
        capture_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes, metrics = [], {}
    for name in names:
        done, measured = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace))
        outcomes += done
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in measured.items()})
    failed = [o for o in outcomes if o.problem]
    print(json.dumps({
        # a known wrong answer still counts in `failed`; any other failure
        # of that job is not excused
        "correct": all(o.known for o in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""chromabound benchmark: one workload, end-to-end or traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-sweep --seed 7 --seconds 40 --trace 0

Workloads are corpus-sweep, large-complex and exact-hard (see workloads.py
and README.md). The program is imported from src/ of the same checkout,
never from an installed copy. A run sets up several times and reports the
median set-up time, warms up, then makes whole passes over the workload's
job list until another pass would end after --seconds (at least two passes
untraced, one traced). Every job's output is checked, and a repeated job
must print the same bytes. Times are reference seconds (see machine.py).

With --trace 1 each job runs untraced and then traced, and the metrics are
the per-layer ones computed from spans, which are written to
.perfbench_out/. Lines before the last describe the run; the last line is
one JSON object with the keys correct, attempted, failed and metrics. The
exit code is 0 when every job passed, 1 when a job failed and 2 when the
program cannot be imported.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: every matrix here has
# n <= 60, and a single thread keeps timings steady on a small shared machine.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import machine  # noqa: E402
import numpy  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAYERS = ("graphs", "linalg", "majorization", "bounds", "exact", "cli")
SETUP_REPEATS = 21
TAIL_BEYOND = 10  # the tail percentile needs at least this many samples above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MiB",
    "lower_sum": "count",
    "bound_sum": "count",
}


class ProgramNotFound(ImportError):
    """chromabound is not importable from this checkout's src/."""


def import_program():
    """Import chromabound afresh from SRC and return its modules by layer name."""
    for name in [m for m in sys.modules if m == "chromabound" or m.startswith("chromabound.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("chromabound")
        importlib.import_module("chromabound.cli")
    except ImportError as exc:
        raise ProgramNotFound(f"cannot import chromabound from {SRC}: {exc}") from exc
    if Path(package.__file__).resolve().parent != SRC / "chromabound":
        raise ProgramNotFound(f"chromabound came from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{layer: getattr(package, layer) for layer in LAYERS})


def set_up(workload, seed, workdir):
    """Import the program and build the inputs, SETUP_REPEATS times.

    numpy is imported once at start-up, so every repeat measures the same
    work. The speed kernel runs between repeats and scales their median:
    set-up is too short for the run's mean speed to describe it. Returns the
    last repeat's program and jobs, and the median in reference seconds.
    """
    build = workloads.BUILD[workload]
    speed = machine.MachineSpeed()
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample(force=True)
        start = time.perf_counter()
        program = import_program()
        jobs, warmup = build(program, seed, workdir)
        times.append(time.perf_counter() - start)
    speed.sample(force=True)
    return program, jobs, warmup, statistics.median(times) * speed.scale()


def execute(job, context=None):
    """Run one job, inside `context` if given (a tracer's job span); return
    (start, end, outcome or None, failure messages)."""
    start = time.perf_counter()
    try:
        with context or contextlib.nullcontext():
            raw = job.call()
        end = time.perf_counter()
        outcome = job.read(raw)
    except Exception:  # a job that raises is a counted failure, not the end of the run
        end = time.perf_counter()
        print(traceback.format_exc(), file=sys.stderr, end="")
        return start, end, None, [f"{job.name}: raised {sys.exc_info()[0].__name__}"]
    return start, end, outcome, outcome.errors


class Run:
    """Counts, failures and first outputs of the jobs a run executed."""

    def __init__(self, speed):
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.first = {}  # job name -> Outcome of its first execution

    def execute(self, job, context=None):
        """Run and check one job; return when it started and ended."""
        start, end, outcome, errors = execute(job, context)
        self.speed.sample()
        self.attempted += 1
        if outcome is not None:
            first = self.first.setdefault(job.name, outcome)
            if outcome.text != first.text:
                errors = errors + [f"{job.name}: output differs from its first run"]
        if errors:
            self.failed += 1
            self.messages.extend(errors)
        return start, end


def measure(jobs, seconds, speed, tracer):
    """Whole passes over `jobs` until another pass would end after `seconds`.

    Untraced, a pass times every job once, and there are at least two passes
    so that every job is repeated. With a tracer, every job runs untraced and
    then traced. Returns the run, the untraced (start, end) pairs per job
    name, the traced ones, the pass count and the elapsed wall time.
    """
    run = Run(speed)
    min_passes = 1 if tracer else 2
    untraced, traced = defaultdict(list), []
    passes = 0
    start = time.perf_counter()
    while True:
        for job in jobs:
            untraced[job.name].append(run.execute(job))
            if tracer:
                traced.append(run.execute(job, tracer.job(f"{passes}:{job.name}")))
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
            break
    speed.sample(force=True)
    return run, untraced, traced, passes, elapsed


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) distribution.

    A single order statistic jumps when the jobs are few and their times
    uneven; this estimate moves smoothly. p = 1 gives the maximum.
    """
    x = sorted(values)
    n = len(x)
    if p >= 1.0 or n == 1:
        return x[-1]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    grid = numpy.linspace(0.0, 1.0, 20001)
    cdf = numpy.cumsum(grid ** (a - 1.0) * (1.0 - grid) ** (b - 1.0))
    weights = numpy.diff(numpy.interp(numpy.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(numpy.dot(weights, x))


def timing_metrics(per_job):
    """jobs_per_s, job_p50_s and job_tail_s from each job's median time.

    The tail is the highest percentile with at least TAIL_BEYOND jobs beyond
    it, or the maximum when there are too few jobs for one.
    """
    n = len(per_job)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    metrics = {
        "jobs_per_s": n / sum(per_job),
        "job_p50_s": quantile(per_job, 0.5),
        "job_tail_s": quantile(per_job, k / n),
    }
    return metrics, f"job_tail_s is p{100.0 * k / n:.1f} of {n} jobs ({n - k} beyond it)"


def environment(program):
    return {
        "kernel": getattr(program.linalg, "KERNEL", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def report(workload, seed, trace, run, metrics, units, extra_lines):
    print(f"perfbench workload={workload} seed={seed} trace={trace}")
    for line in extra_lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<40} {run.failed / run.attempted:>14.6g} of {run.attempted} jobs attempted")
    for message in run.messages:
        print(f"  FAILED {message}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 1 if run.failed else 0


def bench(workload, seed, seconds, trace, max_jobs=None):
    """Set up, measure and report one run; return the exit code."""
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    speed = machine.MachineSpeed()
    try:
        program, jobs, warmup, setup_s = set_up(workload, seed, workdir)
        jobs = jobs[:max_jobs]
        execute(warmup)
        tracer = tracing.Tracer(program) if trace else None
        run, untraced, traced, passes, elapsed = measure(jobs, seconds, speed, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    quality = workloads.quality([o.doc for o in run.first.values()]) if not run.failed else {}
    lines = [
        f"env {json.dumps(environment(program))}",
        f"  {passes} passes of {len(jobs)} jobs in {elapsed:.3f} s wall",
        f"  machine: speed kernel mean {1e3 * speed.mean_kernel_s():.3f} ms over "
        f"{len(speed.kernel_s)} samples, nominal {1e3 * machine.NOMINAL_S:.3f} ms",
    ]
    if quality:
        lines.append(f"  quality {json.dumps(quality)}")
    if trace:
        metrics, shares = tracing.layer_metrics(
            tracer.spans,
            passes,
            sum(end - start for start, end in traced),
            sum(end - start for runs in untraced.values() for start, end in runs),
            quality,
        )
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        tracer.write(spans_path)
        lines.append(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        lines.append("  self time share of traced job time:")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:<38} {100.0 * share:6.2f} %")
        return report(workload, seed, trace, run, metrics, tracing.UNITS, lines)
    per_job = [statistics.median(e - s for s, e in runs) for runs in untraced.values()]
    wall, _ = timing_metrics(per_job)
    timing, tail_note = timing_metrics([t * speed.scale() for t in per_job])
    lines.append(f"  job times are each job's median over its {passes} runs; {tail_note}")
    lines.append("  in wall seconds: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    metrics = {
        "setup_s": setup_s,
        **timing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lower_sum": quality.get("lower_sum", 0),
        "bound_sum": quality.get("bound_sum", 0.0),
    }
    return report(workload, seed, trace, run, metrics, END_TO_END_UNITS, lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILD))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return bench(args.workload, args.seed, args.seconds, args.trace)
    except ProgramNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

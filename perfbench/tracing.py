"""Span tracing for the benchmark's traced run, and the per-layer metrics
computed from the spans.

Spans are recorded from the benchmark's side: while a traced job runs, the
public functions of each chromabound module are replaced by timing wrappers,
and the originals are put back when the job ends. The program is not edited.
A span holds its name, start, end, parent span and job id; spans stay in
memory and are written once when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict

import numpy as np

# Span name -> the (module, attribute) bindings to wrap. A function imported
# by name into another module (`from .majorization import minimal_tau` in
# bounds) is looked up there by its callers, so that binding is wrapped too.
TRACED = {
    "graphs.adjacency_matrix": (("graphs", "adjacency_matrix"), ("bounds", "adjacency_matrix")),
    "graphs.parse_dimacs": (("graphs", "parse_dimacs"),),
    "linalg.spectrum": (("linalg", "spectrum"),),
    "majorization.minimal_tau": (("majorization", "minimal_tau"), ("bounds", "minimal_tau")),
    "bounds.chromatic_lower_bound": (("bounds", "chromatic_lower_bound"),),
    "bounds.optimize_weight": (("bounds", "optimize_weight"),),
    "bounds.hoffman_bound": (("bounds", "hoffman_bound"),),
    "bounds.tau_bound": (("bounds", "tau_bound"),),
    "bounds.barnes_bound": (("bounds", "barnes_bound"),),
    "bounds.wilf_upper_bound": (("bounds", "wilf_upper_bound"),),
    "exact.exact_chi": (("exact", "exact_chi"), ("bounds", "exact_chi")),
    "cli.main": (("cli", "main"),),
}

# Eigensolve sizes reported per call: n = 10 and 23 real, and n = 23 complex
# (the 46 x 46 real embedding of today's solver).
SPECTRUM_BUCKETS = ("real_n10", "real_n23", "complex_n23")

# Per-layer metrics and their units. Counts and times are per pass, that is,
# per run through the workload's job list; shares are of traced job time.
UNITS = {
    "linalg.spectrum.calls": "count",
    "linalg.spectrum.self_s": "s",
    "linalg.spectrum.share": "fraction",
    "linalg.spectrum.bytes_in": "bytes",
    **{f"linalg.spectrum.us.{b}": "us" for b in SPECTRUM_BUCKETS},
    "majorization.minimal_tau.calls": "count",
    "majorization.minimal_tau.us_per_call": "us",
    "majorization.minimal_tau.share": "fraction",
    "bounds.optimize_weight.s": "s",
    "bounds.optimize_weight.self_s": "s",
    "bounds.optimize_weight.evals": "count",
    "bounds.optimize_weight.evals_per_s": "1/s",
    "bounds.hoffman_bound.s": "s",
    "bounds.tau_bound.s": "s",
    "bounds.barnes_bound.s": "s",
    "bounds.wilf_upper_bound.s": "s",
    "bounds.chromatic_lower_bound.self_s": "s",
    "bounds.tight_count": "count",
    "bounds.tau_opt_gains": "count",
    "graphs.adjacency_matrix.calls": "count",
    "graphs.adjacency_matrix.us_per_call": "us",
    "graphs.parse_dimacs.s": "s",
    "exact.exact_chi.s": "s",
    "exact.nodes": "count",
    "exact.nodes_per_s": "1/s",
    "exact.timeouts": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "fraction",
}


def _spectrum_info(args, result):
    """Bucket (dtype and n, as the solver sees them) and input bytes."""
    m = np.asarray(args[0])
    is_complex = np.iscomplexobj(m) and bool(np.any(m.imag != 0.0))
    return f"{'complex' if is_complex else 'real'}_n{m.shape[0]}", m.nbytes


def _exact_info(args, result):
    return result.nodes_explored, result.timed_out


INSPECT = {"linalg.spectrum": _spectrum_info, "exact.exact_chi": _exact_info}


class Tracer:
    """Records spans around calls into the program's modules during traced jobs."""

    def __init__(self, program):
        self.program = program
        self.spans = []  # [name, start, end, parent index, job id, info]
        self._stack = []

    @contextlib.contextmanager
    def job(self, job_id):
        """Trace one job: wrap the modules' functions and open a root span."""
        originals = []
        for name, bindings in TRACED.items():
            for module_name, attr in bindings:
                module = getattr(self.program, module_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    originals.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, job_id))
        root = len(self.spans)
        self.spans.append(["job", time.perf_counter(), 0.0, None, job_id, None])
        self._stack.append(root)
        try:
            yield
        finally:
            self.spans[root][2] = time.perf_counter()
            self._stack.pop()
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def _wrap(self, name, fn, job_id):
        spans, stack, inspect = self.spans, self._stack, INSPECT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], job_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if inspect is not None:
                span[5] = inspect(args, result)
            return result

        return traced

    def write(self, path):
        fields = ("name", "start", "end", "parent", "job", "info")
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}) + "\n")


def self_times(spans):
    """Span duration minus the time its child spans cover, per span."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _job, _info in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p, _j, _i) in enumerate(spans)]


def _under(spans, i, ancestor):
    parent = spans[i][3]
    while parent is not None:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, passes, traced_s, untraced_s, quality):
    """Per-layer metrics of a traced run of `passes` passes.

    `traced_s` and `untraced_s` are the summed durations of the same jobs run
    with and without tracing; `quality` is workloads.quality() of one pass,
    or empty when a job failed.
    """
    own = self_times(spans)
    total = defaultdict(float)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    buckets = defaultdict(list)
    bytes_in = nodes = timeouts = evals = 0
    for i, (name, start, end, _parent, _job, info) in enumerate(spans):
        total[name] += end - start
        self_s[name] += own[i]
        durations[name].append(end - start)
        if name == "linalg.spectrum":
            buckets[info[0]].append(end - start)
            bytes_in += info[1]
        elif name == "exact.exact_chi":
            nodes += info[0]
            timeouts += info[1]
        elif name == "majorization.minimal_tau" and _under(spans, i, "bounds.optimize_weight"):
            evals += 1

    def calls(name):
        return len(durations[name]) / passes

    def median_us(values):
        return statistics.median(values) * 1e6 if values else 0.0

    def rate(count, seconds):
        return count / seconds if seconds > 0.0 else 0.0

    m = {
        "linalg.spectrum.calls": calls("linalg.spectrum"),
        "linalg.spectrum.self_s": self_s["linalg.spectrum"] / passes,
        "linalg.spectrum.share": self_s["linalg.spectrum"] / traced_s,
        "linalg.spectrum.bytes_in": bytes_in / passes,
        **{f"linalg.spectrum.us.{b}": median_us(buckets[b]) for b in SPECTRUM_BUCKETS},
        "majorization.minimal_tau.calls": calls("majorization.minimal_tau"),
        "majorization.minimal_tau.us_per_call": median_us(durations["majorization.minimal_tau"]),
        "majorization.minimal_tau.share": self_s["majorization.minimal_tau"] / traced_s,
        "bounds.optimize_weight.s": total["bounds.optimize_weight"] / passes,
        "bounds.optimize_weight.self_s": self_s["bounds.optimize_weight"] / passes,
        "bounds.optimize_weight.evals": evals / passes,
        "bounds.optimize_weight.evals_per_s": rate(evals, total["bounds.optimize_weight"]),
        "bounds.chromatic_lower_bound.self_s": self_s["bounds.chromatic_lower_bound"] / passes,
        "bounds.tight_count": quality.get("tight_count", 0),
        "bounds.tau_opt_gains": quality.get("tau_opt_gains", 0),
        "graphs.adjacency_matrix.calls": calls("graphs.adjacency_matrix"),
        "graphs.adjacency_matrix.us_per_call": median_us(durations["graphs.adjacency_matrix"]),
        "graphs.parse_dimacs.s": total["graphs.parse_dimacs"] / passes,
        "exact.exact_chi.s": total["exact.exact_chi"] / passes,
        "exact.nodes": nodes / passes,
        "exact.nodes_per_s": rate(nodes, total["exact.exact_chi"]),
        "exact.timeouts": timeouts / passes,
        "cli.main.self_s": self_s["cli.main"] / passes,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for method in ("hoffman_bound", "tau_bound", "barnes_bound", "wilf_upper_bound"):
        m[f"bounds.{method}.s"] = total[f"bounds.{method}"] / passes
    shares = {name: self_s[name] / traced_s for name in {span[0] for span in spans}}
    return {name: m[name] for name in UNITS}, shares

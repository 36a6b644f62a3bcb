"""Run perfbench on a parent and a change checkout in alternating pairs and write BENCH_<pr>.json.

    git clone -q . ../parent && git -C ../parent checkout -q <parent-rev>
    python3 tools/bench_pairs.py --parent ../parent --change . --pr <n> \\
        --title "..." --claim exact-hard:jobs_per_s

Each workload of the change's BENCHMARK.json runs `python3 perfbench/run.py`
for its `run_seconds` ten times in each checkout, untraced, alternating which
side runs first (odd pairs parent first), then once traced per side. Both
sides run their own perfbench/, so the two must be the same for the numbers
to compare; the tool writes nothing under either checkout but
BENCH_<pr>.json in the change checkout (perfbench itself writes
`.perfbench_out/` on traced runs).

For every end-to-end metric the output holds each side's runs, median and
inclusive quartiles, the change's median relative to the parent's, the
pairs the change won (ties count for neither), the parent's IQR and a
`bound_check`: "within" or "worse" than the metric's bound by the medians,
or "unresolved" when the parent's IQR is wider than the bound (relative to
its median) and not every change run beats every parent run. A --claim
metric also gets `claim_met`: at least nine tenths of the pairs won and the
medians apart by more than the parent's IQR. The quality numbers
(lower_sum, bound_sum, tight_count, tau_opt_gains) come from each run's
`quality` line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
PER_LAYER_KEPT = (
    "exact.nodes",
    "exact.nodes_per_s",
    "exact.exact_chi.s",
    "linalg.spectrum.calls",
    "bounds.optimize_weight.s",
    "majorization.minimal_tau.calls",
    "bounds.tight_count",
    "trace.overhead_frac",
)


def run_once(checkout: Path, workload, seed, seconds, trace):
    """One perfbench run: its metrics, quality and env lines, jobs attempted and failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(lines[-1])
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.strip().partition(" ")
        if tag in ("quality", "env"):
            tagged[tag] = json.loads(rest)
    return {
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "quality": tagged.get("quality", {}),
        "env": tagged.get("env", {}),
        "attempted": last["attempted"],
        "failed": last["failed"],
    }


def spread(runs):
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": runs}


def compare_metric(spec, parent, change, claimed):
    """Summary of one end-to-end metric over paired runs parent[i], change[i]."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p, c = spread(parent), spread(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    ties = sum(a == b for a, b in zip(parent, change))
    rel = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    iqr = p["q3"] - p["q1"]
    noisy = iqr > spec["bound"] * abs(p["median"])
    if noisy and not min(sign * x for x in change) > max(sign * x for x in parent):
        check = "unresolved"
    else:
        check = "within" if -sign * rel <= spec["bound"] else "worse"
    out = {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": p, "change": c, "change_vs_parent": rel,
        "change_wins": wins, "ties": ties, "parent_iqr": iqr,
        "bound_check": check,
    }
    if claimed:
        out["claim_met"] = wins >= 0.9 * len(parent) and sign * (c["median"] - p["median"]) > iqr
    return out


def distinct(values):
    """The distinct values in first-seen order."""
    out = []
    for v in values:
        if v not in out:
            out.append(v)
    return out


def bench_workload(sides, workload, seed, seconds, specs, claimed):
    runs = {side: [] for side in sides}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], workload, seed, seconds, 0))
            value = runs[side][-1]["metrics"][claimed or "jobs_per_s"]
            print(f"{workload} pair {i + 1}/{PAIRS} {side}: {value:g}", file=sys.stderr, flush=True)
    traced = {side: run_once(sides[side], workload, seed, seconds, 1) for side in sides}
    return {
        "seed": seed,
        "pairs": PAIRS,
        "env": distinct(r["env"] for side in sides for r in runs[side]),
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in sides},
        "failed_jobs": {side: sum(r["failed"] for r in runs[side]) for side in sides},
        "quality": {side: distinct(r["quality"] for r in runs[side]) for side in sides},
        "metrics": {
            spec["name"]: compare_metric(
                spec,
                [r["metrics"][spec["name"]] for r in runs["parent"]],
                [r["metrics"][spec["name"]] for r in runs["change"]],
                spec["name"] == claimed,
            )
            for spec in specs
        },
        "traced": {
            name: {side: traced[side]["metrics"].get(name) for side in sides} for name in PER_LAYER_KEPT
        },
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        return platform.processor() or None


def git_rev(checkout: Path):
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=7"], cwd=checkout,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--title", default="")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                        help="end-to-end metric claimed to improve; repeatable")
    parser.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=47)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    claims = dict(c.split(":", 1) for c in args.claim)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    out_path = args.change / f"BENCH_{args.pr}.json"
    doc = {
        "title": args.title,
        "parent": git_rev(args.parent),
        "change": git_rev(args.change),
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(), "platform": platform.platform()},
        "end_to_end": {
            "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                       f"--seconds {seconds:g} --trace 0",
            "method": "alternating parent/change pairs (odd pairs parent first); median and inclusive "
                      "quartiles over runs; change_wins counts pairs where the change is better, ties "
                      "for neither; traced holds one --trace 1 run per side",
            "claims": args.claim,
            "workloads": {},
        },
    }
    for name in names:
        doc["end_to_end"]["workloads"][name] = bench_workload(
            sides, name, args.seed, seconds, bench["end_to_end"], claims.get(name))
        out_path.write_text(json.dumps(doc, indent=1) + "\n")  # after each workload, so a cut run keeps its part
    print(out_path)


if __name__ == "__main__":
    main()

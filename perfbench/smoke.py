"""Smoke check of the benchmark itself, in well under a minute.

Runs one job per workload, untraced and traced, and checks that each run
passes and emits every metric BENCHMARK.json names with the unit it
declares. Then checks that the benchmark fails, without printing a result,
in a directory that holds only BENCHMARK.json and perfbench/. Run from the
repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run


def check_runs(spec):
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.bench(workload, seed=1, seconds=0.0, trace=trace, max_jobs=1)
            result = json.loads(out.getvalue().splitlines()[-1])
            where = f"{workload} trace={trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit code {code}, result {result}")
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != declared:
                problems.append(f"{where}: emitted {emitted}, declared {declared}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{where}: {name} is not a number: {m['value']!r}")
            print(f"{where}: {len(emitted)} metrics, exit code {code}")
    return problems


def check_bare_directory():
    """The benchmark alone, without the program, must fail and print no result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        argv = [sys.executable, "perfbench/run.py", "--workload", "exact-hard", "--seed", "1", "--seconds", "1"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit code {proc.returncode}")
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_runs(spec) + check_bare_directory()
    for problem in problems:
        print(f"FAILED {problem}")
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

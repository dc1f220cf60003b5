"""Time the tier-1 test suite and record the result in BENCH_tier1.json.

    python tools/time_tier1.py

Runs the tier-1 command (``python -m pytest -q --continue-on-collection-errors``
with ``src`` first on PYTHONPATH) three times, one after another, from the
repository root, and writes ``BENCH_tier1.json`` there: the commit and
whether the working tree had changes beyond that commit, the pass and fail counts,
each run's wall as pytest reports it and as this script measures it, the
median of the pytest walls, and ``src_lines``, the line count of the
package (``wc -l src/dsm_geom/*.py src/dsm_geom/models/*.py``).  Exits 1
when a run fails a test.
"""
from __future__ import annotations

import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 3
COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _git(*args) -> str:
    result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return result.stdout.strip()


def _run_once(env) -> dict:
    """One tier-1 run: its counts from pytest's summary line and its two walls."""
    started = time.perf_counter()
    result = subprocess.run(COMMAND, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    summary = result.stdout.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0),
        "pytest_s": float(re.search(r" in ([0-9.]+)s", summary).group(1)),
        "process_s": round(wall, 3),
    }


def _src_lines() -> int:
    """The newline count of the package's modules, as ``wc -l`` totals it."""
    total = 0
    for pattern in ("src/dsm_geom/*.py", "src/dsm_geom/models/*.py"):
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path, "rb") as handle:
                total += handle.read().count(b"\n")
    return total


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    runs = []
    for index in range(RUNS):
        runs.append(_run_once(env))
        print(f"run {index + 1}/{RUNS}: {runs[-1]}", file=sys.stderr)
    record = {
        "commit": _git("rev-parse", "HEAD"),
        # changes beyond the commit, the record itself aside
        "uncommitted_changes": bool(_git("status", "--porcelain", ":!BENCH_tier1.json")),
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "passed": runs[0]["passed"],
        "failed": max(run["failed"] for run in runs),
        "runs": runs,
        "median_pytest_s": statistics.median(run["pytest_s"] for run in runs),
        "src_lines": _src_lines(),
    }
    path = os.path.join(ROOT, "BENCH_tier1.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(record, sort_keys=True))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())

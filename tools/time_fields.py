"""Time fibre field evaluations, one point and a stacked FD stencil, and
record the result in BENCH_fields.json.

    python tools/time_fields.py

For each model of MODELS, at the central point of its chart, in this one
process:

- ``one_point_us``: one fibre connection field evaluation,
  ``connection_field(model)(point)``, the unit a geodesic stage pays;
- ``stack_us_per_point``: the 8-point stencil ``numdiff.fd_jacobian`` reads
  there, evaluated as one stack (``field.stack``), per point;
- ``per_point_us_per_point``: the same 8 points evaluated one at a time.

Each is the median over REPEATS timings of LOOPS calls.  Then the
gaussian-kl ``classify`` on ``default_grid(model, 5)``: the median wall of
CLASSIFY_RUNS runs and its model gradient and Hessian calls (the tracer
self-check of ``perfbench/run.py`` pins 1200 and 2775); and the classify
of every catalogue model on its default grid, one after another, which is
the classify work of ``--model all --op report``: the median wall of
CLASSIFY_RUNS runs.  The file records the commit and the host as
``BENCH_tier1.json`` does.
"""
from __future__ import annotations

import collections
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dsm_geom import geometry, models, numdiff, structure  # noqa: E402

MODELS = (
    "gaussian-kl", "gaussian-sumsq", "regression-dlambda", "gce", "vmf-cylinder", "vmf-sphere"
)
LOOPS = 100
REPEATS = 11
CLASSIFY_RUNS = 5


def _git(*args) -> str:
    result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return result.stdout.strip()


def _median_us(call, per=1) -> float:
    """Median over REPEATS of the time of LOOPS calls, in µs per call and per ``per``."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(LOOPS):
            call()
        times.append((time.perf_counter() - started) / LOOPS / per)
    return round(statistics.median(times) * 1e6, 2)


def _fields(name) -> dict:
    model = models.build(name)
    field = geometry.connection_field(model)
    point = model.chart.central_grid(1)[0]
    stencil = []
    numdiff.fd_jacobian(lambda theta: stencil.append(theta) or 0.0, point, field.domain)
    return {
        "stencil_points": len(stencil),
        "one_point_us": _median_us(lambda: field(point)),
        "stack_us_per_point": _median_us(lambda: list(field.stack(stencil)), len(stencil)),
        "per_point_us_per_point": _median_us(lambda: [field(p) for p in stencil], len(stencil)),
    }


def _classify() -> dict:
    calls = collections.Counter()
    base = models.build("gaussian-kl")

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    model = dataclasses.replace(
        base,
        gradient_fn=counted("gradient", base.gradient_fn),
        hessian_fn=counted("hessian", base.hessian_fn),
    )
    grid = structure.default_grid(model, 5)
    walls = []
    for _ in range(CLASSIFY_RUNS):
        calls.clear()
        started = time.perf_counter()
        structure.classify(model, grid)
        walls.append(time.perf_counter() - started)
    return {
        "model": "gaussian-kl",
        "grid": "default_grid(model, 5)",
        "wall_s": [round(wall, 4) for wall in walls],
        "median_wall_s": round(statistics.median(walls), 4),
        "gradient_calls": calls["gradient"],
        "hessian_calls": calls["hessian"],
    }


def _catalogue_classify() -> dict:
    catalogue = models.catalogue()
    grids = {name: structure.default_grid(model) for name, model in catalogue.items()}
    walls = []
    for _ in range(CLASSIFY_RUNS):
        started = time.perf_counter()
        for name, model in catalogue.items():
            structure.classify(model, grids[name])
        walls.append(time.perf_counter() - started)
    return {
        "models": sorted(catalogue),
        "grid": "default_grid(model)",
        "wall_s": [round(wall, 4) for wall in walls],
        "median_wall_s": round(statistics.median(walls), 4),
    }


def main() -> int:
    record = {
        "commit": _git("rev-parse", "HEAD"),
        # changes beyond the commit, the record itself aside
        "uncommitted_changes": bool(_git("status", "--porcelain", ":!BENCH_fields.json")),
        "command": "python tools/time_fields.py",
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "loops": LOOPS,
        "repeats": REPEATS,
        "models": {name: _fields(name) for name in MODELS},
        "classify": _classify(),
        "catalogue_classify": _catalogue_classify(),
    }
    path = os.path.join(ROOT, "BENCH_fields.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

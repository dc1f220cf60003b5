"""dsm-geom benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
                             [--record FILE --label TEXT]

Run it from the repository root: it imports ``dsm_geom`` from ``./src`` and
writes job outputs and spans under ``./.perfbench/``.  Workloads (job lists
in workloads.py, drawn from ``--seed``):

- ``catalogue``: the batch report, classification and point ops;
- ``paths``: geodesics, transport, affine coordinates and Massieu;
- ``cli-oneshot``: cheap ops, each in a fresh ``python -m dsm_geom.cli``.

Load is a closed loop: one client sends the next job only after the
previous one has returned.  ``catalogue`` and ``paths`` call
``dsm_geom.cli.main`` in this process.  DSM_GEOM_THREADS is removed from
the environment, so the report's default thread pool is measured.

A run
1. times SETUP_REPEATS fresh interpreters that import ``dsm_geom.cli`` and
   build the catalogue (``setup_s`` is the median);
2. runs one counting pass in this process under a tracer that counts calls
   and records no spans; it warms caches and gives ``model_evals``;
3. with ``--trace 0`` runs untraced passes until ``--seconds`` have passed
   (``wall_s`` is their median); with ``--trace 1`` alternates untraced and
   traced passes and reports the per-layer metrics of the traced ones.

``setup_s``, ``wall_s`` and the ``setup.*`` times are given at a nominal
machine speed (see Speed); raw times are printed as well.  The other
per-layer seconds are raw span times.

Every pass's outputs are checked, and must be the same in every pass of a
run apart from ``runtime_ms``, so the tracer is seen to change no result.
The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("catalogue", "paths", "cli-oneshot")
SETUP_REPEATS = 7
JOB_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "model_evals": "count",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# the two tracer self-checks: the counts the ROADMAP baseline gives
SELF_CHECKS = (
    (
        ["--model", "gce", "--op", "geodesic", "--start", "1,-1", "--velocity", "1,0.5", "--t", "1"],
        {"models.gradient": 16000, "models.hessian": 28000, "geometry.metric_at": 4000, "geometry.gate_calls": 4000},
    ),
    (
        ["--model", "gaussian-kl", "--op", "classify", "--grid", "5"],
        {"models.gradient": 1200, "models.hessian": 2775},
    ),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("DSM_GEOM_THREADS", None)
    return env


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "DSM_GEOM_THREADS": "unset",
    }


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

# Iterations a second of the reference kernel on the machine the bounds were
# set on (2-vCPU sandbox, Python 3.11.7, numpy 2.4.6).  Times are reported
# at that speed; see Speed.
NOMINAL_RATE = 200_000.0
REFERENCE_SHARE = 0.15


class Speed:
    """Samples the machine's speed next to the work being timed.

    The hosts this runs on change speed by a quarter within minutes, and
    evenly across interpreter and small-numpy work, so one run's median
    says more about the host than about the program.  Between jobs the
    benchmark spends REFERENCE_SHARE of the job's time on a fixed kernel of
    the same kind of work (interpreter loops and 2-vector numpy calls);
    ``scale`` is then measured rate / NOMINAL_RATE and a time times
    ``scale`` is the time at the nominal speed.  The kernel is part of the
    benchmark, so a change to the program does not move it.
    """

    def __init__(self):
        import numpy

        self._np = numpy
        self._matrix = numpy.array([[2.0, 0.3], [0.3, 1.0]])
        self.iterations = 0
        self.elapsed = 0.0

    def _chunk(self, count=200):
        np, vector, total = self._np, self._np.array([0.1, 0.2]), 0.0
        for _ in range(count):
            image = self._matrix @ vector
            total += math.sin(float(image[0])) + float(np.max(np.abs(image)))
            vector = image / (1.0 + total * total)
        return count

    def sample(self, seconds: float):
        """Run the kernel for at least ``seconds`` (at least one chunk)."""
        started = time.perf_counter()
        while True:
            self.iterations += self._chunk()
            elapsed = time.perf_counter() - started
            if elapsed >= seconds:
                break
        self.elapsed += elapsed

    @property
    def scale(self) -> float:
        return self.iterations / self.elapsed / NOMINAL_RATE


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def measure_setup(repeats: int) -> list:
    """Set-up times of fresh interpreters, each scaled to the nominal speed."""
    samples = []
    for _ in range(repeats):
        speed = Speed()
        speed.sample(0.1)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "setup"],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=JOB_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        speed.sample(0.1)
        sample = json.loads(proc.stdout.splitlines()[-1])
        samples.append({key: value * speed.scale for key, value in sample.items()})
    return samples


def scipy_special_import_s() -> float:
    """Import time of scipy.special in a fresh interpreter that has numpy.

    ``python -X importtime`` does not list scipy.special itself (scipy
    loads it lazily), so it is timed directly, after numpy as in
    dsm_geom.core.
    """
    code = "import time, numpy; t = time.perf_counter(); import scipy.special; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=JOB_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"timing the scipy.special import failed: {proc.stderr.strip()}")
    return float(proc.stdout)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Pass:
    def __init__(self, raw_wall, scale, latencies, failures, fingerprints, summary=None):
        self.raw_wall = raw_wall
        self.scale = scale
        self.wall = raw_wall * scale  # at the nominal machine speed
        self.latencies = latencies
        self.failures = failures
        self.fingerprints = fingerprints
        self.summary = summary


def fingerprint(out: str) -> str:
    """Hash of a job's output files, ``runtime_ms`` and the output path left out."""
    digest = hashlib.sha256()
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
        return digest.hexdigest()
    with open(out, encoding="utf-8") as handle:
        document = json.load(handle)
    document.pop("runtime_ms", None)
    document["inputs"].pop("out")
    digest.update(json.dumps(document, sort_keys=True).encode())
    csv = os.path.splitext(out)[0] + ".csv"
    if os.path.exists(csv):
        with open(csv, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def run_in_process(cli, argv) -> object:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)
    except Exception as err:  # a job that raises is a failed job, not a failed run
        return f"{type(err).__name__}: {err}"


def run_process(command, timeout=JOB_TIMEOUT_S):
    try:
        proc = subprocess.run(
            command, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return f"timed out after {timeout} s"
    return proc.returncode if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"


def run_pass(workload, jobs, mode, tag) -> Pass:
    """Run every job once.  mode: "in-process", "process" or "traced-process"."""
    from dsm_geom import cli

    directory = os.path.join(WORK, workload, tag)
    spans_dir = os.path.join(WORK, "spans")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    os.makedirs(spans_dir, exist_ok=True)
    outs = [os.path.join(directory, job.out) for job in jobs]
    codes, latencies = [], []
    speed = Speed()
    for index, (job, out) in enumerate(zip(jobs, outs)):
        argv = job.argv + ["--out", out]
        begun = time.perf_counter()
        if mode == "in-process":
            codes.append(run_in_process(cli, argv))
        elif mode == "process":
            codes.append(run_process([sys.executable, "-m", "dsm_geom.cli"] + argv))
        else:
            spans = os.path.join(spans_dir, f"{workload}-{tag}-{index:02d}.npz")
            command = [sys.executable, os.path.join(HERE, "child.py"), "traced", out + ".trace", spans, "--"]
            codes.append(run_process(command + argv))
        latencies.append(time.perf_counter() - begun)
        speed.sample(REFERENCE_SHARE * latencies[-1])
    failures, fingerprints = [], []
    for job, out, code in zip(jobs, outs, codes):
        if code != 0:
            failures.append(f"{job.label}: {code}")
            fingerprints.append(None)
            continue
        try:
            job.check(out)
            fingerprints.append(fingerprint(out))
        except Exception as err:  # any error reading or checking the output fails the job
            failures.append(f"{job.label}: {type(err).__name__}: {err}")
            fingerprints.append(None)
    summary = None
    if mode == "traced-process":
        from tracer import merge_summaries

        found = []
        for out, code in zip(outs, codes):
            if code == 0:
                with open(out + ".trace", encoding="utf-8") as handle:
                    found.append(json.load(handle))
        summary = merge_summaries(found)
    return Pass(sum(latencies), speed.scale, latencies, failures, fingerprints, summary)


# ---------------------------------------------------------------------------
# statistics and output
# ---------------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tail_percentile(values):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            return p, statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
    return None


def describe(label, values, unit="s") -> str:
    q1, q2, q3 = quartiles(values)
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]:g} {tail[1]:.4f}" if tail else "no percentile has 10 samples beyond it"
    return f"# {label}: median {q2:.4f} {unit}, quartiles {q1:.4f}-{q3:.4f}, {tail_text}, n={len(values)}"


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "overhead", "per_step")):
        return "ratio"
    return "count"


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def self_check(cli, log) -> bool:
    """The tracer reproduces the baseline counts exactly."""
    from tracer import Tracer

    ok = True
    directory = os.path.join(WORK, "self-check")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    for index, (argv, expected) in enumerate(SELF_CHECKS):
        with Tracer(spans=False) as tracer:
            code = run_in_process(cli, argv + ["--out", os.path.join(directory, f"{index}.json")])
        counts = tracer.counts()
        got = {key: counts.get(key, 0) for key in expected}
        passed = code == 0 and got == expected
        ok = ok and passed
        log(f"# self-check {' '.join(argv[:4])}: {got} {'ok' if passed else f'expected {expected}'}")
    return ok


def run_workload(name, seed, seconds, trace, log) -> dict:
    from dsm_geom import cli
    from tracer import Tracer, layer_metrics, model_evals
    from workloads import WORKLOADS

    jobs = WORKLOADS[name](seed)
    fresh_processes = name == "cli-oneshot"
    setup = measure_setup(SETUP_REPEATS)

    with Tracer(spans=False) as counter:
        first = run_pass(name, jobs, "in-process", "count")
    evals = model_evals(counter.counts())
    passes = [first]
    untraced, traced = [], []
    untraced_mode = "process" if fresh_processes else "in-process"
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(run_pass(name, jobs, untraced_mode, "untraced"))
        if trace:
            if fresh_processes:
                traced.append(run_pass(name, jobs, "traced-process", "traced"))
            else:
                tracer = Tracer(spans=True)
                with tracer:
                    result = run_pass(name, jobs, "in-process", "traced")
                result.summary = tracer.summary()
                tracer.save(os.path.join(WORK, "spans", f"{name}-traced-{len(traced)}.npz"))
                traced.append(result)
        if time.perf_counter() >= deadline:
            break
    passes += untraced + traced

    problems = []
    for result in passes:
        problems += result.failures
        for job, reference, got in zip(jobs, first.fingerprints, result.fingerprints):
            if reference is not None and got is not None and got != reference:
                problems.append(f"{job.label}: output differs from the first pass")
    attempted = len(jobs) * len(passes)
    failed = len(problems)
    for problem in problems[:20]:
        log(f"# FAILED {problem}")

    walls = [result.wall for result in untraced]
    log(f"# {name}: seed {seed}, {len(jobs)} jobs a pass, {len(untraced)} untraced + {len(traced)} traced passes after 1 counting pass")
    log(describe("wall_s (untraced passes, at nominal speed)", walls))
    log(describe("raw wall (untraced passes)", [result.raw_wall for result in untraced]))
    log(describe("speed scale (untraced passes)", [result.scale for result in untraced], unit="x"))
    log(describe("job latency (untraced passes)", [x for r in untraced for x in r.latencies]))
    correct = failed == 0
    if not trace:
        setup_s = statistics.median(s["import_s"] + s["catalogue_build_s"] for s in setup)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "model_evals": evals,
            "ok_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb(children=fresh_processes),
        }
    else:
        per_pass = [layer_metrics(result.summary) for result in traced]
        metrics = {}
        for key in per_pass[0]:
            values = [m[key] for m in per_pass]
            if not key.endswith("_s") and len(set(values)) > 1:
                log(f"# FAILED count {key} differs between traced passes: {values}")
                correct = False
            metrics[key] = statistics.median(values)
        if model_evals(traced[0].summary["counts"]) != evals:
            log("# FAILED the traced and the counting pass disagree on model_evals")
            correct = False
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
        metrics["setup.import_scipy_special_s"] = scipy_special_import_s()
        metrics["setup.catalogue_build_s"] = statistics.median(s["catalogue_build_s"] for s in setup)
        metrics["trace.overhead"] = statistics.median(r.wall for r in traced) / statistics.median(walls)
        correct = self_check(cli, log) and correct
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit_of(key)} for key, value in metrics.items()},
    }


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------


def run_all(args, log) -> dict:
    """Each workload in its own process (so peak RSS is per workload), untraced then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(command, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"{name} failed: {proc.stderr.strip()[-500:]}")
            for line in lines[:-1]:
                log(line)
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = metric
                log(f"{name:<12} {key:<34} {metric['value']:>14.6g} {metric['unit']}")
    return combined


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(SRC):
        for file in files:
            if file.endswith(".py"):
                with open(os.path.join(folder, file), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def record(path, label, args, result):
    """Append this run to a BENCH trajectory file."""
    points = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            points = json.load(handle)
    points.append(
        {
            "label": label,
            "src_lines": src_lines(),
            "environment": environment(),
            "seed": args.seed,
            "seconds": args.seconds,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(points, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result of --workload all to this JSON file")
    parser.add_argument("--label", default="unlabelled", help="name of the recorded point")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dsm_geom", "cli.py")):
        print("perfbench: no ./src/dsm_geom here; run from the repository root", file=sys.stderr)
        return 2
    if args.record and args.workload != "all":
        parser.error("--record needs --workload all")
    sys.path.insert(0, SRC)
    os.environ.pop("DSM_GEOM_THREADS", None)
    os.makedirs(WORK, exist_ok=True)

    def log(line):
        print(line, flush=True)

    env = environment()
    log("# environment: " + ", ".join(f"{key}={value}" for key, value in env.items()))
    if args.workload == "all":
        result = run_all(args, log)
        if args.record:
            record(args.record, args.label, args, result)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, log)
        for key, metric in result["metrics"].items():
            log(f"{key:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded job lists for the three workloads, and the check each job's output must pass.

A job is one ``dsm-geom`` argv list (without ``--out``) plus a check that
reads the files the job wrote.  The same seed gives the same jobs.  Checks
use the acceptance suite's tolerances and compare against the catalogue's
closed-form oracles, or against closed forms written out here.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dsm_geom import models
from dsm_geom.core import GaussianData, RegressionData

# models whose connection the probes solve, with their expected verdicts
# (condition4, hessian_structure, exponential_family)
VERDICTS = {
    "gaussian-kl": ("pass", "pass", "yes"),
    "gaussian-sumsq": ("pass", "pass", "not-applicable"),
    "regression-dlambda": ("pass", "pass", "not-applicable"),
    "gce": ("pass", "pass", "yes"),
    "vmf-sphere": ("pass", "fail", "no"),
    "vmf-cylinder": ("pass", "pass", "yes"),
    "regression-ls": ("fail", "fail", "not-applicable"),
    "gumbel": ("fail", "fail", "no"),
}
PROBE_MODELS = (
    "gaussian-kl",
    "gaussian-sumsq",
    "regression-dlambda",
    "gce",
    "vmf-sphere",
    "vmf-cylinder",
)

# acceptance-suite tolerances
GEODESIC_TOL = 1e-6  # criterion 5: gce geodesic endpoint
AFFINE_TOL = 1e-4  # criterion 2: affine coordinates up to the affine gauge
MASSIEU_TOL = 1e-3  # criterion 4: Massieu potential up to the gauge
POINT_TOL = 1e-4  # criteria 1 and 4: metric and connection against closed forms
FLAT_TOL = 1e-3  # criteria 4 and 6: curvature
PYTHAGORAS_TOL = 1e-6  # criterion 6: fibre constancy


class CheckFailed(Exception):
    pass


@dataclass
class Job:
    argv: list
    out: str  # file (or, for the batch report, directory) name in the pass directory
    check: Callable[[str], None]  # raises CheckFailed given the output path

    @property
    def label(self) -> str:
        return f"{self.argv[1]}:{self.argv[3]}"


def _fmt(values) -> str:
    # used as --opt=VALUE, since argparse takes "-1.5,2" for an option
    return ",".join(repr(float(v)) for v in values)


def _draw(rng, low, high, digits=4):
    return round(float(rng.uniform(low, high)), digits)


def _central_point(rng, chart, fraction=0.6):
    point = []
    for lo, hi in chart.sample_box:
        pad = 0.5 * (1.0 - fraction) * (hi - lo)
        point.append(_draw(rng, lo + pad, hi - pad))
    return np.array(point)


def _load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def _gap(value, reference, floor) -> float:
    value, reference = np.asarray(value, dtype=float), np.asarray(reference, dtype=float)
    scale = max(float(np.max(np.abs(reference))), floor)
    return float(np.max(np.abs(value - reference))) / scale


def _expect_verdicts(doc, name):
    c4, hess, expfam = VERDICTS[name]
    got = doc["verdicts"]
    _expect(
        (got["condition4"], got["hessian_structure"], got["exponential_family"]) == (c4, hess, expfam),
        f"{name} verdicts {got}",
    )


def _jacobian(mapping, point, h=1e-6):
    point = np.asarray(point, dtype=float)
    columns = []
    for axis in range(point.size):
        step = np.zeros(point.size)
        step[axis] = h * max(abs(point[axis]), 1.0)
        columns.append((mapping(point + step) - mapping(point - step)) / (2.0 * step[axis]))
    return np.column_stack(columns)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_report(path):
    summary = _load(os.path.join(path, "summary.json"))
    rows = {row["model"]: row for row in summary["models"]}
    _expect(set(rows) == set(VERDICTS), f"report covers {sorted(rows)}")
    for name, row in rows.items():
        expected = VERDICTS[name]
        got = (row["condition4"], row["hessian_structure"], row["exponential_family"])
        _expect(got == expected, f"report verdicts of {name}: {got}")
        gaps = _load(os.path.join(path, f"{name}.json"))["results"]["oracle_comparison"]
        for key, value in gaps.items():
            _expect(value <= POINT_TOL, f"report {name} oracle {key} gap {value:.3g}")


def check_classify(name, points):
    def check(path):
        doc = _load(path)
        _expect_verdicts(doc, name)
        _expect(len(doc["results"]["grid"]) == points, f"{name} grid has {len(doc['results']['grid'])} points")

    return check


def check_metric(model, at):
    def check(path):
        doc = _load(path)
        if model.name == "regression-ls":
            _expect(doc["verdicts"] == {"condition4": "fail"}, f"regression-ls metric {doc['verdicts']}")
            return
        gap = _gap(doc["results"]["metric"], model.oracle.metric(at), 1e-12)
        _expect(gap <= POINT_TOL, f"{model.name} metric gap {gap:.3g}")

    return check


def check_connection(model, at):
    def check(path):
        doc = _load(path)
        _expect(doc["verdicts"] == {"hessian_structure": "pass"}, f"{model.name} connection {doc['verdicts']}")
        gap = _gap(doc["results"]["connection"], model.oracle.connection(at), 1.0)
        _expect(gap <= POINT_TOL, f"{model.name} connection gap {gap:.3g}")

    return check


def check_curvature(name, at):
    def check(path):
        doc = _load(path)
        if name == "vmf-sphere":
            component = doc["results"]["curvature"][0][1][0][1]
            expected = math.sin(at[0]) ** 2
            _expect(abs(component - expected) <= FLAT_TOL, f"sphere curvature {component} vs {expected}")
            _expect(doc["verdicts"] == {"flat": "fail"}, f"sphere flat verdict {doc['verdicts']}")
        else:
            _expect(doc["residuals"]["max_abs"] <= FLAT_TOL, f"{name} curvature {doc['residuals']}")
            _expect(doc["verdicts"] == {"flat": "pass"}, f"{name} flat verdict {doc['verdicts']}")

    return check


def check_endpoint(expected, tol, samples):
    def check(path):
        doc = _load(path)
        results = doc["results"]
        _expect(not results["flags"], f"trace flags {results['flags']}")
        _expect(results["samples"] == samples, f"trace has {results['samples']} samples")
        gap = float(np.max(np.abs(np.array(results["end_point"]) - expected)))
        _expect(gap < tol, f"geodesic endpoint off by {gap:.3g}")
        with open(os.path.splitext(path)[0] + ".csv", encoding="utf-8") as handle:
            rows = handle.read().splitlines()
        _expect(len(rows) == samples + 1, f"trace csv has {len(rows)} lines")

    return check


def sphere_geodesic(start, velocity, t):
    """Closed-form sphere geodesic: a great circle at constant speed."""
    theta, phi = start
    u = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    d_theta = np.array([math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), -math.sin(theta)])
    d_phi = np.array([-math.sin(theta) * math.sin(phi), math.sin(theta) * math.cos(phi), 0.0])
    w = velocity[0] * d_theta + velocity[1] * d_phi
    speed = float(np.linalg.norm(w))
    end = u * math.cos(speed * t) + w / speed * math.sin(speed * t)
    # unwrap phi continuously from the start (the chart's phi is not periodic)
    phi_end = math.atan2(end[1], end[0])
    phi_end += 2.0 * math.pi * round((phi + velocity[1] * t - phi_end) / (2.0 * math.pi))
    return np.array([math.acos(max(-1.0, min(1.0, end[2]))), phi_end])


def check_transport(model, start, end, vector):
    """A flat connection keeps the components in affine coordinates."""

    def check(path):
        doc = _load(path)
        results = doc["results"]
        _expect(not results["flags"], f"transport flags {results['flags']}")
        before = _jacobian(model.oracle.affine_map, start) @ vector
        after = _jacobian(model.oracle.affine_map, end) @ np.array(results["end_vector"])
        gap = _gap(after, before, 1.0)
        _expect(gap < AFFINE_TOL, f"transported vector off by {gap:.3g} in affine components")

    return check


def check_affine(model, start, target):
    """Theta = J(theta0)^-1 (affine_map - affine_map(theta0)) fixes the gauge."""

    def check(path):
        doc = _load(path)
        inverse = np.linalg.inv(_jacobian(model.oracle.affine_map, start))
        expected = inverse @ (model.oracle.affine_map(target) - model.oracle.affine_map(start))
        gap = _gap(doc["results"]["values"][0], expected, 1.0)
        _expect(gap < AFFINE_TOL, f"affine value off by {gap:.3g}")
        gradient = inverse @ _jacobian(model.oracle.affine_map, target)
        gap = _gap(doc["results"]["gradients"][0], gradient, 1.0)
        _expect(gap < AFFINE_TOL, f"affine gradient off by {gap:.3g}")

    return check


def check_massieu(model, start, target):
    """Chart coordinates are affine on the cylinder: Phi is the Taylor remainder."""

    def check(path):
        doc = _load(path)
        potential = model.oracle.massieu_chart
        slope = _jacobian(lambda p: np.array([potential(p)]), start)[0]
        expected = potential(target) - potential(start) - slope @ (target - start)
        gap = abs(doc["results"]["potentials"][0] - expected)
        _expect(gap < MASSIEU_TOL, f"Massieu potential off by {gap:.3g}")
        covector = _jacobian(lambda p: np.array([potential(p)]), target)[0] - slope
        gap = _gap(doc["results"]["covectors"][0], covector, 1.0)
        _expect(gap < MASSIEU_TOL, f"Massieu covector off by {gap:.3g}")

    return check


def check_pythagoras(name):
    def check(path):
        deviation = _load(path)["residuals"]["fibre_deviation"]
        _expect(deviation <= PYTHAGORAS_TOL, f"{name} fibre deviation {deviation:.3g}")

    return check


def check_fit(expected):
    def check(path):
        results = _load(path)["results"]
        _expect(results["converged"], "fit did not converge")
        gap = _gap(results["theta_star"], expected, 1.0)
        _expect(gap < POINT_TOL, f"fit off the closed form by {gap:.3g}")

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _argv(name, op, levels=None):
    return ["--model", name, "--op", op] + (["--levels=" + _fmt(levels)] if levels is not None else [])


def _classify_job(rng, model, args):
    """Classify on a seed-drawn grid over the central part of the sample box.

    Per-axis sizes are (n, 8 - n) with n in 3..5, so 15 or 16 points: the
    seed moves the grid without moving the amount of work much.
    """
    across = int(rng.integers(3, 6))
    fraction = _draw(rng, 0.5, 0.7)
    axes = []
    for (lo, hi), count in zip(model.chart.sample_box, (across, 8 - across)):
        pad = 0.5 * (1.0 - fraction) * (hi - lo)
        axes.append(np.linspace(lo + pad, hi - pad, count))
    grid = [(a, b) for a in axes[0] for b in axes[1]]
    text = ";".join(_fmt(point) for point in grid)
    return Job(args + ["--grid=" + text], "", check_classify(model.name, len(grid)))


def _gce_levels(rng):
    count = int(rng.integers(3, 7))
    gaps = [_draw(rng, 0.5, 1.5) for _ in range(count)]
    return [round(v, 4) for v in np.cumsum(gaps)]


def catalogue(seed: int) -> list:
    """Batch report, classification and point ops; no path integration."""
    rng = np.random.default_rng([seed, 1])
    jobs = [
        Job(
            ["--model", "all", "--op", "report", "--seed", str(int(rng.integers(0, 2**31)))],
            "report",
            check_report,
        )
    ]
    levels = _gce_levels(rng)
    built = {name: models.build(name) for name in VERDICTS}
    built["gce"] = models.build("gce", levels=levels)
    for name in PROBE_MODELS + ("regression-ls",):
        args = _argv(name, "classify", levels if name == "gce" else None)
        jobs.append(_classify_job(rng, built[name], args))
    per_axis = int(rng.integers(3, 6))
    jobs.append(Job(["--model", "gumbel", "--op", "classify", "--grid", str(per_axis)], "", check_classify("gumbel", per_axis)))
    for name in PROBE_MODELS + ("regression-ls",):
        model = built[name]
        spectrum = levels if name == "gce" else None
        at = _central_point(rng, model.chart)
        jobs.append(Job(_argv(name, "metric", spectrum) + ["--at=" + _fmt(at)], "", check_metric(model, at)))
        if name == "regression-ls":
            continue
        at = _central_point(rng, model.chart)
        jobs.append(Job(_argv(name, "connection", spectrum) + ["--at=" + _fmt(at)], "", check_connection(model, at)))
        at = _central_point(rng, model.chart)
        jobs.append(Job(_argv(name, "curvature", spectrum) + ["--at=" + _fmt(at)], "", check_curvature(name, at)))
    return _named(jobs)


def paths(seed: int) -> list:
    """Path integrators: geodesics, transport, affine coordinates, Massieu."""
    rng = np.random.default_rng([seed, 2])
    gce = models.build("gce")
    start, velocity = np.array([1.0, -1.0]), np.array([1.0, 0.5])
    closed = gce.oracle.geodesic(start, velocity, 1.0)
    geodesic = ["--model", "gce", "--op", "geodesic", "--start", "1,-1", "--velocity", "1,0.5", "--t", "1"]
    jobs = [
        Job(geodesic, "", check_endpoint(closed, GEODESIC_TOL, 1001)),
        Job(geodesic + ["--field", "oracle"], "", check_endpoint(closed, GEODESIC_TOL, 1001)),
    ]
    sphere = models.build("vmf-sphere")
    at = _central_point(rng, sphere.chart)
    v = np.array([_draw(rng, -0.35, 0.35), _draw(rng, -0.35, 0.35)])
    jobs.append(
        Job(
            ["--model", "vmf-sphere", "--op", "geodesic", "--start=" + _fmt(at), "--velocity=" + _fmt(v), "--t", "1"],
            "",
            check_endpoint(sphere_geodesic(at, v, 1.0), POINT_TOL, 1001),
        )
    )
    kl = models.build("gaussian-kl")
    a, b = _central_point(rng, kl.chart), _central_point(rng, kl.chart)
    vector = np.array([_draw(rng, -1.0, 1.0), _draw(rng, -1.0, 1.0)])
    jobs.append(
        Job(
            ["--model", "gaussian-kl", "--op", "transport", "--start=" + _fmt(a), "--end=" + _fmt(b), "--vector=" + _fmt(vector)],
            "",
            check_transport(kl, a, b, vector),
        )
    )
    a, b = _central_point(rng, gce.chart), _central_point(rng, gce.chart)
    jobs.append(
        Job(
            ["--model", "gce", "--op", "affine", "--start=" + _fmt(a), "--targets=" + _fmt(b)],
            "",
            check_affine(gce, a, b),
        )
    )
    cylinder = models.build("vmf-cylinder")
    a, b = _central_point(rng, cylinder.chart), _central_point(rng, cylinder.chart)
    jobs.append(
        Job(
            ["--model", "vmf-cylinder", "--op", "massieu", "--start=" + _fmt(a), "--targets=" + _fmt(b)],
            "",
            check_massieu(cylinder, a, b),
        )
    )
    return _named(jobs)


def cli_oneshot(seed: int) -> list:
    """Cheap ops, one fresh process each."""
    rng = np.random.default_rng([seed, 3])
    built = {name: models.build(name) for name in VERDICTS}
    jobs = []

    def point(name):
        return _central_point(rng, built[name].chart)

    for name in ("gaussian-kl", "vmf-cylinder", "vmf-sphere", "regression-ls"):
        at = point(name)
        jobs.append(Job(["--model", name, "--op", "metric", "--at=" + _fmt(at)], "", check_metric(built[name], at)))
    for name in ("gce", "vmf-sphere"):
        at = point(name)
        jobs.append(Job(["--model", name, "--op", "connection", "--at=" + _fmt(at)], "", check_connection(built[name], at)))
    for name in ("gaussian-sumsq", "regression-dlambda"):
        at = point(name)
        jobs.append(Job(["--model", name, "--op", "curvature", "--at=" + _fmt(at)], "", check_curvature(name, at)))
    for name in ("gaussian-kl", "gce"):
        at, other = point(name), point(name)
        jobs.append(
            Job(
                ["--model", name, "--op", "pythagoras", "--at=" + _fmt(at), "--other=" + _fmt(other)],
                "",
                check_pythagoras(name),
            )
        )
    # no gaussian-kl fit: its line search stalls at the optimum for about
    # one start in eight (exit 2), a defect recorded for a later fix
    for name in ("gaussian-sumsq",):
        mean, std = _draw(rng, -1.0, 1.0), _draw(rng, 0.7, 2.0)
        spec = {"kind": "gaussian", "mean": mean, "std": std}
        expected = built[name].closed_form_fit(GaussianData(mean, std))
        jobs.append(
            Job(
                ["--model", name, "--op", "fit", "--data", json.dumps(spec), "--start=" + _fmt(point(name))],
                "",
                check_fit(expected),
            )
        )
    for name in ("regression-ls", "regression-dlambda"):
        xs = np.sort([_draw(rng, -2.0, 2.0) for _ in range(5)])
        couples = [[float(x) + 0.5 * i, _draw(rng, -2.0, 2.0)] for i, x in enumerate(xs)]
        spec = {"kind": "regression", "couples": couples}
        expected = built[name].closed_form_fit(RegressionData(couples))
        jobs.append(
            Job(
                ["--model", name, "--op", "fit", "--data", json.dumps(spec), "--start=" + _fmt(point(name))],
                "",
                check_fit(expected),
            )
        )
    per_axis = int(rng.integers(3, 6))
    jobs.append(Job(["--model", "gumbel", "--op", "classify", "--grid", str(per_axis)], "", check_classify("gumbel", per_axis)))
    jobs.append(_classify_job(rng, built["regression-ls"], _argv("regression-ls", "classify")))
    gce = built["gce"]
    start = point("gce")
    velocity = np.array([_draw(rng, 0.2, 1.0), _draw(rng, -0.5, 0.5)])
    jobs.append(
        Job(
            ["--model", "gce", "--op", "geodesic", "--start=" + _fmt(start), "--velocity=" + _fmt(velocity), "--t", "1", "--field", "oracle"],
            "",
            check_endpoint(gce.oracle.geodesic(start, velocity, 1.0), GEODESIC_TOL, 1001),
        )
    )
    return _named(jobs)


def _named(jobs):
    for index, job in enumerate(jobs):
        if not job.out:
            job.out = f"{index:02d}-{job.argv[3]}-{job.argv[1]}.json"
        else:
            job.out = f"{index:02d}-{job.out}"
    return jobs


WORKLOADS = {"catalogue": catalogue, "paths": paths, "cli-oneshot": cli_oneshot}

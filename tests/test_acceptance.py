"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dsm_geom import geometry, models, numdiff, structure, transport
from dsm_geom.core import divergence_gradient
from dsm_geom.errors import Condition4Violated

from conftest import (
    HESSIAN_STRUCTURED,
    METRIC_BEARING,
    gauge_fit_residual,
    random_chart_point,
    random_dataset,
)


def _announce(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_gaussian_kl_geometry(catalogue):
    model = catalogue["gaussian-kl"]
    divergence_only = dataclasses.replace(model, gradient_fn=None, hessian_fn=None)
    fd = geometry.metric_at(divergence_only, [0.0, 1.0]).matrix
    assert np.max(np.abs(fd - np.diag([1.0, 2.0]))) < 1e-4
    assert model.hessian_fn is not None
    analytic = geometry.metric_at(model, [0.0, 1.0]).matrix
    assert np.max(np.abs(analytic - np.diag([1.0, 2.0]))) < 1e-10
    for sigma in (1.0, 2.0, 3.0):
        omega = geometry.connection_at(model, [0.0, sigma]).omega
        assert abs(omega[0, 0, 1] - (-2.0 / sigma)) < 1e-4
        assert abs(omega[0, 1, 0] - (-2.0 / sigma)) < 1e-4
        assert abs(omega[1, 1, 1] - (-3.0 / sigma)) < 1e-4
    _announce(1, "gaussian-kl metric diag(1,2) and connection -2/sigma, -3/sigma")


def test_criterion_2_canonical_parameter_recovery(catalogue):
    cases = {
        "gaussian-kl": [0.0, 1.0],
        "gaussian-sumsq": [0.0, 1.0],
        "gce": [1.0, 0.0],
    }
    rng = np.random.default_rng(2)
    for name, theta0 in cases.items():
        model = catalogue[name]
        targets = model.chart.random_points(rng, 10)
        amap = structure.affine_coordinates(model, theta0, targets)
        closed = [model.oracle.affine_map(t) for t in targets]
        residual = gauge_fit_residual(amap.values, closed)
        assert residual < 1e-4, (name, residual)
    _announce(2, "affine coordinates match canonical parameters at 10 targets each")


def test_criterion_3_negative_detections(catalogue):
    with pytest.raises(Condition4Violated):
        geometry.metric_at(catalogue["regression-ls"], [0.5, -0.25])
    from dsm_geom.models.gumbel import compatible_point

    point = compatible_point(1.0)
    with pytest.raises(Condition4Violated) as excinfo:
        geometry.metric_at(catalogue["gumbel"], point)
    alpha2 = point[0] ** 2
    varying = sorted(
        (hess[0, 0] - 1.0 / alpha2) * alpha2 for hess in excinfo.value.member_hessians
    )
    assert abs(varying[0] / 0.5 - 1.0) < 0.02
    assert abs(varying[1] / 0.8157 - 1.0) < 0.02
    _announce(3, "regression-ls and gumbel flagged; 0.5 vs 0.8157 split reproduced")


def test_criterion_4_sphere_vs_cylinder():
    kappa = 2.0
    sphere = models.build("vmf-sphere", kappa=kappa)
    for point in ([math.pi / 3, 0.2], [1.9, -0.7]):
        g = geometry.metric_at(sphere, point).matrix
        expected = np.diag([kappa, kappa * math.sin(point[0]) ** 2])
        assert np.max(np.abs(g - expected)) < 1e-4
        omega = geometry.connection_at(sphere, point).omega
        t = point[0]
        assert abs(omega[0, 1, 1] + math.sin(t) * math.cos(t)) < 1e-4
        assert abs(omega[1, 0, 1] - math.cos(t) / math.sin(t)) < 1e-4
        curvature = geometry.curvature_at(geometry.connection_field(sphere), point)
        assert abs(curvature.components[0, 1, 0, 1] - math.sin(t) ** 2) < 1e-3
    report = structure.classify(sphere, theta_grid=structure.default_grid(sphere, 3))
    assert report.exponential_family == "no"

    cylinder = models.build("vmf-cylinder", kappa=kappa)
    for point in ([0.3, 1.2], [-1.0, 2.4]):
        g = geometry.metric_at(cylinder, point).matrix
        assert np.max(np.abs(g - np.diag([kappa, 1.0 / point[1] ** 2]))) < 1e-6
        omega = geometry.connection_at(cylinder, point).omega
        assert np.max(np.abs(omega)) < 1e-6
    theta0 = [0.0, 1.0]
    targets = [[0.4, 1.5], [-0.8, 0.9], [1.2, 2.2], [0.9, 1.1], [-1.4, 2.6]]
    sample = structure.massieu(cylinder, theta0, targets)
    closed = [0.5 * kappa * p[0] ** 2 - math.log(p[1]) for p in targets]
    # fit the affine-in-chart gauge (chart coords are the affine ones here)
    design = np.column_stack([np.array(targets), np.ones(len(targets))])
    coeffs, *_ = np.linalg.lstsq(design, np.array(sample.potentials) - np.array(closed), rcond=None)
    gauge_residual = np.max(
        np.abs(np.array(sample.potentials) - np.array(closed) - design @ coeffs)
    )
    assert gauge_residual < 1e-3
    report = structure.classify(cylinder, theta_grid=structure.default_grid(cylinder, 3))
    assert report.exponential_family == "yes"
    _announce(4, "sphere curved (not exponential); cylinder flat with Massieu recovered")


def test_criterion_5_gce_dynamics(catalogue):
    gce = catalogue["gce"]
    theta0, velocity = [1.0, -1.0], [1.0, 0.5]
    trace = transport.geodesic(geometry.connection_field(gce), theta0, velocity, 1.0)
    closed = gce.oracle.geodesic(theta0, velocity, 1.0)
    assert np.max(np.abs(trace.end_point - closed)) < 1e-6
    grid = [
        np.array([beta, mu])
        for beta in np.linspace(0.5, 3.0, 6)
        for mu in np.linspace(-2.0, 0.9, 6)
    ]
    field = transport.covariant_constant_field(
        geometry.connection_field(gce), [1.0, 0.0], [1.0, 0.0], grid
    )
    for point, vector in zip(field.points, field.vectors):
        mu0 = 0.0  # seed (1, 0) at (1, 0) pins the integration constant
        expected = np.array([1.0, (mu0 - point[1]) / point[0]])
        assert np.max(np.abs(vector - expected)) < 1e-4
    _announce(5, "gce geodesic endpoint and covariant-constant field match closed forms")


def test_criterion_6_structural_property_suite(catalogue):
    rng = np.random.default_rng(6)
    # metric PD and Cauchy-Schwarz margins
    for name in METRIC_BEARING:
        model = catalogue[name]
        point = random_chart_point(model, rng)
        report = geometry.cramer_rao_check(model, point)
        assert report.worst_margin >= -1e-10, name
    # probe-family independence of the connection (sphere included)
    for name in METRIC_BEARING:
        model = catalogue[name]
        for _ in range(25):
            point = random_chart_point(model, rng)
            assert geometry.connection_at(model, point).probe_consistency <= 1e-3, name
    # torsion, flatness, Codazzi for the Hessian-structured models
    for name in HESSIAN_STRUCTURED:
        model = catalogue[name]
        metric, conn = geometry.metric_field(model), geometry.connection_field(model)
        for _ in range(25):
            point = random_chart_point(model, rng)
            evaluation = geometry.connection_at(model, point)
            assert geometry.torsion_residual(evaluation.omega) <= 1e-3, name
            assert geometry.curvature_at(conn, point).max_abs <= 1e-3, name
            assert geometry.codazzi_residual(metric, conn, point)[1] <= 1e-3, name
    # Pythagorean fibre constancy
    for name in HESSIAN_STRUCTURED:
        model = catalogue[name]
        for _ in range(10):
            report = structure.pythagorean_check(
                model, random_chart_point(model, rng), random_chart_point(model, rng)
            )
            assert report.max_deviation <= 1e-6, name
    # metric transformation under the canonical chart change
    for name in ("gaussian-kl", "gce", "gaussian-sumsq"):
        residual = geometry.metric_transform_check(
            catalogue[name], random_chart_point(catalogue[name], rng)
        )
        assert residual <= 1e-4, name
    # analytic vs FD derivative cross-checks
    for model in catalogue.values():
        assert model.gradient_fn is not None, model.name
        domain = model.chart.domain
        for _ in range(20):
            x = random_dataset(model, rng)
            theta = random_chart_point(model, rng)
            analytic = divergence_gradient(model, x, theta)
            fd = numdiff.fd_gradient(lambda t: model.divergence_fn(x, t), theta, domain)
            scale = max(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(analytic - fd)) / scale <= 1e-5, model.name
    _announce(6, "structural property suite at its stated tolerances")


def test_criterion_7_determinism(tmp_path):
    outputs = []
    for label in ("one", "two"):
        out = tmp_path / label
        result = subprocess.run(
            [
                sys.executable, "-m", "dsm_geom.cli",
                "--model", "all", "--op", "report", "--seed", "42", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name
    _announce(7, "report_all with a fixed seed is byte-identical across runs")

import dataclasses
import json
import math

import numpy as np
import pytest

from dsm_geom import core, geometry, models, numdiff, structure, transport
from dsm_geom.core import DataSet, Tolerances, passes
from dsm_geom.errors import (
    Condition4Violated,
    DomainError,
    MetricNotPD,
    NumericalFailure,
    ProbeSingular,
    Unsupported,
)
from dsm_geom.geometry import connection_field, metric_field

from conftest import (
    HESSIAN_STRUCTURED,
    RAISE_FP_ERRORS,
    counted_model,
    faulty_model,
    gauge_fit_residual,
    gaussian_kl_closed_form,
    nan_gradient_probe_model,
    nan_probe_model,
    random_chart_point,
    raised,
    split_model,
    stencil_points,
)


def per_point_classify(model, grid, tol=Tolerances()) -> structure.GeometryReport:
    """classify as one grid point after another: each point's metric_at,
    connection_at, curvature_at and codazzi_residual in turn, kept as the
    reference the phased classify equals."""
    grid = core.require_points(grid, model.chart.domain, "classify grid point")
    tolerances = dataclasses.asdict(tol)
    del tolerances["path"]
    worst = {}
    metric = metric_field(model, tol=tol)
    conn = connection_field(model, tol=tol)

    def track(key, value, point, evidence=None):
        old = worst[key][0] if key in worst else -np.inf
        if value > old or (np.isnan(value) and not np.isnan(old)):
            worst[key] = (value, [float(c) for c in point], evidence)

    for point in grid:
        try:
            evaluation = geometry.metric_at(model, point, tol=tol)
        except Condition4Violated as err:
            track("cond4", err.deviation, point, structure.condition4_evidence(model, err))
            continue
        except (MetricNotPD, ArithmeticError) as err:
            track("cond4", float("inf"), point, {"point": point.tolist(), "error": str(err)})
            continue
        track("cond4", evaluation.fibre_deviation, point)
        try:
            connection = geometry.connection_at(model, point, tol=tol)
        except Unsupported:
            continue
        except (ProbeSingular, ArithmeticError) as err:
            track("hessian", float("inf"), point, {"point": point.tolist(), "error": str(err)})
            continue
        track("hessian", connection.probe_consistency, point)
        if not passes(connection.probe_consistency, tol.hessian):
            continue
        try:
            track("flat", geometry.curvature_at(conn, point).max_abs, point)
            track("codazzi", geometry.codazzi_residual(metric, conn, point)[1], point)
        except Condition4Violated as err:
            track("cond4", err.deviation, point, structure.condition4_evidence(model, err))
    blocks = {}
    for block, value_key, key in structure._CHECKS:
        value, point, evidence = worst.get(key, (None, None, None))
        entry = {"status": "not-evaluated", value_key: None}
        if key in worst and (key == "cond4" or blocks["condition4"]["status"] == "pass"):
            status = "pass" if passes(value, tolerances[key]) else "fail"
            entry = {"status": status, value_key: value, "worst_point": point}
        if evidence is not None or key == "cond4":
            entry["evidence"] = evidence
        blocks[block] = entry
    statuses = {entry["status"] for entry in blocks.values()}
    verdict = "fail" if "fail" in statuses else "pass" if statuses == {"pass"} else "not-evaluated"
    family = {"pass": "yes", "fail": "no"}.get(verdict, "not-evaluated")
    return structure.GeometryReport(
        model.name, [list(map(float, point)) for point in grid], tolerances, **blocks,
        hessian_structure=verdict,
        exponential_family=family if model.divergence_tag == "kl" else "not-applicable",
    )


def report_bytes(report) -> str:
    return json.dumps(dataclasses.asdict(report))


class TestPhasedClassify:
    """classify evaluates each check over the whole grid as one stack and
    replays each point's results in grid order: its report, its model calls
    and what it raises are those of the per-point reference."""

    @pytest.mark.parametrize("per_axis", [3, 4, 5, 7])
    @pytest.mark.parametrize("name", models.MODEL_NAMES)
    def test_each_catalogue_model_is_the_per_point_reference(self, catalogue, name, per_axis):
        model, calls = counted_model(catalogue[name])
        grid = structure.default_grid(model, per_axis)
        phased = report_bytes(structure.classify(model, grid))
        phased_calls = dict(calls)
        calls.clear()
        assert phased == report_bytes(per_point_classify(model, grid))
        assert phased_calls == calls

    def test_a_near_bound_point_takes_the_one_sided_stencil(self, catalogue):
        # the angle pi - 1e-7 has no room for a central stencil on axis 0
        model, calls = counted_model(catalogue["vmf-cylinder"])
        grid = [[math.pi - 1e-7, 1.0], [0.3, 1.2], [-math.pi + 2e-7, 0.7]]
        # the one-sided stencil reads its centre
        assert stencil_points(model, grid[0])[0].tolist() == grid[0]
        phased = report_bytes(structure.classify(model, grid))
        phased_calls = dict(calls)
        calls.clear()
        assert phased == report_bytes(per_point_classify(model, grid))
        assert phased_calls == calls

    def test_an_arithmetic_failure_is_recorded_and_a_later_stencil_error_raised(self):
        # the middle point's Hessian raises: a failed condition-4 check with
        # its evidence; then a stencil point of a later grid point refuses its
        # fibre, which ends classify there, before the next grid point's own
        # refusal is reached, though the phased gate meets that one first
        grid = structure.default_grid(models.build("gaussian-kl"), 3)
        middle, later = grid[4], grid[6]
        sound = faulty_model(hessian_at=middle)
        report = structure.classify(sound, grid)
        assert report_bytes(report) == report_bytes(per_point_classify(sound, grid))
        assert report.condition4["evidence"] == {
            "point": middle.tolist(), "error": f"hessian refuses {middle.tolist()}"
        }
        stencil = stencil_points(sound, later)
        model = faulty_model(hessian_at=middle, sampler_at=(stencil[2], grid[7]))
        phased = raised(lambda: structure.classify(model, grid))
        assert phased == raised(lambda: per_point_classify(model, grid))
        assert phased == (ValueError, f"sampler refuses {stencil[2].tolist()}")

    def test_the_first_point_that_ends_classify_raises(self, catalogue):
        # sigma = 1e-9 takes a one-sided stencil that disagrees with its half
        # step; the point after it would end classify too
        model = catalogue["gaussian-kl"]
        grid = [[0.0, 1.0], [0.0, 1e-9], [0.5, 2e-9]]
        phased = raised(lambda: structure.classify(model, grid))
        assert phased == raised(lambda: per_point_classify(model, grid))
        assert phased[0] is NumericalFailure and "[0.0, 1e-09]" in phased[1]


class TestClassify:
    def test_gaussian_grid_is_exponential_family(self, catalogue):
        grid = [
            np.array([mu, sigma])
            for mu in np.linspace(-1.0, 1.0, 5)
            for sigma in np.linspace(0.5, 3.0, 5)
        ]
        report = structure.classify(catalogue["gaussian-kl"], theta_grid=grid)
        assert report.condition4["status"] == "pass"
        assert report.hessian_structure == "pass"
        assert report.exponential_family == "yes"

    def test_sphere_fails_flatness_only(self):
        report = structure.classify(models.build("vmf-sphere", kappa=2.0))
        assert report.condition4["status"] == "pass"
        assert report.probe_consistency["status"] == "pass"
        assert report.flat["status"] == "fail"
        assert report.flat["max_curvature"] > 1e-2
        assert report.exponential_family == "no"

    def test_gumbel_fails_condition4_with_ratio(self, catalogue):
        report = structure.classify(catalogue["gumbel"])
        assert report.condition4["status"] == "fail"
        evidence = report.condition4["evidence"]
        assert evidence["varying_ratio"] == pytest.approx(1.64, abs=0.01)
        assert report.exponential_family == "no"

    @pytest.mark.parametrize("name", ["gumbel", "regression-ls"])
    def test_condition4_evidence_is_the_worst_points(self, catalogue, name):
        condition4 = structure.classify(catalogue[name]).condition4
        assert condition4["status"] == "fail"
        assert condition4["evidence"]["point"] == condition4["worst_point"]
        assert condition4["evidence"]["deviation"] == condition4["worst_deviation"]

    def test_gumbel_varying_ratio_is_the_same_at_every_point(self, catalogue):
        gumbel = catalogue["gumbel"]
        for point in structure.default_grid(gumbel):
            with pytest.raises(geometry.Condition4Violated) as caught:
                geometry.metric_at(gumbel, point)
            evidence = structure.condition4_evidence(gumbel, caught.value)
            assert evidence["point"] == list(point)
            assert evidence["varying_ratio"] == pytest.approx(1.6455, abs=1e-4), point

    def test_probe_failure_keeps_condition4_evidence(self):
        # members disagree on the weight for u > 0 (condition 4 fails there);
        # the probes are degenerate everywhere (the probe solve fails
        # wherever condition 4 holds)
        def probes(theta, family):
            return [DataSet({"c1": theta[0], "c2": theta[1], "w": 1.0, "entropy": 0.0})] * 4

        model = split_model(probes)
        report = structure.classify(model, [[-1.0, 0.0], [1.0, 0.0], [-0.5, 0.0]])
        assert report.condition4["status"] == "fail"
        assert report.condition4["evidence"]["point"] == [1.0, 0.0]
        assert report.condition4["evidence"]["deviation"] > 0.1
        probe = report.probe_consistency
        assert probe["status"] == "not-evaluated"
        assert probe["evidence"]["point"] == [-1.0, 0.0]
        assert "singular" in probe["evidence"]["error"]
        # the key is there only when a probe solve broke down
        clean = structure.classify(model, [[1.0, 0.0]])
        assert "evidence" not in clean.probe_consistency

    def test_condition4_failure_at_a_stencil_point_is_a_verdict(self):
        # (0, 0) passes condition 4, and the curvature's FD stencil steps onto
        # u > 0, where it fails; that used to escape classify as an error
        report = structure.classify(split_model(), [[0.0, 0.0], [-0.5, 0.0]])
        assert report.condition4["status"] == "fail"
        assert report.condition4["worst_point"] == [0.0, 0.0]
        evidence = report.condition4["evidence"]
        assert evidence["point"][0] > 0 and evidence["point"][1] == 0.0
        assert evidence["deviation"] == report.condition4["worst_deviation"] > 0.1
        assert report.hessian_structure == "fail"
        assert report.flat["status"] == "not-evaluated"

    def test_verdict_consistency_across_catalogue(self, catalogue):
        expected = {
            "gaussian-kl": "yes",
            "gce": "yes",
            "vmf-cylinder": "yes",
            "vmf-sphere": "no",
            "gumbel": "no",
            "gaussian-sumsq": "not-applicable",
            "regression-ls": "not-applicable",
            "regression-dlambda": "not-applicable",
        }
        condition4_fails = {"regression-ls", "gumbel"}
        for name, model in catalogue.items():
            report = structure.classify(model, theta_grid=structure.default_grid(model, 3))
            assert report.exponential_family == expected[name], name
            assert report.condition4["status"] == ("fail" if name in condition4_fails else "pass"), name

    def test_report_serialises(self, catalogue):
        report = structure.classify(
            catalogue["regression-dlambda"],
            theta_grid=structure.default_grid(catalogue["regression-dlambda"], 2),
        )
        payload = dataclasses.asdict(report)
        assert payload["hessian_structure"] == "pass"
        assert payload["condition4"]["status"] == "pass"


    def test_a_zero_residual_names_the_first_grid_point(self, catalogue):
        # every residual of the flat regression model is exactly 0; the worst
        # point used to be null for a check that ran at every point
        model = catalogue["regression-dlambda"]
        grid = structure.default_grid(model, 2)
        report = structure.classify(model, grid)
        for block in ("condition4", "probe_consistency", "flat", "codazzi"):
            entry = getattr(report, block)
            assert entry["status"] == "pass", block
            assert entry["worst_point"] == list(map(float, grid[0])), block

    def test_check_run_at_no_point_is_not_evaluated(self, catalogue):
        # every point stops at the probe check; the three checks after it used
        # to pass with value 0.0 on the curved sphere
        model = catalogue["vmf-sphere"]
        grid = structure.default_grid(model, 2)
        report = structure.classify(model, grid, tol=Tolerances(hessian=1e-300))
        assert report.probe_consistency["status"] == "fail"
        assert report.flat == {"status": "not-evaluated", "max_curvature": None}
        assert report.codazzi == {"status": "not-evaluated", "residual": None}
        assert report.hessian_structure == "fail"
        assert report.exponential_family == "no"

    def test_empty_grid_raises(self, catalogue):
        # an empty grid used to pass every check without evaluating one
        with pytest.raises(DomainError, match="grid point"):
            structure.classify(catalogue["regression-ls"], theta_grid=[])

    def test_grid_over_the_budget_raises_before_any_model_call(self, catalogue):
        calls = []
        model = dataclasses.replace(catalogue["gaussian-kl"], fibre_sampler_fn=calls.append)
        with pytest.raises(DomainError) as caught:
            structure.classify(model, [[0.0, 1.0]] * 2601)
        assert str(caught.value) == (
            "2601 classify grid points, outside the budget of 1 to 2500"
        )
        assert calls == []

    @pytest.mark.parametrize(
        "name, per_axis, count",
        [
            ("gce", 3000, 9_000_000),
            ("gaussian-kl", 51, 2601),
            ("gce", 0, 0),
            ("gumbel", 2501, 2501),
        ],
    )
    def test_default_grid_over_the_budget_raises_before_it_is_built(
        self, catalogue, monkeypatch, name, per_axis, count
    ):
        # gce at 3000 per axis used to build 9,000,000 points in 6.5 s
        built = []
        monkeypatch.setattr(core.ChartSpec, "central_grid", lambda chart, n: built.append(n))
        model = catalogue[name]
        if model.classify_points_fn is not None:  # gumbel's own curve
            model = dataclasses.replace(model, classify_points_fn=built.append)
        with pytest.raises(DomainError) as caught:
            structure.default_grid(model, per_axis)
        assert str(caught.value) == (
            f"a {name} grid of {per_axis} per axis has {count} points, "
            "outside the budget of 1 to 2500"
        )
        assert built == []

    @pytest.mark.parametrize("per_axis", [2.5, "3", None, True, pytest.param(np.True_, id="numpy-bool")])
    def test_a_count_that_is_not_an_integer_is_one_domain_error(self, catalogue, per_axis):
        # 2.5 ended in "cannot be interpreted as an integer", "3" and None in
        # a comparison TypeError, and True in a grid of one point
        with pytest.raises(DomainError, match="needs a whole count per axis") as caught:
            structure.default_grid(catalogue["gce"], per_axis)
        assert str(caught.value) == (
            f"a gce grid needs a whole count per axis, got {per_axis!r}"
        )

    def test_a_nan_probe_gap_fails(self):
        # a NaN connection's probe gap, torsion and curvature used to be
        # recorded as 0.0, and the model classified as an exponential family
        with np.errstate(**RAISE_FP_ERRORS):
            report = structure.classify(nan_probe_model())
        assert report.verdicts == {
            "condition4": "pass",
            "hessian_structure": "fail",
            "exponential_family": "no",
        }
        probe = report.probe_consistency
        assert probe["status"] == "fail" and math.isnan(probe["worst"])
        assert probe["worst_point"] == report.grid[0]  # the first NaN is kept
        assert report.flat == {"status": "not-evaluated", "max_curvature": None}

    def test_a_singular_probe_matrix_is_recorded(self):
        # a NaN probe gradient makes the probe matrix singular at every point:
        # a failed check with its evidence, not an aborted classify
        point = [0.3, 1.2]
        report = structure.classify(nan_gradient_probe_model(), [point])
        assert report.verdicts == {
            "condition4": "pass",
            "hessian_structure": "fail",
            "exponential_family": "no",
        }
        probe = report.probe_consistency
        assert probe["status"] == "fail" and probe["worst"] == math.inf
        assert probe["evidence"]["point"] == point
        assert "singular" in probe["evidence"]["error"]

    def test_tolerances_reach_every_gate(self, catalogue):
        model = catalogue["regression-ls"]
        grid = structure.default_grid(model, 2)
        assert structure.classify(model, theta_grid=grid).verdicts["condition4"] == "fail"
        report = structure.classify(model, theta_grid=grid, tol=Tolerances(cond4=1.0))
        assert report.verdicts == {
            "condition4": "pass",
            "hessian_structure": "pass",
            "exponential_family": "not-applicable",
        }
        assert report.tolerances["cond4"] == 1.0


class TestAffineCoordinates:
    @pytest.mark.parametrize(
        "name,theta0",
        [
            ("gce", [1.0, 0.0]),
            ("gaussian-kl", [0.0, 1.0]),
            ("gaussian-sumsq", [0.0, 1.0]),
        ],
    )
    def test_matches_closed_form_up_to_gauge(self, catalogue, rng, name, theta0):
        model = catalogue[name]
        targets = model.chart.random_points(rng, 10)
        amap = structure.affine_coordinates(model, theta0, targets)
        closed = [model.oracle.affine_map(t) for t in targets]
        assert gauge_fit_residual(amap.values, closed) < 1e-4
        assert max(amap.path_residuals) < 1e-4

    def test_gce_example_point(self, catalogue):
        amap = structure.affine_coordinates(catalogue["gce"], [1.0, 0.0], [[2.0, 0.3]])
        # closed form (beta, -beta mu) - (1, 0), gauge-rotated by the
        # inverse Jacobian at theta0 = diag(1, -1)
        assert amap.values[0] == pytest.approx([1.0, 0.6], abs=1e-4)

    def test_gce_matches_closed_form_tightly(self, catalogue):
        # affine map (beta, -beta mu) with Jacobian [[1, 0], [-mu, -beta]];
        # the gauge Theta(theta0) = 0, dTheta(theta0) = I fixes J(theta0)^-1
        gce = catalogue["gce"]
        theta0 = np.array([1.5, -0.5])

        def jacobian(point):
            beta, mu = point
            return np.array([[1.0, 0.0], [-mu, -beta]])

        inverse = np.linalg.inv(jacobian(theta0))
        targets = [np.array(t) for t in ([2.0, 0.3], [0.7, -1.2], [2.6, 0.8])]
        amap = structure.affine_coordinates(gce, theta0, targets)
        for target, value, gradient in zip(targets, amap.values, amap.gradients):
            shift = gce.oracle.affine_map(target) - gce.oracle.affine_map(theta0)
            assert np.max(np.abs(value - inverse @ shift)) <= 1e-10
            assert np.max(np.abs(gradient - inverse @ jacobian(target))) <= 1e-10

    def test_gaussian_matches_closed_form_tightly(self, catalogue):
        # affine map (1 / (2 sigma^2), -mu / sigma^2) with Jacobian
        # [[0, -1 / sigma^3], [-1 / sigma^2, 2 mu / sigma^3]]; the gauge
        # Theta(theta0) = 0, dTheta(theta0) = I fixes J(theta0)^-1
        model = catalogue["gaussian-kl"]
        theta0 = np.array([0.0, 1.0])

        def jacobian(point):
            mu, sigma = point
            return np.array([[0.0, -1.0 / sigma**3], [-1.0 / sigma**2, 2.0 * mu / sigma**3]])

        inverse = np.linalg.inv(jacobian(theta0))
        targets = [np.array(t) for t in ([0.4, 1.5], [-0.7, 0.6], [1.0, 0.5], [2.0, 2.5])]
        amap = structure.affine_coordinates(model, theta0, targets)
        for target, value, gradient in zip(targets, amap.values, amap.gradients):
            shift = model.oracle.affine_map(target) - model.oracle.affine_map(theta0)
            assert np.max(np.abs(value - inverse @ shift)) <= 1e-12
            assert np.max(np.abs(gradient - inverse @ jacobian(target))) <= 1e-12

    def test_transformed_connection_vanishes(self, catalogue):
        # chain rule with FD Jacobians of the sampled map: in the affine
        # coordinates the connection coefficients must vanish, i.e. the
        # map's second derivative equals the omega-transported Jacobian
        model = catalogue["gaussian-kl"]
        theta0 = np.array([0.0, 1.0])
        conn = connection_field(model)
        domain = model.chart.domain
        n = 2
        for target in ([0.4, 1.4], [-0.3, 0.8]):
            target = np.array(target)
            amap = structure.affine_coordinates(model, theta0, [target])
            jac = amap.gradients[0]  # jac[j, b] = d Theta^j / d zeta^b
            omega = conn(target)
            state = np.concatenate([jac.ravel(), amap.values[0]])

            def map_gradient(point):
                # continue the sampled map from the target: cheap and
                # path-independent on this flat model
                path, tol = [target, point], Tolerances().path
                run = transport._along(structure._affine_rhs, conn, state, path, tol)
                return run[-1][2][: n * n].reshape(n, n)

            hess = np.empty((n, n, n))  # hess[j, a, b] = d_a d_b Theta^j
            for a in range(n):
                hess[:, a, :] = numdiff.fd_field_derivative(map_gradient, target, a, domain)
            residual = np.einsum("cab,jc->jab", omega, jac) - hess
            assert np.max(np.abs(residual)) < 1e-3

    def test_sphere_fails_path_independence(self):
        # path dependence is a residual that fails its check, not an error
        sphere = models.build("vmf-sphere", kappa=2.0)
        amap = structure.affine_coordinates(sphere, [math.pi / 3, 0.0], [[math.pi / 2, 1.0]])
        assert not passes(amap.path_residuals[0], Tolerances().path)


class TestMassieu:
    def test_cylinder_matches_closed_form(self):
        cylinder = models.build("vmf-cylinder", kappa=2.0)
        sample = structure.massieu(cylinder, [0.0, 1.0], [[0.4, 1.5]])
        closed = 0.5 * 2.0 * 0.4**2 - math.log(1.5)
        # remove the affine gauge fixed at theta0
        gauge = -np.array([0.0, -1.0]) @ (np.array([0.4, 1.5]) - np.array([0.0, 1.0]))
        assert sample.potentials[0] - gauge == pytest.approx(closed, abs=1e-3)

    def test_cost_of_one_verified_target(self):
        cylinder, calls = counted_model(models.build("vmf-cylinder", kappa=2.0))
        theta0, targets = [0.0, 1.0], [[0.4, 1.5]]  # the target moves both coordinates
        structure.massieu(cylinder, theta0, targets)
        # Each chart point costs one gated connection evaluation: one fibre
        # sample with 3 Hessians, and one probe family of 2 pairs (2
        # gradients, 2 Hessians each), so 4 gradients and 7 Hessians.  The
        # points are the 51 on the paths: the straight segment and the two
        # detour segments each sample 9 Lobatto nodes, then the 8 new ones of
        # the 17-node level, whose end state agrees.  The two-path gap is
        # the target's only check.
        points = 3 * (9 + 8)
        assert calls == {
            "fibre_sampler_fn": points,
            "probe_pairs_fn": points,
            "gradient_fn": 4 * points,
            "hessian_fn": 7 * points,
        }
        assert (calls["gradient_fn"], calls["hessian_fn"]) == (204, 357)

    def test_continuation_is_the_plain_rk4_step(self):
        # a 3-node segment samples exactly the RK4 stage points s = 0, 1/2,
        # 1; its Lobatto IIIA solve and the RK4 step that calls the field at
        # each stage are both 4th order, and on steps of 1e-4 they agree to
        # rounding
        cylinder = models.build("vmf-cylinder", kappa=2.0)

        def local(point):
            evaluation = geometry.connection_at(cylinder, point, check_consistency=False)
            return evaluation.metric.matrix, evaluation.omega

        target, state = np.array([0.4, 1.5]), np.array([0.3, -0.2, 0.7])
        for step in ([1e-4, 0.0], [1e-4, 1.5e-4], [-2e-4, 3e-5]):
            delta = (target + np.array(step)) - target

            def field_at_stages(s, y):
                return structure._massieu_rhs(local(target + s * delta), delta, y)

            plain = transport._rk4(state, field_at_stages, 0.0, 1.0)
            run = transport._segment(
                structure._massieu_rhs, local, target, delta, state, 3, {0: local(target)}
            )
            assert np.max(np.abs(run[-1][1] - plain)) <= 1e-15

    def test_dlambda_quadratic_potential(self, catalogue):
        sample = structure.massieu(catalogue["regression-dlambda"], [0.0, 0.0], [[1.0, 1.0]])
        assert sample.potentials[0] == pytest.approx(1.0, abs=1e-6)

    def test_gauge_at_reference(self, catalogue):
        sample = structure.massieu(catalogue["regression-dlambda"], [0.0, 0.0], [[0.0, 0.0]])
        assert sample.potentials[0] == 0.0
        assert np.all(sample.covectors[0] == 0.0)

    def test_convex_in_affine_coordinates(self, catalogue, rng):
        # midpoint inequality, checked in the affine chart where the
        # potential is guaranteed convex
        for name, segments in (
            ("vmf-cylinder", 10),
            ("gaussian-kl", 3),
            ("regression-dlambda", 3),
        ):
            model = catalogue[name]
            theta0 = np.array(
                [0.5 * (lo + hi) for lo, hi in model.chart.sample_box]
            )
            inverse = model.oracle.affine_inverse
            forward = model.oracle.affine_map
            for _ in range(segments):
                a = forward(random_chart_point(model, rng))
                b = forward(random_chart_point(model, rng))
                mid = 0.5 * (a + b)
                points = [inverse(z) for z in (a, b, mid)]
                sample = structure.massieu(model, theta0, points)
                phi_a, phi_b, phi_mid = sample.potentials
                assert phi_mid <= 0.5 * (phi_a + phi_b) + 1e-7, name

    def test_not_integrable_on_sphere(self):
        # the Mayer-Lie system's two paths disagree: a failed check, not an error
        sphere = models.build("vmf-sphere", kappa=2.0)
        sample = structure.massieu(sphere, [math.pi / 3, 0.0], [[math.pi / 2, 1.0]])
        assert not passes(sample.path_residuals[0], Tolerances().path)


class TestPythagorean:
    def test_gaussian_example(self, catalogue):
        report = structure.pythagorean_check(catalogue["gaussian-kl"], [0.0, 1.0], [1.0, 1.0])
        assert report.max_deviation < 1e-8
        assert report.induced_value == pytest.approx(
            gaussian_kl_closed_form(0.0, 1.0, 1.0, 1.0), abs=1e-10
        )

    def test_self_divergence_zero(self, catalogue):
        report = structure.pythagorean_check(catalogue["gaussian-kl"], [0.0, 1.0], [0.0, 1.0])
        assert abs(report.induced_value) < 1e-12

    def test_gce_example(self, catalogue):
        report = structure.pythagorean_check(catalogue["gce"], [1.0, 0.2], [1.2, 0.1])
        assert report.max_deviation < 1e-8

    def test_fibre_constancy_property(self, catalogue, rng):
        for name in HESSIAN_STRUCTURED:
            model = catalogue[name]
            for _ in range(10):
                theta = random_chart_point(model, rng)
                other = random_chart_point(model, rng)
                report = structure.pythagorean_check(model, theta, other)
                assert report.max_deviation < 1e-6, name
                assert report.induced_value > -1e-10, name


class TestInducedGeometry:
    @pytest.mark.parametrize(
        "name,point,tol",
        [
            ("gaussian-kl", [0.0, 1.0], 1e-3),
            ("regression-dlambda", [0.0, 0.0], 1e-6),
            ("gce", [1.0, 0.5], 1e-3),
        ],
    )
    def test_residuals(self, catalogue, name, point, tol):
        metric_res, connection_res = structure.induced_divergence_geometry_check(
            catalogue[name], point
        )
        assert metric_res < tol
        assert connection_res < tol

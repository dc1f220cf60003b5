import dataclasses
import math

import numpy as np
import pytest

from dsm_geom import numdiff
from dsm_geom.core import (
    ChartSpec,
    GaussianData,
    MomentData,
    OccupationData,
    RegressionData,
    Tolerances,
    TwoPointData,
    UniformData,
    VonMisesFisherData,
    evaluate_divergence,
    divergence_gradient,
    divergence_hessian,
)
from dsm_geom.errors import DomainError, MissingStatistic
from dsm_geom.fit import fit

from conftest import (
    gaussian_kl_closed_form,
    gce_occupancy_sums,
    random_chart_point,
    random_dataset,
)


class TestTolerances:
    def test_defaults(self):
        assert dataclasses.asdict(Tolerances()) == {
            "cond4": 1e-3,
            "hessian": 1e-3,
            "flat": 1e-3,
            "torsion": 1e-3,
            "codazzi": 1e-3,
            "path": 1e-4,
        }

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, "1e-3", None]
    )
    def test_rejects_nonfinite_nonpositive_and_nonnumeric(self, value):
        for spec in dataclasses.fields(Tolerances):
            with pytest.raises(DomainError, match=spec.name):
                Tolerances(**{spec.name: value})

    def test_unknown_key_is_a_type_error(self):
        with pytest.raises(TypeError):
            Tolerances(bogus=1.0)

    def test_property_accepts_exactly_finite_positive_values(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        keys = st.sampled_from([spec.name for spec in dataclasses.fields(Tolerances)])
        values = st.one_of(
            st.floats(), st.floats(min_value=0.0), st.integers(-(10**6), 10**6)
        )

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(key=keys, value=values)
        def check(key, value):
            if math.isfinite(value) and value > 0:
                assert getattr(Tolerances(**{key: value}), key) == float(value)
            else:
                with pytest.raises(DomainError):
                    Tolerances(**{key: value})

        check()


class TestChartSpec:
    def test_domain_is_open(self, catalogue):
        chart = catalogue["gaussian-kl"].chart
        assert chart.contains([0.0, 1.0])
        assert not chart.contains([0.0, 0.0])
        assert not chart.contains([0.0, -1.0])

    def test_encodes_model_constraints(self, catalogue):
        assert not catalogue["gce"].chart.contains([1.0, 1.0])  # mu < min(eps)
        assert not catalogue["vmf-sphere"].chart.contains([0.0, 0.0])  # pole
        with pytest.raises(DomainError):
            catalogue["gumbel"].chart.require([-1.0, 0.0])


class TestEvaluateDivergence:
    def test_self_divergence_vanishes(self, catalogue):
        value = evaluate_divergence(
            catalogue["gaussian-kl"], GaussianData(0.0, 1.0), [0.0, 1.0]
        )
        assert abs(value) < 1e-12

    def test_matches_closed_form_gaussian_kl(self, catalogue):
        value = evaluate_divergence(
            catalogue["gaussian-kl"], GaussianData(0.0, 1.0), [1.0, 1.0]
        )
        assert value == pytest.approx(gaussian_kl_closed_form(0.0, 1.0, 1.0, 1.0), abs=1e-12)

    def test_exact_regression_fit_is_zero(self, catalogue):
        data = RegressionData([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert evaluate_divergence(catalogue["regression-ls"], data, [1.0, 0.0]) == 0.0

    def test_outside_chart_raises(self, catalogue):
        with pytest.raises(DomainError):
            evaluate_divergence(catalogue["gaussian-kl"], GaussianData(0, 1), [0.0, -1.0])

    def test_missing_statistic_raises(self, catalogue):
        bare = MomentData({"mean_x": 0.0, "mean_x2": 2.0, "entropy": 0.0})
        with pytest.raises(MissingStatistic):
            evaluate_divergence(catalogue["gce"], bare, [1.0, 0.0])

    def test_nonnegative_on_random_pairs(self, catalogue, rng):
        for model in catalogue.values():
            for _ in range(100):
                x = random_dataset(model, rng)
                theta = random_chart_point(model, rng)
                assert evaluate_divergence(model, x, theta) >= 0.0


class TestDivergenceGradient:
    def test_vanishes_on_fibre(self, catalogue):
        grad = divergence_gradient(catalogue["gaussian-kl"], GaussianData(0, 1), [0.0, 1.0])
        assert np.max(np.abs(grad)) < 1e-12

    def test_mu_component_closed_form(self, catalogue):
        # E[x] = 0.5 with E[(x-mu)^2] = 1 at theta=(0,1): d_mu D = -0.5
        kl = catalogue["gaussian-kl"]
        data = MomentData({"mean_x": 0.5, "mean_x2": 1.0 + 2 * 0.0 * 0.5 - 0.0})
        grad = divergence_gradient(kl, data, [0.0, 1.0])
        assert grad == pytest.approx([-0.5, 0.0], abs=1e-12)
        fd = numdiff.fd_gradient(
            lambda t: kl.divergence_fn(data, t), np.array([0.0, 1.0]),
            kl.chart.domain,
        )
        assert grad == pytest.approx(fd, abs=1e-8)

    def test_gce_fibre_member(self, catalogue):
        gce = catalogue["gce"]
        for member in gce.fibre_sampler(np.array([1.3, -0.4]), 3):
            grad = divergence_gradient(gce, member, [1.3, -0.4])
            assert np.max(np.abs(grad)) < 1e-10

    def test_analytic_matches_fd_everywhere(self, catalogue, rng):
        for model in catalogue.values():
            assert model.gradient_fn is not None, model.name
            domain = model.chart.domain
            for _ in range(20):
                x = random_dataset(model, rng)
                theta = random_chart_point(model, rng)
                analytic = divergence_gradient(model, x, theta)
                fd = numdiff.fd_gradient(lambda t: model.divergence_fn(x, t), theta, domain)
                scale = max(np.max(np.abs(fd)), 1e-8)
                assert np.max(np.abs(analytic - fd)) / scale < 1e-5, model.name

    def test_analytic_hessian_matches_fd(self, catalogue, rng):
        for model in catalogue.values():
            assert model.hessian_fn is not None, model.name
            domain = model.chart.domain
            for _ in range(5):
                x = random_dataset(model, rng)
                theta = random_chart_point(model, rng)
                analytic = divergence_hessian(model, x, theta)
                fd = numdiff.fd_hessian(lambda t: model.divergence_fn(x, t), theta, domain)
                scale = max(np.max(np.abs(fd)), 1e-8)
                assert np.max(np.abs(analytic - fd)) / scale < 1e-5, model.name


class TestDivergenceHessian:
    def test_gaussian_mu_mu_entry(self, catalogue, rng):
        for _ in range(5):
            x = random_dataset(catalogue["gaussian-kl"], rng)
            hess = divergence_hessian(catalogue["gaussian-kl"], x, [0.0, 1.0])
            assert hess[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_gumbel_exponential_member_entry(self, catalogue):
        from dsm_geom.core import ExponentialData
        from dsm_geom.models.gumbel import compatible_point

        point = compatible_point(1.0)
        hess = divergence_hessian(catalogue["gumbel"], ExponentialData(1.0), point)
        alpha = point[0]
        expected = 1.0 / alpha**2 + 0.5 / alpha**2
        assert hess[0, 0] == pytest.approx(expected, rel=0.02)

    def test_dlambda_constant_hessian(self, catalogue, rng):
        model = catalogue["regression-dlambda"]
        lam2 = 1.0
        for _ in range(5):
            x = random_dataset(model, rng)
            theta = random_chart_point(model, rng)
            hess = divergence_hessian(model, x, theta)
            assert hess == pytest.approx(np.diag([lam2, 1.0]), abs=1e-12)


class TestFibreConsistency:
    def test_fit_zeroes_gradient_for_every_model(self, catalogue, rng):
        for model in catalogue.values():
            if model.name == "gumbel":
                x = random_dataset(model, rng)
                theta0 = model.closed_form_fit(x)
            else:
                x = random_dataset(model, rng)
                theta0 = random_chart_point(model, rng)
            result = fit(model, x, theta0)
            grad = divergence_gradient(model, x, result.theta_star)
            assert np.max(np.abs(grad)) <= 1e-8, model.name

    def test_fibre_sampler_members_have_small_gradient(self, catalogue, rng):
        for model in catalogue.values():
            if model.name == "gumbel":
                from dsm_geom.models.gumbel import compatible_point

                theta = compatible_point(float(rng.uniform(0.5, 2.0)))
            else:
                theta = random_chart_point(model, rng)
            for member in model.fibre_sampler(theta, model.fibre_capacity):
                grad = divergence_gradient(model, member, theta)
                assert np.max(np.abs(grad)) < 1e-6, (model.name, member.label)


_LOG_2PI = math.log(2.0 * math.pi)
_VMF_RESULTANT = 1.0 / math.tanh(2.0) - 0.5


class TestStatisticQuery:
    @pytest.mark.parametrize(
        "provider, expected",
        [
            (
                lambda: GaussianData(0.5, 2.0),
                {"mean_x": 0.5, "mean_x2": 4.25, "entropy": 0.5 * (1 + _LOG_2PI) + math.log(2.0)},
            ),
            (
                lambda: UniformData(-1.0, 3.0),
                {"mean_x": 1.0, "mean_x2": 16.0 / 12.0 + 1.0, "entropy": math.log(4.0)},
            ),
            (
                lambda: TwoPointData(1.0, 0.5),
                {"mean_x": 1.0, "mean_x2": 1.25, "entropy": 0.5 * (1 + _LOG_2PI) + math.log(0.5)},
            ),
            (
                lambda: VonMisesFisherData(2.0, [0.0, 0.0, 2.0]),
                {
                    "mean_e1": 0.0,
                    "mean_e2": 0.0,
                    "mean_e3": _VMF_RESULTANT,
                    "entropy": math.log(2.0 * math.pi * math.sinh(2.0)) - 2.0 * _VMF_RESULTANT,
                },
            ),
            (
                lambda: OccupationData([0.5, 1.0, 2.0], [1.0, 2.0, 3.0]),
                {"total_count": 3.5, "total_energy": 8.5},
            ),
            (
                lambda: RegressionData([[0.0, 1.0], [1.0, 3.0], [2.0, 4.0]]),
                {
                    "n_points": 3.0,
                    "sum_x": 3.0,
                    "sum_y": 8.0,
                    "sum_xx": 5.0,
                    "sum_xy": 11.0,
                    "sum_yy": 26.0,
                },
            ),
        ],
        ids=["gaussian", "uniform", "twopoint", "vmf", "occupations", "regression"],
    )
    def test_theta_free_providers_are_statistic_tables(self, provider, expected):
        data = provider()
        assert isinstance(data, MomentData)
        assert set(data.moments) == set(expected)
        for statistic_id, value in expected.items():
            assert data.statistic(statistic_id) == pytest.approx(value, rel=1e-14, abs=1e-15)
            assert data.statistic(statistic_id, np.array([1.0, 2.0])) == data.moments[statistic_id]
        with pytest.raises(MissingStatistic, match="unknown_id"):
            data.statistic("unknown_id")

    def test_parameter_dependent_statistics_need_theta(self):
        from dsm_geom.core import GumbelData

        data = GumbelData(1.0, 0.0)
        with pytest.raises(MissingStatistic):
            data.statistic("exp_shift")
        value = data.statistic("exp_shift", np.array([1.0, 0.0]))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_gce_occupancy_oracle(self):
        levels = [1.0, 2.0, 3.0]
        count, energy = gce_occupancy_sums(levels, 1.0, 0.5)
        expected_count = sum(1.0 / (math.exp(1.0 * (e - 0.5)) - 1.0) for e in levels)
        assert count == pytest.approx(expected_count, rel=1e-12)
        assert energy > count  # all levels above unit energy

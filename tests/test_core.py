import dataclasses
import math

import numpy as np
import pytest

from dsm_geom import numdiff
from dsm_geom.core import (
    PROBE_DELTA,
    ChartSpec,
    DataSet,
    GaussianData,
    RegressionData,
    Tolerances,
    TwoPointData,
    UniformData,
    antithetic_pairs,
    evaluate_divergence,
    divergence_gradient,
    divergence_hessian,
    passes,
)
from dsm_geom.errors import DomainError, MissingStatistic
from dsm_geom.fit import fit
from dsm_geom.models.gumbel import (
    ExponentialData,
    GumbelData,
    _digamma,
    _trigamma,
    compatible_point,
)

from conftest import (
    gaussian_kl_closed_form,
    gce_occupancy_sums,
    random_chart_point,
    random_dataset,
)


class TestVerdictRule:
    def test_a_value_passes_when_at_most_its_tolerance(self):
        assert passes(0.0, 1e-3) and passes(1e-3, 1e-3) and passes(np.float64(1e-3), 1e-3)
        assert not passes(2e-3, 1e-3) and not passes(math.inf, 1e-3)

    def test_nan_fails(self):
        assert not passes(math.nan, 1e-3) and not passes(np.float64("nan"), 1e-3)


class TestTolerances:
    def test_defaults(self):
        assert dataclasses.asdict(Tolerances()) == {
            "cond4": 1e-3,
            "hessian": 1e-3,
            "flat": 1e-3,
            "codazzi": 1e-3,
            "path": 1e-4,
        }

    @pytest.mark.parametrize(
        "value",
        [
            math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, "1e-3", None,
            pytest.param(10**400, id="int-beyond-float"),
            # a bool was accepted as 1.0
            pytest.param(True, id="bool"),
            pytest.param(np.True_, id="numpy-bool"),
        ],
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

    @pytest.mark.parametrize(
        "point", [[1.0, [2.0, 3.0]], "ab", {"beta": 1.0}], ids=["ragged", "string", "dict"]
    )
    def test_a_point_that_is_not_a_vector_of_numbers_is_named(self, catalogue, point):
        # numpy's ValueError or TypeError used to escape the chart check
        with pytest.raises(DomainError, match="vector of numbers") as excinfo:
            catalogue["gce"].chart.require(point)
        assert repr(point) in str(excinfo.value)

    @pytest.mark.parametrize(
        "names, sample_box",
        [(("a", "b"), ((0.2, 0.8),)), (("a",), ((0.2, 0.8), (-1.0, 1.0)))],
        ids=["short-sample-box", "short-names"],
    )
    def test_every_axis_has_a_name_and_a_sample_range(self, names, sample_box):
        # the dimension is the domain's length; a short sample box would
        # draw axis 1 from axis 0's bounds and give 1-D grid points
        with pytest.raises(DomainError, match="inconsistent"):
            ChartSpec(domain=((0.0, 1.0), (-5.0, 5.0)), names=names, sample_box=sample_box)


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
        bare = DataSet({"mean_x": 0.0, "mean_x2": 2.0, "entropy": 0.0})
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
        data = DataSet({"mean_x": 0.5, "mean_x2": 1.0 + 2 * 0.0 * 0.5 - 0.0})
        grad = divergence_gradient(kl, data, [0.0, 1.0])
        assert grad == pytest.approx([-0.5, 0.0], abs=1e-12)
        fd = numdiff.fd_gradient(
            lambda t: kl.divergence_fn(data, t), np.array([0.0, 1.0]),
            kl.chart.domain,
        )
        assert grad == pytest.approx(fd, abs=1e-8)

    def test_gce_fibre_member(self, catalogue):
        gce = catalogue["gce"]
        for member in gce.fibre_sampler(np.array([1.3, -0.4])):
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
            for member in model.fibre_sampler(theta):
                grad = divergence_gradient(model, member, theta)
                assert np.max(np.abs(grad)) < 1e-6, (model.name, member.label)


class TestAntitheticPairs:
    @pytest.mark.parametrize(
        "steps, family, expected",
        [
            ((0.2, 0.6), 0, [[0.2, 0.0], [0.0, 0.6]]),
            ((0.2, 0.6), 1, [[0.1, 0.1], [-0.1 / 3.0, 0.3]]),
            ((0.2, 0.6, 1.2), 0, [[0.2, 0.0, 0.0], [0.0, 0.6, 0.0], [0.0, 0.0, 1.2]]),
            (
                (0.2, 0.6, 1.2),
                1,
                [[0.1, 0.1, 0.2], [-0.1 / 3.0, 0.3, 0.2], [-0.1 / 3.0, -0.1, 0.6]],
            ),
        ],
    )
    def test_offsets_of_each_family(self, steps, family, expected):
        # the steps and offsets are in units of PROBE_DELTA: the steps are the
        # scales antithetic_pairs multiplies by it.  Family 1 moves condition i
        # by half its step, each later condition by +1/3 and each earlier one
        # by -1/3 of its half step
        # the list holds the n plus probes, then their n minus probes
        probes = np.array(antithetic_pairs(np.array, steps, family))
        plus, minus = probes[: len(steps)], probes[len(steps) :]
        assert plus == pytest.approx(PROBE_DELTA * np.array(expected), rel=1e-15, abs=0.0)
        assert np.array_equal(minus, -plus)
        # family 1 moves each condition by half the step of family 0
        assert np.array_equal(
            np.diag(plus), PROBE_DELTA * np.asarray(steps) * (0.5 if family else 1.0)
        )


_LOG_2PI = math.log(2.0 * math.pi)


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
            (
                lambda: ExponentialData(2.0),
                {"mean_x": 0.5, "mean_x2": 0.5, "entropy": 1.0 - math.log(2.0)},
            ),
            (
                lambda: GumbelData(2.0, 0.5),
                {
                    "mean_x": 0.5 + 0.5 * np.euler_gamma,
                    "entropy": 1.0 + np.euler_gamma - math.log(2.0),
                },
            ),
        ],
        ids=[
            "gaussian",
            "uniform",
            "twopoint",
            "regression",
            "exponential",
            "gumbel",
        ],
    )
    def test_theta_free_providers_are_statistic_tables(self, provider, expected):
        data = provider()
        assert isinstance(data, DataSet)
        assert set(data.moments) == set(expected)
        for statistic_id, value in expected.items():
            assert data.statistic(statistic_id) == pytest.approx(value, rel=1e-14, abs=1e-15)
        with pytest.raises(MissingStatistic, match="unknown_id"):
            data.statistic("unknown_id")

    def test_gumbel_divergence_of_a_plain_table_raises(self, catalogue):
        # the shift integrals depend on the model point: only gumbel's own
        # fibre data sets answer them, never a table of numbers
        table = DataSet({"mean_x": 0.5, "mean_x2": 1.25}, label="table")
        with pytest.raises(MissingStatistic, match="table cannot answer statistic 'exp_shift'"):
            evaluate_divergence(catalogue["gumbel"], table, [1.0, 0.0])
        value = GumbelData(1.0, 0.0).shift_integrals(1.0, 0.0)[0]
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_gce_occupancy_oracle(self):
        levels = [1.0, 2.0, 3.0]
        count, energy = gce_occupancy_sums(levels, 1.0, 0.5)
        expected_count = sum(1.0 / (math.exp(1.0 * (e - 0.5)) - 1.0) for e in levels)
        assert count == pytest.approx(expected_count, rel=1e-12)
        assert energy > count  # all levels above unit energy


@pytest.fixture
def special():
    return pytest.importorskip("scipy.special")


class TestGumbelSpecialFunctions:
    """The Gamma-function family behind the Gumbel statistics, against scipy."""

    POINTS = np.concatenate([np.logspace(-12, 2.2, 400), np.linspace(0.5, 30.0, 400)])

    def test_digamma_matches_scipy(self, special):
        want = special.digamma(self.POINTS)
        got = np.array([_digamma(float(x)) for x in self.POINTS])
        # absolute near the root of psi at 1.4616, relative elsewhere
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))

    def test_trigamma_matches_scipy(self, special):
        want = special.polygamma(1, self.POINTS)
        got = np.array([_trigamma(float(x)) for x in self.POINTS])
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    def test_digamma_at_integers_is_scipy_bit_for_bit(self, special):
        # every gumbel fibre member is evaluated at 1 + s = 2 exactly
        for n in range(1, 11):
            assert _digamma(float(n)) == special.digamma(float(n)), n

    def test_gamma_overflow_is_inf(self):
        # Gamma(1001) overflows: inf, as scipy gives it, and no OverflowError
        value = GumbelData(1e-3, 0.0).shift_integrals(1.0, 0.0)[0]
        assert isinstance(value, np.float64) and value == math.inf

import math

import numpy as np
import pytest

from dsm_geom import geometry, models, structure
from dsm_geom.core import (
    PROBE_DELTA,
    GaussianData,
    RegressionData,
    divergence_gradient,
    divergence_hessian,
)
from dsm_geom.errors import DomainError
from dsm_geom.fit import fit
from dsm_geom.models.gumbel import (
    GOLDEN_RATIO,
    GumbelData,
    compatible_point,
)

from conftest import least_squares_fit, random_chart_point, random_couples, random_dataset


class TestGaussianOracles:
    def test_metric_spot_values(self, catalogue):
        oracle = catalogue["gaussian-kl"].oracle
        assert oracle.metric([0.0, 1.0]) == pytest.approx(np.diag([1.0, 2.0]))
        assert oracle.connection([0.0, 3.0])[1, 1, 1] == pytest.approx(-1.0)
        assert oracle.affine_map([0.0, 1.0]) == pytest.approx([0.5, 0.0])

    def test_affine_inverse_roundtrip(self, catalogue, rng):
        oracle = catalogue["gaussian-kl"].oracle
        for _ in range(10):
            theta = random_chart_point(catalogue["gaussian-kl"], rng)
            assert oracle.affine_inverse(oracle.affine_map(theta)) == pytest.approx(theta)

    def test_sumsq_spot_values(self, catalogue):
        oracle = catalogue["gaussian-sumsq"].oracle
        assert oracle.metric([1.0, 1.0]) == pytest.approx(
            np.array([[3.0, 2.0], [2.0, 2.0]])
        )
        assert oracle.connection([0.0, 2.0])[1, 1, 1] == pytest.approx(0.5)
        assert oracle.affine_map([1.0, 2.0]) == pytest.approx([1.0, 5.0])

    def test_massieu_affine_hessian_is_metric(self, catalogue, rng):
        # exponential-family identity: plain Hessian of the potential in
        # canonical coordinates equals the transformed metric
        from dsm_geom import numdiff

        for name in ("gaussian-kl", "gce"):
            model = catalogue[name]
            oracle = model.oracle
            theta = random_chart_point(model, rng)
            canonical = oracle.affine_map(theta)
            hess = numdiff.fd_hessian(oracle.massieu_affine, canonical)
            jac = numdiff.fd_jacobian(oracle.affine_map, theta)
            transformed = jac.T @ hess @ jac
            reference = oracle.metric(theta)
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(transformed - reference)) / scale < 1e-5, name


class TestRegressionModels:
    def test_ls_hessian_counts_points(self, catalogue):
        data = RegressionData([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        hess = divergence_hessian(catalogue["regression-ls"], data, [0.0, 0.0])
        assert hess[1, 1] == 3.0

    def test_dlambda_metric_scales(self):
        model = models.build("regression-dlambda", lam=2.0)
        assert model.oracle.metric([0.0, 0.0]) == pytest.approx(np.diag([4.0, 1.0]))

    def test_dlambda_fit_equals_ls_fit(self, catalogue, rng):
        dlambda = models.build("regression-dlambda", lam=2.0)
        ls = catalogue["regression-ls"]
        for _ in range(10):
            couples = random_couples(rng)
            data = RegressionData(couples)
            fit_ls = fit(ls, data, [0.0, 0.0]).theta_star
            fit_dl = fit(dlambda, data, [0.0, 0.0]).theta_star
            assert fit_ls == pytest.approx(fit_dl, abs=1e-8)
            assert fit_ls == pytest.approx(least_squares_fit(couples), abs=1e-8)

    def test_lambda_must_be_positive(self):
        with pytest.raises(DomainError):
            models.build("regression-dlambda", lam=-1.0)

    @pytest.mark.parametrize(
        "lam", [1e200, 1e-200], ids=["square-overflow", "square-underflow"]
    )
    def test_lambda_square_must_be_positive_and_finite(self, lam):
        # lambda^2 used to come out inf or 0.0 and fail later, in the metric
        with pytest.raises(ArithmeticError, match="lambda"):
            models.build("regression-dlambda", lam=lam)


class TestGrandCanonical:
    def test_metric_matches_spectral_sum(self, catalogue):
        levels = np.array([1.0, 2.0, 3.0])
        beta, mu = 1.0, 0.0
        expected = np.zeros((2, 2))
        for eps in levels:
            gap = eps - mu
            weight = math.exp(beta * gap) / (math.exp(beta * gap) - 1.0) ** 2
            expected += weight * np.array(
                [[gap**2, -beta * gap], [-beta * gap, beta**2]]
            )
        assert catalogue["gce"].oracle.metric([beta, mu]) == pytest.approx(expected)

    def test_connection_spot_values(self, catalogue):
        omega = catalogue["gce"].oracle.connection([4.0, 0.0])
        assert omega[0, 0, 1] == 0.0
        assert omega[1, 0, 1] == pytest.approx(0.25)

    def test_empty_spectrum_rejected(self):
        with pytest.raises(DomainError):
            models.build("gce", levels=[])

    @pytest.mark.parametrize("levels", [[1.0], [1.0, 1.0, 1.0]])
    def test_degenerate_spectrum_rejected(self, levels):
        # one distinct level leaves a singular metric at every point
        with pytest.raises(DomainError, match=r"two distinct levels.*\[1\.0"):
            models.build("gce", levels=levels)

    def test_levels_over_the_budget_raise_before_the_svd(self, monkeypatch):
        # the fibre's null-space shift is a levels x levels SVD: 2501 levels
        # used to build a model whose SVD peaks at about 127 MB
        budget = models.gce.MAX_LEVELS
        assert models.build("gce", levels=np.arange(1.0, budget + 1.0)).name == "gce"

        def no_svd(*args, **kwargs):
            raise AssertionError("the SVD ran")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for count in (budget + 1, 2501):
            with pytest.raises(DomainError, match=f"{count} levels, .*budget of {budget}$"):
                models.build("gce", levels=np.arange(1.0, count + 1.0))

    @pytest.mark.parametrize("levels", [[1.0, 1.0, 2.0], [2.0, 1.0]])
    def test_repeated_or_unsorted_levels_classify(self, levels):
        model = models.build("gce", levels=levels)
        report = structure.classify(model, structure.default_grid(model, 2))
        assert report.exponential_family == "yes"

    def test_two_level_fibre_capacity(self):
        model = models.build("gce", levels=[1.0, 2.0])
        members = model.fibre_sampler(np.array([1.0, 0.3]))
        sums = {
            (round(m.statistic("total_count"), 12), round(m.statistic("total_energy"), 12))
            for m in members
        }
        assert len(sums) == 1  # all members share the fibre sums


class TestVonMisesFisher:
    def test_sphere_oracle_values(self):
        sphere = models.build("vmf-sphere", kappa=4.0)
        assert sphere.oracle.metric([math.pi / 2, 0.0]) == pytest.approx(np.diag([4.0, 4.0]))
        omega = sphere.oracle.connection([math.pi / 4, 0.0])
        assert omega[1, 0, 1] == pytest.approx(1.0)

    def test_sphere_oracle_curvature_analytic(self):
        # Omega^theta_phi,theta,phi from exact derivative formulas
        for theta in (0.4, math.pi / 3, 2.0):
            st, ct = math.sin(theta), math.cos(theta)
            d_theta_omega_theta_phiphi = -(ct * ct - st * st)  # d/dtheta(-sin cos)
            quadratic = -(-st * ct) * (ct / st)  # - w^th_phph * w^ph_thph
            component = d_theta_omega_theta_phiphi + quadratic
            assert component == pytest.approx(st**2, abs=1e-10)

    def test_cylinder_oracle_values(self):
        cylinder = models.build("vmf-cylinder", kappa=3.0)
        assert cylinder.oracle.metric([0.0, 2.0]) == pytest.approx(np.diag([3.0, 0.25]))
        assert np.max(np.abs(cylinder.oracle.connection([0.3, 1.0]))) == 0.0
        assert cylinder.oracle.massieu_chart([1.0, 1.0]) == pytest.approx(1.5)

    def test_sphere_family_0_probes_walk_great_circles(self, catalogue, rng):
        # condition i's pair is cos(delta) u +- sin(delta) t_i, t_i the unit tangents
        model = catalogue["vmf-sphere"]
        c, s = math.cos(PROBE_DELTA), math.sin(PROBE_DELTA)
        for _ in range(5):
            t, p = random_chart_point(model, rng)
            u = np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])
            tangents = [
                np.array([math.cos(t) * math.cos(p), math.cos(t) * math.sin(p), -math.sin(t)]),
                np.array([-math.sin(t) * math.sin(p), math.sin(t) * math.cos(p), 0.0])
                / math.sin(t),
            ]
            probes = model.probe_pairs([t, p], family=0)  # the 2 plus probes, then the 2 minus
            for member, sign, tangent in zip(probes, (1.0, 1.0, -1.0, -1.0), tangents * 2):
                moments = [member.statistic(f"mean_e{k}") for k in (1, 2, 3)]
                assert np.array_equal(moments, c * u + (sign * s) * tangent)

    def test_oracle_metrics_positive_definite(self, catalogue, rng):
        for name in ("gaussian-kl", "gaussian-sumsq", "gce", "vmf-sphere", "vmf-cylinder", "regression-dlambda"):
            model = catalogue[name]
            for _ in range(10):
                g = model.oracle.metric(random_chart_point(model, rng))
                assert np.array_equal(g, np.asarray(g).T)
                assert np.all(np.linalg.eigvalsh(g) > 0), name


class TestGumbel:
    def test_golden_ratio_identity(self):
        # alpha^2 / (lambda (alpha + lambda)) = 1 exactly on the curve
        for rate in (0.5, 1.0, 2.0):
            alpha = GOLDEN_RATIO * rate
            assert alpha**2 / (rate * (alpha + rate)) == pytest.approx(1.0, abs=1e-14)

    def test_self_member_constant(self, catalogue):
        # alpha^2 E[(x-mu)^2 exp(-alpha(x-mu))] for a Gumbel member of its own fibre
        gamma = np.euler_gamma
        constant = gamma**2 - 2 * gamma + math.pi**2 / 6
        assert constant == pytest.approx(0.82, abs=0.005)
        gumbel = catalogue["gumbel"]
        for rate in (0.5, 1.0, 2.0):
            point = compatible_point(rate)
            with pytest.raises(geometry.Condition4Violated) as caught:
                geometry.metric_at(gumbel, point)
            terms = structure.condition4_evidence(gumbel, caught.value)["varying_terms"]
            [own] = [value for label, value in terms.items() if label.startswith("gumbel(")]
            assert own == pytest.approx(constant, abs=1e-12), rate

    def test_fibre_conditions_by_quadrature(self, catalogue):
        # both members satisfy E[exp(-a(x-m))] = 1 and
        # E[a(x-m)(1 - exp(-a(x-m)))] = 1 at the paired point
        integrate = pytest.importorskip("scipy.integrate")
        rate = 1.0
        alpha, mode = compatible_point(rate)

        def expo_expect(f):
            value, _ = integrate.quad(
                lambda x: rate * math.exp(-rate * x) * f(x), 0.0, 50.0 / rate
            )
            return value

        assert expo_expect(lambda x: math.exp(-alpha * (x - mode))) == pytest.approx(
            1.0, abs=1e-8
        )
        assert expo_expect(
            lambda x: alpha * (x - mode) * (1.0 - math.exp(-alpha * (x - mode)))
        ) == pytest.approx(1.0, abs=1e-8)

        def gumbel_expect(f):
            value, _ = integrate.quad(
                lambda x: alpha
                * math.exp(-alpha * (x - mode) - math.exp(-alpha * (x - mode)))
                * f(x),
                mode - 30.0 / alpha,
                mode + 60.0 / alpha,
            )
            return value

        assert gumbel_expect(lambda x: math.exp(-alpha * (x - mode))) == pytest.approx(
            1.0, abs=1e-8
        )
        assert gumbel_expect(
            lambda x: alpha * (x - mode) * (1.0 - math.exp(-alpha * (x - mode)))
        ) == pytest.approx(1.0, abs=1e-8)

    def test_provider_statistics_by_quadrature(self):
        # the closed-form Gumbel provider against brute-force integrals
        integrate = pytest.importorskip("scipy.integrate")
        provider = GumbelData(1.3, 0.4)

        def expect(f):
            value, _ = integrate.quad(
                lambda x: 1.3
                * math.exp(-1.3 * (x - 0.4) - math.exp(-1.3 * (x - 0.4)))
                * f(x),
                0.4 - 30.0,
                0.4 + 60.0,
            )
            return value

        exp_shift, lin, sq = provider.shift_integrals(0.9, -0.2)
        assert exp_shift == pytest.approx(expect(lambda x: math.exp(-0.9 * (x + 0.2))), rel=1e-8)
        assert lin == pytest.approx(
            expect(lambda x: (x + 0.2) * math.exp(-0.9 * (x + 0.2))), rel=1e-8
        )
        assert sq == pytest.approx(
            expect(lambda x: (x + 0.2) ** 2 * math.exp(-0.9 * (x + 0.2))), rel=1e-8
        )

    def test_sampler_refuses_off_curve_points(self, catalogue):
        with pytest.raises(DomainError, match="compatible curve"):
            catalogue["gumbel"].fibre_sampler(np.array([1.0, 0.0]))


class TestFibreDerivativesVanish:
    def test_closed_form_fit_is_stationary(self, catalogue, rng):
        for name in (
            "gaussian-kl",
            "gaussian-sumsq",
            "regression-ls",
            "regression-dlambda",
            "vmf-sphere",
            "vmf-cylinder",
            "gumbel",
        ):
            model = catalogue[name]
            for _ in range(20):
                x = random_dataset(model, rng)
                theta = model.closed_form_fit(x)
                grad = divergence_gradient(model, x, theta)
                assert np.max(np.abs(grad)) < 1e-8, (name, x.label)


class TestCatalogue:
    def test_names_and_builders(self):
        assert set(models.MODEL_NAMES) == {
            "gaussian-kl",
            "gaussian-sumsq",
            "regression-ls",
            "regression-dlambda",
            "gce",
            "vmf-sphere",
            "vmf-cylinder",
            "gumbel",
        }
        with pytest.raises(KeyError):
            models.build("no-such-model")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, True], ids=["nan", "inf", "bool"])
    @pytest.mark.parametrize(
        "name, option",
        [(name, option) for name in models.MODEL_NAMES for option in models.options(name)],
    )
    def test_an_option_that_is_not_a_finite_number_is_refused(self, name, option, bad):
        # a NaN or inf kappa built a vmf-sphere whose metric then failed, a bool
        # built kappa = 1, and other options failed later with a message about
        # an overflow or the spectrum instead of the option
        value = [1.0, 2.0, bad] if option == "levels" else bad
        with pytest.raises(DomainError, match=f"{name} option '{option}' needs finite numbers"):
            models.build(name, **{option: value})

    @pytest.mark.parametrize(
        "name, option, value, leaf",
        [
            ("vmf-sphere", "kappa", [1.0, 2.0], "[1.0, 2.0]"),
            ("regression-dlambda", "lam", [2.0], "[2.0]"),
            ("vmf-sphere", "kappa", [1.0] * 1000, "[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, ...]"),
            ("gce", "levels", [[1.0, 2.0], [3.0, 4.0]], "[1.0, 2.0]"),
            ("gce", "levels", np.array([[1.0, 2.0], [3.0, 4.0]]), "[1.0, 2.0]"),
            ("gce", "levels", 2.0, "2.0"),
        ],
        ids=["list-for-kappa", "list-for-lam", "long-list-for-kappa", "levels-2d",
             "levels-2d-array", "number-for-levels"],
    )
    def test_an_option_nested_the_wrong_way_names_its_first_leaf(self, name, option, value, leaf):
        # a list for a number ended in a bare TypeError from the builder's
        # range check, and 2-D levels in a numpy ValueError
        with pytest.raises(DomainError) as excinfo:
            models.build(name, **{option: value})
        message = str(excinfo.value)
        assert message == f"{name} option '{option}' needs finite numbers, got {leaf}"
        assert len(message) < 300

    @pytest.mark.parametrize(
        "levels", [np.arange(1, 5), (1.0, 2.0, 5.0), [1, 2, 3]], ids=["int-array", "tuple", "list"]
    )
    def test_a_flat_sequence_of_levels_is_accepted(self, levels):
        assert models.build("gce", levels=levels).name == "gce"

    def test_divergence_tags(self, catalogue):
        kl_tagged = {n for n, m in catalogue.items() if m.divergence_tag == "kl"}
        assert kl_tagged == {"gaussian-kl", "gce", "vmf-sphere", "vmf-cylinder", "gumbel"}

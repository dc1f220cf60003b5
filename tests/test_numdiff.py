import math

import numpy as np
import pytest

from dsm_geom import numdiff
from dsm_geom.core import GaussianData
from dsm_geom.errors import NumericalFailure

from conftest import raised, random_chart_point, random_dataset


class TestGradient:
    def test_polynomial_exact(self):
        grad = numdiff.fd_gradient(lambda t: t[0] * t[1], np.array([2.0, 3.0]))
        assert grad == pytest.approx([3.0, 2.0], abs=1e-8)

    def test_quadratic_exact(self, rng):
        matrix = rng.standard_normal((3, 3))
        matrix = matrix + matrix.T
        point = rng.standard_normal(3)
        grad = numdiff.fd_gradient(lambda t: 0.5 * t @ matrix @ t, point)
        assert np.max(np.abs(grad - matrix @ point)) < 1e-8

    def test_divergence_minimum(self, catalogue):
        kl = catalogue["gaussian-kl"]
        data = GaussianData(0.0, 1.0)
        grad = numdiff.fd_gradient(
            lambda t: kl.divergence_fn(data, t),
            np.array([0.0, 1.0]),
            kl.chart.domain,
        )
        assert np.max(np.abs(grad)) < 1e-6

    def test_gce_log_partition(self):
        levels = np.array([1.0, 2.0, 3.0])

        def log_partition(t):
            return float(-np.sum(np.log(-np.expm1(-t[0] * (levels - t[1])))))

        theta = np.array([1.0, 0.5])
        grad = numdiff.fd_gradient(log_partition, theta)
        analytic = -np.sum((levels - 0.5) / np.expm1(1.0 * (levels - 0.5)))
        assert grad[0] == pytest.approx(analytic, abs=1e-6)

    def test_stencil_shrinks_instead_of_crossing_boundary(self, catalogue):
        # near sigma = 0 the divergence is genuinely too stiff for FD; the
        # engine must refuse rather than step outside the chart
        kl = catalogue["gaussian-kl"]
        data = GaussianData(0.0, 1.0)
        domain = kl.chart.domain
        calls = []

        def watched(t):
            calls.append(t[1])
            return kl.divergence_fn(data, t)

        with pytest.raises(NumericalFailure):
            numdiff.fd_gradient(watched, np.array([0.0, 2e-4]), domain)
        assert min(calls) > 0.0

    def test_one_sided_at_boundary(self):
        # smooth across the bound; the stencil still must not cross it
        domain = ((-math.inf, math.inf), (0.0, math.inf))
        calls = []

        def smooth(t):
            calls.append(t[1])
            return math.sin(t[1]) + t[0] ** 2

        grad = numdiff.fd_gradient(smooth, np.array([0.5, 1e-8]), domain)
        assert min(calls) >= 0.0
        assert grad[1] == pytest.approx(1.0, abs=1e-5)

    def test_one_sided_levels_that_disagree_raise(self):
        # the one-sided formula at h and at h/2 are compared as the central
        # levels are; 1/sigma at sigma = 1e-9 used to give a derivative off
        # by orders of magnitude with no error
        domain = ((-math.inf, math.inf), (0.0, math.inf))
        with pytest.raises(NumericalFailure, match="Richardson levels disagree .* along axis 1"):
            numdiff.fd_gradient(lambda t: 1.0 / t[1], np.array([0.0, 1e-9]), domain)

    def test_one_sided_stencil_adds_its_half_step(self):
        # f(0), f(h), f(2h) as before, then f(h/2) for the second level
        domain = ((-math.inf, math.inf), (0.0, math.inf))
        seen = []

        def smooth(t):
            seen.append(t[1])
            return math.sin(t[1])

        numdiff.fd_field_derivative(smooth, np.array([0.5, 1e-8]), 1, domain)
        h = numdiff.ABS_STEP_FLOOR
        assert seen == [1e-8, 1e-8 + h, 1e-8 + 2.0 * h, 1e-8 + 0.5 * h]

    def test_richardson_disagreement_raises(self):
        def kinked(t):
            return abs(t[0] - 1.000013)

        with pytest.raises(NumericalFailure):
            numdiff.fd_gradient(kinked, np.array([1.0]))


class TestBoundary:
    # axis 1 lives in the open interval (0, 3); axis 0 is unbounded
    DOMAIN = ((-math.inf, math.inf), (0.0, 3.0))

    @staticmethod
    def scalar(t):
        return math.sin(t[0]) * math.exp(t[1]), np.array(
            [math.cos(t[0]) * math.exp(t[1]), math.sin(t[0]) * math.exp(t[1])]
        )

    @staticmethod
    def tensor(t):
        wave, cross = math.sin(t[0]) * math.exp(t[1]), t[0] * t[1] ** 2
        value = np.array([[wave, cross], [cross, math.cos(t[1])]])
        jac = np.empty((2, 2, 2))  # jac[a, b, i] = d_i value[a, b]
        jac[:, :, 0] = [[math.cos(t[0]) * math.exp(t[1]), t[1] ** 2], [t[1] ** 2, 0.0]]
        jac[:, :, 1] = [[wave, 2 * t[0] * t[1]], [2 * t[0] * t[1], -math.sin(t[1])]]
        return value, jac

    @pytest.mark.parametrize("rank", [0, 2])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("distance", [1e-8, 1.5e-7, 2.2e-4, 1e-2])
    def test_stencil_stays_inside_and_matches(self, rank, side, distance):
        # closer than 2.5 floor steps (2.5e-7) the stencil is one-sided; at
        # 2.2e-4 the central step shrinks to fit; at 1e-2 it is the full step
        point = np.array([0.4, distance if side == "lower" else 3.0 - distance])
        exact = self.scalar if rank == 0 else self.tensor
        seen = []

        def field(t):
            seen.append(t[1])
            return exact(t)[0]

        derive = numdiff.fd_gradient if rank == 0 else numdiff.fd_jacobian
        result = derive(field, point, self.DOMAIN)
        assert 0.0 < min(seen) and max(seen) < 3.0
        assert np.max(np.abs(result - exact(point)[1])) < 1e-5

    def test_hessian_refused_where_no_stencil_fits(self):
        with pytest.raises(NumericalFailure, match="no Hessian stencil"):
            numdiff.fd_hessian(lambda t: t[1] ** 2, np.array([0.4, 1e-8]), self.DOMAIN)


class TestHessian:
    def test_rank_one_quadratic(self):
        hess = numdiff.fd_hessian(lambda t: 0.5 * t[0] ** 2, np.array([0.7, -0.2]))
        assert hess == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.0]]), abs=1e-6)

    def test_gaussian_divergence_hessian(self, catalogue):
        kl = catalogue["gaussian-kl"]
        data = GaussianData(0.0, 1.0)
        hess = numdiff.fd_hessian(
            lambda t: kl.divergence_fn(data, t),
            np.array([0.0, 1.0]),
            kl.chart.domain,
        )
        assert hess == pytest.approx(np.diag([1.0, 2.0]), abs=1e-4)

    def test_cylinder_potential(self):
        kappa = 2.0

        def potential(t):
            return 0.5 * kappa * t[0] ** 2 - math.log(t[1])

        hess = numdiff.fd_hessian(potential, np.array([0.3, 1.0]))
        assert hess == pytest.approx(np.diag([2.0, 1.0]), abs=1e-5)

    def test_symmetric_output(self, rng):
        matrix = rng.standard_normal((3, 3))

        def bumpy(t):
            return float(np.sin(t @ matrix @ t) + t[0] * t[1] * t[2])

        hess = numdiff.fd_hessian(bumpy, rng.standard_normal(3))
        assert np.array_equal(hess, hess.T)

    def test_both_richardson_levels_share_one_centre_call(self):
        # each level's n = 2 stencil has 4 diagonal and 4 mixed points off the
        # centre; the centre value used to be recomputed per level (18 calls)
        centre = np.array([0.3, -1.2])
        calls = []

        def counting(t):
            calls.append(np.array(t))
            return float(t @ t)

        numdiff.fd_hessian(counting, centre)
        assert len(calls) == 2 * 8 + 1
        assert sum(np.array_equal(t, centre) for t in calls) == 1

    @pytest.mark.parametrize("distance", [None, 1e-2, 2.2e-4, 1e-6])
    def test_exactly_symmetric_without_symmetrising(self, distance):
        # each mixed entry is written to both halves at both Richardson
        # levels, so the extrapolated result needs no symmetrisation; near
        # the bound the steps shrink to fit, unequally along the three axes
        rng = np.random.default_rng(7)
        domain = ((-math.inf, math.inf), (0.0, 3.0), (-1.0, 1.0))
        for _ in range(50):
            matrix, weights = rng.standard_normal((3, 3)), rng.standard_normal(3)

            def smooth(t):
                return float(np.sin(t @ matrix @ t) + np.exp(weights @ t) + t[0] * t[1] * t[2])

            point = np.array([rng.standard_normal(), rng.uniform(0.5, 2.5), rng.uniform(-0.5, 0.5)])
            if distance is not None:
                point[1] = distance
            hess = numdiff.fd_hessian(smooth, point, domain)
            assert np.all(np.isfinite(hess))
            assert np.array_equal(hess, hess.T)

    def test_step_halving_robust_on_divergences(self, catalogue, rng, monkeypatch):
        for model in catalogue.values():
            chart = model.chart
            for _ in range(10):
                x = random_dataset(model, rng)
                theta = random_chart_point(model, rng)
                monkeypatch.setattr(numdiff, "REL_STEP", 1e-4)
                coarse = numdiff.fd_hessian(
                    lambda t: model.divergence_fn(x, t),
                    theta,
                    chart.domain,
                )
                monkeypatch.setattr(numdiff, "REL_STEP", 5e-5)
                fine = numdiff.fd_hessian(
                    lambda t: model.divergence_fn(x, t),
                    theta,
                    chart.domain,
                )
                scale = max(np.max(np.abs(coarse)), 1.0)
                assert np.max(np.abs(coarse - fine)) / scale < 1e-4, model.name


class TestFieldDerivative:
    def test_constant_field(self):
        field = lambda t: np.diag([4.0, 1.0])
        result = numdiff.fd_field_derivative(field, np.array([0.3, 0.4]), 0)
        assert np.max(np.abs(result)) < 1e-8

    def test_sphere_metric_derivative(self):
        field = lambda t: np.array([[1.0, 0.0], [0.0, math.sin(t[0]) ** 2]])
        result = numdiff.fd_field_derivative(field, np.array([math.pi / 4, 0.0]), 0)
        assert result[1, 1] == pytest.approx(1.0, abs=1e-6)

    def test_gce_connection_derivative(self):
        def field(t):
            omega = np.zeros((2, 2, 2))
            omega[1, 0, 1] = omega[1, 1, 0] = 1.0 / t[0]
            return omega

        result = numdiff.fd_field_derivative(field, np.array([2.0, 0.0]), 0)
        assert result[1, 0, 1] == pytest.approx(-0.25, abs=1e-5)


class TestJacobian:
    def test_linear_map(self, rng):
        matrix = rng.standard_normal((2, 2))
        jac = numdiff.fd_jacobian(lambda t: matrix @ t, np.array([0.3, -0.7]))
        assert np.max(np.abs(jac - matrix)) < 1e-8

    def test_canonical_gaussian_map(self, catalogue):
        forward = catalogue["gaussian-kl"].oracle.affine_map
        jac = numdiff.fd_jacobian(forward, np.array([0.0, 1.0]))
        assert jac == pytest.approx(np.array([[0.0, -1.0], [-1.0, 0.0]]), abs=1e-8)


def per_centre_jacobian(field, centre, domain):
    """The Jacobian at one centre as the per-centre formulas computed it: one
    axis at a time, its step from the scalar rule ``fd_hessian`` takes, its
    stencil points shifted on that axis alone, its central (with one
    Richardson level) or one-sided formula, then stacked."""
    columns = []
    for axis in range(centre.size):
        below, above = numdiff._room(centre, axis, domain)
        h = numdiff._step(centre, axis, domain)

        def at(step):
            point = np.array(centre, dtype=float)
            point[axis] += step
            return np.asarray(field(point), dtype=float)

        if min(below, above) <= 2.5 * numdiff.ABS_STEP_FLOOR:
            sign = 1.0 if above >= below else -1.0
            at_0, at_h, at_2h = at(0.0), at(sign * h), at(sign * 2.0 * h)
            columns.append(sign * (-3.0 * at_0 + 4.0 * at_h - at_2h) / (2.0 * h))
        else:
            coarse = (at(h) - at(-h)) / (2.0 * h)
            fine = (at(0.5 * h) - at(-0.5 * h)) / h
            columns.append((4.0 * fine - coarse) / 3.0)
    return np.stack(columns, axis=-1)


class TestBatchedFormulas:
    # axis 1 lives in (0, 3); the third centre is 1e-8 from its lower bound,
    # closer than 2.5 floor steps, so its axis-1 stencil is one-sided
    DOMAIN = ((-math.inf, math.inf), (0.0, 3.0))
    CENTRES = [[0.4, 1.0], [-1.3, 2.2], [0.9, 1e-8], [2.0, 0.5]]

    @staticmethod
    def field(rank):
        def value(t):
            wave, cross = math.sin(t[0]) * math.exp(t[1]), t[0] * t[1] ** 2
            if rank == 0:
                return wave + cross
            matrix = np.array([[wave, cross], [cross, math.cos(t[1])]])
            return matrix if rank == 2 else np.stack([matrix, t[0] * matrix.T])

        return value

    @pytest.mark.parametrize("rank", [0, 2, 3])
    def test_each_centre_is_its_per_centre_formulas_bit_for_bit(self, rank):
        field = self.field(rank)
        stack = lambda points, sizes: numdiff._field_values(field, points, sizes)
        results = numdiff.fd_jacobians(stack, self.CENTRES, self.DOMAIN)
        for centre, (jacobian,) in zip(self.CENTRES, results):
            expected = per_centre_jacobian(field, np.array(centre), self.DOMAIN)
            assert jacobian.shape == expected.shape == np.shape(field(centre)) + (2,)
            assert jacobian.tobytes() == expected.tobytes(), centre

    def test_each_step_moves_its_own_axis_only(self):
        # the other coordinate keeps its -0.0; the one-sided zero step adds
        # +0.0 to its own axis, as shifting one point at a time adds it
        centre, seen = np.array([-0.0, -0.0]), []
        domain = ((-math.inf, math.inf), (-1.0, 1e-7))  # axis 1 steps down
        numdiff.fd_jacobian(lambda t: seen.append(t) or 0.0, centre, domain)
        h, floor = numdiff.REL_STEP, numdiff.ABS_STEP_FLOOR
        steps = [(0, h), (0, -h), (0, 0.5 * h), (0, -0.5 * h)]
        steps += [(1, 0.0), (1, -floor), (1, -2.0 * floor), (1, -0.5 * floor)]
        expected = [numdiff._shifted(centre, axis, step) for axis, step in steps]
        assert [point.tobytes() for point in seen] == [point.tobytes() for point in expected]
        assert np.signbit(seen[0][1]) and not np.signbit(seen[4][1])

    def test_a_stencil_whose_formula_overflows_fails_only_its_centre(self):
        # the middle centre's values are 1e308 times the others', so its
        # Richardson step 4 * fine overflows; the stack is redone stencil by
        # stencil, and each centre gets what it gets alone
        def field(t):
            return np.array([math.sin(t[0]) * (1e308 if t[1] > 2.5 else 1.0), t[1]])

        centres = [[0.3, 1.0], [0.3, 2.7], [0.8, 2.0]]
        stack = lambda points, sizes: numdiff._field_values(field, points, sizes)
        with np.errstate(all="raise"):
            first, middle, last = numdiff.fd_jacobians(stack, centres, self.DOMAIN)
            alone = raised(lambda: numdiff.fd_jacobian(field, centres[1], self.DOMAIN))
            assert alone == (FloatingPointError, "overflow encountered in multiply")
            assert (type(middle), str(middle)) == alone
            for centre, (jacobian,) in zip(centres[::2], (first, last)):
                expected = numdiff.fd_jacobian(field, centre, self.DOMAIN)
                assert jacobian.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("domain", [None, DOMAIN, ((-2.0, 1e-7), (1e-9, 5.0))])
    def test_the_array_step_rule_is_the_scalar_one(self, domain, rng):
        # fd_hessian keeps the scalar rule; each stencil's step, room and
        # sign are that rule over an array, bit for bit
        centres = np.vstack([rng.uniform(-1.5, 3.0, (6, 2)), [[0.0, 1e-8], [-1.9, 4.0]]])
        if domain is not None:
            lo, hi = np.array(domain).T
            centres = np.clip(centres, lo + 1e-10, hi - 1e-10)
        bounds = None if domain is None else np.array(domain)
        h, room, sign = numdiff._steps(centres, bounds)
        for row, centre in enumerate(centres):
            for axis in range(2):
                below, above = numdiff._room(centre, axis, domain)
                assert h[row, axis] == numdiff._step(centre, axis, domain)
                assert room[row, axis] == min(below, above)
                if domain is not None:
                    assert sign[row, axis] == (1.0 if above >= below else -1.0)

    def test_a_plain_field_is_called_at_each_point_before_any_check(self):
        # the formulas and their checks run after the reads, so a field with
        # no stack is called at all of its centre's stencil points, also
        # when axis 0's levels disagree: f jumps between h/2 and h there
        calls = []

        def kinked(t):
            calls.append(t)
            return (t[0] if abs(t[0]) > 0.75e-4 else 0.0) + t[1]

        with pytest.raises(NumericalFailure, match="along axis 0 at \\[0.0, 0.5\\]"):
            numdiff.fd_jacobian(kinked, np.array([0.0, 0.5]))
        assert len(calls) == 8

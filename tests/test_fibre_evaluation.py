"""What one fibre field evaluation costs and what it returns, to the bit.

A fibre evaluation is the unit every verdict and every fibre path is made
of, so its model calls are counted here and its numbers are pinned byte
for byte at seeded chart points.  The report digests pin only the worst
value of each check, so they cannot show a change in the other bits.
"""
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from dsm_geom import geometry, models, numdiff
from dsm_geom.core import Tolerances
from dsm_geom.errors import Condition4Violated, MetricNotPD, NumericalFailure, ProbeSingular

from conftest import METRIC_BEARING, counted_model, raised, split_model, stencil_points

# the sha256 of each METRIC_BEARING model's fibre bits (fibre_digest), one
# "<digest>  <model>" line each.  A change that moves these bits on purpose
# re-records them from the repository root with
#   PYTHONPATH=src python tests/test_fibre_evaluation.py > tests/data/fibre_bits_seed0.sha256
FIBRE_DIGESTS = Path(__file__).parent / "data" / "fibre_bits_seed0.sha256"
PIN_SEED = 0
PIN_POINTS = 50


def fibre_digest(model) -> str:
    """sha256 over both solved probe families and the gate's metric, in that
    order, at PIN_POINTS seeded random points of the model's sample box."""
    digest = hashlib.sha256()
    for point in model.chart.random_points(np.random.default_rng(PIN_SEED), PIN_POINTS):
        evaluation = geometry.connection_at(model, point)
        for omega in evaluation.families:
            digest.update(omega.tobytes())
        digest.update(evaluation.metric.matrix.tobytes())
    return digest.hexdigest()


# the model calls of one connection field evaluation: the condition-4 gate's
# sampler call and 3 member Hessians, and one probe family of 2 antithetic
# pairs, 4 gradients and 4 Hessians
ONE_POINT_CALLS = {"fibre_sampler_fn": 1, "probe_pairs_fn": 1, "gradient_fn": 4, "hessian_fn": 7}


@pytest.mark.parametrize("name", METRIC_BEARING)
class TestCallCounts:
    def test_one_field_evaluation(self, catalogue, name):
        model, calls = counted_model(catalogue[name])
        field = geometry.connection_field(model)
        field(model.chart.central_grid(1)[0])
        assert calls == ONE_POINT_CALLS

    def test_both_probe_families(self, catalogue, name):
        model, calls = counted_model(catalogue[name])
        geometry.connection_at(model, model.chart.central_grid(1)[0])
        assert calls == {
            "fibre_sampler_fn": 1, "probe_pairs_fn": 2, "gradient_fn": 8, "hessian_fn": 11
        }


def one_segment(field, points):
    """The field's values at ``points`` from its ``stack``, as one segment."""
    (values,) = field.stack(points, [len(points)])
    return values


def recorded_model(model):
    """A copy of ``model`` whose callables append (name, point) to the
    returned list at each call, the point as bytes."""
    calls = []

    def record(name, fn):
        def wrapper(*args):
            point = args[0] if name in ("fibre_sampler_fn", "probe_pairs_fn") else args[1]
            calls.append((name, np.asarray(point, dtype=float).tobytes()))
            return fn(*args)

        return wrapper

    names = ("gradient_fn", "hessian_fn", "fibre_sampler_fn", "probe_pairs_fn")
    wrapped = {name: record(name, getattr(model, name)) for name in names}
    return dataclasses.replace(model, **wrapped), calls


@pytest.mark.parametrize("name", METRIC_BEARING)
class TestStackedStencil:
    """An FD stencil over a fibre field is one stack: each of its points
    comes out as its one-point evaluation does, byte for byte, from the
    same model calls in the same order."""

    def test_each_point_is_its_one_point_evaluation(self, catalogue, name):
        model = catalogue[name]
        connection = geometry.connection_field(model)
        metric = geometry.metric_field(model)
        points = stencil_points(model, model.chart.central_grid(1)[0])
        assert len(points) == 8
        results = geometry._fibre_stack(model, Tolerances(), points, (), [len(points)])
        omegas = list(one_segment(connection, points))
        matrices = list(one_segment(metric, points))
        for point, (stacked, _), omega, matrix in zip(points, results, omegas, matrices):
            alone = geometry.metric_at(model, point)
            assert stacked.matrix.tobytes() == matrix.tobytes() == alone.matrix.tobytes()
            assert stacked.fibre_deviation.hex() == alone.fibre_deviation.hex()
            assert stacked.member_labels == alone.member_labels
            one = geometry.connection_at(model, point, check_consistency=False)
            assert omega.tobytes() == one.omega.tobytes()

    def test_the_jacobian_is_the_per_point_jacobian(self, catalogue, name):
        model = catalogue[name]
        point = model.chart.central_grid(1)[0]
        for field in (geometry.connection_field(model), geometry.metric_field(model)):
            plain = dataclasses.replace(field, stack=None)  # point by point
            stacked = numdiff.fd_jacobian(field, point, field.domain)
            assert stacked.tobytes() == numdiff.fd_jacobian(plain, point, field.domain).tobytes()

    def test_model_calls_are_those_of_eight_points_in_order(self, catalogue, name):
        model = catalogue[name]
        points = stencil_points(model, model.chart.central_grid(1)[0])
        counted, calls = counted_model(model)
        list(one_segment(geometry.connection_field(counted), points))
        assert calls == {key: 8 * count for key, count in ONE_POINT_CALLS.items()}
        stacked, order = recorded_model(model)
        list(one_segment(geometry.connection_field(stacked), points))
        alone, expected = recorded_model(model)
        for point in points:
            geometry.connection_field(alone)(point)
        assert order == expected


def test_a_stacked_gate_and_solve_are_each_point_alone(catalogue):
    # the stacked member-axis sum, spread and probe solve against the same
    # work on each point alone, on random stacks of positive definite member
    # Hessians whose entries span twelve decades
    model = catalogue["gaussian-kl"]  # a hessian_fn model: the rows are symmetrised
    rng = np.random.default_rng(7)
    for _ in range(100):
        size, count, n = rng.integers(2, 9), rng.integers(2, 6), rng.integers(1, 4)
        groups = []
        for _ in range(size):
            rows = []
            for _ in range(count):
                factor = rng.standard_normal((n, n))
                scale = 10.0 ** rng.integers(-6, 6)
                rows.append(scale * (factor @ factor.T + np.eye(n)))
            groups.append(rows)
        stacked = list(zip(*geometry._gate_terms(model, groups)))
        for rows, terms in zip(groups, stacked):
            alone = geometry._gate_terms(model, rows)
            assert [np.asarray(term).tobytes() for term in terms] == [
                np.asarray(term).tobytes() for term in alone
            ]
        probes = [
            (
                list(rng.standard_normal((2 * n, n)) * 10.0 ** rng.integers(-3, 3)),
                list(rng.standard_normal((2 * n, n, n))),
            )
            for _ in range(size)
        ]
        solved = list(zip(*geometry._solve_terms(model, *zip(*probes))))
        for probe, (omega, condition) in zip(probes, solved):
            alone_omega, alone_condition = geometry._solve_terms(model, *probe)
            assert omega.tobytes() == alone_omega.tobytes()
            assert condition.hex() == alone_condition.hex()


def refusing_model(model, refused):
    """``model`` whose fibre sampler raises ValueError at the chart point ``refused``."""

    def sampler(theta):
        if np.array_equal(theta, refused):
            raise ValueError(f"sampler refuses {np.asarray(theta).tolist()}")
        return model.fibre_sampler_fn(theta)

    return dataclasses.replace(model, fibre_sampler_fn=sampler)


def flipped_model(model, flipped):
    """``model`` whose member Hessians change sign at the chart point
    ``flipped``: condition 4 holds there and the metric is not positive definite."""

    def hessian(x, theta):
        sign = -1.0 if np.array_equal(theta, flipped) and x.label != "probe" else 1.0
        return sign * model.hessian_fn(x, theta)

    return dataclasses.replace(model, hessian_fn=hessian)


def nth_stencil_point(model, index, point=None):
    point = model.chart.central_grid(1)[0] if point is None else point
    return stencil_points(model, point)[index]


KL = models.build("gaussian-kl")
SPHERE = models.build("vmf-sphere")
POLE = [1e-8, 0.0]  # axis 0 takes the one-sided stencil there, which disagrees with its half step


def among_others(field, point, domain):
    """``fd_jacobian`` of ``field`` at ``point``, read as the middle one of
    three centres of ``fd_jacobians``: the two others' Jacobians must be
    their one-centre ones, byte for byte, whatever the middle one meets."""
    others = [[0.7, -1.9], [2.5, 1.9]]
    stack = lambda points, sizes: numdiff._field_values(field, points, sizes)
    first, middle, last = numdiff.fd_jacobians(stack, [others[0], point, others[1]], domain)
    for other, (jacobian,) in zip(others, (first, last)):
        assert jacobian.tobytes() == numdiff.fd_jacobian(field, other, domain).tobytes()
    return numdiff._unwrap(middle)[0]


@pytest.mark.parametrize(
    "model, point, derive, fields, kind",
    [
        # condition 4 holds at (0, 0) and fails at the first stencil point, u = +h
        (split_model(), [0.0, 0.0], numdiff.fd_jacobian, "connection", Condition4Violated),
        (split_model(), [0.0, 0.0], numdiff.fd_jacobian, "metric", Condition4Violated),
        # the sphere's pole: the one-sided stencil of axis 0 disagrees with its
        # half step before axis 1's first point, whose probe matrix is singular
        (
            models.build("vmf-sphere"),
            [1e-8, 0.0],
            numdiff.fd_jacobian,
            "connection",
            NumericalFailure,
        ),
        (
            models.build("vmf-sphere"),
            [1e-8, 0.0],
            lambda field, point, domain: numdiff.fd_field_derivative(field, point, 1, domain),
            "connection",
            ProbeSingular,
        ),
        (
            refusing_model(KL, nth_stencil_point(KL, 2)),
            KL.chart.central_grid(1)[0],
            numdiff.fd_jacobian,
            "connection",
            ValueError,
        ),
        (
            refusing_model(KL, nth_stencil_point(KL, 2)),
            KL.chart.central_grid(1)[0],
            numdiff.fd_jacobian,
            "metric",
            ValueError,
        ),
        # the first point fails condition 4 before the third one's sampler raises
        (
            refusing_model(split_model(), nth_stencil_point(split_model(), 2, [0.0, 0.0])),
            [0.0, 0.0],
            numdiff.fd_jacobian,
            "connection",
            Condition4Violated,
        ),
        # the second point's metric has no Cholesky factor; the others do
        (
            flipped_model(KL, nth_stencil_point(KL, 1)),
            KL.chart.central_grid(1)[0],
            numdiff.fd_jacobian,
            "connection",
            MetricNotPD,
        ),
        # axis 0's levels disagree before axis 1's first point refuses its fibre
        (
            refusing_model(SPHERE, nth_stencil_point(SPHERE, 4, POLE)),
            POLE,
            numdiff.fd_jacobian,
            "connection",
            NumericalFailure,
        ),
        # a point of axis 0 refuses its fibre before axis 0's levels disagree
        (
            refusing_model(SPHERE, nth_stencil_point(SPHERE, 1, POLE)),
            POLE,
            numdiff.fd_jacobian,
            "connection",
            ValueError,
        ),
        # a failing centre between two centres whose Jacobians are their own
        (SPHERE, POLE, among_others, "connection", NumericalFailure),
        (
            refusing_model(SPHERE, nth_stencil_point(SPHERE, 5, POLE)),
            POLE,
            among_others,
            "metric",
            ValueError,
        ),
    ],
    ids=[
        "split-condition4-connection",
        "split-condition4-metric",
        "sphere-pole-levels",
        "sphere-pole-probe",
        "sampler-value-error-connection",
        "sampler-value-error-metric",
        "condition4-before-a-later-value-error",
        "one-point-not-positive-definite",
        "axis-0-levels-before-an-axis-1-value-error",
        "axis-0-value-error-before-its-levels",
        "a-failing-centre-among-others-connection",
        "a-failing-centre-among-others-metric",
    ],
)
def test_a_stacked_stencil_raises_what_the_per_point_order_raises(
    model, point, derive, fields, kind
):
    field = (geometry.connection_field if fields == "connection" else geometry.metric_field)(model)
    stacked = raised(lambda: derive(field, point, field.domain))
    alone = raised(lambda: derive(dataclasses.replace(field, stack=None), point, field.domain))
    assert stacked == alone
    assert stacked[0] is kind
    if kind is ProbeSingular:
        assert stacked[1].endswith("(condition 1e+08) at [1e-08, 0.0001]")
    if kind is NumericalFailure:
        assert stacked[1].endswith("along axis 0 at [1e-08, 0.0]")


def test_a_raise_ends_only_its_own_segment(catalogue):
    # three stencils as one segmented stack; the middle one's third point
    # refuses its fibre, and the last stencil is still evaluated
    centres = [[-0.5, 0.8], [0.0, 1.0], [0.7, 2.0]]
    segments = [stencil_points(KL, centre) for centre in centres]
    model, calls = recorded_model(refusing_model(KL, segments[1][2]))
    points = [point for segment in segments for point in segment]
    sizes = [len(segment) for segment in segments]
    stacked = geometry.connection_field(model).stack(points, sizes)
    stacked_calls = list(calls)
    calls.clear()
    alone = [one_segment(geometry.connection_field(model), segment) for segment in segments]
    assert stacked_calls == calls
    assert sum(name == "fibre_sampler_fn" for name, _ in calls) == 8 + 3 + 8
    first, middle, last = stacked
    for values, expected in ((first, alone[0]), (last, alone[2])):
        assert [value.tobytes() for value in values] == [value.tobytes() for value in expected]
    for _ in range(2):
        assert next(middle).tobytes() == next(alone[1]).tobytes()
    refused = f"sampler refuses {segments[1][2].tolist()}"
    assert raised(lambda: next(middle)) == raised(lambda: next(alone[1])) == (ValueError, refused)
    # the stack itself: each evaluated point's metric and connections as one
    # point gives them, the refused point's error, and None after it
    results = geometry._fibre_stack(model, Tolerances(), points, (0, 1), sizes)
    at = sizes[0] + 2
    assert raised(lambda: numdiff._unwrap(results[at])) == (ValueError, refused)
    assert results[at + 1 : sizes[0] + sizes[1]] == [None] * (sizes[1] - 3)
    evaluated = [index for index, result in enumerate(results) if isinstance(result, tuple)]
    assert evaluated == [*range(at), *range(sizes[0] + sizes[1], len(points))]
    for index in evaluated:
        (metric, omegas), point = results[index], points[index]
        alone_metric = geometry.metric_at(model, point)
        alone_omegas = geometry.connection_at(model, point).families
        assert metric.matrix.tobytes() == alone_metric.matrix.tobytes()
        assert metric.fibre_deviation.hex() == alone_metric.fibre_deviation.hex()
        assert metric.member_labels == alone_metric.member_labels
        assert [omega.tobytes() for omega in omegas] == [omega.tobytes() for omega in alone_omegas]


def test_a_failed_gate_leaves_the_next_segment_its_own_values():
    # split fails condition 4 at the first point of the stencil at (0, 0),
    # after its probe family's terms joined the stack's solve; the next
    # segment still reads its own connections
    model = split_model()
    field = geometry.connection_field(model)
    segments = [stencil_points(model, [0.0, 0.0]), stencil_points(model, [-0.5, 0.3])]
    first, second = field.stack([*segments[0], *segments[1]], [len(s) for s in segments])
    assert raised(lambda: next(first))[0] is Condition4Violated
    alone = one_segment(field, segments[1])
    assert [value.tobytes() for value in second] == [value.tobytes() for value in alone]


def test_fibre_bits_are_pinned(catalogue):
    recorded = dict(reversed(line.split()) for line in FIBRE_DIGESTS.read_text().splitlines())
    assert {name: fibre_digest(catalogue[name]) for name in METRIC_BEARING} == recorded


if __name__ == "__main__":
    for name in METRIC_BEARING:
        sys.stdout.write(f"{fibre_digest(models.build(name))}  {name}\n")

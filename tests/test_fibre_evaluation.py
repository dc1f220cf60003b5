"""What one fibre field evaluation costs and what it returns, to the bit.

A fibre evaluation is the unit every verdict and every fibre path is made
of, so its model calls are counted here and its numbers are pinned byte
for byte at seeded chart points.  The report digests pin only the worst
value of each check, so they cannot show a change in the other bits.
"""
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from dsm_geom import geometry, models

from conftest import METRIC_BEARING, counted_model

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


@pytest.mark.parametrize("name", METRIC_BEARING)
class TestCallCounts:
    def test_one_field_evaluation(self, catalogue, name):
        # the condition-4 gate: 1 sampler call and 3 member Hessians; one
        # probe family of 2 antithetic pairs: 4 gradients and 4 Hessians
        model, calls = counted_model(catalogue[name])
        field = geometry.connection_field(model)
        field(model.chart.central_grid(1)[0])
        assert calls == {
            "fibre_sampler_fn": 1, "probe_pairs_fn": 1, "gradient_fn": 4, "hessian_fn": 7
        }

    def test_both_probe_families(self, catalogue, name):
        model, calls = counted_model(catalogue[name])
        geometry.connection_at(model, model.chart.central_grid(1)[0])
        assert calls == {
            "fibre_sampler_fn": 1, "probe_pairs_fn": 2, "gradient_fn": 8, "hessian_fn": 11
        }


def test_fibre_bits_are_pinned(catalogue):
    recorded = dict(reversed(line.split()) for line in FIBRE_DIGESTS.read_text().splitlines())
    assert {name: fibre_digest(catalogue[name]) for name in METRIC_BEARING} == recorded


if __name__ == "__main__":
    for name in METRIC_BEARING:
        sys.stdout.write(f"{fibre_digest(models.build(name))}  {name}\n")

"""Every verdict check has a witness: a model that fails it.

A check that no model can fail decides nothing; classify's torsion check
was one, since the solved connection is symmetric by construction.
``WITNESSES`` names, for each check of ``structure._CHECKS`` and each
check an op declares in ``cli._OPS``, a model that fails it, and each row
runs here.  ``test_dependencies`` audits that every check has a row.
"""
from dataclasses import replace

import numpy as np
import pytest

from dsm_geom import cli, models, structure
from dsm_geom.models.gumbel import compatible_point

from conftest import RAISE_FP_ERRORS, nan_probe_model, wrong_fibre_model

_GATE = ("condition4", "fibre_deviation", "cond4")
_PATH = ("path_independence", "path_independence", "path")
_SPHERE_PATH = {"start": [1.2, 0.5], "targets": [[1.5, 0.2]]}

# the conftest witnesses; any other witness is a catalogue model
_BUILDERS = {
    "nan-probe": nan_probe_model,
    "wrong-fibre": wrong_fibre_model,
    # probes from its neighbouring fibres, not gaussian-kl's own
    "wrong-fibre-neighbour-probes": lambda: replace(wrong_fibre_model(), probe_pairs_fn=None),
}

# each row: where the check runs (classify, or the op that declares it), the
# check as its table writes it, the witness and the op's options
WITNESSES = (
    ("classify", ("condition4", "worst_deviation", "cond4"), "regression-ls", {}),
    ("classify", ("condition4", "worst_deviation", "cond4"), "gumbel", {}),
    ("classify", ("probe_consistency", "worst", "hessian"), "nan-probe", {}),
    ("classify", ("flat", "max_curvature", "flat"), "vmf-sphere", {}),
    ("classify", ("codazzi", "residual", "codazzi"), "wrong-fibre", {}),
    ("classify", ("codazzi", "residual", "codazzi"), "wrong-fibre-neighbour-probes", {}),
    ("metric", _GATE, "regression-ls", {"at": [0.0, 0.0]}),
    ("metric", _GATE, "gumbel", {"at": compatible_point(1.0).tolist()}),
    (
        "connection",
        ("hessian_structure", "probe_consistency", "hessian"),
        "nan-probe",
        {"at": [0.0, 1.0]},
    ),
    ("curvature", ("flat", "max_abs", "flat"), "vmf-sphere", {"at": [1.2, 0.5]}),
    ("affine", _PATH, "vmf-sphere", _SPHERE_PATH),
    # a target one coordinate away passed at 0.0: its detour was the straight path
    ("affine", _PATH, "vmf-sphere", {"start": [1.2, 0.5], "targets": [[1.2, 1.0]]}),
    ("massieu", _PATH, "vmf-sphere", _SPHERE_PATH),
    ("massieu", _PATH, "vmf-sphere", {"start": [1.2, 0.5], "targets": [[1.5, 0.5]]}),
    (
        "field",
        ("path_residual", "path_residual", "flat"),
        "vmf-sphere",
        {"start": [1.2, 0.5], "vector": [1.0, 0.0], "grid": "3"},
    ),
    # a spot check of three points passed at 0.0: each shared theta with the
    # base, so its detour was the straight path
    (
        "field",
        ("path_residual", "path_residual", "flat"),
        "vmf-sphere",
        {
            "start": [1.2, 0.5],
            "vector": [1.0, 0.0],
            "grid": "1.2,0.0;1.5,1.0;1.2,1.0;1.6,0.9;1.2,1.5",
        },
    ),
    # each grid point one coordinate away from the base passed at 0.0
    (
        "field",
        ("path_residual", "path_residual", "flat"),
        "vmf-sphere",
        {"start": [1.2, 0.5], "vector": [1.0, 0.0], "grid": "1.2,0.0;1.5,0.5"},
    ),
)


def check_tables() -> dict:
    """The checks each op declares; the classify op's are ``structure._CHECKS``."""
    tables = {op: entry[3] for op, entry in cli._OPS.items()}
    tables["classify"] = structure._CHECKS  # declared () in cli._OPS
    return tables


def status(where, check, witness, options) -> str:
    """The status the check reads when it runs on the witness."""
    model = _BUILDERS[witness]() if witness in _BUILDERS else models.build(witness)
    with np.errstate(**RAISE_FP_ERRORS):
        if where == "classify":
            report = structure.classify(model, structure.default_grid(model, 3))
            return getattr(report, check[0])["status"]
        config = cli.RunConfig(model=model.name, op=where, **options)
        document, _ = cli._run_op(config, model)
    return document["verdicts"][check[0]]


def row_id(index) -> str:
    """where-check-witness of a row, numbered from 2 where an earlier row has all three."""
    where, check, witness, _ = WITNESSES[index]
    repeats = [row[:3] for row in WITNESSES[:index]].count((where, check, witness))
    return f"{where}-{check[0]}-{witness}" + (f"-{repeats + 1}" if repeats else "")


@pytest.mark.parametrize(
    "where, check, witness, options",
    WITNESSES,
    ids=[row_id(index) for index in range(len(WITNESSES))],
)
def test_the_witness_fails_its_check(where, check, witness, options):
    assert check in check_tables()[where]  # a row for a check that is gone is stale
    assert status(where, check, witness, options) == "fail"


@pytest.mark.parametrize("witness", ["wrong-fibre", "wrong-fibre-neighbour-probes"])
def test_the_wrong_fibre_fails_codazzi_alone(witness):
    # its members fit another model point but agree with one another, and its
    # probes are gaussian-kl's own or its neighbouring fibres' members: every
    # check before Codazzi passes
    model = _BUILDERS[witness]()
    report = structure.classify(model, structure.default_grid(model, 3))
    statuses = {block: getattr(report, block)["status"] for block, *_ in structure._CHECKS}
    assert statuses == {
        "condition4": "pass",
        "probe_consistency": "pass",
        "flat": "pass",
        "codazzi": "fail",
    }
    assert report.codazzi["residual"] == pytest.approx(0.2, abs=1e-6)

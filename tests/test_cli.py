import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from dsm_geom import cli, geometry, models, structure
from dsm_geom.core import Tolerances, passes

from conftest import RAISE_FP_ERRORS, counted_model, nan_probe_model, split_model

# the sha256 of each file of `--model all --op report --seed 42`, as sha256sum
# writes it. A change that moves report bytes on purpose re-records it from the
# repository root with
#   out=$(mktemp -d) && PYTHONPATH=src python -m dsm_geom.cli --model all --op report \
#     --seed 42 --out "$out" && (cd "$out" && sha256sum *) > tests/data/report_seed42.sha256
REPORT_DIGESTS = Path(__file__).parent / "data" / "report_seed42.sha256"


def run_cli(args, timeout=None):
    """(returncode, stdout, stderr) of the CLI on ``args``, run in this process
    with every warning an error; with a ``timeout``, where a hang is the
    failure, in a fresh ``python -m dsm_geom.cli``."""
    if timeout is not None:
        command = [sys.executable, "-m", "dsm_geom.cli", *args]
        return subprocess.run(command, capture_output=True, text=True, timeout=timeout)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(args)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


class TestRunConfig:
    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--model", "gce", "--op", "classify", "--bogus", "1"], "--bogus"),
            (["--model", "gce", "--op", "meditate"], "--op"),
            (["--model", "laplace", "--op", "classify"], "--model"),
            (["--model", "gce", "--op", "metric"], "--at"),
            (["--model", "gce", "--op", "metric", "--at", "1,-1", "--fibre-k", "3.5"],
             "--fibre-k"),
            (["--model", "gce", "--op", "metric", "--at", "a,b"], "--at"),
            (["--model", "gce", "--op", "metric", "--at", "1,-1", "--seed", "1.5"], "--seed"),
            (["--model", "vmf-sphere", "--op", "metric", "--at", "1,0.3", "--kappa", "x"],
             "--kappa"),
            (["--model", "gce", "--op", "affine", "--start", "1,-1", "--targets", "1,-1;2,x"],
             "--targets"),
            (["--model", "gce", "--op", "metric", "--at", "1,-1", "--grid", "default"],
             "--grid"),
        ],
        ids=[
            "bogus", "op-meditate", "model-laplace", "metric-missing-at", "fibre-k-3.5",
            "at-a,b", "seed-1.5", "kappa-x", "targets-x", "metric-grid-default",
        ],
    )
    def test_bad_flag_is_one_config_error_line(self, args, flag, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert cli.main([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert flag in err
        assert not out.exists()

    def test_each_required_option_is_named_when_missing(self):
        needs = {
            "fit": ["--data", "--start"],
            "metric": ["--at"],
            "connection": ["--at"],
            "curvature": ["--at"],
            "classify": [],
            "affine": ["--start", "--targets"],
            "massieu": ["--start", "--targets"],
            "geodesic": ["--start", "--velocity", "--t"],
            "transport": ["--start", "--end", "--vector"],
            "field": ["--start", "--vector"],
            "pythagoras": ["--at", "--other"],
            "report": [],
        }
        assert list(needs) == list(cli.OPS)
        options = {
            "--at": "1,-1", "--start": "1,-1", "--end": "2,-1", "--velocity": "1,0",
            "--vector": "1,0", "--targets": "2,0.3", "--other": "2,-1", "--t": "1",
            "--data": '{"kind": "gaussian", "mean": 0, "std": 1}',
        }

        def argv(op, drop=None):
            given = [item for key in needs[op] if key != drop for item in (key, options[key])]
            return ["--model", "gce", "--op", op, *given]

        for op, flags in needs.items():
            cli.config_from_args(argv(op))
            for flag in flags:
                with pytest.raises(cli.ConfigError, match=f"needs .*{flag}\\b"):
                    cli.config_from_args(argv(op, drop=flag))

    def test_op_options_are_parser_dests(self):
        # validate checks the given options against these names alone
        fields = {field.name for field in dataclasses.fields(cli.RunConfig)}
        read = set(cli._MODEL_OPTIONS) | set(cli._EVERY_OP)
        for _, needs, may, _ in cli._OPS.values():
            assert set(needs + may) <= fields
            read |= set(needs + may)
        # and every option is read by some op, is a model option or is taken by every op
        assert fields == read

    def test_help_lists_each_option_once(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to the terminal
        with pytest.raises(SystemExit) as stop:
            cli.main(["--help"])
        assert stop.value.code == 0
        text = capsys.readouterr().out
        listed = [line.split()[0] for line in text.split("options:\n")[1].splitlines()]
        flags = [field.metadata["flag"] for field in dataclasses.fields(cli.RunConfig)]
        assert listed == ["-h,", *flags]


class TestDocuments:
    def test_report_schema_roundtrip(self, tmp_path):
        config = cli.config_from_args(
            ["--model", "gaussian-kl", "--op", "metric", "--at", "0,1",
             "--out", str(tmp_path / "m.json")]
        )
        assert cli.run(config) == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        assert np.asarray(doc["results"]["metric"]) == pytest.approx(
            np.diag([1.0, 2.0])
        )
        assert doc["schema_version"] == cli.SCHEMA_VERSION

    def test_single_model_report_records_its_inputs(self, tmp_path):
        out = tmp_path / "gce.json"
        args = ["--model", "gce", "--levels", "1,2,5", "--op", "report", "--out", str(out)]
        assert cli.main(args) == 0
        doc = json.loads(out.read_text())
        assert doc["inputs"]["levels"] == [1.0, 2.0, 5.0]
        assert doc["inputs"]["out"] == str(out)

    def test_inputs_record_the_option_defaults(self):
        # an op rejects an option it does not read only when given; inputs record every default
        config = cli.config_from_args(["--model", "gce", "--op", "connection", "--at", "1,-1"])
        inputs = dataclasses.asdict(config)
        assert [inputs[name] for name in ("grid", "field_source")] == ["default", "fibre"]

    def test_nan_is_null_inside_arrays_and_numpy_scalars(self):
        value = {
            "a": np.array([1.0, np.nan]),
            "d": np.float64(np.nan),
            "i": np.int64(3),
            "overflow": [np.float64(np.inf)],  # classify records an overflow as inf
        }
        assert json.dumps(cli._jsonable(value)) == (
            '{"a": [1.0, null], "d": null, "i": 3, "overflow": [Infinity]}'
        )


class TestCliRuns:
    def test_import_leaves_scipy_special_unloaded(self, tmp_path):
        # the runtime is numpy alone: not even the gumbel statistics, which
        # take Gamma, psi and psi', load scipy; numpy.polynomial is loaded by
        # the path solves alone, so neither is on the import and build path
        out = tmp_path / "gumbel.json"
        code = (
            "import sys, dsm_geom.cli; dsm_geom.cli.models.catalogue(); "
            "loaded = {'scipy', 'numpy.polynomial'} & set(sys.modules); "
            "assert not loaded, loaded; "
            "args = ['--model', 'gumbel', '--op', 'classify', '--grid', '3', "
            f"'--out', {str(out)!r}]; "
            "assert dsm_geom.cli.main(args) == 0; "
            "assert 'scipy' not in sys.modules"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(out.read_text())["verdicts"]["condition4"] == "fail"

    def test_catalogue_build_leaves_numpy_ma_unloaded(self):
        # gce's distinct-levels check used np.unique, which imports numpy.ma
        # in every process that builds gce
        code = (
            "import sys, dsm_geom.cli; dsm_geom.cli.models.catalogue(); "
            "assert 'numpy.ma' not in sys.modules"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr

    def test_classify_gaussian(self, tmp_path):
        out = tmp_path / "r.json"
        result = run_cli(
            ["--model", "gaussian-kl", "--op", "classify", "--grid", "default", "--out", str(out)]
        )
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["exponential_family"] == "yes"

    def test_classify_gumbel_expected_failure_is_data(self, tmp_path):
        out = tmp_path / "gumbel.json"
        result = run_cli(["--model", "gumbel", "--op", "classify", "--out", str(out)])
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["condition4"] == "fail"
        ratio = doc["results"]["condition4"]["evidence"]["varying_ratio"]
        assert ratio == pytest.approx(1.64, abs=0.02)

    def test_gce_geodesic_trace(self, tmp_path):
        out = tmp_path / "g.csv"
        result = run_cli(
            [
                "--model", "gce", "--levels", "1,2,3", "--op", "geodesic",
                "--start", "1,-1", "--velocity", "1,0.5", "--t", "1",
                "--step", "0.002", "--out", str(out),
            ]
        )
        assert result.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,beta,mu,v_beta,v_mu"
        final = [float(v) for v in lines[-1].split(",")]
        assert final[1] == pytest.approx(2.0, abs=1e-6)
        assert final[2] == pytest.approx(-0.75, abs=1e-6)
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["results"]["end_point"][1] == pytest.approx(-0.75, abs=1e-6)

    def test_oracle_geodesic_stops_where_it_leaves_the_field_domain(self, tmp_path):
        # beta = 1 - 2t reaches 0 at t = 0.5: the step that lands there ends the trace
        out = tmp_path / "g.csv"
        args = ["--model", "gce", "--op", "geodesic", "--field", "oracle", "--start", "1,-1",
                "--velocity=-2,0", "--t", "1", "--out", str(out)]
        assert cli.main(args) == 0
        results = json.loads((tmp_path / "g.json").read_text())["results"]
        assert results["flags"] == ["domain_exit"]
        assert results["samples"] == 500
        assert 0.0 < results["end_point"][0] < 0.01

    def test_field_keeps_the_seed_vector_at_its_base_point(self, tmp_path):
        out = tmp_path / "f.json"
        args = ["--model", "gce", "--op", "field", "--start", "1,-1", "--vector", "1,0",
                "--grid", "1,-1;1.5,-1;1.2,-1.3", "--out", str(out)]
        assert cli.main(args) == 0
        vectors = json.loads(out.read_text())["results"]["vectors"]
        assert vectors[0] == [1.0, 0.0]
        assert vectors[2] == pytest.approx([1.0, 0.25], abs=1e-6)

    def test_trace_csv_has_17_significant_digits(self, tmp_path):
        out = tmp_path / "g.csv"
        run_cli(
            [
                "--model", "regression-dlambda", "--op", "geodesic",
                "--start", "0,0", "--velocity", "0.333333333333333333,1",
                "--t", "1", "--step", "0.5", "--out", str(out),
            ]
        )
        lines = out.read_text().splitlines()
        assert "0.33333333333333331" in lines[-1]
        assert "\r" not in out.read_bytes().decode()

    def test_fit_op(self, tmp_path):
        out = tmp_path / "f.json"
        result = run_cli(
            [
                "--model", "gaussian-kl", "--op", "fit",
                "--data", '{"kind": "moments", "mean_x": 1.5, "mean_x2": 6.25}',
                "--start", "0,1", "--out", str(out),
            ]
        )
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["theta_star"] == pytest.approx([1.5, 2.0], abs=1e-6)

    def test_tol_override_still_passes_analytic_fibres(self, tmp_path):
        out = tmp_path / "tight.json"
        result = run_cli(
            [
                "--model", "gaussian-kl", "--op", "classify",
                "--tol", "cond4=1e-9", "--out", str(out),
            ]
        )
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["condition4"] == "pass"
        assert doc["tolerances"]["cond4"] == pytest.approx(1e-9)

    def test_metric_on_gumbel_expected_failure_is_data(self, tmp_path):
        from dsm_geom.models.gumbel import compatible_point

        point = compatible_point(1.0)
        out = tmp_path / "gm.json"
        result = run_cli(
            [
                "--model", "gumbel", "--op", "metric",
                "--at", f"{point[0]},{point[1]}",
                "--out", str(out),
            ]
        )
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["condition4"] == "fail"
        assert "varying_ratio" in doc["results"]["evidence"]

    def test_connection_condition4_failure_is_data(self, tmp_path, capsys):
        # a condition-4 failure is a verdict in every point op, with one evidence block
        point = ["--model", "regression-ls", "--at", "0,0"]
        docs = {}
        for op in ("metric", "connection", "curvature"):
            out = tmp_path / f"{op}.json"
            assert cli.main([*point, "--op", op, "--out", str(out)]) == 0, capsys.readouterr()
            docs[op] = json.loads(out.read_text())
        for op in ("connection", "curvature"):
            assert docs[op]["verdicts"] == {"condition4": "fail"}
            assert docs[op]["results"]["evidence"] == docs["metric"]["results"]["evidence"]

    def test_connection_probe_disagreement_is_data(self, tmp_path):
        # a Hessian-structure failure at the requested point is a verdict too
        out = tmp_path / "c.json"
        args = ["--model", "gce", "--op", "connection", "--at", "1,-1", "--tol", "hessian=1e-300"]
        assert cli.main([*args, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"] == {"hessian_structure": "fail"}
        assert np.array(doc["results"]["family_estimates"]).shape == (2, 2, 2, 2)
        assert doc["residuals"]["probe_consistency"] > 0

    def test_a_nan_connection_fails(self):
        # a connection of NaNs used to pass the probe check
        config = cli.RunConfig(model="gaussian-kl", op="connection", at=[0.0, 1.0])
        with np.errstate(**RAISE_FP_ERRORS):
            doc, _ = cli._run_op(config, nan_probe_model())
        assert doc["verdicts"] == {"hessian_structure": "fail"}
        assert list(doc["results"]) == ["family_estimates"]
        assert doc["residuals"]["probe_consistency"] is None
        json.dumps(doc, allow_nan=False)  # no bare NaN token

    def test_condition4_evidence_names_the_point_it_was_measured_at(self):
        # the fibre members disagree only for u > 0: the requested point passes
        # condition 4, and the curvature's FD stencil steps onto u > 0, where it
        # fails; the evidence used to carry the requested point.  Its probes are
        # the default ones, each the member 0 of a neighbouring fibre
        model = split_model()
        config = cli.RunConfig(model="split", op="metric", at=[0.0, 0.0])
        metric, _ = cli._run_op(config, model)
        assert metric["verdicts"] == {"condition4": "pass"}
        curvature, _ = cli._run_op(dataclasses.replace(config, op="curvature"), model)
        assert curvature["verdicts"] == {"condition4": "fail"}
        point = curvature["results"]["evidence"]["point"]
        assert point[0] > 0 and point != config.at
        again, _ = cli._run_op(dataclasses.replace(config, at=point), model)
        assert again["results"]["evidence"] == curvature["results"]["evidence"]

    def test_connection_and_classify_decide_the_probe_verdict_alike(self, tmp_path):
        # the two places that compare the probe-family gap with tol.hessian agree
        point = ["--model", "gaussian-kl", "--at", "0,1.75"]
        grid = ["--model", "gaussian-kl", "--grid", "0,1.75"]
        for tol, verdict in ((["--tol", "hessian=1e-15"], "fail"), ([], "pass")):
            conn_path, report_path = tmp_path / "conn.json", tmp_path / "classify.json"
            assert cli.main([*point, *tol, "--op", "connection", "--out", str(conn_path)]) == 0
            assert cli.main([*grid, *tol, "--op", "classify", "--out", str(report_path)]) == 0
            conn, report = json.loads(conn_path.read_text()), json.loads(report_path.read_text())
            probe = report["results"]["probe_consistency"]
            assert conn["verdicts"] == {"hessian_structure": verdict}
            assert probe["status"] == verdict
            assert report["verdicts"]["hessian_structure"] == verdict
            assert conn["residuals"]["probe_consistency"] == probe["worst"] > 0

    def test_remaining_ops_smoke(self, tmp_path):
        cases = [
            (["--model", "gaussian-kl", "--op", "connection", "--at", "0,2"], "c.json"),
            (["--model", "gce", "--op", "curvature", "--at", "1,0.2"], "k.json"),
            (
                ["--model", "gce", "--op", "affine", "--start", "1,0",
                 "--targets", "2,0.3;1.5,-0.5"],
                "a.json",
            ),
            (
                ["--model", "vmf-cylinder", "--op", "massieu", "--start", "0,1",
                 "--targets", "0.4,1.5"],
                "ms.json",
            ),
            (
                ["--model", "regression-dlambda", "--op", "transport",
                 "--start", "0,0", "--end", "1,1", "--vector", "1,0"],
                "tr.csv",
            ),
            (
                ["--model", "regression-dlambda", "--op", "field", "--start", "0,0",
                 "--vector", "1,0", "--grid", "0.5,0.5;1,1"],
                "f.json",
            ),
            (["--model", "gaussian-kl", "--op", "report"], "rep.json"),
        ]
        for args, name in cases:
            out = tmp_path / name
            result = run_cli([*args, "--out", str(out)])
            assert result.returncode == 0, (args, result.stderr)
            assert out.exists()
        connection = json.loads((tmp_path / "c.json").read_text())
        assert connection["results"]["connection"][0][0][1] == pytest.approx(-1.0, abs=1e-4)
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["verdicts"]["exponential_family"] == "yes"
        assert report["results"]["oracle_comparison"]["metric"] < 1e-4

    def test_pythagoras_op(self, tmp_path):
        out = tmp_path / "p.json"
        result = run_cli(
            [
                "--model", "gaussian-kl", "--op", "pythagoras",
                "--at", "0,1", "--other", "1,1", "--out", str(out),
            ]
        )
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["induced_value"] == pytest.approx(0.5, abs=1e-10)
        assert doc["residuals"]["fibre_deviation"] < 1e-8

    def test_massieu_near_the_cylinder_pole(self, tmp_path, capsys):
        # g_lambda,lambda = 1 / lambda^2 grows 400-fold along the segment.
        # The potential kappa mu^2 / 2 - log(lambda), kappa = 2, less its
        # value and slope at (0, 1): 9 - log(0.05) - 0.95 at (3, 0.05), with
        # covector (kappa mu, 1 - 1 / lambda) = (6, -19)
        out = tmp_path / "m.json"
        args = ["--model", "vmf-cylinder", "--op", "massieu", "--start", "0,1",
                "--targets", "3,0.05", "--out", str(out)]
        assert cli.main(args) == 0, capsys.readouterr().err
        results = json.loads(out.read_text())["results"]
        assert np.max(np.abs(np.array(results["covectors"][0]) - [6.0, -19.0])) <= 1e-10
        assert abs(results["potentials"][0] - (9.0 - math.log(0.05) - 0.95)) <= 1e-8

    def test_affine_coordinates_near_the_gaussian_pole(self, tmp_path, capsys):
        # the affine map (1 / (2 sigma^2), -mu / sigma^2) steepens like
        # 1 / sigma^3 towards sigma = 0, so these segments settle only once
        # halved; gauge Theta(0, 1) = 0, dTheta(0, 1) = I as in test_structure
        out = tmp_path / "a.json"
        args = ["--model", "gaussian-kl", "--op", "affine", "--start", "0,1",
                "--targets", "3,0.05;3,0.02", "--out", str(out)]
        assert cli.main(args) == 0, capsys.readouterr().err
        results = json.loads(out.read_text())["results"]

        def jacobian(mu, sigma):
            return np.array([[0.0, -1.0 / sigma**3], [-1.0 / sigma**2, 2.0 * mu / sigma**3]])

        inverse = np.linalg.inv(jacobian(0.0, 1.0))
        for (mu, sigma), value, gradient in zip(
            results["targets"], results["values"], results["gradients"]
        ):
            exact_value = inverse @ np.array([1.0 / (2.0 * sigma**2) - 0.5, -mu / sigma**2])
            exact_gradient = inverse @ jacobian(mu, sigma)
            for got, exact in ((value, exact_value), (gradient, exact_gradient)):
                gap = np.max(np.abs(np.array(got) - exact)) / np.max(np.abs(exact))
                assert gap <= 1e-10


def _judged(doc, checks):
    """Each verdict of ``checks`` (verdict -> (residual, tolerance key)) as
    core.passes decides it from the document's residuals and tolerances."""
    tol = Tolerances(**doc["tolerances"])
    judged = {}
    for verdict, (residual, key) in checks.items():
        value = doc["residuals"][residual]  # a NaN is written as null
        ok = passes(math.nan if value is None else value, getattr(tol, key))
        judged[verdict] = "pass" if ok else "fail"
    return judged


class TestOpVerdicts:
    """A failed check is a verdict in the document (exit 0), judged by core.passes."""

    # each op's checks: verdict key -> (residual key, tolerance key)
    CHECKS = {
        "metric": {"condition4": ("fibre_deviation", "cond4")},
        "connection": {"hessian_structure": ("probe_consistency", "hessian")},
        "curvature": {"flat": ("max_abs", "flat")},
        "affine": {"path_independence": ("path_independence", "path")},
        "massieu": {"path_independence": ("path_independence", "path")},
        "field": {"path_residual": ("path_residual", "flat")},
    }

    @pytest.mark.parametrize(
        "model, point, target, fails",
        [
            ("gce", "1,-1", "1.5,-1.2", set()),
            # curved: path-dependence used to end the path ops in exit 2
            (
                "vmf-sphere", "1.2,0.5", "1.5,0.2",
                {
                    ("curvature", "flat"),
                    ("affine", "path_independence"),
                    ("massieu", "path_independence"),
                    ("field", "path_residual"),
                },
            ),
        ],
        ids=["gce", "vmf-sphere"],
    )
    def test_every_verdict_is_its_check_judged_by_passes(
        self, model, point, target, fails, tmp_path, capsys
    ):
        given = {
            "metric": ["--at", point],
            "connection": ["--at", point],
            "curvature": ["--at", point],
            "affine": ["--start", point, "--targets", target],
            "massieu": ["--start", point, "--targets", target],
            "field": ["--start", point, "--vector", "1,0", "--grid", "3"],
        }
        for op, args in given.items():
            out = tmp_path / f"{op}.json"
            code = cli.main(["--model", model, "--op", op, *args, "--out", str(out)])
            assert code == 0, capsys.readouterr().err
            doc = json.loads(out.read_text())
            assert doc["verdicts"] == _judged(doc, self.CHECKS[op]), op
            expected = {key: "fail" if (op, key) in fails else "pass" for key in doc["verdicts"]}
            assert doc["verdicts"] == expected, op

    def test_a_condition4_document_is_judged_by_the_gate_check(self, tmp_path, capsys):
        # the gate's document records the deviation it caught as its residual
        for op in ("metric", "connection", "curvature"):
            out = tmp_path / f"{op}.json"
            args = ["--model", "regression-ls", "--op", op, "--at", "0,0", "--out", str(out)]
            assert cli.main(args) == 0, capsys.readouterr().err
            doc = json.loads(out.read_text())
            assert doc["verdicts"] == {"condition4": "fail"}
            assert doc["verdicts"] == _judged(doc, self.CHECKS["metric"])
            deviation = doc["results"]["evidence"]["deviation"]
            assert doc["residuals"] == {"fibre_deviation": deviation}

    @pytest.mark.parametrize("op", ["affine", "massieu"])
    def test_a_nan_residual_after_the_first_target_fails(self, op, monkeypatch, tmp_path):
        # max([0.0, nan]) is 0.0: the fold over the targets used to drop the NaN
        name = "affine_coordinates" if op == "affine" else "massieu"
        solve = getattr(structure, name)

        def with_nan(*args, **kwargs):
            result = solve(*args, **kwargs)
            for field in dataclasses.fields(result):
                if field.name.endswith("_residuals"):
                    setattr(result, field.name, [0.0, math.nan])
            return result

        monkeypatch.setattr(structure, name, with_nan)
        out = tmp_path / f"{op}.json"
        args = ["--model", "gce", "--op", op, "--start", "1,-1", "--targets", "1.5,-1.2;2,-1.5"]
        assert cli.main([*args, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["verdicts"].values()) == {"fail"}
        assert set(doc["residuals"].values()) == {None}


class TestExitCodes:
    def test_config_error_is_one(self):
        assert run_cli(["--model", "gce", "--op", "geodesic"]).returncode == 1
        assert run_cli(["--model", "unknown", "--op", "classify"]).returncode == 1
        assert run_cli(["--model", "gce", "--op", "classify", "--tol", "bogus=1"]).returncode == 1

    def test_runs_in_one_process_are_those_of_fresh_processes(self, tmp_path):
        # the parser is built once per process: a refused run, then runs with
        # and without options, each give what a fresh process gives (the
        # document's own wall clock, runtime_ms, aside)
        out = tmp_path / "out.json"
        runs = [
            ["--model", "gce", "--op", "metric", "--tol", "bogus=1", "--at", "1,-1"],
            ["--model", "gce", "--op", "metric", "--at", "1,-1", "--tol", "cond4=0.5"],
            ["--model", "gce", "--op", "metric", "--at", "0.5,-0.5", "--levels", "1,2,4"],
            ["--model", "gaussian-kl", "--op", "connection", "--at", "0.2,1.5"],
        ]
        for args in runs:
            results = []
            for timeout in (None, 60):  # in this process, then a fresh one
                result = run_cli([*args, "--out", str(out)], timeout)
                written = json.loads(out.read_text()) if out.exists() else None
                assert written is None or written.pop("runtime_ms") >= 0
                out.unlink(missing_ok=True)
                results.append((result.returncode, result.stderr, written))
            assert results[0] == results[1], args
            refused = args is runs[0]
            assert (results[0][0], results[0][2] is None) == (1 if refused else 0, refused)

    def test_torsion_tolerance_is_a_config_error(self, tmp_path, capsys):
        # the solved connection is symmetric by construction, so no check reads
        # a torsion tolerance and --tol no longer takes one
        out = tmp_path / "c.json"
        args = ["--model", "gce", "--op", "classify", "--tol", "torsion=1e-3", "--out", str(out)]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert "['cond4', 'hessian', 'flat', 'codazzi', 'path']" in err
        assert not out.exists()

    def test_numerical_failure_is_two(self, tmp_path):
        # a path op cannot integrate past the condition-4 gate: exit 2
        result = run_cli(
            [
                "--model", "regression-ls", "--op", "massieu",
                "--start", "0,0", "--targets", "0.5,-0.25",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert result.returncode == 2
        assert result.stderr.startswith("numerical failure:")
        # the sphere has no flat connection: its Massieu solve is path-dependent,
        # which is a fail verdict with exit 0, not a numerical failure
        out = tmp_path / "sphere.json"
        result = run_cli(
            [
                "--model", "vmf-sphere", "--op", "massieu",
                "--start", "1.0,0.0", "--targets", "1.5,1.0", "--out", str(out),
            ]
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(out.read_text())["verdicts"]["path_independence"] == "fail"

    @pytest.mark.parametrize(
        "args",
        [
            ["--model", "gaussian-kl", "--op", "curvature", "--at", "0,1e-9"],
            ["--model", "gaussian-kl", "--op", "classify", "--grid", "0,1e-9;0,1"],
        ],
        ids=["curvature", "classify"],
    )
    def test_a_one_sided_stencil_that_disagrees_with_its_half_step_is_two(self, args, tmp_path):
        # at sigma = 1e-9 the stencil is one-sided; it used to give no error
        # estimate, so curvature reported `flat: fail` (max_abs 1.97e18) and
        # classify `exponential_family: no`
        out = tmp_path / "out.json"
        result = run_cli([*args, "--out", str(out)])
        assert result.returncode == 2
        assert result.stderr.startswith("numerical failure: Richardson levels disagree")
        assert result.stderr.count("\n") == 1, result.stderr
        assert not out.exists()

    def test_over_budget_geodesic_is_one_without_running(self, tmp_path):
        # a step of 1e-9 asks for 10^9 RK4 steps; it used to run until killed,
        # then ended in exit 2, though an input budget is an input error
        result = run_cli(
            [
                "--model", "gce", "--op", "geodesic", "--start", "1,-1",
                "--velocity", "1,0.5", "--t", "1", "--step", "1e-9", "--field", "oracle",
                "--out", str(tmp_path / "g.json"),
            ],
            timeout=20,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("config error:")
        assert result.stderr.count("\n") == 1 and "budget" in result.stderr
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize(
        "args, flag",
        [
            # 10^6 classify points: about an hour of work, and 10^10 a meshgrid
            # that does not fit in memory; the library charges a count before
            # it builds the grid
            (["--model", "gaussian-kl", "--op", "classify", "--grid", "1000"],
             "grid of 1000 per axis has 1000000 points"),
            (["--model", "gce", "--op", "field", "--start", "1,-1", "--vector", "1,0",
              "--grid", "100000"], "grid of 100000 per axis has 10000000000 points"),
            # the fibre's null-space SVD is levels x levels; the model charges it.
            # The error spelled the whole list in its prefix: 7011 bytes
            (["--model", "gce", "--levels", ",".join(map(str, range(1, 1002))),
              "--op", "metric", "--at", "1,-1"],
             "--levels out of range for gce (the gce spectrum has 1001 levels"),
            # a point list is charged as a count is: 2601 points, as --grid 51 asks for
            (["--model", "regression-ls", "--op", "classify", "--grid", ";".join(["0,0"] * 2601)],
             "2601 classify grid points"),
            (["--model", "gce", "--op", "field", "--start", "1,-1", "--vector", "1,0",
              "--grid", ";".join(["1,-1"] * 2601)], "2601 field grid points"),
            # gumbel's grid is a curve of n points, not n^2
            (["--model", "gumbel", "--op", "classify", "--grid", "2501"],
             "grid of 2501 per axis has 2501 points"),
        ],
        ids=["classify-grid", "field-grid", "gce-levels", "classify-list", "field-list",
             "gumbel-grid"],
    )
    def test_over_budget_input_is_one_without_running(self, args, flag, tmp_path):
        result = run_cli([*args, "--out", str(tmp_path / "x.json")], timeout=20)
        assert result.returncode == 1
        assert result.stderr.startswith("config error:")
        assert result.stderr.count("\n") == 1 and "budget" in result.stderr
        assert len(result.stderr.encode()) < 300
        assert flag in result.stderr
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "args, tight, verdict",
        [
            (
                ["--model", "vmf-sphere", "--op", "field", "--start", "1,0.3",
                 "--vector", "1,0", "--grid", "1.01,0.31;1.02,0.32"],
                "flat=1e-5",
                "path_residual",
            ),
            (
                # the transport solve settles at 33 nodes (level gap 4e-7 <=
                # 1e-3 * flat) by default; at 1e-13 no piece down to 1/64 of
                # the segment settles (rounding leaves a level gap of ~7e-16)
                ["--model", "vmf-sphere", "--op", "transport", "--start", "1,0.3",
                 "--end", "0.1,1", "--vector", "1,0"],
                "flat=1e-13",
                None,
            ),
        ],
        ids=["field-flat", "transport-flat"],
    )
    def test_tightened_tolerance_reaches_its_check(self, args, tight, verdict, tmp_path, capsys):
        # the first check used to compare with a fixed 1e-3, whatever
        # --tol said; a check that fails is a verdict (exit 0), while a path
        # solve that cannot settle is a numerical failure (exit 2)
        default, strict = tmp_path / "default.json", tmp_path / "tight.json"
        assert cli.main([*args, "--out", str(default)]) == 0
        capsys.readouterr()
        code = cli.main([*args, "--tol", tight, "--out", str(strict)])
        err = capsys.readouterr().err
        if verdict is None:
            assert code == 2
            assert err.startswith("numerical failure:") and err.count("\n") == 1, err
            assert not strict.exists()
        else:
            assert code == 0, err
            assert json.loads(default.read_text())["verdicts"][verdict] == "pass"
            assert json.loads(strict.read_text())["verdicts"][verdict] == "fail"

    def test_io_error_is_three(self, tmp_path):
        result = run_cli(
            [
                "--model", "gaussian-kl", "--op", "metric", "--at", "0,1",
                "--out", str(tmp_path / "missing-dir" / "x.json"),
            ]
        )
        assert result.returncode == 3


# 1000 good couples and one whose y is a bool
LONG_COUPLES = [[i, 2 * i] for i in range(1000)] + [[1, True]]


class TestBadInput:
    """Bad run input ends with exit 1 and one line, never a vacuous verdict."""

    @staticmethod
    def run_main(args, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = cli.main([*args, "--out", str(out)])
        return code, capsys.readouterr().err, out

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "0", "abc"])
    def test_tolerance_must_be_finite_and_positive(self, value, tmp_path, capsys):
        args = ["--model", "regression-ls", "--op", "metric", "--at", "0.5,-0.25"]
        code, err, out = self.run_main([*args, "--tol", f"cond4={value}"], tmp_path, capsys)
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert "cond4" in err
        assert not out.exists()

    def test_model_without_probes_has_no_connection(self, tmp_path, capsys):
        # gumbel supplies no probes, and its fibre exists only on a curve, so
        # the neighbouring fibres that stand in for probes do not exist; at
        # cond4=1 its own fibre passes the gate, so the run reaches the probe step
        from dsm_geom.models.gumbel import compatible_point

        point = compatible_point(1.3)
        args = ["--model", "gumbel", "--op", "connection", "--at", f"{point[0]},{point[1]}"]
        code, err, out = self.run_main([*args, "--tol", "cond4=1"], tmp_path, capsys)
        assert code == 1
        assert err.startswith("config error: model gumbel has no off-fibre probes: ")
        assert err.count("\n") == 1, err
        assert not out.exists()

    def test_user_cond4_reaches_the_connection_gate(self, tmp_path, capsys):
        # the connection gate used to re-check condition 4 at the default
        # tolerance and end the run with exit 2
        args = ["--model", "regression-ls", "--op", "classify", "--tol", "cond4=1"]
        code, err, out = self.run_main(args, tmp_path, capsys)
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["condition4"] == "pass"
        assert doc["results"]["condition4"]["worst_deviation"] == pytest.approx(0.1875)
        assert doc["results"]["tolerances"]["cond4"] == 1.0

    @pytest.mark.parametrize(
        "args, needle",
        [
            (["--model", "regression-ls", "--op", "classify", "--grid", "0"],
             "grid of 0 per axis has 0 points, outside the budget of 1 to 2500"),
            (["--model", "gaussian-kl", "--op", "classify", "--grid", ";"],
             "0 classify grid points, outside the budget of 1 to 2500"),
            (["--model", "gaussian-kl", "--op", "classify", "--grid", "abc"], "--grid"),
            (["--model", "gaussian-kl", "--op", "classify", "--grid", "-2"],
             "grid of -2 per axis has 0 points, outside the budget of 1 to 2500"),
            (
                ["--model", "gaussian-kl", "--op", "field", "--start", "0,1",
                 "--vector", "1,0", "--grid", "0"],
                "grid of 0 per axis has 0 points, outside the budget of 1 to 2500",
            ),
            (
                ["--model", "gaussian-kl", "--op", "field", "--start", "0,1",
                 "--vector", "1,0", "--grid", "1,2;3"],
                "field grid point [3.0] has 1 coordinates",
            ),
            (["--model", "gaussian-kl", "--op", "classify", "--grid", "1,2;3"],
             "classify grid point [3.0] has 1 coordinates"),
            # classify evaluated the first point before it refused the second
            (["--model", "gce", "--op", "classify", "--grid", "1,0.5;-5,0.5"],
             "classify grid point [-5.0, 0.5] outside chart domain"),
            (["--model", "gaussian-kl", "--op", "metric", "--at", "0,1", "--fibre-k", "0"],
             "--fibre-k"),
            (
                ["--model", "gaussian-kl", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind": "gaussian", "mean": 0}'],
                "'std'",
            ),
            (
                ["--model", "gce", "--op", "transport", "--start=1,0", "--end=2,1",
                 "--vector=1,0"],
                "way point [2.0, 1.0]",
            ),
            (["--model", "vmf-sphere", "--op", "metric", "--at", "1,0.3", "--kappa=-1"],
             "kappa"),
            (["--model", "gce", "--op", "metric", "--at", "1,-1", "--levels="], "levels"),
            (["--model", "gce", "--op", "report", "--levels", "1"], "levels"),
            (["--model", "gce", "--op", "classify", "--levels", "1"], "levels"),
            # the prefix and the message each spelled the whole list: 10108 bytes
            (["--model", "gce", "--op", "metric", "--at", "1,-1",
              "--levels", ",".join(["1"] * 1000)],
             "--levels out of range for gce (the energy spectrum needs at least two distinct "
             "levels, got 1000 in [1.0, 1.0])"),
            # a builder's domain error named neither the option nor the model
            (["--model", "gce", "--op", "metric", "--at", "1,-1", "--levels", "1e300,2e300"],
             "--levels"),
            (
                ["--model", "gaussian-kl", "--op", "geodesic", "--start", "0,1",
                 "--velocity", "1,0,0", "--t", "1"],
                "geodesic velocity [1.0, 0.0, 0.0] has 3 components",
            ),
            (
                ["--model", "gaussian-kl", "--op", "transport", "--start", "0,1",
                 "--end", "0,1,3", "--vector", "1,0"],
                "way point [0.0, 1.0, 3.0] has 3 coordinates",
            ),
            (
                ["--model", "gaussian-kl", "--op", "affine", "--start", "0,1",
                 "--targets", "0.5,1.5;0.5"],
                "target [0.5] has 1 coordinates",
            ),
            (["--model", "gce", "--op", "metric", "--at", "1,-1", "--kappa", "2"], "--kappa"),
            (["--model", "regression-ls", "--op", "metric", "--at", "0.5,-0.25",
              "--lambda", "2"], "--lambda"),
            (["--model", "all", "--op", "report", "--levels", "1,2"], "--levels"),
            (
                ["--model", "gce", "--op", "geodesic", "--start", "1,2",
                 "--velocity", "1,0", "--t", "1"],
                "outside field domain",
            ),
            (
                ["--model", "gce", "--op", "geodesic", "--start", "1,-1",
                 "--velocity", "1,0", "--t", "1", "--step", "0"],
                "step 0.0",
            ),
            (
                ["--model", "gce", "--op", "geodesic", "--start", "1,-1",
                 "--velocity", "1,0", "--t", "0"],
                "got t_end 0.0 and step 0.0",
            ),
            (
                ["--model", "gce", "--op", "geodesic", "--start", "1,-1",
                 "--velocity", "1,0", "--t", "inf"],
                "--t",
            ),
            (
                ["--model", "gaussian-kl", "--op", "transport", "--start", "0,1",
                 "--end", "0.3,1.2", "--vector", "nan,0"],
                "--vector",
            ),
            (
                ["--model", "gaussian-kl", "--op", "metric", "--at", "0,1",
                 "--velocity", "1,0", "--step", "0.5"],
                "--velocity",
            ),
            (["--model", "all", "--op", "report", "--at", "0,1"], "--at"),
            (["--model", "gce", "--op", "connection", "--at", "1,-1", "--fibre-k", "1"],
             "--fibre-k"),
            (["--model", "gce", "--op", "connection", "--at", "1,-1", "--field", "oracle"],
             "--field"),
            (
                ["--model", "vmf-cylinder", "--op", "massieu", "--start", "0,1",
                 "--targets", "0.4,1.5", "--grid", "3"],
                "--grid",
            ),
            (["--model", "all", "--op", "report", "--trials", "10"], "--trials"),
            (["--model", "gce", "--op", "connection", "--at", "1,-1", "--seed", "7"], "--seed"),
            (["--model", "vmf-sphere", "--kappa", "800", "--op", "metric", "--at", "1,1"],
             "--kappa"),
            (["--model", "gaussian-sumsq", "--mu0", "1e-300", "--op", "metric", "--at", "1,1"],
             "--mu0"),
            (
                ["--model", "gaussian-kl", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind": "gaussian", "mean": 0, "std": "a"}'],
                "'std'",
            ),
            # the reciprocal power is inf where mu0**2 or sigma0**4 is subnormal
            (["--model", "gaussian-sumsq", "--mu0", "1e-160", "--op", "metric", "--at", "1,1"],
             "--mu0"),
            (["--model", "gaussian-sumsq", "--sigma0", "1e-80", "--op", "metric", "--at", "1,1"],
             "--sigma0"),
            (
                ["--model", "gaussian-kl", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind": "gaussian", "mean": 0, "std": 1e200}'],
                "'std'",
            ),
            (
                ["--model", "gaussian-kl", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind": "gaussian", "mean": 1.3e154, "std": 1.3e154}'],
                "'mean_x2'",
            ),
            (
                ["--model", "regression-ls", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind": "regression", "couples": [[1e200, 1], [2, 3]]}'],
                "'couples'",
            ),
            (
                ["--model", "regression-ls", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind": "regression", "couples": [[1, 1e200], [2, 3]]}'],
                "'couples'",
            ),
            (
                ["--model", "vmf-cylinder", "--kappa", "800", "--op", "pythagoras",
                 "--at", "0,1", "--other", "0.1,1.2"],
                "--kappa",
            ),
            (
                ["--model", "gumbel", "--op", "fit", "--start", "1,0",
                 "--data", '{"kind":"gaussian","mean":0.5,"std":1}'],
                "'exp_shift'",
            ),
            # numpy refused a negative seed with a traceback, after classify had run
            (["--model", "gce", "--op", "report", "--seed", "-1"], "--seed"),
            (["--model", "all", "--op", "report", "--seed", "-1"], "--seed"),
            # lambda^2 overflowed or underflowed; the metric gate then ended the run in exit 2
            (["--model", "regression-dlambda", "--lambda", "1e200", "--op", "metric",
              "--at", "0,0"], "--lambda"),
            (["--model", "regression-dlambda", "--lambda", "1e-200", "--op", "metric",
              "--at", "0,0"], "--lambda"),
            (["--model", "all", "--op", "metric"], "--model all is only valid with --op report"),
            (["--model", "gaussian-kl", "--op", "fit", "--start", "0,1", "--data", "{x"],
             "--data is not JSON"),
            # an empty value was refused by the CLI, which kept a second copy of this check
            (["--model", "gce", "--op", "metric", "--at="], "point [] has 0 coordinates"),
            (["--model", "gaussian-kl", "--op", "fit", "--start", "0,1", "--data", "[1]"],
             "data spec must be an object with a 'kind'"),
            (
                ["--model", "gaussian-kl", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind": "poisson"}'],
                "unknown data kind 'poisson'",
            ),
            # a spec with an entropy escaped the variance rule: the gaussian-kl
            # fit ended in exit 2, and the gaussian-sumsq fit reported converged
            (
                ["--model", "gaussian-kl", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind": "gaussian", "mean": 0, "std": 1e-200}'],
                "implies mean_x2 - mean_x^2 <= 0",
            ),
            (
                ["--model", "gaussian-kl", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind": "gaussian", "mean": 1e10, "std": 1e-3}'],
                "implies mean_x2 - mean_x^2 <= 0",
            ),
            (
                ["--model", "gaussian-kl", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind": "moments", "mean_x": 0, "mean_x2": -1, "entropy": 0}'],
                "implies mean_x2 - mean_x^2 <= 0",
            ),
            (
                ["--model", "gaussian-sumsq", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind": "gaussian", "mean": 0, "std": 1e-200}'],
                "implies mean_x2 - mean_x^2 <= 0",
            ),
            # the line spelled all 1001 couples: 13746 bytes
            (
                ["--model", "regression-dlambda", "--op", "fit", "--start", "0,0",
                 "--data", json.dumps({"kind": "regression", "couples": LONG_COUPLES})],
                "data spec key 'couples' needs finite numbers, got True",
            ),
            # an unread key was recorded in the document's inputs, and the run exited 0
            (
                ["--model", "gaussian-kl", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind":"gaussian","mean":0.2,"std":1.1,"typo_std":5}'],
                "data spec of kind 'gaussian' takes no key 'typo_std'; its keys are 'mean', 'std'",
            ),
            # an extra list key was refused as "needs finite numbers, got [1, 2, 3]"
            (
                ["--model", "regression-ls", "--op", "fit", "--start", "0,1",
                 "--data",
                 '{"kind":"regression","couples":[[0,0],[1,2],[2,3]],"weights":[1,2,3]}'],
                "data spec of kind 'regression' takes no key 'weights'; its keys are 'couples'",
            ),
            # a ragged couples list ended in a numpy ValueError traceback
            (
                ["--model", "regression-ls", "--op", "fit", "--start", "0,1",
                 "--data", '{"kind":"regression","couples":[[1,2],[3]]}'],
                "regression data needs >= 2 (x, y) couples",
            ),
            # json.loads ended in a RecursionError traceback
            (["--model", "gaussian-kl", "--op", "fit", "--start", "0,1", "--data", "[" * 100000],
             "--data is not JSON"),
        ],
        ids=[
            "grid-zero", "grid-no-point", "grid-not-a-count", "grid-negative",
            "field-grid-zero", "field-grid-point-length", "classify-grid-point-length",
            "classify-out-of-chart-last-point",
            "fibre-k-zero", "data-missing-key",
            "transport-outside-chart", "kappa-negative", "levels-empty",
            "report-one-level", "classify-one-level", "levels-all-equal", "levels-huge",
            "velocity-length",
            "end-length", "targets-point-length", "gce-kappa", "regression-ls-lambda",
            "all-levels", "geodesic-outside-chart", "step-zero", "t-zero", "t-inf",
            "vector-nan", "metric-unread-options", "all-at", "connection-fibre-k",
            "connection-field", "massieu-grid", "report-trials", "connection-seed",
            "kappa-overflow", "mu0-underflow", "data-std-not-a-number",
            "mu0-subnormal-square", "sigma0-subnormal-power", "data-std-overflow",
            "data-second-moment-overflow", "data-couples-x-overflow", "data-couples-y-overflow",
            "cylinder-kappa-overflow", "gumbel-fit-foreign-data", "report-seed-negative",
            "all-seed-negative", "dlambda-square-overflow", "dlambda-square-underflow",
            "all-metric", "data-not-json", "at-empty", "data-not-an-object", "data-unknown-kind",
            "data-std-underflow", "data-variance-cancels", "data-moments-variance-negative",
            "sumsq-data-std-underflow", "data-long-couples-one-bool", "data-unknown-key",
            "data-regression-extra-key", "data-ragged-couples", "data-nested-past-recursion-limit",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_run_input_errors_are_one_line(self, args, needle, tmp_path, capsys):
        code, err, out = self.run_main(args, tmp_path, capsys)
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert len(err.encode()) < 300, err
        assert needle in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, needle",
        [
            (["--op", "metric", "--at="], "point [] has 0 coordinates"),
            (["--op", "massieu", "--start=", "--targets=1.5,-1"], "point [] has 0 coordinates"),
            (["--op", "transport", "--start=1,-1", "--end=", "--vector=1,0"],
             "transport way point [] has 0 coordinates"),
            (["--op", "geodesic", "--start=1,-1", "--velocity=", "--t=1"],
             "geodesic velocity [] has 0 components"),
            (["--op", "field", "--start=1,-1", "--vector="], "field seed [] has 0 components"),
            (["--op", "pythagoras", "--at=1,-1", "--other="], "point [] has 0 coordinates"),
            (["--op", "affine", "--start=1,-1", "--targets=;"],
             "0 targets, outside the budget of 1 to 2500"),
            (["--op", "fit", "--start=1,-1", "--data="], "data spec must be an object"),
            (["--op", "geodesic", "--start=1,-1", "--velocity=1,0", "--t", "0"],
             "geodesic needs a finite t_end and a finite step > 0, got t_end 0.0 and step 0.0"),
        ],
        ids=["at", "start", "end", "velocity", "vector", "other", "targets", "data", "t-zero"],
    )
    def test_an_empty_value_is_refused_before_any_model_call(
        self, args, needle, tmp_path, capsys, monkeypatch
    ):
        # the CLI refused an empty or zero required value with a second copy of
        # the check; the library check that reads the value refuses it
        model, calls = counted_model(models.build("gce"))
        monkeypatch.setattr(cli.RunConfig, "build_model", lambda config: model)
        code, err, out = self.run_main(["--model", "gce", *args], tmp_path, capsys)
        assert (code, calls) == (1, {})
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert needle in err
        assert not out.exists()

    def test_a_zero_span_geodesic_is_the_start_alone(self, tmp_path, capsys, monkeypatch):
        # --t 0 --step 0.1 took one RK4 step of size 0: 16 gradient and 28
        # Hessian calls, and two identical t = 0 rows
        model, calls = counted_model(models.build("gce"))
        monkeypatch.setattr(cli.RunConfig, "build_model", lambda config: model)
        args = ["--model", "gce", "--op", "geodesic", "--start=1,-1", "--velocity=1,0"]
        code, err, out = self.run_main([*args, "--t", "0", "--step", "0.1"], tmp_path, capsys)
        assert (code, calls) == (0, {}), err
        results = json.loads(out.read_text())["results"]
        assert results["samples"] == 1
        assert results["end_point"] == [1.0, -1.0]
        rows = (tmp_path / "out.csv").read_text().splitlines()
        assert rows[1:] == ["0,1,-1,1,0"]

    def test_a_gumbel_count_is_charged_its_curve(self, tmp_path, capsys):
        # gumbel's grid is a curve of n points; --grid 51 was charged 51^2
        # points and refused
        args = ["--model", "gumbel", "--op", "classify", "--grid", "51"]
        code, err, out = self.run_main(args, tmp_path, capsys)
        assert code == 0, err
        assert len(json.loads(out.read_text())["results"]["grid"]) == 51

    def test_a_moderate_lambda_still_builds(self, tmp_path, capsys):
        args = ["--model", "regression-dlambda", "--lambda", "2", "--op", "metric", "--at", "0,0"]
        code, err, out = self.run_main(args, tmp_path, capsys)
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert doc["results"]["metric"] == [[4.0, 0.0], [0.0, 1.0]]
        assert doc["verdicts"] == {"condition4": "pass"}

    @pytest.mark.parametrize(
        "args, point",
        [
            (["--model", "gaussian-kl", "--op", "metric", "--at", "0,1e-308"],
             "at --at 0.0,1e-308:"),
            (["--model", "gce", "--levels", "1,1e308", "--op", "metric", "--at", "1,-1"],
             "at --at 1.0,-1.0:"),
            (["--model", "gaussian-kl", "--op", "metric", "--at", "0,1e308"],
             "at --at 0.0,1e+308:"),
            (["--model", "gce", "--levels", "1,1e308", "--op", "report"],
             "in the oracle comparison at ["),
        ],
        ids=["metric-sigma-tiny", "metric-level-huge", "metric-sigma-huge", "report-level-huge"],
    )
    @pytest.mark.filterwarnings("error")
    def test_arithmetic_failures_are_two_and_one_line(self, args, point, tmp_path, capsys):
        # each used to pass condition 4 with a NaN metric or end in a traceback;
        # the message names the op's chart point where it has one
        code, err, out = self.run_main(args, tmp_path, capsys)
        assert code == 2
        assert err.startswith("numerical failure:") and err.count("\n") == 1, err
        assert point in err, err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_classify_records_an_arithmetic_failure_as_evidence(self, tmp_path, capsys):
        # an overflow at a grid point is a failed check there, as a metric
        # that is not positive definite is
        args = ["--model", "gce", "--levels", "1,1e308", "--op", "classify"]
        code, err, out = self.run_main(args, tmp_path, capsys)
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["condition4"] == "fail"
        assert doc["verdicts"]["exponential_family"] == "no"
        condition4 = doc["results"]["condition4"]
        assert condition4["worst_deviation"] == math.inf
        assert condition4["evidence"]["point"] in doc["results"]["grid"]
        # the evidence is taken where the worst value (the first inf) was
        assert condition4["evidence"]["point"] == condition4["worst_point"]
        assert "overflow" in condition4["evidence"]["error"]


class TestReportAll:
    def test_verdict_table_and_determinism(self, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        res1 = run_cli(["--model", "all", "--op", "report", "--seed", "42", "--out", str(first)])
        res2 = run_cli(["--model", "all", "--op", "report", "--seed", "42", "--out", str(second)])
        assert res1.returncode == 0 and res2.returncode == 0
        names = sorted([f"{name}.json" for name in models.MODEL_NAMES] + ["summary.json"])
        assert sorted(p.name for p in first.iterdir()) == names
        assert sorted(p.name for p in second.iterdir()) == names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        summary = json.loads((first / "summary.json").read_text())
        verdicts = {row["model"]: row["exponential_family"] for row in summary["models"]}
        assert verdicts == {
            "gaussian-kl": "yes",
            "gaussian-sumsq": "not-applicable",
            "regression-ls": "not-applicable",
            "regression-dlambda": "not-applicable",
            "gce": "yes",
            "vmf-sphere": "no",
            "vmf-cylinder": "yes",
            "gumbel": "no",
        }
        cond4 = {row["model"]: row["condition4"] for row in summary["models"]}
        assert cond4["regression-ls"] == "fail"
        assert cond4["gumbel"] == "fail"
        hessian = {row["model"]: row["hessian_structure"] for row in summary["models"]}
        assert hessian["gaussian-sumsq"] == "pass"
        assert hessian["regression-dlambda"] == "pass"
        # no wall-clock fields anywhere in the outputs
        for name in names:
            assert "runtime_ms" not in json.loads((first / name).read_text())

    def test_oracle_comparison_evaluates_each_point_once(self):
        # a report costs its classify plus one connection_at per oracle point:
        # the metric compared with the oracle is that connection's gate, and a
        # point whose probe families disagree (every one at hessian=1e-15) is
        # not evaluated a second time
        def count(action):
            calls.clear()
            action()
            return sum(calls.values())

        for name, tolerances in (("gce", {}), ("gaussian-kl", {"hessian": 1e-15})):
            model, calls = counted_model(models.build(name))
            config = cli.RunConfig(model=name, op="report", grid="2", tolerances=tolerances)
            grid, tol = structure.default_grid(model, 2), config.tol
            report = count(lambda: cli.model_report(model, config))
            classify = count(lambda: structure.classify(model, grid, tol=tol))
            point = count(lambda: geometry.connection_at(model, grid[0], tol=tol))
            assert report == classify + 5 * point, name
            oracle_points = model.chart.random_points(np.random.default_rng(config.seed), 5)
            disagree = [
                geometry.connection_at(model, p).probe_consistency > tol.hessian
                for p in oracle_points
            ]
            assert disagree == [bool(tolerances)] * 5, name

    def test_a_nan_oracle_gap_is_null(self):
        # the connection gap of a NaN connection used to be reported as 0.0
        config = cli.RunConfig(model="gaussian-kl", op="report")
        with np.errstate(**RAISE_FP_ERRORS):
            doc, _ = cli._run_op(config, nan_probe_model())
        gaps = doc["results"]["oracle_comparison"]
        assert gaps["connection"] is None and gaps["metric"] < 1e-6
        assert doc["verdicts"]["exponential_family"] == "no"
        json.dumps(doc, allow_nan=False)

    @pytest.mark.parametrize("name", ["gaussian-kl", "gaussian-sumsq"])
    def test_an_oracle_point_the_gate_refuses_makes_both_gaps_null(self, name):
        # at cond4=1e-16 the condition-4 gate refuses 4 of the 5 seed-42 oracle
        # points; the first refusal used to end the report with exit 2
        config = cli.RunConfig(
            model=name, op="report", grid="-1.2,1.0", tolerances={"cond4": 1e-16}
        )
        with np.errstate(**RAISE_FP_ERRORS):
            doc, _ = cli._run_op(config, models.build(name))
        assert doc["results"]["oracle_comparison"] == {"metric": None, "connection": None}
        assert doc["verdicts"]["condition4"] == "fail"
        json.dumps(doc, allow_nan=False)

    def test_report_bytes_match_the_recorded_digests(self, tmp_path, capsys):
        # a change that moves report bytes on purpose re-records the digests
        args = ["--model", "all", "--op", "report", "--seed", "42", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        recorded = {}
        for line in REPORT_DIGESTS.read_text().splitlines():
            digest, name = line.split()
            recorded[name] = digest
        found = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
        }
        assert found == recorded

    def test_probe_disagreement_is_a_report_verdict(self, tmp_path):
        # at hessian=1e-15 the gaussian-kl probe families disagree in the last
        # bits; classify reports that as a verdict, and the report's oracle
        # comparison used to end the run with exit 2
        args = ["--model", "gaussian-kl", "--tol", "hessian=1e-15"]
        assert cli.main([*args, "--op", "report", "--out", str(tmp_path / "r.json")]) == 0
        assert cli.main([*args, "--op", "classify", "--out", str(tmp_path / "c.json")]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        classified = json.loads((tmp_path / "c.json").read_text())
        assert report["verdicts"] == classified["verdicts"]
        assert report["verdicts"]["hessian_structure"] == "fail"
        assert report["results"]["classification"] == classified["results"]
        assert report["results"]["oracle_comparison"]["connection"] < 1e-6

    def test_grid_reaches_every_model(self, tmp_path):
        args = ["--model", "all", "--op", "report", "--grid", "2"]
        assert cli.main([*args, "--out", str(tmp_path)]) == 0
        for name in models.MODEL_NAMES:
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            assert doc["inputs"]["grid"] == "2", name
            expected = structure.default_grid(models.build(name), 2)
            assert len(doc["results"]["classification"]["grid"]) == len(expected), name

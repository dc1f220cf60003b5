import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dsm_geom import cli, geometry, models, structure


def run_cli(args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "dsm_geom.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


class TestRunConfig:
    def test_rejects_unknown_fields(self):
        with pytest.raises(cli.ConfigError, match="unknown config fields"):
            cli.RunConfig.from_dict({"model": "gce", "op": "classify", "bogus": 1})

    def test_rejects_unknown_op_and_model(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.from_dict({"model": "gce", "op": "meditate"})
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.from_dict({"model": "laplace", "op": "classify"})

    def test_requires_op_specific_fields(self):
        with pytest.raises(cli.ConfigError, match="--at"):
            cli.RunConfig.from_dict({"model": "gce", "op": "metric"})

    def test_roundtrip(self):
        config = cli.RunConfig.from_dict(
            {"model": "gce", "op": "report", "seed": 7, "tolerances": {"cond4": 1e-6}}
        )
        assert cli.RunConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fibre_k", "3"),
            ("at", "1,2"),
            ("seed", 1.5),
            ("kappa", "2"),
            ("at", ["a", "b"]),
            ("targets", [[1.0, -1.0], [2.0, "x"]]),
        ],
    )
    def test_rejects_wrongly_typed_fields(self, field, value):
        payload = {"model": "gce", "op": "metric", "at": [1.0, -1.0], field: value}
        with pytest.raises(cli.ConfigError, match=f"'{field}'"):
            cli.RunConfig.from_dict(payload)

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

    def test_parser_dests_match_config_fields(self):
        # config_from_args passes the parsed namespace to RunConfig as is
        dests = {action.dest for action in cli.build_parser()._actions}
        fields = {field.name for field in dataclasses.fields(cli.RunConfig)}
        assert dests - {"help", "tol"} == fields - {"tolerances"}


class TestDocuments:
    def test_report_schema_roundtrip(self, tmp_path):
        config = cli.RunConfig.from_dict(
            {
                "model": "gaussian-kl",
                "op": "metric",
                "at": [0.0, 1.0],
                "out": str(tmp_path / "m.json"),
            }
        )
        assert cli.run(config) == 0
        doc = cli.load_document(str(tmp_path / "m.json"))
        assert np.asarray(doc["results"]["metric"]) == pytest.approx(
            np.diag([1.0, 2.0])
        )
        assert doc["schema_version"] == cli.SCHEMA_VERSION

    def test_single_model_report_records_its_inputs(self, tmp_path):
        out = tmp_path / "gce.json"
        args = ["--model", "gce", "--levels", "1,2,5", "--op", "report", "--out", str(out)]
        assert cli.main(args) == 0
        doc = cli.load_document(str(out))
        assert doc["inputs"]["levels"] == [1.0, 2.0, 5.0]
        assert doc["inputs"]["out"] == str(out)

    def test_inputs_record_the_option_defaults(self):
        # ops reject defaulted options they do not read, but record their defaults
        config = cli.config_from_args(["--model", "gce", "--op", "connection", "--at", "1,-1"])
        inputs = config.to_dict()
        assert [inputs[name] for name in ("grid", "field_source", "fibre_k", "trials")] == [
            "default", "fibre", 3, 1000,
        ]

    def test_unknown_report_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "surprise": True}))
        with pytest.raises(cli.ConfigError, match="unknown fields"):
            cli.load_document(str(path))


class TestCliRuns:
    def test_import_leaves_scipy_special_unloaded(self):
        # scipy.special takes about 0.3 s to import and only the gumbel
        # statistics load it, when they run; numpy.polynomial is loaded by
        # the path solves alone.  Neither is on the import and build path.
        code = (
            "import sys, dsm_geom.cli; dsm_geom.cli.models.catalogue(); "
            "loaded = {'scipy.special', 'numpy.polynomial'} & set(sys.modules); "
            "assert not loaded, loaded"
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
                "--at", f"{point[0]},{point[1]}", "--fibre-k", "2",
                "--out", str(out),
            ]
        )
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["condition4"] == "fail"
        assert "varying_ratio" in doc["results"]["evidence"]

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


class TestExitCodes:
    def test_config_error_is_one(self):
        assert run_cli(["--model", "gce", "--op", "geodesic"]).returncode == 1
        assert run_cli(["--model", "unknown", "--op", "classify"]).returncode == 1
        assert run_cli(["--model", "gce", "--op", "classify", "--tol", "bogus=1"]).returncode == 1

    def test_numerical_failure_is_two(self, tmp_path):
        # the sphere has no flat connection: massieu must fail numerically
        result = run_cli(
            [
                "--model", "vmf-sphere", "--op", "massieu",
                "--start", "1.0,0.0", "--targets", "1.5,1.0",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert result.returncode == 2

    def test_over_budget_geodesic_is_two_without_running(self, tmp_path):
        # a step of 1e-9 asks for 10^9 RK4 steps; it used to run until killed
        result = run_cli(
            [
                "--model", "gce", "--op", "geodesic", "--start", "1,-1",
                "--velocity", "1,0.5", "--t", "1", "--step", "1e-9", "--field", "oracle",
                "--out", str(tmp_path / "g.json"),
            ],
            timeout=20,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("numerical failure:")
        assert result.stderr.count("\n") == 1 and "budget" in result.stderr
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize(
        "args, tight",
        [
            (
                ["--model", "vmf-cylinder", "--op", "massieu", "--start", "0,1",
                 "--targets", "0.4,1.5"],
                "hessian=1e-12",
            ),
            (
                ["--model", "vmf-sphere", "--op", "field", "--start", "1,0.3",
                 "--vector", "1,0", "--grid", "1.01,0.31;1.02,0.32"],
                "flat=1e-5",
            ),
            (
                # the transport solve settles at 33 nodes (level gap 4e-7 <=
                # 1e-3 * flat) by default; at 1e-13 no piece down to 1/64 of
                # the segment settles (rounding leaves a level gap of ~7e-16)
                ["--model", "vmf-sphere", "--op", "transport", "--start", "1,0.3",
                 "--end", "0.1,1", "--vector", "1,0"],
                "flat=1e-13",
            ),
        ],
        ids=["massieu-hessian", "field-flat", "transport-flat"],
    )
    def test_tightened_tolerance_reaches_its_check(self, args, tight, tmp_path, capsys):
        # the first two checks used to compare with a fixed 1e-3, whatever
        # --tol said
        assert cli.main([*args, "--out", str(tmp_path / "default.json")]) == 0
        capsys.readouterr()
        code = cli.main([*args, "--tol", tight, "--out", str(tmp_path / "tight.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("numerical failure:") and err.count("\n") == 1, err
        assert not (tmp_path / "tight.json").exists()

    def test_io_error_is_three(self, tmp_path):
        result = run_cli(
            [
                "--model", "gaussian-kl", "--op", "metric", "--at", "0,1",
                "--out", str(tmp_path / "missing-dir" / "x.json"),
            ]
        )
        assert result.returncode == 3


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
            (["--model", "regression-ls", "--op", "classify", "--grid", "0"], "--grid"),
            (["--model", "gaussian-kl", "--op", "classify", "--grid", ";"], "--grid"),
            (["--model", "gaussian-kl", "--op", "classify", "--grid", "abc"], "--grid"),
            (["--model", "gaussian-kl", "--op", "classify", "--grid", "-2"], "--grid"),
            (
                ["--model", "gaussian-kl", "--op", "field", "--start", "0,1",
                 "--vector", "1,0", "--grid", "0"],
                "--grid",
            ),
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
            (
                ["--model", "gaussian-kl", "--op", "geodesic", "--start", "0,1",
                 "--velocity", "1,0,0", "--t", "1"],
                "--velocity",
            ),
            (
                ["--model", "gaussian-kl", "--op", "transport", "--start", "0,1",
                 "--end", "0,1,3", "--vector", "1,0"],
                "--end",
            ),
            (
                ["--model", "gaussian-kl", "--op", "affine", "--start", "0,1",
                 "--targets", "0.5,1.5;0.5"],
                "--targets",
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
                "--step",
            ),
            (
                ["--model", "gce", "--op", "geodesic", "--start", "1,-1",
                 "--velocity", "1,0", "--t", "0"],
                "--t",
            ),
            (
                ["--model", "gce", "--op", "geodesic", "--start", "1,-1",
                 "--velocity", "1,0", "--t", "inf"],
                "'t_end'",
            ),
            (
                ["--model", "gaussian-kl", "--op", "transport", "--start", "0,1",
                 "--end", "0.3,1.2", "--vector", "nan,0"],
                "'vector'",
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
        ],
        ids=[
            "grid-zero", "grid-no-point", "grid-not-a-count", "grid-negative",
            "field-grid-zero", "fibre-k-zero", "data-missing-key",
            "transport-outside-chart", "kappa-negative", "levels-empty",
            "report-one-level", "classify-one-level", "velocity-length",
            "end-length", "targets-point-length", "gce-kappa", "regression-ls-lambda",
            "all-levels", "geodesic-outside-chart", "step-zero", "t-zero", "t-inf",
            "vector-nan", "metric-unread-options", "all-at", "connection-fibre-k",
            "connection-field", "massieu-grid", "report-trials", "connection-seed",
            "kappa-overflow", "mu0-underflow", "data-std-not-a-number",
            "mu0-subnormal-square", "sigma0-subnormal-power", "data-std-overflow",
            "data-second-moment-overflow", "data-couples-x-overflow", "data-couples-y-overflow",
            "cylinder-kappa-overflow",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_run_input_errors_are_one_line(self, args, needle, tmp_path, capsys):
        code, err, out = self.run_main(args, tmp_path, capsys)
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert needle in err
        assert not out.exists()

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
        # the metric compared with the oracle is that connection's gate
        calls = []
        model = models.build("gce")

        def hessian(x, theta, inner=model.hessian_fn):
            calls.append(1)
            return inner(x, theta)

        model = dataclasses.replace(model, hessian_fn=hessian)
        config = cli.RunConfig(model="gce", op="report", grid="2")

        def count(action):
            calls.clear()
            action()
            return len(calls)

        report = count(lambda: cli.model_report(model, config))
        classify = count(lambda: structure.classify(model, structure.default_grid(model, 2)))
        point = count(lambda: geometry.connection_at(model, [1.0, -1.0]))
        assert report == classify + 5 * point

    def test_grid_and_fibre_k_reach_every_model(self, tmp_path):
        args = ["--model", "all", "--op", "report", "--fibre-k", "2", "--grid", "2"]
        assert cli.main([*args, "--out", str(tmp_path)]) == 0
        for name in models.MODEL_NAMES:
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            assert doc["inputs"]["grid"] == "2" and doc["inputs"]["fibre_k"] == 2, name
            expected = structure.default_grid(models.build(name), 2)
            assert len(doc["results"]["classification"]["grid"]) == len(expected), name

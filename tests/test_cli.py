import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from dsm_geom import cli, models


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "dsm_geom.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
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
            {"model": "gce", "op": "classify", "seed": 7, "tolerances": {"cond4": 1e-6}}
        )
        assert cli.RunConfig.from_dict(config.to_dict()) == config

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

    def test_unknown_report_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "surprise": True}))
        with pytest.raises(cli.ConfigError, match="unknown fields"):
            cli.load_document(str(path))


class TestCliRuns:
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
        ],
        ids=[
            "grid-zero", "grid-no-point", "grid-not-a-count", "grid-negative",
            "field-grid-zero", "fibre-k-zero", "data-missing-key",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_run_input_errors_are_one_line(self, args, needle, tmp_path, capsys):
        code, err, out = self.run_main(args, tmp_path, capsys)
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert needle in err
        assert not out.exists()


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

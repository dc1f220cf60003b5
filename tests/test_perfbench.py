"""The benchmark's tracer still wraps every name it lists and reads its pinned counts.

A traced function or method that is renamed or deleted, or a model-call
count that moves, fails here before it fails a benchmark run.
"""
import importlib.util
import pathlib

from dsm_geom import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_self_check(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its tracer by name
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    lines = []
    assert run.self_check(cli, lines.append), lines

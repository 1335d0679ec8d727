"""Committed CLI artifacts that must reproduce byte for byte.

Each case runs one command of ``seqshift`` on a small config and compares
every artifact it writes (schedule, report, runs CSV, trace) with the copy
stored under ``tests/data/golden_cli/``.  The cases cover the five threshold
policies, every summary kind and kernel kind the CLI builds, each
distribution family, a file reference and a per-run redrawn one, so a change
to config parsing that alters a built object, the config hash or the config
echo fails here.  Input files are written to the working directory and
named by relative paths, so the config hashes do not depend on where the
tests run.  Regenerate the files (only for a deliberate, documented
behaviour change) with ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from seqshift import DistributionSpec, draw_reference
from seqshift.cli import main
from seqshift.streams import save_stream_file

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_cli"

SCALAR = {"family": "gaussian", "means": [0.0], "variances": [1.0]}
PLANE = {"family": "gaussian", "means": [0.0, 0.0], "variances": [1.0, 2.0]}
MIXTURE = {"family": "gaussian-mixture", "means": [[-1.0], [1.0]],
           "variances": [[0.5], [0.5]], "weights": [0.3, 0.7]}
UNIFORM = {"family": "uniform", "means": [0.5], "variances": [0.25]}
SPACE = {"family": "gaussian", "means": [0.0, 0.0, 0.0], "variances": [1.0, 1.0, 1.0]}


def _config(statistic, window, threshold, reference, **sections):
    detector = {"statistic": statistic, "window": window, "threshold": threshold}
    for key in ("summary", "kernel"):
        if key in sections:
            detector[key] = sections.pop(key)
    return {"seed": 17, "detector": detector, "reference": reference, **sections}


# name -> (command, config, artifact flags); each flag names a file to compare
CASES = {
    "calibrate-fixed": ("calibrate", _config(
        "ks", 20, {"policy": "fixed", "value": 0.3, "alpha": 0.05},
        {**SCALAR, "size": 200}), []),
    "calibrate-ks_asymptotic": ("calibrate", _config(
        "ks", 20, {"policy": "ks_asymptotic", "alpha": 0.05},
        {**MIXTURE, "size": 300}), []),
    "calibrate-permutation": ("calibrate", _config(
        "mmd", 10, {"policy": "permutation", "alpha": 0.05, "n_permutations": 200},
        {"path": "reference.csv"},
        summary={"kind": "affine_projection", "matrix": [[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]]},
        kernel={"kind": "rbf", "bandwidth": "median"}), []),
    "calibrate-calibrated": ("calibrate", _config(
        "mean_diff", 20, {"policy": "calibrated", "alpha": 0.05, "t_max": 40,
                          "n_streams": 500, "min_survivors": 20},
        {**UNIFORM, "size": 200}), []),
    "calibrate-schedule_file": ("calibrate", _config(
        "ks", 20, {"policy": "schedule_file", "path": "schedule.json"},
        {**SCALAR, "size": 200}), []),
    "arl-concrete": ("arl", _config(
        "ks", 20, {"policy": "ks_asymptotic", "alpha": 0.05},
        {**SCALAR, "size": 300},
        stream={"pre": SCALAR},
        evaluation={"n_runs": 20, "cap": 400, "lambda": 30}), ["--runs-csv"]),
    "arl-redraw": ("arl", _config(
        "mmd", 8, {"policy": "fixed", "value": 0.25, "alpha": 0.05},
        {**PLANE, "size": 80, "redraw_per_run": True},
        kernel={"kind": "rbf", "bandwidth": 1.5},
        stream={"pre": PLANE},
        evaluation={"n_runs": 8, "lambda": 20, "workers": 2}), ["--runs-csv"]),
    "delay-concrete": ("delay", _config(
        "mmd", 8, {"policy": "permutation", "alpha": 0.1, "n_permutations": 100},
        {**PLANE, "size": 80},
        summary={"kind": "model_output", "model": {
            "type": "linear_softmax", "weights": [[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]],
            "bias": [0.0, 0.5]}},
        kernel={"kind": "linear"},
        stream={"pre": SPACE, "post": {**SPACE, "means": [2.0, -2.0, 0.0]},
                "change_point": 30},
        evaluation={"n_runs": 8, "cap": 200}), ["--runs-csv"]),
    "delay-redraw": ("delay", _config(
        "mean_diff", 15, {"policy": "fixed", "value": 0.8},
        {**SCALAR, "size": 200, "redraw_per_run": True},
        stream={"pre": SCALAR, "post": {**SCALAR, "means": [-1.0]}, "change_point": 40},
        evaluation={"n_runs": 20, "cap": 300}), ["--runs-csv"]),
    "run": ("run", _config(
        "ks", 20, {"policy": "schedule_file", "path": "schedule.json"},
        {**SCALAR, "size": 200},
        stream={"pre": SCALAR, "post": {**SCALAR, "means": [1.5]}, "change_point": 30},
        evaluation={"cap": 120}), ["--trace"]),
}

_SUFFIX = {"--runs-csv": "runs.csv", "--trace": "trace.csv"}


def _write_inputs(directory: Path) -> None:
    """The schedule and reference files the configs name by relative path."""
    shutil.copyfile(DATA / "golden_schedule_ks.json", directory / "schedule.json")
    spec = DistributionSpec.gaussian([0.0, 0.0], [1.0, 1.0])
    save_stream_file(directory / "reference.csv", draw_reference(spec, 60, 5, 0))


def artifacts(name: str) -> dict:
    """Run case ``name`` in the working directory; artifact file name -> text."""
    command, cfg, flags = CASES[name]
    _write_inputs(Path.cwd())
    Path("config.json").write_text(json.dumps(cfg), encoding="utf-8")
    outputs = {f"{name}.json": "out.json"}
    argv = [command, "--config", "config.json", "--out", "out.json"]
    for flag in flags:
        outputs[f"{name}.{_SUFFIX[flag]}"] = _SUFFIX[flag]
        argv += [flag, _SUFFIX[flag]]
    assert main(argv) == 0
    return {golden: Path(path).read_text(encoding="utf-8") for golden, path in outputs.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_artifacts_reproduce_committed_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for golden, text in artifacts(name).items():
        assert text == (GOLDEN / golden).read_text(encoding="utf-8"), golden


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                for golden, text in artifacts(case).items():
                    (GOLDEN / golden).write_text(text, encoding="utf-8")
            finally:
                os.chdir(home)

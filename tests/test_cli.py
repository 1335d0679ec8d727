import json
from pathlib import Path

import pytest

from seqshift import (
    ChangePointModel,
    DistributionSpec,
    ReferenceSet,
    draw_reference,
    estimate_arl0,
    estimate_delay,
    ks_asymptotic_threshold,
    null_model,
)
from seqshift import calibration, cli, statistics, streams
from seqshift.cli import main
from seqshift.streams import save_stream_file


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def base_arl_config(w=20, alpha=0.05, n_runs=30, redraw=True):
    return {
        "seed": 7,
        "detector": {
            "statistic": "ks",
            "window": w,
            "threshold": {"policy": "ks_asymptotic", "alpha": alpha},
        },
        "reference": {
            "family": "gaussian",
            "means": [0.0],
            "variances": [1.0],
            "size": 300,
            "redraw_per_run": redraw,
        },
        "stream": {"pre": {"family": "gaussian", "means": [0.0], "variances": [1.0]}},
        "evaluation": {"n_runs": n_runs, "cap": 2000},
    }


def calibrated(cfg, **keys):
    """Switch ``cfg`` to a calibrated threshold on one concrete reference."""
    cfg["reference"]["redraw_per_run"] = False
    cfg["detector"]["threshold"] = {
        "policy": "calibrated", "alpha": 0.05, "t_max": 40, "n_streams": 2000, **keys,
    }


def work_config():
    """A valid mmd config that takes every costly step: a drawn reference,
    a median bandwidth and a calibrated schedule."""
    plane = {"family": "gaussian", "means": [0.0, 0.0], "variances": [1.0, 1.0]}
    return {
        "seed": 3,
        "detector": {
            "statistic": "mmd",
            "window": 10,
            "summary": {"kind": "affine_projection", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "kernel": {"kind": "rbf", "bandwidth": "median"},
            "threshold": {
                "policy": "calibrated", "alpha": 0.05, "t_max": 40, "n_streams": 2000,
            },
        },
        "reference": {**plane, "size": 200},
        "stream": {"pre": plane},
        "evaluation": {"n_runs": 10, "cap": 100},
    }


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = base_arl_config()
        cfg["extra"] = 1
        code = main(["arl", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, capsys):
        cfg = base_arl_config()
        cfg["detector"]["threshold"]["fuzz"] = True
        code = main(["arl", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = base_arl_config()
        del cfg["detector"]["window"]
        code = main(["arl", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "missing required keys" in capsys.readouterr().err

    def test_bad_family(self, tmp_path, capsys):
        cfg = base_arl_config()
        cfg["stream"]["pre"]["family"] = "levy"
        code = main(["arl", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_arl_requires_null_stream(self, tmp_path, capsys):
        cfg = base_arl_config()
        cfg["stream"]["change_point"] = 100
        code = main(["arl", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "change_point" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["arl", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_unknown_flag_exits_with_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["arl", "--config", "x", "--frobnicate"])
        assert exc.value.code == 2

    def test_calibrated_policy_requires_concrete_reference(self, tmp_path, capsys):
        cfg = base_arl_config()
        cfg["detector"]["threshold"] = {
            "policy": "calibrated", "alpha": 0.05, "t_max": 40, "n_streams": 2000,
        }
        code = main(["arl", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "redraw_per_run" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda cfg: cfg["reference"].update(redraw_per_run="false"),
             "reference.redraw_per_run"),
            (lambda cfg: cfg["detector"]["threshold"].update(alpha="0.05"),
             "detector.threshold.alpha"),
            (lambda cfg: cfg["detector"]["threshold"].update(policy="fixed", value="0.3"),
             "detector.threshold.value"),
            (lambda cfg: calibrated(cfg, min_survivors="100"),
             "detector.threshold.min_survivors"),
            (lambda cfg: cfg["stream"]["pre"].update(means={"m": 0}), "stream.pre"),
            (lambda cfg: cfg["stream"]["pre"].update(means=["0.5"]), "stream.pre.means"),
            (lambda cfg: cfg["stream"]["pre"].update(variances="1.0"),
             "stream.pre.variances"),
            (lambda cfg: cfg["reference"].update(means=[None]), "reference.means"),
            (lambda cfg: cfg["stream"]["pre"].update(
                family="gaussian-mixture", means=[[0.0]], variances=[[1.0]], weights=[True]),
             "stream.pre.weights"),
            (lambda cfg: cfg["detector"].update(
                summary={"kind": "affine_projection", "matrix": [["1"]]}),
             "detector.summary.matrix"),
            (lambda cfg: cfg["detector"].update(summary={"kind": "model_output", "model": {
                "type": "linear_softmax", "weights": [[True]], "bias": [0.0]}}),
             "detector.summary.model.weights"),
            (lambda cfg: cfg["detector"].update(summary={"kind": "model_output", "model": {
                "type": "linear_softmax", "weights": [[1.0]], "bias": [None]}}),
             "detector.summary.model.bias"),
            (lambda cfg: cfg["detector"].update(
                statistic="mmd", kernel={"kind": "rbf", "bandwidth": "1.0"}),
             "detector.kernel.bandwidth"),
            (lambda cfg: cfg["detector"].update(
                statistic="mmd", kernel={"kind": "rbf", "bandwidth": [1.0]}),
             "detector.kernel.bandwidth"),
            # open() takes an int path as a file descriptor; this one is never open
            (lambda cfg: cfg.update(reference={"path": 987654}), "reference.path"),
            (lambda cfg: cfg["detector"].update(
                threshold={"policy": "schedule_file", "path": 987654}),
             "detector.threshold.path"),
            # the change-point cases run delay, where a bad change point is not
            # caught by arl's own never-changing check
            (lambda cfg: cfg["stream"].update(change_point=True), "stream.change_point"),
            (lambda cfg: cfg["stream"].update(change_point=30.0), "stream.change_point"),
            (lambda cfg: cfg["stream"].update(change_point="30"), "stream.change_point"),
            (lambda cfg: cfg.update(seed=-3), "seed"),
        ],
        ids=["redraw_per_run", "alpha", "value", "min_survivors", "means",
             "means_string", "variances_string", "reference_means_null",
             "weights_bool", "matrix_string", "model_weights_bool", "model_bias_null",
             "bandwidth_string", "bandwidth_list", "reference_path_number",
             "schedule_path_number", "change_point_bool", "change_point_float",
             "change_point_string", "seed_negative"],
    )
    def test_scalar_types_checked(self, tmp_path, capsys, mutate, field):
        cfg = base_arl_config()
        mutate(cfg)
        command = "delay" if "change_point" in cfg["stream"] else "arl"
        code = main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["arl", "delay", "reproduce-appendix"])
    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_flag_must_be_positive(self, tmp_path, capsys, command, workers):
        args = ["--config", "x", "--out", "y"]
        if command == "reproduce-appendix":
            # --scale 0 makes a run that got past argument parsing fail fast
            args = ["--out-dir", str(tmp_path / "d"), "--scale", "0"]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["calibrate", "run", "arl", "delay", "reproduce-appendix"]
    )
    def test_seed_flag_must_be_non_negative(self, tmp_path, capsys, command):
        args = ["--config", "x", "--out", "y"]
        if command == "reproduce-appendix":
            args = ["--out-dir", str(tmp_path / "d"), "--scale", "0"]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--seed", "-3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["arl", "delay", "run"])
    def test_stream_must_fit_summary_before_calibrating(
        self, tmp_path, capsys, monkeypatch, command
    ):
        cfg = base_arl_config()
        calibrated(cfg)
        plane = {"family": "gaussian", "means": [0.0, 0.0], "variances": [1.0, 1.0]}
        cfg["stream"] = {"pre": plane}
        if command == "delay":
            cfg["stream"].update(post=plane, change_point=60)
        monkeypatch.setattr(
            calibration, "calibrate_schedule",
            lambda *args, **kwargs: pytest.fail("calibrated before checking the stream"),
        )
        code = main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "stream: 2-d stream samples do not fit the summary" in capsys.readouterr().err

    def test_stream_file_must_fit_summary_before_calibrating(
        self, tmp_path, capsys, monkeypatch, rng
    ):
        cfg = base_arl_config()
        calibrated(cfg)
        del cfg["stream"]
        stream_path = tmp_path / "plane.csv"
        save_stream_file(stream_path, rng.normal(size=(50, 2)))
        monkeypatch.setattr(
            calibration, "calibrate_schedule",
            lambda *args, **kwargs: pytest.fail("calibrated before checking the stream file"),
        )
        code = main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "r.json"), "--stream-file", str(stream_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--stream-file {stream_path}: 2-d stream samples do not fit the summary" in err


    @pytest.mark.parametrize(
        "mutate, section, key",
        [
            (lambda cfg, _: cfg["detector"].update(
                threshold={"policy": "fixed", "value": 0.3, "t_max": 40}),
             "detector.threshold", "t_max"),
            (lambda cfg, _: cfg["detector"].update(
                threshold={"policy": "fixed", "value": 0.3, "n_streams": 2000}),
             "detector.threshold", "n_streams"),
            (lambda cfg, _: cfg["detector"].update(
                threshold={"policy": "fixed", "value": 0.3, "n_permutations": 50}),
             "detector.threshold", "n_permutations"),
            (lambda cfg, path: cfg["detector"]["threshold"].update(path=path),
             "detector.threshold", "path"),
            (lambda cfg, _: cfg["detector"]["threshold"].update(min_survivors=50),
             "detector.threshold", "min_survivors"),
            (lambda cfg, path: cfg["detector"].update(
                threshold={"policy": "schedule_file", "path": path, "alpha": 0.5}),
             "detector.threshold", "alpha"),
            (lambda cfg, _: cfg["detector"].update(
                summary={"kind": "identity", "matrix": [[1.0]]}),
             "detector.summary", "matrix"),
            (lambda cfg, _: cfg["detector"].update(summary={"kind": "identity", "model": {
                "type": "linear_softmax", "weights": [[1.0]], "bias": [0.0]}}),
             "detector.summary", "model"),
            (lambda cfg, _: cfg["detector"].update(summary={"kind": "identity", "dim": 1}),
             "detector.summary", "dim"),
            (lambda cfg, _: cfg["detector"].update(
                summary={"kind": "identity", "loss": "squared_error"}),
             "detector.summary", "loss"),
            (lambda cfg, _: cfg["detector"].update(
                statistic="mmd", kernel={"kind": "linear", "bandwidth": "median"}),
             "detector.kernel", "bandwidth"),
        ],
        ids=["fixed-t_max", "fixed-n_streams", "fixed-n_permutations",
             "ks_asymptotic-path", "ks_asymptotic-min_survivors", "schedule_file-alpha",
             "identity-matrix", "identity-model", "identity-dim", "summary-loss",
             "linear-median_bandwidth"],
    )
    def test_keys_of_other_variants_rejected(
        self, tmp_path, capsys, monkeypatch, mutate, section, key
    ):
        schedule = tmp_path / "schedule.json"
        schedule.write_text(calibration.ks_asymptotic_threshold(300, 20, 0.05).to_json())
        monkeypatch.setattr(
            statistics, "median_heuristic",
            lambda *args: pytest.fail("estimated a bandwidth before checking the config"),
        )
        cfg = base_arl_config(redraw=False)
        mutate(cfg, str(schedule))
        code = main(["calibrate", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "s.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{section}: unknown keys" in err and repr(key) in err

    @pytest.mark.parametrize("command", ["calibrate", "run", "arl"])
    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda cfg: cfg["reference"].update(size=1), "reference.size"),
            (lambda cfg: cfg["detector"].update(window=0), "detector.window"),
            (lambda cfg: cfg["detector"]["summary"].update(matrix=[[1.0, "0"]]),
             "detector.summary.matrix"),
            (lambda cfg: cfg["detector"]["summary"].update(matrix=[[1.0], [0.0, 1.0]]),
             "detector.summary.matrix"),
            (lambda cfg: cfg["detector"]["kernel"].update(bandwidth=-1.0),
             "detector.kernel.bandwidth"),
            (lambda cfg: cfg["detector"]["threshold"].update(n_streams=0),
             "detector.threshold.n_streams"),
            (lambda cfg: cfg["stream"]["pre"].update(means=["0.0", 0.0]), "stream.pre.means"),
            (lambda cfg: cfg["evaluation"].update(workers=0), "evaluation.workers"),
            # rules that join sections hold before any work too
            (lambda cfg: cfg["detector"].update(
                statistic="ks", summary={"kind": "affine_projection", "matrix": [[1.0, 1.0]]}),
             "detector: ks takes no kernel"),
            (lambda cfg: cfg["stream"].update(pre={
                "family": "gaussian", "means": [0.0] * 3, "variances": [1.0] * 3}),
             "stream: 3-d stream samples do not fit the summary"),
        ],
        ids=["reference", "detector", "summary", "summary_shape", "kernel", "threshold", "stream",
             "evaluation", "statistic_rules", "stream_dimension"],
    )
    def test_config_errors_come_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, mutate, field
    ):
        for module, name in ((statistics, "median_heuristic"), (streams, "draw_reference"),
                             (streams, "load_stream_file"),
                             (calibration, "calibrate_schedule")):
            monkeypatch.setattr(
                module, name,
                lambda *args, _name=name, **kwargs: pytest.fail(
                    f"{_name} ran before the config was checked"),
            )
        cfg = work_config()
        mutate(cfg)
        code = main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert field in capsys.readouterr().err

    def test_readme_names_every_config_key(self):
        """The README's Sections list names every key and variant of the schema."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        sections = readme.split("\nSections:\n")[1].split("\n## ")[0]

        def names(schema):
            if isinstance(schema, cli.Variants):
                yield schema.key
                for choice, table in schema.tables.items():
                    if choice is not None:
                        yield choice
                    yield from names(table)
            elif isinstance(schema, dict):
                for key, (check, *_) in schema.items():
                    yield key
                    yield from names(check)

        missing = sorted({name for name in names(cli.SCHEMA) if f"`{name}`" not in sections})
        assert not missing, f"README Sections list does not name {missing}"

    def test_delay_refuses_lambda(self, tmp_path, capsys):
        cfg = base_arl_config()
        cfg["stream"].update(post=cfg["stream"]["pre"], change_point=60)
        cfg["evaluation"]["lambda"] = 3
        code = main(["delay", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "evaluation.lambda: applies to arl only" in capsys.readouterr().err


class TestArlCommand:
    def test_writes_report_and_csv(self, tmp_path, capsys):
        cfg = base_arl_config()
        out = tmp_path / "report.json"
        csv = tmp_path / "runs.csv"
        code = main(["arl", "--config", write_config(tmp_path, cfg),
                     "--out", str(out), "--runs-csv", str(csv)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "arl"
        assert payload["seed"] == 7
        assert payload["config_hash"]
        assert payload["report"]["n_runs"] == 30
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "run_id,T,censored"
        assert len(lines) == 2 + 30

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, base_arl_config())
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"report_{tag}.json"
            csv = tmp_path / f"runs_{tag}.csv"
            assert main(["arl", "--config", cfg_path, "--out", str(out),
                         "--runs-csv", str(csv)]) == 0
            outs.append((out.read_bytes(), csv.read_bytes()))
        assert outs[0] == outs[1]

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg_path = write_config(tmp_path, base_arl_config(n_runs=24))
        blobs = []
        for workers in (1, 3):
            out = tmp_path / f"report_w{workers}.json"
            assert main(["arl", "--config", cfg_path, "--out", str(out),
                         "--workers", str(workers)]) == 0
            payload = json.loads(out.read_text())
            del payload["config"]  # config echo identical by construction
            blobs.append(json.dumps(payload, sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_hash(self, tmp_path):
        cfg_path = write_config(tmp_path, base_arl_config())
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["arl", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["arl", "--config", cfg_path, "--out", str(out2),
                     "--seed", "99"]) == 0
        p1, p2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert p1["config_hash"] != p2["config_hash"]
        assert p2["seed"] == 99


class TestMonteCarloReports:
    @pytest.mark.parametrize("redraw", [False, True], ids=["concrete", "redraw"])
    @pytest.mark.parametrize("command", ["arl", "delay"])
    def test_report_and_runs_match_direct_estimate(self, tmp_path, command, redraw):
        cfg = base_arl_config(n_runs=12, redraw=redraw)
        spec = DistributionSpec.gaussian([0.0], [1.0])
        schedule = ks_asymptotic_threshold(300, 20, 0.05)
        kwargs = dict(statistic="ks", workers=1)
        if redraw:
            kwargs.update(reference_spec=spec, reference_size=300)
        else:
            kwargs.update(reference=ReferenceSet(draw_reference(spec, 300, 7, 0)))
        if command == "arl":
            cfg["evaluation"]["lambda"] = 40
            report = estimate_arl0(schedule, null_model(spec), 12, 2000, 7, lam=40, **kwargs)
        else:
            post = {"family": "gaussian", "means": [1.5], "variances": [1.0]}
            cfg["stream"].update(post=post, change_point=60)
            model = ChangePointModel(spec, DistributionSpec.gaussian([1.5], [1.0]), 60)
            report = estimate_delay(schedule, model, 12, 2000, 7, **kwargs)

        out, csv = tmp_path / "report.json", tmp_path / "runs.csv"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out), "--runs-csv", str(csv)]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == command
        assert payload["config"] == cfg
        assert payload["report"] == json.loads(json.dumps(report.to_dict()))
        rows = csv.read_text().splitlines()[2:]
        assert rows == [f"{i},{t},{str(c).lower()}" for i, t, c in report.runs]


class TestCalibrateAndRun:
    def test_calibrate_then_run_with_schedule_file(self, tmp_path):
        cal_cfg = {
            "seed": 5,
            "detector": {
                "statistic": "ks",
                "window": 15,
                "threshold": {
                    "policy": "calibrated", "alpha": 0.02, "t_max": 40,
                    "n_streams": 3000,
                },
            },
            "reference": {
                "family": "gaussian", "means": [0.0], "variances": [1.0], "size": 200,
            },
        }
        sched_path = tmp_path / "sched.json"
        assert main(["calibrate", "--config", write_config(tmp_path, cal_cfg),
                     "--out", str(sched_path)]) == 0
        doc = json.loads(sched_path.read_text())
        assert doc["kind"] == "time_varying"
        assert doc["w"] == 15
        assert doc["alpha"] == 0.02
        assert len(doc["values"]) == 40 - 15 + 1
        assert doc["meta"]["seed"] == 5

        run_cfg = {
            "seed": 6,
            "detector": {
                "statistic": "ks",
                "window": 15,
                "threshold": {"policy": "schedule_file", "path": str(sched_path)},
            },
            "reference": {
                "family": "gaussian", "means": [0.0], "variances": [1.0], "size": 200,
            },
            "stream": {
                "pre": {"family": "gaussian", "means": [0.0], "variances": [1.0]},
                "post": {"family": "gaussian", "means": [3.0], "variances": [1.0]},
                "change_point": 16,
            },
            "evaluation": {"cap": 300},
        }
        out = tmp_path / "result.json"
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", write_config(tmp_path, run_cfg, "run.json"),
                     "--out", str(out), "--trace", str(trace)]) == 0
        payload = json.loads(out.read_text())
        assert 16 <= payload["report"]["detection_time"] <= 40
        lines = trace.read_text().splitlines()
        assert lines[1] == "t,statistic,threshold,detected"
        assert lines[-1].endswith("true")

    def test_run_on_stream_file(self, tmp_path, rng):
        stream_path = tmp_path / "stream.csv"
        save_stream_file(stream_path, rng.normal(loc=5.0, size=(80, 1)))
        cfg = {
            "seed": 3,
            "detector": {
                "statistic": "ks",
                "window": 10,
                "threshold": {"policy": "ks_asymptotic", "alpha": 0.05},
            },
            "reference": {
                "family": "gaussian", "means": [0.0], "variances": [1.0], "size": 500,
            },
            "evaluation": {"cap": 80},
        }
        out = tmp_path / "result.json"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out), "--stream-file", str(stream_path)]) == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["detection_time"] == 10  # 5-sigma shift: first test

    def test_delay_command(self, tmp_path):
        cfg = {
            "seed": 11,
            "detector": {
                "statistic": "mean_diff",
                "window": 10,
                "threshold": {"policy": "permutation", "alpha": 0.02,
                              "n_permutations": 600},
            },
            "reference": {
                "family": "gaussian", "means": [0.0], "variances": [1.0], "size": 400,
            },
            "stream": {
                "pre": {"family": "gaussian", "means": [0.0], "variances": [1.0]},
                "post": {"family": "gaussian", "means": [-2.0], "variances": [1.0]},
                "change_point": 50,
            },
            "evaluation": {"n_runs": 40, "cap": 400},
        }
        out = tmp_path / "delay.json"
        assert main(["delay", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["detected_after_change"] > 0
        assert payload["report"]["mean_delay"] < 50

    def test_cap_flag_supplies_the_cap(self, tmp_path):
        cfg = base_arl_config(redraw=False)
        cfg["detector"]["threshold"] = {"policy": "fixed", "value": 0.5}
        del cfg["evaluation"]
        out = tmp_path / "result.json"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out), "--cap", "50"]) == 0
        assert json.loads(out.read_text())["report"]["cap"] == 50

    def test_mmd_with_median_bandwidth(self, tmp_path):
        cfg = {
            "seed": 13,
            "detector": {
                "statistic": "mmd",
                "window": 10,
                "kernel": {"kind": "rbf", "bandwidth": "median"},
                "threshold": {"policy": "permutation", "alpha": 0.05,
                              "n_permutations": 300},
            },
            "reference": {
                "family": "gaussian", "means": [0.0, 0.0],
                "variances": [1.0, 1.0], "size": 120,
            },
            "stream": {
                "pre": {"family": "gaussian", "means": [0.0, 0.0],
                        "variances": [1.0, 1.0]},
                "post": {"family": "gaussian", "means": [3.0, 3.0],
                         "variances": [1.0, 1.0]},
                "change_point": 20,
            },
            "evaluation": {"cap": 200},
        }
        out = tmp_path / "result.json"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["detection_time"] >= 20


class TestReproduceAppendix:
    def test_tiny_scale_sweep(self, tmp_path):
        out_dir = tmp_path / "appendix"
        code = main(["reproduce-appendix", "--out-dir", str(out_dir),
                     "--scale", "0.016", "--seed", "1"])
        assert code == 0
        for name, rows in (("fig1a.csv", 5), ("fig1b.csv", 5)):
            lines = (out_dir / name).read_text().splitlines()
            assert lines[1] == "w,n,alpha,mean_T,se,slackness"
            assert len(lines) == 2 + rows
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["alpha"] == pytest.approx(0.001 / 0.016)
        assert meta["n_runs"] == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("x", "y"):
            out_dir = tmp_path / tag
            assert main(["reproduce-appendix", "--out-dir", str(out_dir),
                         "--scale", "0.016", "--seed", "2"]) == 0
            blobs.append(
                ((out_dir / "fig1a.csv").read_bytes(),
                 (out_dir / "fig1b.csv").read_bytes())
            )
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("scale", ["0", "-1", "inf", "nan"])
    def test_bad_scale_rejected(self, tmp_path, capsys, scale):
        assert main(["reproduce-appendix", "--out-dir", str(tmp_path / "d"),
                     "--scale", scale]) == 2

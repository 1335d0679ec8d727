"""Command-line front end: config parsing, experiment orchestration,
artifact emission.

Configuration is JSON with a strict schema -- unknown keys are errors, not
warnings, because silently ignored settings are the main failure mode of
monitoring tools.  Every artifact embeds the config hash and seed, and
re-running with the same pair reproduces outputs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import calibration, evaluation, streams, summaries
from . import detector as detector_mod
from .batch import check_statistic
from .calibration import CalibrationTarget, ThresholdSchedule
from .statistics import KS, Kernel, ReferenceSet, median_heuristic
from .streams import ChangePointModel, DistributionSpec


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# -- schema helpers ---------------------------------------------------------


def _check_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(
            f"{where}: unknown keys {sorted(unknown)}; allowed keys are {sorted(allowed)}"
        )
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


def _positive_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{where}: expected a positive integer, got {value!r}")
    return value


def _typed(value, types, what: str, where: str):
    # JSON true/false load as bool, an int subclass, but are not numbers
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ConfigError(f"{where}: expected {what}, got {value!r}")
    return value


def _number(value, where: str):
    return _typed(value, (int, float), "a number", where)


def _numbers(value, where: str):
    """A number or a nested array of numbers, as JSON writes them."""
    if isinstance(value, list):
        for item in value:
            _numbers(item, where)
        return value
    return _number(value, where)


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}")
    _check_keys(
        cfg,
        allowed={"seed", "detector", "reference", "stream", "evaluation"},
        required={"seed", "detector", "reference"},
        where=str(path),
    )
    if _typed(cfg["seed"], int, "an integer", "seed") < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {cfg['seed']!r}")
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# -- section parsers --------------------------------------------------------


def _parse_distribution(cfg: dict, where: str) -> DistributionSpec:
    _check_keys(
        cfg,
        allowed={"family", "means", "variances", "weights"},
        required={"family", "means", "variances"},
        where=where,
    )
    family = cfg["family"]
    if family == "gaussian-mixture" and "weights" not in cfg:
        raise ConfigError(f"{where}: gaussian-mixture requires weights")
    if family != "gaussian-mixture" and "weights" in cfg:
        raise ConfigError(f"{where}: weights only apply to gaussian-mixture")
    arrays = {key: _numbers(value, f"{where}.{key}") for key, value in cfg.items()
              if key != "family"}
    try:
        if family == "gaussian-mixture":
            return DistributionSpec.gaussian_mixture(
                arrays["means"], arrays["variances"], arrays["weights"]
            )
        if family == "gaussian":
            return DistributionSpec.gaussian(arrays["means"], arrays["variances"])
        if family == "uniform":
            return DistributionSpec.uniform(arrays["means"], arrays["variances"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}")
    raise ConfigError(f"{where}: unknown family {family!r}")


class _ReferenceSection:
    """Either a concrete reference or a per-run redraw recipe."""

    def __init__(self, cfg: dict, seed: int):
        where = "reference"
        if "path" in cfg:
            _check_keys(cfg, allowed={"path"}, required={"path"}, where=where)
            values = streams.load_stream_file(_typed(cfg["path"], str, "a string", f"{where}.path"))
            self.spec = None
            self.size = values.shape[0]
            self.redraw = False
            self._fixed = ReferenceSet(values)
            self.dim = self._fixed.dim
            return
        _check_keys(
            cfg,
            allowed={"family", "means", "variances", "weights", "size", "redraw_per_run"},
            required={"family", "means", "variances", "size"},
            where=where,
        )
        self.size = _positive_int(cfg["size"], "reference.size")
        if self.size < 2:
            raise ConfigError("reference.size must be >= 2")
        dist_cfg = {k: v for k, v in cfg.items() if k in ("family", "means", "variances", "weights")}
        self.spec = _parse_distribution(dist_cfg, where)
        self.dim = self.spec.dim
        self.redraw = _typed(
            cfg.get("redraw_per_run", False), bool, "true or false", f"{where}.redraw_per_run"
        )
        self._fixed = None
        self._seed = seed

    def concrete(self) -> ReferenceSet:
        """The fixed reference (drawing it once if synthetic)."""
        if self.redraw:
            raise ConfigError(
                "this command needs one concrete reference; set "
                "reference.redraw_per_run to false"
            )
        if self._fixed is None:
            self._fixed = ReferenceSet(
                streams.draw_reference(self.spec, self.size, self._seed, 0)
            )
        return self._fixed


def _parse_summary(cfg: dict | None, ref_dim: int) -> summaries.SummaryStatistic:
    if cfg is None:
        return summaries.identity(ref_dim)
    where = "detector.summary"
    _check_keys(
        cfg,
        allowed={"kind", "dim", "matrix", "model", "loss"},
        required={"kind"},
        where=where,
    )
    kind = cfg["kind"]
    if kind == "identity":
        dim = cfg.get("dim", ref_dim)
        return summaries.identity(_positive_int(dim, f"{where}.dim"))
    if kind == "affine_projection":
        if "matrix" not in cfg:
            raise ConfigError(f"{where}: affine_projection requires matrix")
        matrix = np.asarray(_numbers(cfg["matrix"], f"{where}.matrix"), dtype=np.float64)
        if matrix.ndim != 2:
            raise ConfigError(f"{where}.matrix: expected a 2-d array")
        return summaries.SummaryStatistic(
            kind="affine_projection", out_dim=matrix.shape[0], projection=matrix
        )
    if kind in ("model_output", "model_loss"):
        model_cfg = cfg.get("model")
        if model_cfg is None:
            raise ConfigError(f"{where}: {kind} requires model")
        _check_keys(
            model_cfg,
            allowed={"type", "weights", "bias"},
            required={"type", "weights", "bias"},
            where=f"{where}.model",
        )
        if model_cfg["type"] != "linear_softmax":
            raise ConfigError(f"{where}.model: unknown model type {model_cfg['type']!r}")
        model = summaries.LinearSoftmaxModel(
            _numbers(model_cfg["weights"], f"{where}.model.weights"),
            _numbers(model_cfg["bias"], f"{where}.model.bias"),
        )
        if kind == "model_output":
            return summaries.SummaryStatistic(
                kind="model_output", out_dim=model.n_classes, model=model
            )
        raise ConfigError(
            f"{where}: model_loss summaries need per-instance labels, which "
            "synthetic and file streams do not carry; use the library API"
        )
    raise ConfigError(f"{where}: unknown summary kind {kind!r}")


def _parse_kernel(cfg: dict | None, reference: _ReferenceSection | None) -> Kernel | None:
    if cfg is None:
        return None
    where = "detector.kernel"
    _check_keys(cfg, allowed={"kind", "bandwidth"}, required={"kind"}, where=where)
    bandwidth = cfg.get("bandwidth")
    if bandwidth == "median":
        if reference is None or reference.redraw:
            raise ConfigError(
                f"{where}: the median-heuristic bandwidth needs one concrete "
                "reference; set an explicit bandwidth instead"
            )
        bandwidth = median_heuristic(reference.concrete())
    elif bandwidth is not None:
        _number(bandwidth, f"{where}.bandwidth")
    try:
        return Kernel(kind=cfg["kind"], bandwidth=bandwidth)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


class _DetectorSection:
    def __init__(self, cfg: dict, reference: _ReferenceSection, seed: int):
        where = "detector"
        _check_keys(
            cfg,
            allowed={"summary", "statistic", "kernel", "window", "threshold"},
            required={"statistic", "window", "threshold"},
            where=where,
        )
        self.statistic = cfg["statistic"]
        self.window = _positive_int(cfg["window"], f"{where}.window")
        self.summary = _parse_summary(cfg.get("summary"), reference.dim)
        self.kernel = _parse_kernel(cfg.get("kernel"), reference)
        try:
            check_statistic(self.statistic, self.summary.out_dim, self.window, self.kernel)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}")
        if self.summary.out_dim != reference.dim:
            raise ConfigError(
                f"{where}: summary out_dim {self.summary.out_dim} does not match "
                f"reference dimension {reference.dim}"
            )
        self.threshold_cfg = cfg["threshold"]
        self._reference = reference
        self._seed = seed

    def schedule(self) -> ThresholdSchedule:
        cfg = self.threshold_cfg
        where = "detector.threshold"
        _check_keys(
            cfg,
            allowed={
                "policy", "alpha", "value", "n_permutations", "t_max",
                "n_streams", "min_survivors", "path",
            },
            required={"policy"},
            where=where,
        )
        policy = cfg["policy"]
        for key in ("alpha", "value"):  # the policy that needs a missing key says so
            _number(cfg.get(key, 0.0), f"{where}.{key}")
        try:
            if policy == "fixed":
                if "value" not in cfg:
                    raise ConfigError(f"{where}: fixed policy requires value")
                return calibration.fixed_threshold(
                    cfg["value"], self.window, cfg.get("alpha")
                )
            if policy == "ks_asymptotic":
                if self.statistic != KS:
                    raise ConfigError(
                        f"{where}: ks_asymptotic thresholds apply to the ks statistic"
                    )
                return calibration.ks_asymptotic_threshold(
                    self._reference.size, self.window, cfg["alpha"]
                )
            if policy == "permutation":
                return calibration.permutation_threshold(
                    self._reference.concrete(),
                    self.window,
                    cfg["alpha"],
                    _positive_int(cfg["n_permutations"], f"{where}.n_permutations"),
                    statistic=self.statistic,
                    kernel=self.kernel,
                    master_seed=self._seed,
                )
            if policy == "calibrated":
                return calibration.calibrate_schedule(
                    self._reference.concrete(),
                    self.window,
                    CalibrationTarget(alpha=cfg["alpha"]),
                    t_max=_positive_int(cfg["t_max"], f"{where}.t_max"),
                    n_streams=_positive_int(cfg["n_streams"], f"{where}.n_streams"),
                    statistic=self.statistic,
                    kernel=self.kernel,
                    master_seed=self._seed,
                    min_survivors=_positive_int(
                        cfg.get("min_survivors", calibration.DEFAULT_MIN_SURVIVORS),
                        f"{where}.min_survivors",
                    ),
                )
            if policy == "schedule_file":
                path = _typed(cfg["path"], str, "a string", f"{where}.path")
                with open(path, "r", encoding="utf-8") as fh:
                    schedule = ThresholdSchedule.from_json(fh.read())
                if schedule.w != self.window:
                    raise ConfigError(
                        f"{where}: schedule file was built for w={schedule.w}, "
                        f"config window is {self.window}"
                    )
                return schedule
        except KeyError as exc:
            raise ConfigError(f"{where}: policy {policy!r} requires key {exc.args[0]!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}")
        raise ConfigError(f"{where}: unknown policy {policy!r}")


def _parse_stream(
    cfg: dict | None, summary: summaries.SummaryStatistic
) -> ChangePointModel | None:
    """The stream model, checked against the detector's ``summary``."""
    if cfg is None:
        return None
    where = "stream"
    _check_keys(cfg, allowed={"pre", "post", "change_point"}, required={"pre"}, where=where)
    pre = _parse_distribution(cfg["pre"], f"{where}.pre")
    post = _parse_distribution(cfg["post"], f"{where}.post") if "post" in cfg else pre
    cp = cfg.get("change_point")
    cp = math.inf if cp is None else _positive_int(cp, f"{where}.change_point")
    try:
        model = ChangePointModel(pre=pre, post=post, change_point=cp)
        evaluation.check_stream(model, summary)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")
    return model


class _EvaluationSection:
    def __init__(self, cfg: dict | None, alpha: float | None):
        where = "evaluation"
        cfg = cfg or {}
        _check_keys(cfg, allowed={"n_runs", "cap", "lambda", "workers"}, required=set(), where=where)
        self.n_runs = _positive_int(cfg.get("n_runs", 100), f"{where}.n_runs")
        cap = cfg.get("cap")
        if cap is None:
            if alpha is None:
                raise ConfigError(
                    f"{where}.cap: required when the threshold policy has no alpha"
                )
            cap = int(round(100.0 / alpha))
        self.cap = _positive_int(cap, f"{where}.cap")
        self.lam = cfg.get("lambda")
        if self.lam is not None:
            self.lam = _positive_int(self.lam, f"{where}.lambda")
        self.workers = _positive_int(cfg.get("workers", 1), f"{where}.workers")


# -- artifact writing -------------------------------------------------------


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header: list, rows, cfg: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} seed={cfg['seed']}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _write_report(args, cfg: dict, report: dict) -> None:
    _write_json(args.out, {
        "command": args.command,
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "config": cfg,
        "report": report,
    })


# -- commands ---------------------------------------------------------------


def _load_experiment(args):
    """The config (with ``--seed`` applied), its reference and its detector."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    reference = _ReferenceSection(cfg["reference"], cfg["seed"])
    return cfg, reference, _DetectorSection(cfg["detector"], reference, cfg["seed"])


def cmd_calibrate(args) -> int:
    cfg, _, det = _load_experiment(args)
    schedule = det.schedule()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(schedule.to_json({"config_hash": config_hash(cfg), "seed": cfg["seed"]}))
        fh.write("\n")
    print(f"wrote {schedule.kind} schedule (w={schedule.w}, alpha={schedule.alpha}) to {args.out}")
    return 0


def cmd_run(args) -> int:
    cfg, reference, det = _load_experiment(args)
    if args.stream_file is None:
        model = _parse_stream(cfg.get("stream"), det.summary)
        if model is None:
            raise ConfigError("run needs a stream section or --stream-file")
    else:
        stream = streams.load_stream_file(args.stream_file)
        try:
            evaluation.check_sample(stream[0], det.summary)
        except ValueError as exc:
            raise ConfigError(f"--stream-file {args.stream_file}: {exc}")
    schedule = det.schedule()
    ev = _EvaluationSection(cfg.get("evaluation"), schedule.alpha)
    cap = args.cap if args.cap is not None else ev.cap

    config = detector_mod.DetectorConfig(
        reference=reference.concrete(),
        schedule=schedule,
        window_size=det.window,
        statistic=det.statistic,
        summary=det.summary,
        kernel=det.kernel,
    )
    if args.stream_file is None:
        stream = streams.generate_stream(model, cap, cfg["seed"], stream_id=0)
    result = detector_mod.run(config, stream, cap, trace=args.trace is not None)

    _write_report(args, cfg, {
        "detection_time": result.detection_time,
        "run_length": result.run_length,
        "censored": result.censored,
        "cap": result.cap,
        "w": result.w,
    })
    if args.trace is not None:
        _write_csv(
            args.trace,
            ["t", "statistic", "threshold", "detected"],
            [(t, repr(s), repr(h), str(d).lower()) for t, s, h, d in result.trace],
            cfg,
        )
    outcome = (
        f"detection at t={result.detection_time}" if not result.censored else "censored"
    )
    print(f"run: {outcome} (cap={cap}); report written to {args.out}")
    return 0


def _monte_carlo(args, cfg, reference, det, estimate):
    """Resolve the schedule, the evaluation section and the reference, call
    ``estimate(schedule, ev, **kwargs)``, and write its report and runs CSV."""
    schedule = det.schedule()
    ev = _EvaluationSection(cfg.get("evaluation"), schedule.alpha)
    kwargs = dict(
        statistic=det.statistic,
        summary=det.summary,
        kernel=det.kernel,
        workers=args.workers if args.workers is not None else ev.workers,
    )
    if reference.redraw:
        kwargs.update(reference_spec=reference.spec, reference_size=reference.size)
    else:
        kwargs.update(reference=reference.concrete())
    report = estimate(schedule, ev, **kwargs)

    _write_report(args, cfg, report.to_dict())
    if args.runs_csv is not None:
        _write_csv(
            args.runs_csv,
            ["run_id", "T", "censored"],
            [(i, t, str(c).lower()) for i, t, c in report.runs],
            cfg,
        )
    return report


def cmd_arl(args) -> int:
    cfg, reference, det = _load_experiment(args)
    model = _parse_stream(cfg.get("stream"), det.summary)
    if model is None:
        raise ConfigError("arl needs a stream section (the null model)")
    if model.change_point != math.inf:
        raise ConfigError("arl measures false detections; stream.change_point must be null")
    report = _monte_carlo(
        args, cfg, reference, det,
        lambda schedule, ev, **kw: evaluation.estimate_arl0(
            schedule, model, ev.n_runs, ev.cap, cfg["seed"], lam=ev.lam, **kw
        ),
    )
    print(
        f"arl: mean_T={report.mean_T:.1f} slackness={report.slackness!r} "
        f"censored={report.censored_count}/{report.n_runs}; report written to {args.out}"
    )
    return 0


def cmd_delay(args) -> int:
    cfg, reference, det = _load_experiment(args)
    model = _parse_stream(cfg.get("stream"), det.summary)
    if model is None or model.change_point == math.inf:
        raise ConfigError("delay needs a stream section with a finite change_point")
    if isinstance(cfg.get("evaluation"), dict) and "lambda" in cfg["evaluation"]:
        raise ConfigError("evaluation.lambda: applies to arl only, not to delay")
    report = _monte_carlo(
        args, cfg, reference, det,
        lambda schedule, ev, **kw: evaluation.estimate_delay(
            schedule, model, ev.n_runs, ev.cap, cfg["seed"], **kw
        ),
    )
    delay = "n/a" if report.mean_delay is None else f"{report.mean_delay:.1f}"
    print(
        f"delay: mean_delay={delay} false_alarms={report.false_alarm_fraction:.3f}; "
        f"report written to {args.out}"
    )
    return 0


_APPENDIX_BASE_ALPHA = 0.001
_APPENDIX_BASE_RUNS = 250
_APPENDIX_W_GRID = (100, 200, 300, 400, 500)  # reference size fixed at 3000
_APPENDIX_N_GRID = (300, 1000, 3000, 10000, 30000)  # window fixed at 300


def cmd_reproduce_appendix(args) -> int:
    if args.scale <= 0:
        raise ConfigError("--scale must be positive")
    alpha = _APPENDIX_BASE_ALPHA / args.scale
    if not alpha < 1.0:
        raise ConfigError(f"--scale {args.scale} drives alpha to {alpha} >= 1")
    n_runs = max(4, round(_APPENDIX_BASE_RUNS * args.scale))
    cap = args.cap if args.cap is not None else int(round(100.0 / alpha))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta_cfg = {
        "seed": args.seed,
        "alpha": alpha,
        "n_runs": n_runs,
        "cap": cap,
        "scale": args.scale,
        "w_grid": list(_APPENDIX_W_GRID),
        "n_grid": list(_APPENDIX_N_GRID),
    }
    spec = DistributionSpec.gaussian(0.0, 1.0)
    sweeps = (
        ("fig1a", "window sizes (n=3000)", [(w, 3000) for w in _APPENDIX_W_GRID]),
        ("fig1b", "reference sizes (w=300)", [(300, n) for n in _APPENDIX_N_GRID]),
    )
    for sweep_id, (tag, label, points) in enumerate(sweeps, start=1):
        print(f"sweep over {label}, alpha={alpha}, {n_runs} runs each")
        rows = []
        for idx, (w, n) in enumerate(points):
            entropy = (args.seed, sweep_id, idx)
            report = evaluation.estimate_arl0(
                calibration.ks_asymptotic_threshold(n, w, alpha),
                streams.null_model(spec),
                n_runs,
                cap,
                int(np.random.SeedSequence(entropy=entropy).generate_state(1)[0]),
                statistic=KS,
                reference_spec=spec,
                reference_size=n,
                workers=args.workers,
            )
            rows.append(
                (w, n, alpha, repr(report.mean_T), repr(report.standard_error),
                 repr(report.slackness))
            )
            print(
                f"  {tag}: w={w} n={n} mean_T={report.mean_T:.1f} "
                f"slackness={report.slackness:.2f} censored={report.censored_count}"
            )
        _write_csv(
            out_dir / f"{tag}.csv",
            ["w", "n", "alpha", "mean_T", "se", "slackness"],
            rows, meta_cfg,
        )
    _write_json(out_dir / "meta.json", {"config_hash": config_hash(meta_cfg), **meta_cfg})
    print(f"wrote fig1a.csv, fig1b.csv, meta.json to {out_dir}")
    return 0


# -- entry point -------------------------------------------------------------


def _workers(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqshift",
        description="Sequential distribution-shift detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", required=True)
    experiment.add_argument("--out", required=True)
    experiment.add_argument("--seed", type=_seed, default=None, help="override the config seed")

    p = sub.add_parser(
        "calibrate", parents=[experiment], help="build and save a threshold schedule"
    )
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("run", parents=[experiment], help="run the detector once on a stream")
    p.add_argument("--stream-file", default=None, help="read the stream from a file")
    p.add_argument("--trace", default=None, help="write a per-step statistic trace CSV")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_run)

    for name, func, help_ in (
        ("arl", cmd_arl, "estimate the run length to false detection"),
        ("delay", cmd_delay, "estimate the detection delay after a change"),
    ):
        p = sub.add_parser(name, parents=[experiment], help=help_)
        p.add_argument("--runs-csv", default=None, help="write the per-run table")
        p.add_argument("--workers", type=_workers, default=None)
        p.set_defaults(func=func)

    p = sub.add_parser(
        "reproduce-appendix",
        help="slackness sweeps over window and reference sizes",
    )
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="cost scale: effective alpha = 0.001/scale and runs = 250*scale, "
        "so --scale 0.1 is a cheap CI version and --scale 1 the full job",
    )
    p.add_argument("--workers", type=_workers, default=1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--cap", type=int, default=None, help="censoring cap (default 100/alpha)")
    p.set_defaults(func=cmd_reproduce_appendix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

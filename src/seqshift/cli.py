"""Command-line front end: config checking, experiment orchestration,
artifact emission.

Configuration is JSON with a strict schema -- unknown keys are errors, not
warnings, because silently ignored settings are the main failure mode of
monitoring tools.  The schema is declared once, as one table per section
(one per variant where ``policy``, ``kind``, ``type`` or ``family`` changes
a section's shape), and ``load_config`` checks the whole config against it
before any work: before a file is read, a reference drawn, a bandwidth
estimated or a schedule built.  The section builders then check what
crosses sections (dimensions, the statistic's rules) before the first
costly step.  Every artifact embeds the config hash and seed, and
re-running with the same pair reproduces outputs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import calibration, evaluation, statistics, streams, summaries
from . import detector as detector_mod
from .batch import check_statistic
from .calibration import CalibrationTarget, ThresholdSchedule
from .statistics import KS, Kernel, ReferenceSet
from .streams import ChangePointModel, DistributionSpec


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# -- schema -----------------------------------------------------------------
#
# A table maps each key of a section to ``(check, default)``; a field
# written ``(check,)`` has no default and is required.  A check is a
# function ``(value, where)`` that raises ConfigError or returns the value,
# a nested table, or ``Variants``.


class Variants(NamedTuple):
    """A section whose ``key`` picks one of ``tables``; the table under
    ``None`` applies when the key is absent and it accepts every key given."""

    key: str
    tables: dict


def _integer(low: int):
    def check(value, where):
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            raise ConfigError(f"{where}: expected an integer >= {low}, got {value!r}")
        return value
    return check


def _typed(types, what: str):
    def check(value, where):
        # JSON true/false load as bool, an int subclass, but are not numbers
        if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
            raise ConfigError(f"{where}: expected {what}, got {value!r}")
        return value
    return check


_positive = _integer(1)
_number = _typed((int, float), "a number")
_string = _typed(str, "a string")
_boolean = _typed(bool, "true or false")


def _numbers(value, where):
    """A number or a nested array of numbers, as JSON writes them."""
    if isinstance(value, list):
        for item in value:
            _numbers(item, where)
        return value
    return _number(value, where)


def _probability(value, where):
    if not 0.0 < _number(value, where) < 1.0:
        raise ConfigError(f"{where}: expected a number strictly between 0 and 1, got {value!r}")
    return value


def _bandwidth(value, where):
    if value != "median" and not _number(value, where) > 0.0:
        raise ConfigError(f"{where}: expected a positive number or \"median\", got {value!r}")
    return value


_MOMENTS = {"means": (_numbers,), "variances": (_numbers,)}
DISTRIBUTIONS = {
    "gaussian": _MOMENTS,
    "uniform": _MOMENTS,
    "gaussian-mixture": {**_MOMENTS, "weights": (_numbers,)},
}
REFERENCES = {
    **{family: {**table, "size": (_integer(2),), "redraw_per_run": (_boolean, False)}
       for family, table in DISTRIBUTIONS.items()},
    None: {"path": (_string,)},
}
SUMMARIES = {
    "identity": {},
    "affine_projection": {"matrix": (_numbers,)},
    "model_output": {"model": (Variants("type", {
        "linear_softmax": {"weights": (_numbers,), "bias": (_numbers,)},
    }),)},
}
KERNELS = {"rbf": {"bandwidth": (_bandwidth,)}, "linear": {}, "constant": {}}
THRESHOLDS = {
    "fixed": {"value": (_number,), "alpha": (_probability, None)},
    "ks_asymptotic": {"alpha": (_probability,)},
    "permutation": {"alpha": (_probability,), "n_permutations": (_positive,)},
    "calibrated": {
        "alpha": (_probability,), "t_max": (_positive,), "n_streams": (_positive,),
        "min_survivors": (_positive, calibration.DEFAULT_MIN_SURVIVORS),
    },
    "schedule_file": {"path": (_string,)},
}
EVALUATION = {
    "n_runs": (_positive, 100), "cap": (_positive, None),
    "lambda": (_positive, None), "workers": (_positive, 1),
}


def _check(value, schema, where: str):
    """``value`` checked against ``schema``, with every default filled in."""
    if callable(schema):
        return schema(value, where)
    name = where or "config"
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected an object")
    if isinstance(schema, Variants):
        choice = value.get(schema.key)
        table = schema.tables.get(choice) if choice is None or isinstance(choice, str) else None
        if table is None or (choice is None and not set(value) <= set(table)):
            if choice is None:
                raise ConfigError(f"{name}: missing required keys {[schema.key]}")
            raise ConfigError(
                f"{name}: unknown {schema.key} {choice!r}; expected one of "
                f"{sorted(option for option in schema.tables if option is not None)}"
            )
        schema = table if choice is None else {schema.key: (_string,), **table}
    unknown = set(value) - set(schema)
    if unknown:
        raise ConfigError(
            f"{name}: unknown keys {sorted(unknown)}; allowed keys are {sorted(schema)}"
        )
    missing = {key for key, field in schema.items() if len(field) == 1} - set(value)
    if missing:
        raise ConfigError(f"{name}: missing required keys {sorted(missing)}")
    checked = {}
    for key, (check, *default) in schema.items():
        given = value.get(key)
        # null stands for "not given" where not giving a key means "none"
        if given is None and (key not in value or default == [None]):
            checked[key] = default[0]
        else:
            checked[key] = _check(given, check, f"{where}.{key}" if where else key)
    return checked


SCHEMA = {
    "seed": (_integer(0),),
    "reference": (Variants("family", REFERENCES),),
    "detector": ({
        "statistic": (_string,),
        "window": (_positive,),
        "summary": (Variants("kind", SUMMARIES), None),
        "kernel": (Variants("kind", KERNELS), None),
        "threshold": (Variants("policy", THRESHOLDS),),
    },),
    "stream": ({
        "pre": (Variants("family", DISTRIBUTIONS),),
        "post": (Variants("family", DISTRIBUTIONS), None),
        "change_point": (_positive, None),  # null: the stream never changes
    }, None),
    "evaluation": (EVALUATION, _check({}, EVALUATION, "evaluation")),
}


def load_config(path) -> tuple[dict, dict]:
    """The config as written, and as checked against ``SCHEMA`` with every
    default filled in; the first goes into hashes and artifacts unchanged."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}")
    return cfg, _check(cfg, SCHEMA, "")


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# -- builders: checked values to library objects ---------------------------


def _distribution(cfg: dict, where: str) -> DistributionSpec:
    try:
        return DistributionSpec(
            cfg["family"], cfg["means"], cfg["variances"], cfg.get("weights", 1.0)
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


def _summary(cfg: dict | None, ref_dim: int) -> summaries.SummaryStatistic:
    if cfg is None or cfg["kind"] == "identity":
        return summaries.identity(ref_dim)
    field = "matrix" if cfg["kind"] == "affine_projection" else "model"
    try:  # ragged or wrongly shaped arrays
        if field == "matrix":
            matrix = np.asarray(cfg["matrix"], dtype=np.float64)
            if matrix.ndim != 2:
                raise ValueError("expected a 2-d array")
            return summaries.SummaryStatistic(
                kind="affine_projection", out_dim=matrix.shape[0], projection=matrix
            )
        model = summaries.LinearSoftmaxModel(cfg["model"]["weights"], cfg["model"]["bias"])
        return summaries.SummaryStatistic(
            kind="model_output", out_dim=model.n_classes, model=model
        )
    except ValueError as exc:
        raise ConfigError(f"detector.summary.{field}: {exc}")


def _stream(cfg: dict | None, summary: summaries.SummaryStatistic) -> ChangePointModel | None:
    """The stream model, checked against the detector's ``summary``."""
    if cfg is None:
        return None
    pre = _distribution(cfg["pre"], "stream.pre")
    post = pre if cfg["post"] is None else _distribution(cfg["post"], "stream.post")
    cp = math.inf if cfg["change_point"] is None else cfg["change_point"]
    try:
        model = ChangePointModel(pre=pre, post=post, change_point=cp)
        evaluation.check_stream(model, summary)
    except ValueError as exc:
        raise ConfigError(f"stream: {exc}")
    return model


class _Experiment:
    """A checked config turned into library objects.

    Building one runs every check that crosses sections (dimensions, the
    statistic's rules, the stream against the summary); what costs --
    drawing the reference, the median bandwidth, the schedule -- waits for
    first use, after all of them.
    """

    def __init__(self, args):
        self.cfg, checked = load_config(args.config)
        if args.seed is not None:
            self.cfg = {**self.cfg, "seed": args.seed}
        self.seed = self.cfg["seed"]
        ref, det = checked["reference"], checked["detector"]
        if "path" in ref:
            self._reference = ReferenceSet(streams.load_stream_file(ref["path"]))
            self.spec, self.size, self.redraw = None, self._reference.n, False
            dim = self._reference.dim
        else:
            self._reference = None
            self.spec = _distribution(ref, "reference")
            self.size, self.redraw = ref["size"], ref["redraw_per_run"]
            dim = self.spec.dim
        self.statistic, self.window = det["statistic"], det["window"]
        self.summary = _summary(det["summary"], dim)
        self.threshold, self._kernel_cfg = det["threshold"], det["kernel"]
        try:
            # the rules ask only whether there is a kernel, so a median
            # bandwidth waits until they hold
            check_statistic(self.statistic, self.summary.out_dim, self.window, self._kernel_cfg)
        except ValueError as exc:
            raise ConfigError(f"detector: {exc}")
        if self.summary.out_dim != dim:
            raise ConfigError(
                f"detector: summary out_dim {self.summary.out_dim} does not match "
                f"reference dimension {dim}"
            )
        if self.threshold["policy"] == "ks_asymptotic" and self.statistic != KS:
            raise ConfigError(
                "detector.threshold: ks_asymptotic thresholds apply to the ks statistic"
            )
        self.model = _stream(checked["stream"], self.summary)
        self.evaluation = checked["evaluation"]

    def reference(self) -> ReferenceSet:
        """The fixed reference (drawing it once if synthetic)."""
        if self.redraw:
            raise ConfigError(
                "this command needs one concrete reference; set "
                "reference.redraw_per_run to false"
            )
        if self._reference is None:
            self._reference = ReferenceSet(
                streams.draw_reference(self.spec, self.size, self.seed, 0)
            )
        return self._reference

    @cached_property
    def kernel(self) -> Kernel | None:
        cfg = self._kernel_cfg
        if cfg is None:
            return None
        bandwidth = cfg.get("bandwidth")
        try:
            if bandwidth == "median":
                bandwidth = statistics.median_heuristic(self.reference())
            return Kernel(kind=cfg["kind"], bandwidth=bandwidth)
        except ValueError as exc:  # no concrete reference, or no usable median
            raise ConfigError(f"detector.kernel: {exc}")

    def schedule(self) -> ThresholdSchedule:
        cfg = self.threshold
        policy = cfg["policy"]
        try:
            if policy == "fixed":
                return calibration.fixed_threshold(cfg["value"], self.window, cfg["alpha"])
            if policy == "ks_asymptotic":
                return calibration.ks_asymptotic_threshold(self.size, self.window, cfg["alpha"])
            if policy == "permutation":
                return calibration.permutation_threshold(
                    self.reference(),
                    self.window,
                    cfg["alpha"],
                    cfg["n_permutations"],
                    statistic=self.statistic,
                    kernel=self.kernel,
                    master_seed=self.seed,
                )
            if policy == "calibrated":
                return calibration.calibrate_schedule(
                    self.reference(),
                    self.window,
                    CalibrationTarget(alpha=cfg["alpha"]),
                    t_max=cfg["t_max"],
                    n_streams=cfg["n_streams"],
                    statistic=self.statistic,
                    kernel=self.kernel,
                    master_seed=self.seed,
                    min_survivors=cfg["min_survivors"],
                )
            with open(cfg["path"], "r", encoding="utf-8") as fh:
                schedule = ThresholdSchedule.from_json(fh.read())
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"detector.threshold: {exc}")
        if schedule.w != self.window:
            raise ConfigError(
                f"detector.threshold: schedule file was built for w={schedule.w}, "
                f"config window is {self.window}"
            )
        return schedule

    def cap(self, alpha: float | None) -> int:
        """``evaluation.cap``, or 100/alpha when it is not given."""
        if self.evaluation["cap"] is not None:
            return self.evaluation["cap"]
        if alpha is None:
            raise ConfigError("evaluation.cap: required when the threshold policy has no alpha")
        return _positive(int(round(100.0 / alpha)), "evaluation.cap")


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


def cmd_calibrate(args) -> int:
    exp = _Experiment(args)
    schedule = exp.schedule()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(schedule.to_json({"config_hash": config_hash(exp.cfg), "seed": exp.seed}))
        fh.write("\n")
    print(f"wrote {schedule.kind} schedule (w={schedule.w}, alpha={schedule.alpha}) to {args.out}")
    return 0


def cmd_run(args) -> int:
    exp = _Experiment(args)
    if args.stream_file is None:
        if exp.model is None:
            raise ConfigError("run needs a stream section or --stream-file")
    else:
        stream = streams.load_stream_file(args.stream_file)
        try:
            evaluation.check_sample(stream[0], exp.summary)
        except ValueError as exc:
            raise ConfigError(f"--stream-file {args.stream_file}: {exc}")
    schedule = exp.schedule()
    cap = args.cap if args.cap is not None else exp.cap(schedule.alpha)

    config = detector_mod.DetectorConfig(
        reference=exp.reference(),
        schedule=schedule,
        window_size=exp.window,
        statistic=exp.statistic,
        summary=exp.summary,
        kernel=exp.kernel,
    )
    if args.stream_file is None:
        stream = streams.generate_stream(exp.model, cap, exp.seed, stream_id=0)
    result = detector_mod.run(config, stream, cap, trace=args.trace is not None)

    _write_report(args, exp.cfg, {
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
            exp.cfg,
        )
    outcome = (
        f"detection at t={result.detection_time}" if not result.censored else "censored"
    )
    print(f"run: {outcome} (cap={cap}); report written to {args.out}")
    return 0


def _monte_carlo(args, exp: _Experiment, estimate, **kwargs):
    """Call ``estimate`` (``estimate_arl0`` or ``estimate_delay``) on the
    experiment, and write its report and runs CSV."""
    schedule = exp.schedule()
    cap = exp.cap(schedule.alpha)
    if exp.redraw:
        kwargs.update(reference_spec=exp.spec, reference_size=exp.size)
    else:
        kwargs.update(reference=exp.reference())
    report = estimate(
        schedule, exp.model, exp.evaluation["n_runs"], cap, exp.seed,
        statistic=exp.statistic,
        summary=exp.summary,
        kernel=exp.kernel,
        workers=args.workers if args.workers is not None else exp.evaluation["workers"],
        **kwargs,
    )

    _write_report(args, exp.cfg, report.to_dict())
    if args.runs_csv is not None:
        _write_csv(
            args.runs_csv,
            ["run_id", "T", "censored"],
            [(i, t, str(c).lower()) for i, t, c in report.runs],
            exp.cfg,
        )
    return report


def cmd_arl(args) -> int:
    exp = _Experiment(args)
    if exp.model is None:
        raise ConfigError("arl needs a stream section (the null model)")
    if exp.model.change_point != math.inf:
        raise ConfigError("arl measures false detections; stream.change_point must be null")
    report = _monte_carlo(args, exp, evaluation.estimate_arl0, lam=exp.evaluation["lambda"])
    print(
        f"arl: mean_T={report.mean_T:.1f} slackness={report.slackness!r} "
        f"censored={report.censored_count}/{report.n_runs}; report written to {args.out}"
    )
    return 0


def cmd_delay(args) -> int:
    exp = _Experiment(args)
    if exp.model is None or exp.model.change_point == math.inf:
        raise ConfigError("delay needs a stream section with a finite change_point")
    if exp.evaluation["lambda"] is not None:
        raise ConfigError("evaluation.lambda: applies to arl only, not to delay")
    report = _monte_carlo(args, exp, evaluation.estimate_delay)
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
    if not 0.0 < args.scale < math.inf:
        raise ConfigError(f"--scale must be a positive finite number, got {args.scale}")
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


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqshift",
        description="Sequential distribution-shift detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", required=True)
    experiment.add_argument("--out", required=True)
    experiment.add_argument(
        "--seed", type=_at_least(0), default=None, help="override the config seed"
    )

    p = sub.add_parser(
        "calibrate", parents=[experiment], help="build and save a threshold schedule"
    )
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("run", parents=[experiment], help="run the detector once on a stream")
    p.add_argument("--stream-file", default=None, help="read the stream from a file")
    p.add_argument("--trace", default=None, help="write a per-step statistic trace CSV")
    p.add_argument("--cap", type=_at_least(1), default=None)
    p.set_defaults(func=cmd_run)

    for name, func, help_ in (
        ("arl", cmd_arl, "estimate the run length to false detection"),
        ("delay", cmd_delay, "estimate the detection delay after a change"),
    ):
        p = sub.add_parser(name, parents=[experiment], help=help_)
        p.add_argument("--runs-csv", default=None, help="write the per-run table")
        p.add_argument("--workers", type=_at_least(1), default=None)
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
    p.add_argument("--workers", type=_at_least(1), default=1)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument(
        "--cap", type=_at_least(1), default=None, help="censoring cap (default 100/alpha)"
    )
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

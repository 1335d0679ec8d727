"""The three benchmark workloads: inputs, phases and output checks.

Every phase calls the library entry point the matching CLI command calls
(``calibrate_schedule`` / ``permutation_threshold`` /
``ks_asymptotic_threshold``, ``estimate_arl0`` / ``estimate_delay``,
``Detector.step``).  All load is closed-loop from one caller and Monte
Carlo runs use ``workers=1``.  Inputs are pure functions of the seed.

Library modules are looked up as module attributes at call time so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from seqshift import calibration, evaluation, statistics, streams, summaries
from seqshift.batch import make_batch_engine, sliding_ks_stats, sliding_mean_diff_stats
from seqshift.calibration import CalibrationTarget, fixed_threshold
from seqshift.detector import Detector, DetectorConfig
from seqshift.statistics import KS, MEAN_DIFF, MMD, Kernel, ReferenceSet, SlidingWindow
from seqshift.streams import ChangePointModel, DistributionSpec, null_model

# Stream ids above any Monte Carlo run id, so checks and the monitor never
# replay a stream a timed phase already consumed.
MONITOR_STREAM = 1_000_000
PATH_STREAM = 1_000_001
PATH_STEPS = 2000
INVARIANCE_RUNS = 20
INVARIANCE_WORKERS = 2
MONITOR_SAMPLES = 120
BAND = 0.2  # acceptance criterion 3: mean_T within +/-20% of 1/alpha


def within_contract(got: float, want: float) -> bool:
    """The statistics module's agreement contract: 1e-9 relative (1e-12 floor)."""
    return abs(got - want) <= max(1e-9 * abs(want), 1e-12)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(report) -> str:
    return sha256(json.dumps(report.to_dict(), sort_keys=True))


def consumed(report, w: int, cap: int):
    """(observations, test steps) a report's runs consumed.

    An observation counts up to the detection step, or up to the cap for a
    censored run; test steps are the observations from step w on.
    """
    obs = 0
    for _, t, censored in report.runs:
        if isinstance(report, evaluation.RunLengthReport):
            obs += t + w - 1  # t counts tests; censored runs sit at the cap
        else:
            obs += cap if censored else t
    return obs, obs - len(report.runs) * (w - 1)


def recompute(statistic, reference, values, kernel):
    """The plain statistic on an uncached window holding ``values``."""
    window = SlidingWindow(capacity=values.shape[0], dim=values.shape[1])
    for v in values:
        window.push(v)
    if statistic == KS:
        return statistics.ks_distance(reference, window)
    if statistic == MEAN_DIFF:
        return statistics.mean_difference(reference, window)
    return statistics.mmd2_u(reference, window, kernel)


class Workload:
    """Shared shape: setup -> prepare -> passes of calibrate, mc, monitor."""

    name = ""
    monitor_steps = 0

    def __init__(self, seed: int):
        self.seed = seed

    # -- phases -------------------------------------------------------------

    def setup(self):
        """Build the reference and everything it caches (timed as setup_s)."""
        raise NotImplementedError

    def prepare(self):
        self.monitor_xs = list(
            streams.generate_stream(self.stream_model, self.monitor_steps, self.seed, MONITOR_STREAM)
        )

    def calibrate(self) -> dict:
        raise NotImplementedError

    def mc_calls(self, schedules):
        """[(label, function, schedule, kwargs)] for the Monte Carlo phase."""
        raise NotImplementedError

    def monitor_config(self, schedules) -> DetectorConfig:
        raise NotImplementedError

    # -- checks -------------------------------------------------------------

    def path_statistics(self):
        raise NotImplementedError

    def invariance_call(self, schedules):
        label, fn, schedule, kwargs = self.mc_calls(schedules)[0]
        return fn, schedule, kwargs

    def check_reports(self, checks, schedules, reports, info):
        raise NotImplementedError

    def path_mismatch(self, checks, statistic):
        """Push one stream through the detector, a 1-row engine and the
        sliding fast path; return the largest absolute difference."""
        w = self.w
        kernel = self.kernel if statistic == MMD else None
        raw = streams.generate_stream(self.stream_model, PATH_STEPS, self.seed, PATH_STREAM)
        det = Detector(DetectorConfig(
            reference=self.reference, schedule=fixed_threshold(math.inf, w), window_size=w,
            statistic=statistic, summary=self.summary, kernel=kernel,
        ))
        det_vals = []
        for x in raw:
            det.step(x)
            if det.t >= w:
                det_vals.append(det.last_statistic)
        s = np.array([summaries.apply_summary(det.config.summary, x) for x in raw])
        engine = make_batch_engine(statistic, self.reference, w, 1, kernel)
        row = np.array([0])
        eng_vals = []
        for t in range(s.shape[0]):
            if t < w - 1:
                engine.push_column(s[t : t + 1], None)
            else:
                engine.push_column(s[t : t + 1], row)
                eng_vals.append(float(engine.statistics(row)[0]))
        paths = {"detector": np.array(det_vals), "engine": np.array(eng_vals)}
        if statistic == KS:
            paths["sliding"] = sliding_ks_stats(s[:, 0], self.reference, w)
        elif statistic == MEAN_DIFF:
            paths["sliding"] = sliding_mean_diff_stats(s[:, 0], self.reference, w)
        names = sorted(paths)
        worst = 0.0
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                diff = np.abs(paths[a] - paths[b])
                worst = max(worst, float(diff.max()))
                ok = all(within_contract(x, y) for x, y in zip(paths[a], paths[b]))
                checks.add(f"path agreement {statistic} {a}/{b}", ok,
                           f"max |diff| {float(diff.max()):.3g}")
        return worst

    def check_band(self, checks, label, report, alpha):
        ratio = report.mean_T * alpha
        checks.add(f"mean_T band {label}", abs(ratio - 1.0) <= BAND,
                   f"mean_T*alpha = {ratio:.4f} over {report.n_runs} runs")
        return ratio


class KsCalibrated(Workload):
    """1-d Gaussian reference, simulation-calibrated KS schedule."""

    name = "ks-calibrated"
    n = 3000
    w = 100
    alpha = 0.01
    t_max = 300
    n_streams = 6000
    mc_runs = 1000
    mc_cap = 5000
    monitor_steps = 12_000

    def setup(self):
        self.dist = DistributionSpec.gaussian(0.0, 1.0)
        self.stream_model = null_model(self.dist)
        self.reference = ReferenceSet(streams.draw_reference(self.dist, self.n, self.seed))
        self.summary = None
        self.kernel = None

    def calibrate(self):
        return {"ks_calibrated": calibration.calibrate_schedule(
            self.reference, w=self.w, target=CalibrationTarget(alpha=self.alpha),
            t_max=self.t_max, n_streams=self.n_streams, master_seed=self.seed,
        )}

    def mc_calls(self, schedules):
        return [("arl0", evaluation.estimate_arl0, schedules["ks_calibrated"], dict(
            null_model=self.stream_model, n_runs=self.mc_runs, cap=self.mc_cap,
            master_seed=self.seed, reference=self.reference,
        ))]

    def monitor_config(self, schedules):
        return DetectorConfig(self.reference, fixed_threshold(math.inf, self.w), self.w, KS)

    def path_statistics(self):
        return (KS, MEAN_DIFF)

    def check_reports(self, checks, schedules, reports, info):
        info["mean_T_alpha"] = self.check_band(checks, "arl0", reports["arl0"], self.alpha)


class MmdProjected(Workload):
    """8-d raw stream projected onto 4 orthonormal rows, RBF-kernel MMD."""

    name = "mmd-projected"
    raw_dim = 8
    dim = 4
    n = 1000
    w = 50
    alpha = 0.02
    t_max = 150
    n_streams = 2400
    mc_runs = 100
    mc_cap = 50 - 1 + 1000
    monitor_steps = 6000
    band_runs = 1000

    def setup(self):
        q, _ = np.linalg.qr(np.random.default_rng(self.seed).standard_normal((self.raw_dim, self.dim)))
        self.summary = summaries.SummaryStatistic(
            kind="affine_projection", out_dim=self.dim, projection=q.T
        )
        self.stream_model = null_model(
            DistributionSpec.gaussian(np.zeros(self.raw_dim), np.ones(self.raw_dim))
        )
        ref_dist = DistributionSpec.gaussian(np.zeros(self.dim), np.ones(self.dim))
        self.reference = ReferenceSet(streams.draw_reference(ref_dist, self.n, self.seed))
        self.kernel = Kernel("rbf", statistics.median_heuristic(self.reference))
        self.reference.kernel_self_sum(self.kernel)

    def calibrate(self):
        return {"mmd_calibrated": calibration.calibrate_schedule(
            self.reference, w=self.w, target=CalibrationTarget(alpha=self.alpha),
            t_max=self.t_max, n_streams=self.n_streams, statistic=MMD,
            kernel=self.kernel, master_seed=self.seed,
        )}

    def _arl_kwargs(self, model, n_runs):
        return dict(
            null_model=model, n_runs=n_runs, cap=self.mc_cap, master_seed=self.seed,
            statistic=MMD, summary=self.summary, kernel=self.kernel, reference=self.reference,
        )

    def mc_calls(self, schedules):
        return [("arl0", evaluation.estimate_arl0, schedules["mmd_calibrated"],
                 self._arl_kwargs(self.stream_model, self.mc_runs))]

    def monitor_config(self, schedules):
        return DetectorConfig(
            self.reference, fixed_threshold(math.inf, self.w), self.w, MMD,
            summary=self.summary, kernel=self.kernel,
        )

    def path_statistics(self):
        return (MMD,)

    def check_reports(self, checks, schedules, reports, info):
        # The calibration bootstraps from the reference, so its promise is a
        # Geometric(alpha) run length on streams resampled from the
        # reference.  Those streams are a near-point-mass mixture at the
        # reference points, lifted to raw space (P has orthonormal rows, so
        # P @ (P.T @ r) = r).  Fresh streams carry the finite-reference gap
        # on top; their ratio is reported, not checked (see perfbench/README.md).
        proj = self.summary.projection
        resampled = DistributionSpec.gaussian_mixture(
            self.reference.values @ proj,
            np.full((self.n, self.raw_dim), 1e-20),
            np.full(self.n, 1.0 / self.n),
        )
        # untimed, so it may use both cores; worker invariance is checked apart
        report = evaluation.estimate_arl0(
            schedules["mmd_calibrated"], **self._arl_kwargs(null_model(resampled), self.band_runs),
            workers=INVARIANCE_WORKERS,
        )
        info["resampled_mean_T_alpha"] = self.check_band(checks, "arl0 resampled", report, self.alpha)
        info["fresh_mean_T_alpha"] = reports["arl0"].mean_T * self.alpha


class FixedLong(Workload):
    """Fixed thresholds and long runs: fast path, per-run references."""

    name = "fixed-long"
    n = 3000
    w = 100
    redraw_n = 10_000
    redraw_w = 300
    redraw_alpha = 0.01
    redraw_runs = 40
    redraw_cap = 1500
    perm_alpha = 0.001
    n_perm = 10_000
    perm_runs = 20
    perm_cap = 3000
    delay_w = 200
    delay_alpha = 0.001
    delay_runs = 60
    delay_cap = 4000
    change_point = 2000
    shift = 0.3
    monitor_steps = 20_000

    def setup(self):
        self.dist = DistributionSpec.gaussian(0.0, 1.0)
        self.stream_model = null_model(self.dist)
        self.delay_model = ChangePointModel(
            self.dist, DistributionSpec.gaussian(self.shift, 1.0), self.change_point
        )
        self.reference = ReferenceSet(streams.draw_reference(self.dist, self.n, self.seed))
        self.summary = None
        self.kernel = None

    def calibrate(self):
        return {
            "ks_redraw": calibration.ks_asymptotic_threshold(self.redraw_n, self.redraw_w, self.redraw_alpha),
            "ks_delay": calibration.ks_asymptotic_threshold(self.n, self.delay_w, self.delay_alpha),
            "mean_diff_perm": calibration.permutation_threshold(
                self.reference, self.w, self.perm_alpha, self.n_perm,
                statistic=MEAN_DIFF, master_seed=self.seed,
            ),
        }

    def mc_calls(self, schedules):
        return [
            ("delay", evaluation.estimate_delay, schedules["ks_delay"], dict(
                model=self.delay_model, n_runs=self.delay_runs, cap=self.delay_cap,
                master_seed=self.seed, reference=self.reference,
            )),
            ("arl0_redraw", evaluation.estimate_arl0, schedules["ks_redraw"], dict(
                null_model=self.stream_model, n_runs=self.redraw_runs, cap=self.redraw_cap,
                master_seed=self.seed, reference_spec=self.dist, reference_size=self.redraw_n,
            )),
            ("arl0_perm", evaluation.estimate_arl0, schedules["mean_diff_perm"], dict(
                null_model=self.stream_model, n_runs=self.perm_runs, cap=self.perm_cap,
                master_seed=self.seed, statistic=MEAN_DIFF, reference=self.reference,
            )),
        ]

    def monitor_config(self, schedules):
        return DetectorConfig(self.reference, fixed_threshold(math.inf, self.w), self.w, MEAN_DIFF)

    def path_statistics(self):
        return (KS, MEAN_DIFF)

    def check_reports(self, checks, schedules, reports, info):
        arl = reports["arl0_redraw"]
        checks.add("fixed KS mean_T >= 1/alpha", arl.mean_T >= 1.0 / self.redraw_alpha,
                   f"mean_T {arl.mean_T:.1f}, censored {arl.censored_count}/{arl.n_runs}")
        delay = reports["delay"]
        checks.add("delay runs mostly detect after tau", 2 * delay.detected_after_change > delay.n_runs,
                   f"{delay.detected_after_change}/{delay.n_runs} after tau, "
                   f"false alarms {delay.false_alarm_fraction:.3f}")
        info["slackness_redraw"] = arl.mean_T * self.redraw_alpha
        info["delay_false_alarm_fraction"] = delay.false_alarm_fraction


WORKLOADS = {cls.name: cls for cls in (KsCalibrated, MmdProjected, FixedLong)}

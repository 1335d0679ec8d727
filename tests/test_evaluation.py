import functools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats as sps

from seqshift import (
    CalibrationTarget,
    ChangePointModel,
    DetectorConfig,
    DistributionSpec,
    Kernel,
    LinearSoftmaxModel,
    ReferenceSet,
    calibrate_schedule,
    draw_reference,
    estimate_arl0,
    estimate_delay,
    fixed_threshold,
    generate_stream,
    geometric_gof_pvalue,
    ks_asymptotic_threshold,
    null_model,
)
from seqshift import evaluation
from seqshift import run as run_detector
from seqshift.evaluation import _lockstep_detection_times
from seqshift.summaries import SummaryStatistic, identity, squared_error_loss


class TestEstimateArl0:
    def test_rejects_changing_model(self, std_normal, shifted_normal, small_reference):
        model = ChangePointModel(std_normal, shifted_normal, 50)
        with pytest.raises(ValueError, match="never-changing"):
            estimate_arl0(
                fixed_threshold(0.5, w=5), model, 10, 100, 0, reference=small_reference
            )

    def test_unreachable_threshold_all_censored(self, std_normal, small_reference):
        report = estimate_arl0(
            fixed_threshold(math.inf, w=5), null_model(std_normal),
            n_runs=20, cap=60, master_seed=3, reference=small_reference,
        )
        assert report.censored_count == 20
        assert report.mean_T == 60 - 5 + 1
        assert all(censored for _, _, censored in report.runs)

    def test_always_fired_threshold(self, std_normal, small_reference):
        report = estimate_arl0(
            fixed_threshold(-1.0, w=5), null_model(std_normal),
            n_runs=25, cap=60, master_seed=3, reference=small_reference,
        )
        assert report.censored_count == 0
        assert report.mean_T == 1.0
        assert report.median_T == 1.0

    def test_stepped_runs_share_one_detector_config(self, std_normal, monkeypatch):
        """The experiment's config is validated once, not once per run."""
        checks = []
        post_init = DetectorConfig.__post_init__

        def counted(config):
            checks.append(config)
            post_init(config)

        monkeypatch.setattr(DetectorConfig, "__post_init__", counted)
        report = estimate_arl0(
            fixed_threshold(0.2, w=10), null_model(std_normal), n_runs=5, cap=60,
            master_seed=3, statistic="mmd", kernel=Kernel("rbf", 1.0),
            reference=ReferenceSet(draw_reference(std_normal, 50, master_seed=4)),
        )
        assert len(report.runs) == 5
        assert len(checks) == 1

    def test_ks_searches_only_live_runs(self, std_normal, small_reference, monkeypatch):
        """A run's values are searched in the reference once per step it
        consumes: rows of runs that have fired are skipped."""
        searched = []
        cdf_counts = ReferenceSet.cdf_counts

        def counted(reference, values):
            searched.append(len(values))
            return cdf_counts(reference, values)

        monkeypatch.setattr(ReferenceSet, "cdf_counts", counted)
        w = 10
        report = estimate_arl0(
            fixed_threshold(0.5, w=w), null_model(std_normal), n_runs=20, cap=300,
            master_seed=3, reference=small_reference,
        )
        assert 0 < report.censored_count < 20
        assert sum(searched) == sum(t + w - 1 for _, t, _ in report.runs)

    def test_reference_modes_are_exclusive(self, std_normal, small_reference):
        with pytest.raises(ValueError, match="exactly one"):
            estimate_arl0(
                fixed_threshold(0.5, w=5), null_model(std_normal), 5, 50, 0,
                reference=small_reference, reference_spec=std_normal, reference_size=100,
            )
        with pytest.raises(ValueError, match="exactly one"):
            estimate_arl0(fixed_threshold(0.5, w=5), null_model(std_normal), 5, 50, 0)

    def test_redraw_requires_fixed_schedule(self, std_normal):
        sched = calibrate_schedule(
            ReferenceSet(draw_reference(std_normal, 200, master_seed=1)),
            w=10, target=CalibrationTarget(alpha=0.1), t_max=20, n_streams=500,
            master_seed=2, min_survivors=50,
        )
        with pytest.raises(ValueError, match="redraw"):
            estimate_arl0(
                sched, null_model(std_normal), 5, 50, 0,
                reference_spec=std_normal, reference_size=100,
            )

    @pytest.mark.parametrize(
        "estimate, change_point", [(estimate_arl0, math.inf), (estimate_delay, 20)]
    )
    def test_label_summaries_rejected(self, estimate, change_point, small_reference):
        # a 2-d sample must not be unpacked into a feature and a fake label
        pair = DistributionSpec.gaussian([0.0, 0.0], [1.0, 1.0])
        summary = SummaryStatistic(
            kind="model_loss", out_dim=1, model=lambda x: 0.0, loss=squared_error_loss
        )
        with pytest.raises(ValueError, match="labels"):
            estimate(
                fixed_threshold(0.5, w=5), ChangePointModel(pair, pair, change_point),
                3, 50, 0,
                summary=summary, reference=small_reference,
            )

    @pytest.mark.parametrize(
        "estimate, change_point", [(estimate_arl0, math.inf), (estimate_delay, 20)]
    )
    @pytest.mark.parametrize(
        "name, value",
        [("n_runs", 5.0), ("n_runs", True), ("cap", 100.5), ("cap", 100.0),
         ("workers", 2.0), ("workers", True)],
    )
    def test_counts_must_be_integers(
        self, estimate, change_point, name, value, std_normal, shifted_normal, small_reference
    ):
        counts = dict(n_runs=3, cap=100, workers=1)
        counts[name] = value
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            estimate(
                fixed_threshold(0.5, w=5),
                ChangePointModel(std_normal, shifted_normal, change_point),
                master_seed=0, reference=small_reference, **counts,
            )

    @pytest.mark.parametrize(
        "estimate, change_point, name, value",
        [(estimate, cp, name, value)
         for estimate, cp in ((estimate_arl0, math.inf), (estimate_delay, 20))
         for name, value in (("workers", 0), ("workers", -1), ("reference_size", 300.5))]
        + [(estimate_arl0, math.inf, "lam", 2.5), (estimate_arl0, math.inf, "lam", 0)],
    )
    def test_arguments_are_named_when_refused(
        self, estimate, change_point, name, value, std_normal, shifted_normal
    ):
        args = dict(n_runs=3, cap=100, workers=1, reference_spec=std_normal, reference_size=300)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be "):
            estimate(
                fixed_threshold(0.5, w=5),
                ChangePointModel(std_normal, shifted_normal, change_point),
                master_seed=0, **args,
            )

    @pytest.mark.parametrize("statistic, h", [("ks", 0.3), ("mean_diff", 0.4)])
    def test_a_lone_run_is_a_sliding_scan(
        self, statistic, h, std_normal, small_reference, monkeypatch
    ):
        """A lone ks / mean_diff run on a shared reference takes the scan,
        looked up in the module's globals, and detects when a detector does."""
        scan = f"sliding_{statistic}_stats"
        calls = []
        original = getattr(evaluation, scan)
        monkeypatch.setattr(evaluation, scan, lambda *args: calls.append(1) or original(*args))
        schedule = fixed_threshold(h, w=20)
        model = ChangePointModel(std_normal, DistributionSpec.gaussian(0.8, 1.0), 300)
        config = DetectorConfig(small_reference, schedule, 20, statistic)
        for seed in range(4):
            report = estimate_delay(
                schedule, model, n_runs=1, cap=2000, master_seed=seed,
                statistic=statistic, reference=small_reference,
            )
            result = run_detector(config, generate_stream(model, 2000, seed), cap=2000)
            assert report.runs[0][1] == (-1 if result.censored else result.detection_time)
        assert len(calls) >= 4

    def test_lambda_probability(self, std_normal, small_reference):
        report = estimate_arl0(
            fixed_threshold(-1.0, w=5), null_model(std_normal),
            n_runs=10, cap=50, master_seed=1, reference=small_reference, lam=1,
        )
        assert report.p_leq_lambda == 1.0

    def test_slackness_matches_op(self, std_normal, small_reference):
        sched = ks_asymptotic_threshold(small_reference.n, 20, 0.05)
        report = estimate_arl0(
            sched, null_model(std_normal), n_runs=40, cap=2000,
            master_seed=11, reference=small_reference,
        )
        assert report.slackness == pytest.approx(0.05 * report.mean_T)

    def test_stream_must_fit_summary(self, small_reference):
        plane = DistributionSpec.gaussian([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="2-d stream samples do not fit the summary"):
            estimate_arl0(
                fixed_threshold(0.5, w=5), null_model(plane), 3, 50, 0,
                reference=small_reference,
            )
        # a 2-d identity summary fits the stream but not the 1-d reference
        with pytest.raises(ValueError, match="summary out_dim 2 != reference dimension 1"):
            estimate_arl0(
                fixed_threshold(0.5, w=5), null_model(plane), 3, 50, 0,
                summary=identity(2), reference=small_reference,
            )

    PLANE = DistributionSpec.gaussian([0.0, 0.0], [1.0, 1.0])

    def test_fast_and_stepped_paths_agree(self):
        """Every estimate_* run table equals detector.run on the same streams,
        for ks, mean_diff and mmd (rbf and linear kernels), identity,
        affine-projected and model_output summaries, a shared and a redrawn
        reference, change points inside and after the first 128-step stream
        block, and one and three workers over seven runs (uneven shards)."""
        seed, n_runs, cap = 77, 7, 400
        scalar_model = functools.partial(np.dot, [0.6, 0.8])  # picklable, for workers
        softmax = LinearSoftmaxModel([[1.0, -0.5, 0.2], [0.3, 0.4, -1.0]], [0.1, -0.1])
        cases = [  # statistic, window, threshold, kernel, in_dim, summary, reference spec
            (statistic, w, h, None, in_dim, summary, DistributionSpec.gaussian(0.0, 1.0))
            for statistic, w, h in (("ks", 20, 0.4), ("mean_diff", 20, 0.5))
            for in_dim, summary in (
                (1, None),
                (2, SummaryStatistic(
                    kind="affine_projection", out_dim=1, projection=np.array([[0.6, 0.8]])
                )),
                (2, SummaryStatistic(kind="model_output", out_dim=1, model=scalar_model)),
            )
        ] + [
            ("mmd", 10, 0.2, Kernel("rbf", 1.0), 2, None, self.PLANE),
            ("mmd", 10, 0.2, Kernel("rbf", 1.0), 3, SummaryStatistic(
                kind="affine_projection", out_dim=2,
                projection=np.array([[1.0, 0.5, 0.0], [0.0, 0.8, 0.6]]),
            ), self.PLANE),
            ("mmd", 10, 0.15, Kernel("rbf", 1.0), 3,
             SummaryStatistic(kind="model_output", out_dim=2, model=softmax),
             DistributionSpec.gaussian([0.53, 0.47], [0.08, 0.08])),
            ("mmd", 10, 0.6, Kernel("linear"), 2, None, self.PLANE),
        ]
        outcomes = set()
        for statistic, w, h, kernel, in_dim, summary, spec in cases:
            pre = DistributionSpec.gaussian([0.0] * in_dim, [1.0] * in_dim)
            post = DistributionSpec.gaussian([-1.0] * in_dim, [1.0] * in_dim)
            schedule = fixed_threshold(h, w=w)
            shared = ReferenceSet(draw_reference(spec, 100, master_seed=21))
            for redraw in (False, True):
                ref_kwargs = (
                    dict(reference_spec=spec, reference_size=100) if redraw
                    else dict(reference=shared)
                )
                for estimate, model in (
                    (estimate_arl0, null_model(pre)),
                    (estimate_delay, ChangePointModel(pre, post, 60)),
                    (estimate_delay, ChangePointModel(pre, post, 200)),
                ):
                    times = []
                    for run_id in range(n_runs):
                        ref = (
                            ReferenceSet(draw_reference(spec, 100, seed, run_id))
                            if redraw else shared
                        )
                        config = DetectorConfig(
                            reference=ref, schedule=schedule, window_size=w,
                            statistic=statistic, summary=summary, kernel=kernel,
                        )
                        stream = generate_stream(model, cap, seed, run_id)
                        times.append(run_detector(config, stream, cap).detection_time)
                    if estimate is estimate_arl0:
                        want = [(i, cap - w + 1 if t is None else t - w + 1, t is None)
                                for i, t in enumerate(times)]
                    else:
                        want = [(i, -1 if t is None else t, t is None)
                                for i, t in enumerate(times)]
                    outcomes.update(t is None for t in times)
                    for workers in (1, 3):
                        report = estimate(
                            schedule, model, n_runs, cap, seed, statistic=statistic,
                            summary=summary, kernel=kernel, workers=workers, **ref_kwargs,
                        )
                        case = (statistic, kernel, summary, redraw, model, workers)
                        assert report.runs == want, case
        assert outcomes == {True, False}

    @pytest.mark.parametrize("statistic, h", [("ks", 0.4), ("mean_diff", 0.5), ("mmd", 0.1)])
    def test_lockstep_times_do_not_depend_on_run_block(self, statistic, h):
        """Runs give the same detection times in engines of 1, 3 or all 7 rows."""
        mmd = statistic == "mmd"
        spec = self.PLANE if mmd else DistributionSpec.gaussian(0.0, 1.0)
        config = DetectorConfig(
            reference=ReferenceSet(draw_reference(spec, 200, master_seed=5)),
            schedule=fixed_threshold(h, w=20),
            window_size=20,
            statistic=statistic,
            kernel=Kernel("rbf", 1.0) if mmd else None,
        )
        post = DistributionSpec.gaussian([-0.3] * spec.dim, [1.0] * spec.dim)
        model = ChangePointModel(spec, post, 150)
        run_ids = list(range(7))
        whole = _lockstep_detection_times(config, model, 400, 13, run_ids)
        # rows leave the engine on both sides of the first 128-step block
        assert {t is None or t > 128 for t in whole} == {True, False}
        for size in (1, 3):
            times = [
                t
                for i in range(0, len(run_ids), size)
                for t in _lockstep_detection_times(config, model, 400, 13, run_ids[i : i + size])
            ]
            assert times == whole, size


class TestWorkerDeterminism:
    def test_concurrent_calls_keep_their_references(self, std_normal):
        """Two threads estimating at once each see only their own reference."""
        schedule = fixed_threshold(0.3, w=20)
        references = [
            ReferenceSet(draw_reference(DistributionSpec.gaussian(mean, 1.0), 300, 3))
            for mean in (0.0, 1.5)
        ]

        def runs(reference, barrier=None):
            if barrier is not None:  # start both threads together
                barrier.wait(timeout=60)
            return estimate_arl0(
                schedule, null_model(std_normal), n_runs=100, cap=1000, master_seed=5,
                reference=reference,
            ).runs

        serial = [runs(reference) for reference in references]
        barrier = threading.Barrier(len(references))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so the calls interleave
        try:
            with ThreadPoolExecutor(len(references)) as pool:
                calls = pool.map(lambda ref: runs(ref, barrier), references, timeout=120)
                threaded = list(calls)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_reports_identical_across_worker_counts(self, std_normal):
        sched = ks_asymptotic_threshold(300, 10, 0.05)
        reports = [
            estimate_arl0(
                sched, null_model(std_normal), n_runs=40, cap=800, master_seed=5,
                reference_spec=std_normal, reference_size=300, workers=workers,
            )
            for workers in (1, 4)
        ]
        assert reports[0].to_dict() == reports[1].to_dict()
        assert reports[0].runs == reports[1].runs

    def test_delay_reports_identical_across_worker_counts(self, std_normal, shifted_normal):
        ref_vals = draw_reference(std_normal, 300, master_seed=9)
        model = ChangePointModel(std_normal, shifted_normal, 40)
        reports = [
            estimate_delay(
                fixed_threshold(0.35, w=20), model, n_runs=30, cap=400,
                master_seed=31, reference=ReferenceSet(ref_vals), workers=workers,
            )
            for workers in (1, 4)
        ]
        assert reports[0].to_dict() == reports[1].to_dict()
        assert reports[0].runs == reports[1].runs


class TestEstimateDelay:
    def test_rejects_null_model(self, std_normal, small_reference):
        with pytest.raises(ValueError, match="finite change point"):
            estimate_delay(
                fixed_threshold(0.5, w=5), null_model(std_normal), 5, 50, 0,
                reference=small_reference,
            )

    def test_change_before_first_test_rejected(self, std_normal, shifted_normal, small_reference):
        model = ChangePointModel(std_normal, shifted_normal, 3)
        with pytest.raises(ValueError, match="finite change point"):
            estimate_delay(
                fixed_threshold(0.5, w=5), model, 5, 50, 0, reference=small_reference
            )

    def test_strong_shift_detected_quickly(self, std_normal):
        reference = ReferenceSet(draw_reference(std_normal, 1000, master_seed=3))
        model = ChangePointModel(
            std_normal, DistributionSpec.gaussian(4.0, 1.0), 60
        )
        report = estimate_delay(
            ks_asymptotic_threshold(1000, 30, 0.01), model,
            n_runs=60, cap=400, master_seed=13, reference=reference,
        )
        assert report.censored_count == 0
        assert report.false_alarm_fraction <= 0.05
        assert report.mean_delay is not None and report.mean_delay < 30

    def test_no_change_behaves_like_null(self, std_normal):
        """With q = p the pre-change and post-change hazards coincide."""
        reference = ReferenceSet(draw_reference(std_normal, 500, master_seed=4))
        model = ChangePointModel(std_normal, std_normal, 60)
        sched = calibrate_schedule(
            reference, w=20, target=CalibrationTarget(alpha=0.05), t_max=80,
            n_streams=8000, master_seed=5,
        )
        report = estimate_delay(
            sched, model, n_runs=400, cap=2000, master_seed=17, reference=reference,
        )
        # 40 pre-change tests at hazard ~0.05 -> false-alarm fraction ~0.87
        expected = 1.0 - 0.95 ** 41
        assert report.false_alarm_fraction == pytest.approx(expected, abs=0.06)


class TestGeometricGof:
    def test_accepts_true_geometric(self):
        gen = np.random.default_rng(2)
        samples = gen.geometric(0.02, size=2000)
        assert geometric_gof_pvalue(samples, 0.02) > 0.01

    def test_rejects_wrong_hazard(self):
        gen = np.random.default_rng(2)
        samples = gen.geometric(0.04, size=2000)
        assert geometric_gof_pvalue(samples, 0.02) < 1e-6

    def test_rejects_degenerate(self):
        samples = np.full(500, 50)
        assert geometric_gof_pvalue(samples, 0.02) < 1e-6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            geometric_gof_pvalue(np.array([1, 2, 3]), 0.5)
        with pytest.raises(ValueError):
            geometric_gof_pvalue(np.zeros(100, dtype=int), 0.5)
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="strictly between 0 and 1"):
                geometric_gof_pvalue(np.arange(1, 101), alpha)
        for n_bins in (1, 0, -3, 2.0, True):
            with pytest.raises(ValueError, match="n_bins must be an integer >= 2"):
                geometric_gof_pvalue(np.arange(1, 101), 0.05, n_bins)
        with pytest.raises(ValueError, match="run_lengths must be 1-d"):
            geometric_gof_pvalue(np.arange(1, 101).reshape(10, 10), 0.05)
        draws = np.random.default_rng(2).geometric(0.02, size=2000).astype(np.float64)
        with_nan = draws.copy()
        with_nan[:500] = np.nan
        for bad in (with_nan, np.append(draws, np.inf), np.append(draws, -np.inf)):
            with pytest.raises(ValueError, match="run lengths must be finite"):
                geometric_gof_pvalue(bad, 0.02)
        for bad in (np.append(draws, 1.5), np.append(draws, 0.5)):
            with pytest.raises(ValueError, match="run lengths must be integers"):
                geometric_gof_pvalue(bad, 0.02)
        assert geometric_gof_pvalue(draws, 0.02) == geometric_gof_pvalue(draws.astype(int), 0.02)

    def test_pvalue_matches_scipy_chisquare_bitwise(self):
        """The p-value is scipy.stats.chisquare's on the same binned counts."""
        for seed in range(8):
            gen = np.random.default_rng(seed)
            for alpha in (0.01, 0.05, 0.2):
                for hazard in (alpha, 1.2 * alpha):
                    samples = gen.geometric(hazard, size=int(gen.integers(60, 2000)))
                    for n_bins in (2, 5, 20, 40):
                        obs, exp = _gof_bins(samples, alpha, n_bins)
                        expected = float(sps.chisquare(obs, exp).pvalue)
                        assert geometric_gof_pvalue(samples, alpha, n_bins) == expected


def _gof_bins(run_lengths, alpha, n_bins):
    """Observed and (sum-matched) expected counts over geometric_gof_pvalue's
    bins, computed independently of it: equal-probability edges, bins with
    expected count below 5 pooled into one, an empty pool dropped."""
    edges = np.unique([
        math.ceil(math.log1p(-i / n_bins) / math.log1p(-alpha)) for i in range(1, n_bins)
    ]).astype(np.float64)
    observed = np.bincount(
        np.searchsorted(edges, run_lengths, side="left"), minlength=edges.size + 1
    ).astype(np.float64)
    survival = (1.0 - alpha) ** edges
    probs = -np.diff(np.concatenate(([1.0], survival, [0.0])))
    expected = probs * run_lengths.size
    keep = expected >= 5.0
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    if exp[-1] == 0.0:
        obs, exp = obs[:-1], exp[:-1]
    return obs, exp * (obs.sum() / exp.sum())

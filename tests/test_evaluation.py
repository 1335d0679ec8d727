import math

import numpy as np
import pytest

from seqshift import (
    CalibrationTarget,
    ChangePointModel,
    DistributionSpec,
    ReferenceSet,
    calibrate_schedule,
    draw_reference,
    estimate_arl0,
    estimate_delay,
    fixed_threshold,
    geometric_gof_pvalue,
    ks_asymptotic_threshold,
    null_model,
    slackness,
)
from seqshift.evaluation import RunLengthReport
from seqshift.summaries import SummaryStatistic, squared_error_loss


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
        assert report.slackness == pytest.approx(slackness(report, 0.05))

    def test_fast_and_stepped_paths_agree(self, std_normal):
        """mean_diff and ks fast scans equal the per-step detector exactly."""
        from seqshift import evaluation

        ref = ReferenceSet(draw_reference(std_normal, 150, master_seed=21))
        for statistic, h in (("ks", 0.28), ("mean_diff", 0.15)):
            sched = fixed_threshold(h, w=25, alpha=None)
            ctx = evaluation._build_context(
                sched, null_model(std_normal), 1500, 77, statistic, None, None,
                ref, None, None,
            )
            for run_id in range(15):
                fast = evaluation._fast_detection_time(ctx, ref, run_id)
                stepped = evaluation._stepped_detection_time(ctx, ref, run_id)
                assert fast == stepped, (statistic, run_id)


class TestWorkerDeterminism:
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


class TestSlacknessOp:
    def test_tight_bound(self):
        report = RunLengthReport(
            n_runs=10, cap=100, w=5, mean_T=100.0, median_T=70.0, q10=10.0,
            q90=230.0, standard_error=1.0, censored_count=0,
        )
        assert slackness(report, 0.01) == pytest.approx(1.0)

    def test_paper_scale_values(self):
        report = RunLengthReport(
            n_runs=10, cap=10**6, w=100, mean_T=11_000.0, median_T=0.0,
            q10=0.0, q90=0.0, standard_error=0.0, censored_count=0,
        )
        assert slackness(report, 0.001) == pytest.approx(11.0)
        report.mean_T = 32_000.0
        assert slackness(report, 0.001) == pytest.approx(32.0)

    def test_alpha_validated(self):
        report = RunLengthReport(
            n_runs=1, cap=10, w=2, mean_T=5.0, median_T=5.0, q10=5.0, q90=5.0,
            standard_error=0.0, censored_count=0,
        )
        with pytest.raises(ValueError):
            slackness(report, 0.0)

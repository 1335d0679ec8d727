"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 1 (full-scale slackness reproduction) runs for minutes and is
marked ``fullscale``; select it with ``pytest -m fullscale``.  Everything
else runs in the default selection.
"""

import json
import math
import time

import numpy as np
import pytest

from seqshift import (
    CalibrationTarget,
    ChangePointModel,
    DistributionSpec,
    Kernel,
    ReferenceSet,
    SlidingWindow,
    calibrate_schedule,
    draw_reference,
    estimate_arl0,
    estimate_delay,
    geometric_gof_pvalue,
    ks_asymptotic_threshold,
    ks_distance,
    mmd2_u,
    null_model,
)
from seqshift.batch import BatchMmdEngine, make_batch_engine
from seqshift.cli import main
from tests.test_statistics import (
    ONE_ROW,
    brute_ks,
    brute_mmd2_u,
    engine_from,
    fresh_kernel_sums,
    window_from,
)

STD_NORMAL = DistributionSpec.gaussian(0.0, 1.0)


def verdict(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def appendix_point(w, n, alpha, n_runs, cap, seed):
    schedule = ks_asymptotic_threshold(n, w, alpha)
    return estimate_arl0(
        schedule, null_model(STD_NORMAL), n_runs, cap, seed,
        reference_spec=STD_NORMAL, reference_size=n,
    )


@pytest.mark.fullscale
class TestCriterion1FullScaleSlackness:
    """KS + fixed asymptotic threshold at alpha=0.001, 250 runs per point."""

    ALPHA = 0.001
    RUNS = 250
    CAP = 1_000_000  # ~14x the largest expected mean; keeps censoring ~0

    def test_1a_window_100(self):
        report = appendix_point(100, 3000, self.ALPHA, self.RUNS, self.CAP, seed=42)
        ok = abs(report.slackness - 11.0) <= 0.3 * 11.0
        assert verdict(
            "1a", ok,
            f"w=100 n=3000 slackness={report.slackness:.2f} (expect 11 +/- 30%)",
        )

    def test_1b_window_500(self):
        report = appendix_point(500, 3000, self.ALPHA, self.RUNS, self.CAP, seed=42)
        ok = abs(report.slackness - 72.0) <= 0.3 * 72.0
        assert verdict(
            "1b", ok,
            f"w=500 n=3000 slackness={report.slackness:.2f} (expect 72 +/- 30%)",
        )

    def test_1c_reference_plateau(self):
        at_10k = appendix_point(300, 10_000, self.ALPHA, self.RUNS, self.CAP, seed=42)
        at_30k = appendix_point(300, 30_000, self.ALPHA, self.RUNS, self.CAP, seed=42)
        in_band = (
            abs(at_10k.slackness - 32.0) <= 0.3 * 32.0
            and abs(at_30k.slackness - 32.0) <= 0.3 * 32.0
        )
        flat = abs(at_30k.mean_T - at_10k.mean_T) / at_10k.mean_T < 0.25
        assert verdict(
            "1c", in_band and flat,
            f"w=300 slackness n=10k:{at_10k.slackness:.2f} n=30k:{at_30k.slackness:.2f} "
            f"(expect ~32 +/- 30%, plateau change < 25%)",
        )


@pytest.fixture(scope="module")
def desk_reports():
    t0 = time.time()
    reports = {
        w: appendix_point(w, 3000, 0.01, 250, 10_000, seed=42) for w in (100, 300)
    }
    return reports, time.time() - t0


class TestCriterion2DeskScaleSlackness:
    """Same appendix setup at alpha=0.01: cheap enough for CI."""

    def test_slackness_exceeds_two_and_grows_with_window(self, desk_reports):
        reports, elapsed = desk_reports
        s100 = reports[100].slackness
        s300 = reports[300].slackness
        ok = s100 > 2.0 and s300 > 2.0 and s300 > s100 and elapsed < 300.0
        assert verdict(
            "2", ok,
            f"alpha=0.01 slackness w=100:{s100:.2f} w=300:{s300:.2f} "
            f"(both > 2, increasing) in {elapsed:.0f}s (< 300s)",
        )


CAL_ALPHA = 0.02
CAL_W = 50
CAL_T_MAX = 300


@pytest.fixture(scope="module")
def fresh_run_lengths():
    reference = ReferenceSet(draw_reference(STD_NORMAL, 3000, master_seed=202))
    schedule = calibrate_schedule(
        reference, CAL_W, CalibrationTarget(alpha=CAL_ALPHA),
        t_max=CAL_T_MAX, n_streams=20_000, master_seed=202,
    )
    report = estimate_arl0(
        schedule, null_model(STD_NORMAL), n_runs=2000, cap=5000,
        master_seed=303, reference=reference,
    )
    assert report.censored_count == 0
    return report


class TestCriterion3CalibrationCorrectness:
    """Calibrated schedule matches the geometric run-length target."""

    ALPHA = CAL_ALPHA
    W = CAL_W
    T_MAX = CAL_T_MAX

    def test_mean_run_length(self, fresh_run_lengths):
        mean_t = fresh_run_lengths.mean_T
        ok = abs(mean_t - 50.0) <= 0.2 * 50.0
        assert verdict(
            "3-mean", ok, f"mean run length {mean_t:.2f} (expect 50 +/- 20%)"
        )

    def test_mean_hazard_in_band(self, fresh_run_lengths):
        detection_steps = np.array(
            [t + self.W - 1 for _, t, c in fresh_run_lengths.runs if not c]
        )
        hazards = []
        for t in range(self.W, self.T_MAX + 1):
            at_risk = np.sum(detection_steps >= t)
            if at_risk > 0:
                hazards.append(np.sum(detection_steps == t) / at_risk)
        mean_hazard = float(np.mean(hazards))
        ok = 0.01 <= mean_hazard <= 0.04
        assert verdict(
            "3-hazard", ok,
            f"mean per-step hazard {mean_hazard:.4f} over t in [50, 300] "
            f"(band [0.01, 0.04])",
        )

    def test_geometric_goodness_of_fit(self, fresh_run_lengths):
        rels = np.array([t for _, t, c in fresh_run_lengths.runs if not c])
        pval = geometric_gof_pvalue(rels, self.ALPHA)
        ok = pval >= 0.01
        assert verdict(
            "3-gof", ok, f"Geometric(0.02) chi-square p={pval:.3f} (pass if >= 0.01)"
        )

    def test_survival_within_dkw_band(self, fresh_run_lengths):
        rels = np.array([t for _, t, c in fresh_run_lengths.runs if not c])
        eps = math.sqrt(math.log(2.0 / 0.01) / (2.0 * rels.size))
        grid = np.arange(1, rels.max() + 1)
        empirical = np.array([(rels > k).mean() for k in grid])
        target = (1.0 - self.ALPHA) ** grid
        deviation = float(np.max(np.abs(empirical - target)))
        ok = deviation <= eps
        assert verdict(
            "3-band", ok,
            f"max |empirical - geometric| survival gap {deviation:.4f} "
            f"(99% DKW bound {eps:.4f})",
        )


class TestCriterion4StatisticOracles:
    """Implementations against independent double-loop oracles."""

    def test_ks_exact_on_500_instances(self):
        gen = np.random.default_rng(1404)
        for _ in range(500):
            n = int(gen.integers(2, 51))
            m = int(gen.integers(1, 51))
            ref_vals = np.round(gen.normal(size=n), 1)  # ties on purpose
            win_vals = np.round(gen.normal(size=m), 1)
            reference = ReferenceSet(ref_vals)
            want = brute_ks(ref_vals, win_vals)
            assert ks_distance(reference, window_from(win_vals)) == want
            assert engine_from("ks", reference, win_vals).statistics(ONE_ROW)[0] == want
        assert verdict(
            "4-ks", True, "ks_distance and the KS engine == brute force on 500 instances"
        )

    def test_mmd_close_on_500_instances(self):
        gen = np.random.default_rng(1405)
        worst = 0.0
        for _ in range(500):
            n = int(gen.integers(2, 51))
            m = int(gen.integers(2, 51))
            d = int(gen.integers(1, 4))
            X = gen.normal(size=(n, d))
            Y = gen.normal(size=(m, d))
            kernel = Kernel("rbf", bandwidth=float(gen.uniform(0.3, 3.0)))
            got = mmd2_u(ReferenceSet(X), window_from(Y), kernel)
            want = brute_mmd2_u(kernel, X, Y)
            err = abs(got - want) / max(abs(want), 1e-12)
            worst = max(worst, err)
            assert err <= 1e-9
        assert verdict(
            "4-mmd", True, f"mmd2_u within 1e-9 of brute force (worst {worst:.2e})"
        )

    def test_incremental_mmd_over_ten_thousand_slides(self, monkeypatch):
        """The engine's running sums stay within 1e-9 relative of full
        recomputation, with the periodic refresh pushed out of reach.

        The statistic itself is an unbiased estimate that crosses zero
        under the null, so its agreement is asserted at 1e-9 relative to
        its unit scale (RBF kernel terms are bounded by 1) rather than to
        a denominator that vanishes.
        """
        monkeypatch.setattr(BatchMmdEngine, "_REFRESH_EVERY", 100_000)
        gen = np.random.default_rng(1406)
        reference = ReferenceSet(gen.normal(size=(50, 1)))
        kernel = Kernel("rbf", bandwidth=1.1)
        incremental = make_batch_engine("mmd", reference, 30, 1, kernel)
        recomputed = SlidingWindow(capacity=30)
        worst_sum = worst_value = 0.0
        for i, v in enumerate(gen.normal(size=10_000)):
            incremental.push_column(np.array([[v]]), None)
            recomputed.push(v)
            if i >= 29:
                b_want, c_want = fresh_kernel_sums(kernel, reference, recomputed.values())
                sum_err = max(
                    abs(incremental._b_sums[0] - b_want) / abs(b_want),
                    abs(incremental._c_sums[0] - c_want) / abs(c_want),
                )
                a = incremental.statistics(ONE_ROW)[0]
                b = mmd2_u(reference, recomputed, kernel)
                value_err = abs(a - b) / max(1.0, abs(b))
                worst_sum = max(worst_sum, sum_err)
                worst_value = max(worst_value, value_err)
                assert sum_err <= 1e-9
                assert value_err <= 1e-9
        assert verdict(
            "4-incremental", True,
            f"incremental == recomputed within 1e-9 over 10^4 slides "
            f"(worst: sums {worst_sum:.2e}, value {worst_value:.2e})",
        )


class TestCriterion5LowerBound:
    def test_fixed_threshold_run_length_exceeds_inverse_alpha(self):
        report = appendix_point(100, 3000, 0.01, 250, 10_000, seed=42)
        ok = report.mean_T >= 100.0
        assert verdict(
            "5", ok,
            f"fixed-threshold mean run length {report.mean_T:.0f} >= 1/alpha = 100",
        )


@pytest.fixture(scope="module")
def delay_report():
    reference = ReferenceSet(draw_reference(STD_NORMAL, 3000, master_seed=404))
    schedule = calibrate_schedule(
        reference, 100, CalibrationTarget(alpha=0.01),
        t_max=300, n_streams=20_000, master_seed=404,
    )
    model = ChangePointModel(
        STD_NORMAL, DistributionSpec.gaussian(1.0, 1.0), change_point=200
    )
    return estimate_delay(
        schedule, model, n_runs=200, cap=10_000, master_seed=505,
        reference=reference,
    )


class TestCriterion6PowerSanity:
    """1-sigma mean shift at tau=200 with a calibrated alpha=0.01 schedule."""

    def test_mean_delay_under_inverse_alpha(self, delay_report):
        ok = delay_report.mean_delay is not None and delay_report.mean_delay < 100.0
        assert verdict(
            "6-delay", ok, f"mean detection delay {delay_report.mean_delay:.1f} < 100"
        )

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "unattainable as stated: a schedule calibrated to per-step hazard "
            "alpha=0.01 false-alarms over the tau-w=100 pre-change tests with "
            "probability 1-(1-0.01)^100 ~ 0.63, which no correctly calibrated "
            "detector can bring under 0.05"
        ),
    )
    def test_false_alarm_fraction_under_five_percent(self, delay_report):
        ok = delay_report.false_alarm_fraction < 0.05
        assert verdict(
            "6-false-alarms", ok,
            f"false alarm fraction {delay_report.false_alarm_fraction:.3f} < 0.05 "
            f"(theory predicts ~0.63 at this calibration target)",
        )


class TestCriterion7Determinism:
    def test_reports_byte_identical_across_worker_counts(self, tmp_path):
        cfg = {
            "seed": 1234,
            "detector": {
                "statistic": "ks",
                "window": 25,
                "threshold": {"policy": "ks_asymptotic", "alpha": 0.05},
            },
            "reference": {
                "family": "gaussian", "means": [0.0], "variances": [1.0],
                "size": 500, "redraw_per_run": True,
            },
            "stream": {
                "pre": {"family": "gaussian", "means": [0.0], "variances": [1.0]}
            },
            "evaluation": {"n_runs": 48, "cap": 3000},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        artifacts = []
        for workers in (1, 4, 16):
            out = tmp_path / f"report_w{workers}.json"
            csv = tmp_path / f"runs_w{workers}.csv"
            code = main([
                "arl", "--config", str(cfg_path), "--out", str(out),
                "--runs-csv", str(csv), "--workers", str(workers),
            ])
            assert code == 0
            artifacts.append((out.read_bytes(), csv.read_bytes()))
        ok = artifacts[0] == artifacts[1] == artifacts[2]
        assert verdict(
            "7", ok, "arl report and per-run CSV byte-identical for workers 1/4/16"
        )

import json
import math

import numpy as np
import pytest

from seqshift import (
    CalibrationTarget,
    DistributionSpec,
    Kernel,
    ReferenceSet,
    ThresholdSchedule,
    calibrate_schedule,
    draw_reference,
    estimate_arl0,
    fixed_threshold,
    ks_asymptotic_threshold,
    null_model,
    permutation_threshold,
)
from seqshift.calibration import high_order_statistic, required_streams


class TestKsAsymptoticThreshold:
    def test_closed_form_values(self):
        assert ks_asymptotic_threshold(100, 100, 0.05).fixed_h == pytest.approx(
            0.192065, abs=5e-6
        )
        assert ks_asymptotic_threshold(3000, 100, 0.001).fixed_h == pytest.approx(
            0.19817, abs=5e-5
        )

    def test_large_reference_limit(self):
        # as n grows the threshold approaches c(alpha)/sqrt(w)
        h = ks_asymptotic_threshold(10**9, 100, 0.05).fixed_h
        assert h == pytest.approx(1.35810 / 10.0, abs=1e-5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ks_asymptotic_threshold(0, 10, 0.05)
        with pytest.raises(ValueError):
            ks_asymptotic_threshold(10, 10, 1.5)


class TestHighOrderStatistic:
    def test_hand_trace(self):
        values = np.array([0.1, 0.2, 0.3, 0.4])
        assert high_order_statistic(values, 0.25) == 0.3

    def test_integer_boundary_not_pushed_up(self):
        # (1 - 0.02) * 20000 is exactly 19600; float error must not make it 19601
        values = np.arange(1, 20001, dtype=np.float64)
        assert high_order_statistic(values, 0.02) == 19600.0

    def test_extremes_clamped(self):
        values = np.array([5.0, 1.0, 3.0])
        assert high_order_statistic(values, 0.999) == 1.0
        assert high_order_statistic(values, 1e-12) == 5.0


class TestPermutationThreshold:
    def test_degenerate_reference_gives_zero(self):
        ref = ReferenceSet(np.full(50, 3.25))
        sched = permutation_threshold(ref, w=10, alpha=0.1, n_perm=200, master_seed=1)
        assert sched.fixed_h == 0.0

    def test_agrees_with_asymptotic_at_equal_sizes(self, std_normal):
        # splitting 200 points 100/100 estimates the (100, 100) critical value
        ref = ReferenceSet(draw_reference(std_normal, 200, master_seed=31))
        sched = permutation_threshold(ref, w=100, alpha=0.05, n_perm=2000, master_seed=3)
        want = ks_asymptotic_threshold(100, 100, 0.05).fixed_h
        assert sched.fixed_h == pytest.approx(want, rel=0.05)

    def test_monte_carlo_stability_under_doubling(self, small_reference):
        a = permutation_threshold(
            small_reference, w=50, alpha=0.05, n_perm=2000, master_seed=5
        )
        b = permutation_threshold(
            small_reference, w=50, alpha=0.05, n_perm=4000, master_seed=5
        )
        assert abs(b.fixed_h - a.fixed_h) / a.fixed_h < 0.03

    def test_monotone_in_alpha(self, small_reference):
        shallow = permutation_threshold(
            small_reference, w=40, alpha=0.10, n_perm=2000, master_seed=9
        )
        deep = permutation_threshold(
            small_reference, w=40, alpha=0.02, n_perm=2000, master_seed=9
        )
        assert deep.fixed_h >= shallow.fixed_h

    def test_mmd_permutation_matches_direct_computation(self, rng):
        from seqshift.statistics import Kernel, mmd2_u
        from tests.test_statistics import window_from

        X = rng.normal(size=(30, 2))
        ref = ReferenceSet(X)
        kernel = Kernel("rbf", bandwidth=1.0)
        sched = permutation_threshold(
            ref, w=10, alpha=0.5, n_perm=20, statistic="mmd", kernel=kernel, master_seed=2
        )
        # reproduce the permuted statistics with the plain implementation
        from seqshift import rng as rng_mod

        gen = rng_mod.generator(2, rng_mod.LANE_PERMUTATION, 0)
        stats = []
        for _ in range(20):
            win_idx = gen.permutation(30)[:10]
            mask = np.ones(30, dtype=bool)
            mask[win_idx] = False
            pseudo_ref = ReferenceSet(X[mask])
            win = window_from(X[win_idx])
            stats.append(mmd2_u(pseudo_ref, win, kernel))
        assert sched.fixed_h == pytest.approx(
            high_order_statistic(np.array(stats), 0.5), rel=1e-9, abs=1e-12
        )

    def test_preconditions(self, small_reference):
        with pytest.raises(ValueError, match="n_perm"):
            permutation_threshold(small_reference, w=10, alpha=0.01, n_perm=500)
        with pytest.raises(ValueError, match="smaller"):
            permutation_threshold(small_reference, w=500, alpha=0.1, n_perm=200)


class TestThresholdSchedule:
    def test_fixed_lookup(self):
        sched = fixed_threshold(0.25, w=10, alpha=0.05)
        assert sched.threshold_at(9) is None
        assert sched.threshold_at(10) == 0.25
        assert sched.threshold_at(10**6) == 0.25

    def test_time_varying_lookup_and_plateau(self):
        sched = ThresholdSchedule(
            kind="time_varying", w=3, alpha=0.1,
            values=np.array([0.5, 0.4, 0.3]), t_max=5,
        )
        assert sched.threshold_at(2) is None
        assert sched.threshold_at(3) == 0.5
        assert sched.threshold_at(5) == 0.3
        assert sched.threshold_at(505) == 0.3

    def test_range_lookup(self):
        sched = ThresholdSchedule(
            kind="time_varying", w=3, alpha=0.1,
            values=np.array([0.5, 0.4, 0.3]), t_max=5,
        )
        got = sched.thresholds_for_range(4, 4)
        assert np.array_equal(got, [0.4, 0.3, 0.3, 0.3])
        with pytest.raises(ValueError):
            sched.thresholds_for_range(2, 3)

    def test_values_length_validated(self):
        with pytest.raises(ValueError, match="length"):
            ThresholdSchedule(
                kind="time_varying", w=3, alpha=0.1,
                values=np.array([0.5]), t_max=5,
            )

    def test_json_round_trip_byte_stable(self):
        sched = ThresholdSchedule(
            kind="time_varying", w=4, alpha=0.02,
            values=np.array([0.31, 0.30, 0.295]), t_max=6,
        )
        text = sched.to_json(meta={"config_hash": "abc", "seed": 7})
        again = ThresholdSchedule.from_json(text)
        assert again.to_json(meta={"config_hash": "abc", "seed": 7}) == text
        assert np.array_equal(again.values, sched.values)
        assert (again.kind, again.w, again.alpha, again.t_max) == (
            "time_varying", 4, 0.02, 6,
        )

    def test_unknown_keys_rejected(self):
        doc = json.loads(fixed_threshold(0.2, w=5, alpha=0.1).to_json())
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unknown schedule keys"):
            ThresholdSchedule.from_json_dict(doc)


class TestCalibrateSchedule:
    def test_undersized_simulation_rejected_with_sizing_rule(self, small_reference):
        with pytest.raises(ValueError, match="n_streams >="):
            calibrate_schedule(
                small_reference, w=10, target=CalibrationTarget(alpha=0.05),
                t_max=200, n_streams=500,
            )
        assert required_streams(0.05, 10, 200, 100) == math.ceil(
            100 / 0.95 ** 191
        )

    def test_tied_streams_never_eliminated(self):
        """All-equal statistics pin the threshold and eliminate nobody."""
        ref = ReferenceSet(np.full(40, 1.5))
        diag = {}
        sched = calibrate_schedule(
            ref, w=5, target=CalibrationTarget(alpha=0.2), t_max=12,
            n_streams=100, master_seed=3, min_survivors=10, diagnostics=diag,
        )
        assert np.all(sched.values == 0.0)  # every bootstrap KS statistic is 0
        assert np.all(diag["survivor_counts"] == 100)

    def test_survivors_non_increasing_and_elimination_fraction(self, std_normal):
        diag = {}
        alpha = 0.05
        calibrate_schedule(
            ReferenceSet(draw_reference(std_normal, 400, master_seed=17)),
            w=15, target=CalibrationTarget(alpha=alpha), t_max=60,
            n_streams=3000, master_seed=11, diagnostics=diag,
        )
        counts = diag["survivor_counts"]
        assert np.all(np.diff(counts) <= 0)
        prev = diag["n_streams"]
        for c in counts:
            eliminated = (prev - c) / prev
            assert alpha / 2 <= eliminated <= 2 * alpha
            prev = c

    def test_expected_survival_decay(self, std_normal):
        diag = {}
        alpha = 0.1
        n_streams = 5000
        calibrate_schedule(
            ReferenceSet(draw_reference(std_normal, 300, master_seed=23)),
            w=10, target=CalibrationTarget(alpha=alpha), t_max=30,
            n_streams=n_streams, master_seed=29, diagnostics=diag,
        )
        steps = np.arange(1, diag["survivor_counts"].size + 1)
        expected = n_streams * (1 - alpha) ** steps
        assert np.all(np.abs(diag["survivor_counts"] - expected) <= 0.02 * n_streams)

    def test_calibrated_schedule_hits_target_on_fresh_streams(self, std_normal):
        """Small end-to-end calibration check; the full-size one is in acceptance."""
        ref = ReferenceSet(draw_reference(std_normal, 500, master_seed=41))
        alpha = 0.05
        sched = calibrate_schedule(
            ref, w=20, target=CalibrationTarget(alpha=alpha), t_max=100,
            n_streams=8000, master_seed=43,
        )
        report = estimate_arl0(
            sched, null_model(std_normal), n_runs=500, cap=2000,
            master_seed=47, reference=ref,
        )
        assert report.censored_count == 0
        assert report.mean_T == pytest.approx(1.0 / alpha, rel=0.2)

    def test_statistic_validation(self, small_reference):
        with pytest.raises(ValueError, match="kernel"):
            calibrate_schedule(
                small_reference, w=5, target=CalibrationTarget(alpha=0.2),
                t_max=10, n_streams=100, statistic="mmd", min_survivors=10,
            )
        with pytest.raises(ValueError, match="t_max"):
            calibrate_schedule(
                small_reference, w=5, target=CalibrationTarget(alpha=0.2),
                t_max=4, n_streams=100, min_survivors=10,
            )


class TestCalibrationTarget:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            CalibrationTarget(alpha=0.0)
        with pytest.raises(ValueError):
            CalibrationTarget(alpha=1.0)


class TestCalibrationCost:
    def test_mmd_kernel_rows_independent_of_streams_and_steps(self, monkeypatch):
        """Calibration evaluates the kernel once per reference atom, never per
        pushed point: the rows handed to ``Kernel.matrix`` stay at n whatever
        ``n_streams`` and ``t_max`` are."""
        plane = DistributionSpec.gaussian([0.0, 0.0], [1.0, 1.0])
        reference = ReferenceSet(draw_reference(plane, 150, master_seed=3))
        kernel = Kernel("rbf", bandwidth=1.0)
        reference.kernel_self_sum(kernel)  # cached on the reference, shared by every engine
        rows = []
        matrix = Kernel.matrix

        def counting_matrix(self, X, Y):
            rows.append(np.atleast_2d(X).shape[0])
            return matrix(self, X, Y)

        monkeypatch.setattr(Kernel, "matrix", counting_matrix)
        counted = []
        for n_streams, t_max in ((300, 20), (600, 20), (300, 30)):
            rows.clear()
            calibrate_schedule(
                reference, 10, CalibrationTarget(0.05), t_max=t_max, n_streams=n_streams,
                statistic="mmd", kernel=kernel, master_seed=4,
            )
            counted.append(sum(rows))
        assert counted[0] <= reference.n
        assert counted == [counted[0]] * 3

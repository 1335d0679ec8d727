import math

import numpy as np
import pytest

from seqshift import (
    ChangePointModel,
    Detector,
    DetectorConfig,
    DistributionSpec,
    Kernel,
    ReferenceSet,
    ThresholdSchedule,
    draw_reference,
    fixed_threshold,
    generate_stream,
    null_model,
    run,
)
from seqshift.batch import BatchMmdEngine, make_batch_engine
from seqshift.detector import recompute_statistic
from seqshift.statistics import SlidingWindow
from seqshift.summaries import SummaryStatistic, squared_error_loss


def ks_config(reference, w, h, **kwargs):
    return DetectorConfig(
        reference=reference,
        schedule=fixed_threshold(h, w=w),
        window_size=w,
        statistic="ks",
        **kwargs,
    )


def recomputed_detection_time(config, stream, cap):
    """Detection step with the statistic recomputed from scratch each step."""
    window = SlidingWindow(config.window_size, config.reference.dim)
    for t, x in enumerate(stream[:cap], start=1):
        window.push(x)
        h = config.schedule.threshold_at(t)
        if h is not None and recompute_statistic(config, window) > h:
            return t
    return None


class TestStep:
    def test_warmup_never_detects(self, small_reference):
        config = ks_config(small_reference, w=10, h=-1.0)
        detector = Detector(config)
        for v in np.linspace(-50, 50, 9):  # nine steps: still warming up
            assert detector.step(v) is False
        assert detector.detected_at is None

    def test_always_exceeded_threshold_fires_at_w(self, small_reference, std_normal):
        config = ks_config(small_reference, w=10, h=-1.0)
        stream = generate_stream(null_model(std_normal), 50, master_seed=2)
        result = run(config, stream, cap=50)
        assert result.detection_time == 10
        assert result.run_length == 1
        assert not result.censored

    def test_unreachable_threshold_censors(self, small_reference, std_normal):
        config = ks_config(small_reference, w=10, h=math.inf)
        stream = generate_stream(null_model(std_normal), 200, master_seed=2)
        result = run(config, stream, cap=200)
        assert result.censored
        assert result.detection_time is None
        assert result.run_length is None

    def test_step_after_detection_is_an_error(self, small_reference):
        detector = Detector(ks_config(small_reference, w=2, h=-1.0))
        detector.step(0.0)
        assert detector.step(0.0) is True
        with pytest.raises(RuntimeError, match="already fired"):
            detector.step(0.0)

    def test_label_routed_to_summary(self, small_reference):
        summary = SummaryStatistic(
            kind="model_loss", out_dim=1, model=lambda x: 0.0, loss=squared_error_loss
        )
        config = DetectorConfig(
            reference=small_reference,
            schedule=fixed_threshold(math.inf, w=2),
            window_size=2,
            statistic="ks",
            summary=summary,
        )
        stream = [([0.0], 1.0), ([0.0], 2.0), ([0.0], 0.5)]
        result = run(config, stream, cap=3)
        assert result.censored


class TestRun:
    def test_stream_shorter_than_window_rejected(self, small_reference):
        config = ks_config(small_reference, w=10, h=math.inf)
        with pytest.raises(ValueError, match="before the window"):
            run(config, [0.0] * 5, cap=100)

    def test_cap_below_window_rejected(self, small_reference):
        config = ks_config(small_reference, w=10, h=math.inf)
        with pytest.raises(ValueError, match="cap"):
            run(config, [0.0] * 20, cap=5)

    def test_trace_rows(self, small_reference, std_normal):
        config = ks_config(small_reference, w=5, h=0.9)
        stream = generate_stream(null_model(std_normal), 30, master_seed=3)
        result = run(config, stream, cap=30, trace=True)
        assert len(result.trace) == 30 - 5 + 1
        for t, stat, threshold, detected in result.trace:
            assert t >= 5
            assert 0.0 <= stat <= 1.0
            assert threshold == 0.9
            assert detected is False

    def test_big_shift_detected_at_first_test(self, std_normal):
        """A five-sigma mean shift saturates the KS statistic immediately."""
        reference = ReferenceSet(draw_reference(std_normal, 3000, master_seed=5))
        config = DetectorConfig(
            reference=reference,
            schedule=ThresholdSchedule(kind="fixed", w=100, alpha=0.01, fixed_h=0.35),
            window_size=100,
            statistic="ks",
        )
        shifted = DistributionSpec.gaussian(5.0, 1.0)
        hits = 0
        for run_id in range(100):
            stream = generate_stream(null_model(shifted), 150, master_seed=9, stream_id=run_id)
            result = run(config, stream, cap=150)
            hits += result.detection_time == 100
        assert hits >= 99


class TestEquivalence:
    def test_incremental_equals_recompute_over_random_configs(self, std_normal, monkeypatch):
        """Same detection step from the engine, from the engine with per-step
        rebuilds of its MMD sums, and from plain per-step recomputation."""
        rng = np.random.default_rng(99)
        shifted = DistributionSpec.gaussian(0.6, 1.2)
        checked = 0
        for trial in range(100):
            statistic = ("ks", "mean_diff", "mmd")[trial % 3]
            if statistic == "mmd":
                n = int(rng.integers(5, 80))
                w = int(rng.integers(2, 60))
                cap = int(rng.integers(w, 400))
            else:
                n = int(rng.integers(5, 201))
                w = int(rng.integers(1, 201))
                cap = int(rng.integers(w, 2001))
            reference = ReferenceSet(draw_reference(std_normal, n, master_seed=trial))
            kernel = Kernel("rbf", bandwidth=float(rng.uniform(0.5, 2.0)))
            h = {
                "ks": float(rng.uniform(0.1, 0.6)),
                "mean_diff": float(rng.uniform(-0.2, 0.4)),
                "mmd": float(rng.uniform(0.0, 0.05)),
            }[statistic]
            model = ChangePointModel(std_normal, shifted, int(rng.integers(1, cap + 1)))
            stream = generate_stream(model, cap, master_seed=1000 + trial)

            config = DetectorConfig(
                reference=reference,
                schedule=fixed_threshold(h, w=w),
                window_size=w,
                statistic=statistic,
                kernel=kernel if statistic == "mmd" else None,
            )
            results = [run(config, stream, cap=cap).detection_time]
            with monkeypatch.context() as patch:
                patch.setattr(BatchMmdEngine, "_REFRESH_EVERY", 1)
                results.append(run(config, stream, cap=cap).detection_time)
            results.append(recomputed_detection_time(config, stream, cap))
            assert results[0] == results[1] == results[2], (trial, statistic, n, w, h)
            checked += 1
        assert checked == 100

    def test_pointwise_larger_schedule_never_earlier(self, std_normal, small_reference):
        rng = np.random.default_rng(123)
        w, t_max = 8, 60
        for trial in range(20):
            base = 0.15 + 0.3 * rng.random(t_max - w + 1)
            low = ThresholdSchedule(
                kind="time_varying", w=w, alpha=0.1, values=base, t_max=t_max
            )
            high = ThresholdSchedule(
                kind="time_varying", w=w, alpha=0.1,
                values=base + rng.uniform(0.0, 0.1, base.size), t_max=t_max,
            )
            stream = generate_stream(null_model(std_normal), 300, master_seed=trial)
            t_low = run(ks_config(small_reference, w, 0).__class__(
                reference=small_reference, schedule=low, window_size=w, statistic="ks"
            ), stream, cap=300).detection_time
            t_high = run(DetectorConfig(
                reference=small_reference, schedule=high, window_size=w, statistic="ks"
            ), stream, cap=300).detection_time
            if t_low is None:
                assert t_high is None
            elif t_high is not None:
                assert t_high >= t_low


class TestWindow:
    """The detector's engine is its only copy of the window."""

    @staticmethod
    def detector(statistic, rng):
        dim = 2 if statistic == "mmd" else 1
        return Detector(DetectorConfig(
            reference=ReferenceSet(rng.normal(size=(40, dim))),
            schedule=fixed_threshold(math.inf, w=3),
            window_size=3,
            statistic=statistic,
            kernel=Kernel("rbf", bandwidth=1.0) if statistic == "mmd" else None,
        )), dim

    @pytest.mark.parametrize("statistic", ["ks", "mean_diff", "mmd"])
    def test_values_is_a_copy(self, statistic, rng):
        """A snapshot survives later steps that overwrite its ring slots,
        and writing to it leaves the window alone."""
        detector, dim = self.detector(statistic, rng)
        stream = rng.normal(size=(8, dim))
        for x in stream[:5]:
            detector.step(x)
        snapshot = detector.window.values()
        assert np.array_equal(snapshot, stream[2:5])
        for x in stream[5:]:
            detector.step(x)
        assert np.array_equal(snapshot, stream[2:5])
        snapshot[:] = 99.0
        assert np.array_equal(detector.window.values(), stream[5:8])

    def test_steps_push_no_sliding_window(self, small_reference, monkeypatch, rng):
        pushes = []
        push = SlidingWindow.push
        monkeypatch.setattr(
            SlidingWindow, "push", lambda window, s: pushes.append(s) or push(window, s)
        )
        detector = Detector(ks_config(small_reference, w=10, h=math.inf))
        for x in rng.normal(size=50):
            detector.step(x)
        assert detector.t == 50
        assert len(pushes) == 0

    def test_atom_fed_ks_engine_keeps_no_values(self, small_reference):
        """Calibration pushes atoms and must not allocate a value ring."""
        atoms = np.arange(4)
        engine = make_batch_engine("ks", small_reference, 3, 4)
        engine.push_column(small_reference.values[atoms], None, atoms=atoms)
        with pytest.raises(RuntimeError, match="only a one-row KS engine"):
            engine.values()

    def test_many_row_value_fed_ks_engine_keeps_no_values(self, small_reference, rng):
        """The Monte Carlo engines push values and must not allocate a ring."""
        engine = make_batch_engine("ks", small_reference, 3, 4)
        for _ in range(5):
            engine.push_column(rng.normal(size=(4, 1)), None)
        assert engine._values is None
        with pytest.raises(RuntimeError, match="only a one-row KS engine"):
            engine.values()

    def test_one_row_atom_fed_ks_engine_keeps_its_atoms(self, small_reference):
        """A one-row engine keeps its window whether it was fed values or atoms."""
        engine = make_batch_engine("ks", small_reference, 3, 1)
        for atom in (7, 3, 11, 5):
            atoms = np.array([atom])
            engine.push_column(small_reference.values[atoms], None, atoms=atoms)
        assert np.array_equal(engine.values(), small_reference.values[[3, 11, 5]])


class TestConfigValidation:
    def test_schedule_window_must_match(self, small_reference):
        with pytest.raises(ValueError, match="schedule was built"):
            DetectorConfig(
                reference=small_reference,
                schedule=fixed_threshold(0.2, w=5),
                window_size=6,
                statistic="ks",
            )

    def test_mmd_needs_kernel(self, small_reference):
        with pytest.raises(ValueError, match="kernel"):
            DetectorConfig(
                reference=small_reference,
                schedule=fixed_threshold(0.2, w=5),
                window_size=5,
                statistic="mmd",
            )

    def test_scalar_statistics_reject_multivariate(self, rng):
        reference = ReferenceSet(rng.normal(size=(20, 2)))
        with pytest.raises(ValueError, match="scalar"):
            DetectorConfig(
                reference=reference,
                schedule=fixed_threshold(0.2, w=5),
                window_size=5,
                statistic="ks",
            )

    @pytest.mark.parametrize("w", [3.0, True, np.float64(3)], ids=["float", "bool", "np-float"])
    def test_window_must_be_an_integer(self, small_reference, w):
        with pytest.raises(ValueError, match="window size must be an integer"):
            DetectorConfig(
                reference=small_reference,
                schedule=fixed_threshold(0.2, w=3),
                window_size=w,
                statistic="ks",
            )

    def test_numpy_integer_window_accepted(self, small_reference):
        config = ks_config(small_reference, w=np.int64(3), h=math.inf)
        detector = Detector(config)
        for x in (0.1, 0.2, 0.3):
            detector.step(x)
        assert detector.last_statistic is not None

    def test_summary_dim_must_match_reference(self, small_reference):
        summary = SummaryStatistic(
            kind="affine_projection", out_dim=2, projection=np.ones((2, 3))
        )
        with pytest.raises(ValueError, match="out_dim"):
            DetectorConfig(
                reference=small_reference,
                schedule=fixed_threshold(0.2, w=5),
                window_size=5,
                statistic="mmd",
                kernel=Kernel("rbf", bandwidth=1.0),
                summary=summary,
            )

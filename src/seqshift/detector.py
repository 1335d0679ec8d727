"""The sequential detector: window update, summary projection, statistic,
threshold comparison.

Each arriving instance is summarised, pushed into the sliding window, and
-- once the window is full -- the configured two-sample statistic against
the reference is compared to the threshold schedule.  The statistic comes
from a one-row lockstep engine (:func:`seqshift.batch.make_batch_engine`),
the engine calibration runs, so the deployed detector computes exactly
what calibration ranked.  Detection is a halt state: a detector that has
fired refuses further steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .batch import check_statistic, make_batch_engine
from .calibration import ThresholdSchedule
from .statistics import (
    KS,
    MEAN_DIFF,
    Kernel,
    ReferenceSet,
    SlidingWindow,
    ks_distance,
    mean_difference,
    mmd2_u,
)
from .summaries import SummaryStatistic, apply_summary, identity


@dataclass(frozen=True)
class DetectorConfig:
    """Everything a detector run needs, validated for consistency."""

    reference: ReferenceSet
    schedule: ThresholdSchedule
    window_size: int
    statistic: str = KS
    summary: SummaryStatistic = None
    kernel: Optional[Kernel] = None

    def __post_init__(self):
        if self.summary is None:
            object.__setattr__(self, "summary", identity(self.reference.dim))
        check_statistic(self.statistic, self.reference.dim, self.window_size, self.kernel)
        if self.schedule.w != self.window_size:
            raise ValueError(
                f"schedule was built for w={self.schedule.w}, detector uses "
                f"w={self.window_size}"
            )
        if self.summary.out_dim != self.reference.dim:
            raise ValueError(
                f"summary out_dim {self.summary.out_dim} != reference dimension "
                f"{self.reference.dim}"
            )


@dataclass
class DetectionResult:
    """Outcome of one detector run.

    ``detection_time`` is the absolute stream step of the detection;
    ``run_length`` counts test opportunities (first test at step w counts
    as 1), the scale on which run-length distributions are reported.
    Censored runs hit the step cap without any threshold exceedance.
    """

    detection_time: Optional[int]
    censored: bool
    cap: int
    w: int
    trace: Optional[List[Tuple[int, float, float, bool]]] = None

    @property
    def run_length(self) -> Optional[int]:
        if self.detection_time is None:
            return None
        return self.detection_time - self.w + 1


def recompute_statistic(config: DetectorConfig, window: SlidingWindow) -> float:
    """The configured statistic recomputed from the window contents alone.

    Uses the plain definitions in :mod:`seqshift.statistics`, not the
    incremental engine; an oracle for what a detector reports.
    """
    if config.statistic == KS:
        return ks_distance(config.reference, window)
    if config.statistic == MEAN_DIFF:
        return mean_difference(config.reference, window)
    return mmd2_u(config.reference, window, config.kernel)


_ONE_ROW = np.zeros(1, dtype=np.intp)


class Detector:
    """Single-owner sequential detector state."""

    def __init__(self, config: DetectorConfig):
        self.config = config
        self.t = 0
        self.last_statistic: Optional[float] = None
        self.detected_at: Optional[int] = None
        self.window = SlidingWindow(config.window_size, config.reference.dim)
        self._engine = make_batch_engine(
            config.statistic, config.reference, config.window_size, 1, config.kernel
        )

    def step(self, x, y=None) -> bool:
        """Consume one instance; True when this step fires a detection.

        Warm-up steps (t < w) never test.  Stepping a detector that has
        already fired is an error: detection halts the run.
        """
        if self.detected_at is not None:
            raise RuntimeError(
                "detector has already fired; adaptation/restart is out of scope"
            )
        s = self.window.push(apply_summary(self.config.summary, x, y))
        self._engine.push_column(s[None, :], None)
        self.t += 1
        threshold = self.config.schedule.threshold_at(self.t)
        if threshold is None:
            return False
        stat = float(self._engine.statistics(_ONE_ROW)[0])
        self.last_statistic = stat
        if stat > threshold:
            self.detected_at = self.t
            return True
        return False


def run(
    config: DetectorConfig,
    stream: Iterable,
    cap: int,
    trace: bool = False,
) -> DetectionResult:
    """Feed a stream into a fresh detector until detection or ``cap`` steps.

    Stream elements are raw instances, or ``(x, y)`` pairs when the
    summary needs labels.  A stream that ends before the window fills is
    an error; ending after that censors the run at the steps consumed.
    """
    if cap < config.window_size:
        raise ValueError("cap must be at least the window size")
    detector = Detector(config)
    needs_label = config.summary.kind == "model_loss"
    rows: Optional[List[Tuple[int, float, float, bool]]] = [] if trace else None
    for element in stream:
        if needs_label:
            x, y = element
            detected = detector.step(x, y)
        else:
            detected = detector.step(element)
        if rows is not None and detector.last_statistic is not None:
            threshold = config.schedule.threshold_at(detector.t)
            if threshold is not None:
                rows.append((detector.t, detector.last_statistic, threshold, detected))
        if detected:
            return DetectionResult(
                detection_time=detector.t,
                censored=False,
                cap=cap,
                w=config.window_size,
                trace=rows,
            )
        if detector.t >= cap:
            break
    if detector.t < config.window_size:
        raise ValueError(
            f"stream ended after {detector.t} steps, before the window "
            f"(w={config.window_size}) could fill"
        )
    return DetectionResult(
        detection_time=None,
        censored=True,
        cap=min(cap, detector.t),
        w=config.window_size,
        trace=rows,
    )

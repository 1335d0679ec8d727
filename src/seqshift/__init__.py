"""Sequential distribution-shift detection with calibrated run-length control.

Pieces: synthetic change-point streams, summary projections, two-sample
test statistics with sequential updates, threshold calibration (fixed and
simulation-calibrated time-varying schedules), the four-stage detector,
and a Monte Carlo harness for run-length and delay measurement.
"""

from .calibration import (
    CalibrationTarget,
    ThresholdSchedule,
    calibrate_schedule,
    fixed_threshold,
    ks_asymptotic_threshold,
    permutation_threshold,
)
from .detector import DetectionResult, Detector, DetectorConfig, run
from .evaluation import (
    DelayReport,
    RunLengthReport,
    estimate_arl0,
    estimate_delay,
    geometric_gof_pvalue,
)
from .statistics import (
    KS,
    MEAN_DIFF,
    MMD,
    Kernel,
    ReferenceSet,
    SlidingWindow,
    ks_distance,
    mean_difference,
    median_heuristic,
    mmd2_u,
)
from .streams import (
    ChangePointModel,
    DistributionSpec,
    draw_reference,
    generate_stream,
    load_stream_file,
    null_model,
    sample_at,
    save_stream_file,
)
from .summaries import LinearSoftmaxModel, SummaryStatistic, apply_summary, identity

__version__ = "0.1.0"

__all__ = [
    "CalibrationTarget",
    "ChangePointModel",
    "DelayReport",
    "DetectionResult",
    "Detector",
    "DetectorConfig",
    "DistributionSpec",
    "Kernel",
    "KS",
    "LinearSoftmaxModel",
    "MEAN_DIFF",
    "MMD",
    "ReferenceSet",
    "RunLengthReport",
    "SlidingWindow",
    "SummaryStatistic",
    "ThresholdSchedule",
    "apply_summary",
    "calibrate_schedule",
    "draw_reference",
    "estimate_arl0",
    "estimate_delay",
    "fixed_threshold",
    "generate_stream",
    "geometric_gof_pvalue",
    "identity",
    "ks_asymptotic_threshold",
    "ks_distance",
    "load_stream_file",
    "mean_difference",
    "median_heuristic",
    "mmd2_u",
    "null_model",
    "permutation_threshold",
    "run",
    "sample_at",
    "save_stream_file",
]

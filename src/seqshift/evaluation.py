"""Monte Carlo measurement of run-length and detection-delay behaviour.

Runs many independent detector instances on synthetic streams and
aggregates detection times.  Run lengths are counted in test opportunities
(a detection at the first full-window step counts as 1), the scale on
which the hazard/run-length targets are stated.  Parallelism is across
runs; every run's randomness is derived from (master seed, run index), so
reports are bitwise independent of the worker count.  Every run steps
the experiment's one ``DetectorConfig``, validated once (a redrawn run
replaces only its reference), so runs measure the deployed detector.  No
module state: concurrent calls cannot see each other's references, and
runs come back in run-id order.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Tuple

import numpy as np
from scipy import stats as sps

from . import detector as detector_mod
from . import streams
from .batch import sliding_ks_stats, sliding_mean_diff_stats
from .calibration import ThresholdSchedule
from .statistics import KS, MEAN_DIFF, Kernel, ReferenceSet
from .streams import ChangePointModel, DistributionSpec
from .summaries import SummaryStatistic, apply_summary


class _Report:
    def to_dict(self) -> dict:
        """Every field but ``runs``; ``lam`` is written as ``lambda``."""
        return {
            "lambda" if f.name == "lam" else f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "runs"
        }


@dataclass
class RunLengthReport(_Report):
    """Aggregate of detection times on never-changing streams.

    ``mean_T`` estimates the expected run length to false detection; the
    slackness factor is alpha * mean_T, i.e. how far the measured mean
    sits above the 1/alpha lower bound.  Censored runs enter the moments
    at the cap value, which biases mean_T downward; ``censored_count``
    flags when that matters.
    """

    n_runs: int
    cap: int
    w: int
    mean_T: float
    median_T: float
    q10: float
    q90: float
    standard_error: float
    censored_count: int
    alpha: Optional[float] = None
    slackness: Optional[float] = None
    lam: Optional[int] = None
    p_leq_lambda: Optional[float] = None
    runs: Optional[List[Tuple[int, int, bool]]] = field(default=None, repr=False)


@dataclass
class DelayReport(_Report):
    """Aggregate of detection behaviour around a finite change point."""

    n_runs: int
    change_point: int
    mean_delay: Optional[float]
    false_alarm_fraction: float
    detected_after_change: int
    censored_count: int
    runs: Optional[List[Tuple[int, int, bool]]] = field(default=None, repr=False)


def check_stream(model: ChangePointModel, summary: SummaryStatistic) -> None:
    """Raise ``ValueError`` unless ``summary`` accepts the stream's samples."""
    check_sample(streams.sample_at(model, 1, master_seed=0), summary)


def check_sample(sample: np.ndarray, summary: SummaryStatistic) -> None:
    """Raise ``ValueError`` unless ``summary`` accepts one stream sample."""
    try:
        apply_summary(summary, sample)
    except ValueError as exc:
        raise ValueError(
            f"{np.size(sample)}-d stream samples do not fit the summary ({exc})"
        ) from None


@dataclass(frozen=True)
class _RunContext:
    """One Monte Carlo experiment; picklable, so it travels to workers."""

    config: detector_mod.DetectorConfig  # when redrawing, run 0's reference
    model: ChangePointModel
    cap: int
    master_seed: int
    redraw: Optional[DistributionSpec]  # draw each later run's reference from this


def _stream_blocks(ctx: _RunContext, run_id: int, t: int):
    """The run's samples from step ``t`` to the cap, as (first step, block)
    pairs; blocks grow from 128 to 1024 steps, so short runs stay cheap and
    long runs amortize the per-block cost."""
    size = 128
    while t <= ctx.cap:
        count = min(size, ctx.cap - t + 1)
        yield t, streams.generate_chunk(ctx.model, t, count, ctx.master_seed, run_id)
        t += count
        size = min(size * 2, 1024)


def _fast_detection_time(
    ctx: _RunContext, config: detector_mod.DetectorConfig, run_id: int
) -> Optional[int]:
    """Vectorized sliding-window scan; bitwise equal to the stepped detector."""
    w = config.window_size
    carry = (
        streams.generate_chunk(ctx.model, 1, w - 1, ctx.master_seed, run_id)[:, 0]
        if w > 1
        else np.empty(0, dtype=np.float64)
    )
    for t0, block in _stream_blocks(ctx, run_id, w):
        buf = np.concatenate((carry, block[:, 0]))
        if config.statistic == KS:
            stats = sliding_ks_stats(buf, config.reference, w)
        else:
            stats = sliding_mean_diff_stats(buf, config.reference, w)
        hits = stats > config.schedule.thresholds_for_range(t0, len(block))
        if np.any(hits):
            return t0 + int(np.argmax(hits))
        carry = buf[len(block):]
    return None


def _detection_time(ctx: _RunContext, run_id: int) -> Optional[int]:
    config = ctx.config
    if ctx.redraw is not None and run_id > 0:
        config = replace(config, reference=ReferenceSet(streams.draw_reference(
            ctx.redraw, config.reference.n, ctx.master_seed, run_id
        )))
    if config.statistic in (KS, MEAN_DIFF) and config.summary.kind == "identity":
        return _fast_detection_time(ctx, config, run_id)
    stream = (x for _, block in _stream_blocks(ctx, run_id, 1) for x in block)
    return detector_mod.run(config, stream, ctx.cap).detection_time


def _detection_times(
    schedule: ThresholdSchedule,
    model: ChangePointModel,
    n_runs: int,
    cap: int,
    master_seed: int,
    statistic: str,
    summary: Optional[SummaryStatistic],
    kernel: Optional[Kernel],
    reference: Optional[ReferenceSet],
    reference_spec: Optional[DistributionSpec],
    reference_size: Optional[int],
    workers: int,
) -> List[Optional[int]]:
    """Validate one experiment, then each run's detection time (None when
    censored), in run-id order."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if (reference is None) == (reference_spec is None):
        raise ValueError("pass exactly one of reference / reference_spec")
    if reference_spec is not None:
        if reference_size is None or reference_size < 2:
            raise ValueError("reference_spec needs reference_size >= 2")
        if schedule.kind != "fixed":
            raise ValueError(
                "per-run reference redraw only makes sense with fixed thresholds; "
                "calibrated schedules belong to one concrete reference"
            )
    if cap < schedule.w:
        raise ValueError("cap must be at least the window size")
    if summary is not None and summary.kind == "model_loss":
        raise ValueError(
            "model_loss summaries need per-instance labels, which synthetic "
            "streams do not carry"
        )
    if reference is None:
        reference = ReferenceSet(
            streams.draw_reference(reference_spec, reference_size, master_seed, 0)
        )
    config = detector_mod.DetectorConfig(
        reference, schedule, schedule.w, statistic, summary, kernel
    )
    check_stream(model, config.summary)
    run = functools.partial(
        _detection_time, _RunContext(config, model, cap, master_seed, reference_spec)
    )
    if workers <= 1:
        return [run(run_id) for run_id in range(n_runs)]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(run, range(n_runs), chunksize=max(1, n_runs // (workers * 8)))


def estimate_arl0(
    schedule: ThresholdSchedule,
    null_model: ChangePointModel,
    n_runs: int,
    cap: int,
    master_seed: int,
    statistic: str = KS,
    summary: Optional[SummaryStatistic] = None,
    kernel: Optional[Kernel] = None,
    reference: Optional[ReferenceSet] = None,
    reference_spec: Optional[DistributionSpec] = None,
    reference_size: Optional[int] = None,
    workers: int = 1,
    lam: Optional[int] = None,
) -> RunLengthReport:
    """Run-length-to-false-detection distribution on null streams.

    ``null_model`` must never change (infinite change point).  Censored
    runs (no detection by ``cap``) are kept, entered at the cap.
    """
    if null_model.change_point != math.inf:
        raise ValueError("estimate_arl0 requires a never-changing stream model")
    times = _detection_times(
        schedule, null_model, n_runs, cap, master_seed, statistic, summary, kernel,
        reference, reference_spec, reference_size, workers,
    )
    w = schedule.w
    rows = [
        (run_id, cap - w + 1 if t is None else t - w + 1, t is None)
        for run_id, t in enumerate(times)
    ]
    rel = np.array([t_rel for _, t_rel, _ in rows], dtype=np.float64)
    alpha = schedule.alpha
    mean_t = float(np.mean(rel))
    return RunLengthReport(
        n_runs=n_runs,
        cap=cap,
        w=w,
        mean_T=mean_t,
        median_T=float(np.quantile(rel, 0.5)),
        q10=float(np.quantile(rel, 0.1)),
        q90=float(np.quantile(rel, 0.9)),
        standard_error=(
            float(np.std(rel, ddof=1) / math.sqrt(n_runs)) if n_runs > 1 else float("nan")
        ),
        censored_count=times.count(None),
        alpha=alpha,
        slackness=None if alpha is None else alpha * mean_t,
        lam=lam,
        p_leq_lambda=None if lam is None else float(np.mean(rel <= lam)),
        runs=rows,
    )


def estimate_delay(
    schedule: ThresholdSchedule,
    model: ChangePointModel,
    n_runs: int,
    cap: int,
    master_seed: int,
    statistic: str = KS,
    summary: Optional[SummaryStatistic] = None,
    kernel: Optional[Kernel] = None,
    reference: Optional[ReferenceSet] = None,
    reference_spec: Optional[DistributionSpec] = None,
    reference_size: Optional[int] = None,
    workers: int = 1,
) -> DelayReport:
    """Detection-delay distribution around a finite change point.

    Detections before the change point count as false alarms (those runs
    halt; no restart).  The mean delay averages detection_time - tau over
    runs detecting at or after tau.
    """
    tau = model.change_point
    if not (tau != math.inf and tau >= schedule.w):
        raise ValueError(
            "estimate_delay requires a finite change point at or after the first "
            "test step; use estimate_arl0 for never-changing streams"
        )
    times = _detection_times(
        schedule, model, n_runs, cap, master_seed, statistic, summary, kernel,
        reference, reference_spec, reference_size, workers,
    )
    tau = int(tau)
    delays = [t - tau for t in times if t is not None and t >= tau]
    return DelayReport(
        n_runs=n_runs,
        change_point=tau,
        mean_delay=float(np.mean(delays)) if delays else None,
        false_alarm_fraction=sum(t is not None and t < tau for t in times) / n_runs,
        detected_after_change=len(delays),
        censored_count=times.count(None),
        runs=[
            (run_id, -1 if t is None else t, t is None) for run_id, t in enumerate(times)
        ],
    )


def geometric_gof_pvalue(
    run_lengths: np.ndarray, alpha: float, n_bins: int = 20
) -> float:
    """Chi-square goodness of fit of run lengths to Geometric(alpha).

    Bins are equal-probability under the hypothesised geometric law on
    {1, 2, ...} (duplicate edges merged, final bin open-ended), so
    expected counts stay balanced.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    run_lengths = np.asarray(run_lengths)
    if run_lengths.size < 10:
        raise ValueError("need at least 10 run lengths")
    if np.any(run_lengths < 1):
        raise ValueError("run lengths must be >= 1")
    edges = []
    for i in range(1, n_bins):
        q = i / n_bins
        t = math.ceil(math.log1p(-q) / math.log1p(-alpha))
        if not edges or t > edges[-1]:
            edges.append(t)
    if not edges:
        raise ValueError("alpha too large for the requested binning")
    # bins: [1, e0], (e0, e1], ..., (e_last, inf)
    bounds = np.array(edges, dtype=np.float64)
    observed = np.empty(bounds.size + 1, dtype=np.float64)
    observed[0] = np.sum(run_lengths <= bounds[0])
    for i in range(1, bounds.size):
        observed[i] = np.sum((run_lengths > bounds[i - 1]) & (run_lengths <= bounds[i]))
    observed[-1] = np.sum(run_lengths > bounds[-1])
    survival = np.power(1.0 - alpha, bounds)  # P(T > edge)
    probs = np.empty_like(observed)
    probs[0] = 1.0 - survival[0]
    probs[1:-1] = survival[:-1] - survival[1:]
    probs[-1] = survival[-1]
    expected = probs * run_lengths.size
    keep = expected >= 5.0
    if keep.sum() < 2:
        raise ValueError("too few usable bins; lower n_bins")
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    if exp[-1] == 0.0:
        obs, exp = obs[:-1], exp[:-1]
    result = sps.chisquare(obs, exp * (obs.sum() / exp.sum()))
    return float(result.pvalue)

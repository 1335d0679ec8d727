"""Monte Carlo measurement of run-length and detection-delay behaviour.

Runs many independent detectors on synthetic streams and aggregates
detection times.  Run lengths are counted in test opportunities (a
detection at the first full-window step counts as 1), the scale on which
the hazard/run-length targets are stated.  Every run is a row of one
lockstep engine built from the experiment's one ``DetectorConfig``,
validated once, the engine a deployed detector steps: blocks of streams
are drawn and summarised together, each step pushes one column, and rows
above the threshold drop out, as in calibration.  A redrawn reference
(fixed thresholds only) makes a run its own one-row group with its own
config; for ks / mean_diff such a run is a vectorized sliding scan, the
only use of the scan.  Every run's randomness is derived from (master
seed, run index), so reports are bitwise independent of how runs are
grouped and of the worker count.  No module state: concurrent calls
cannot see each other's references, and runs come back in run-id order.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Tuple

import numpy as np
import scipy  # subpackages via attributes: each loads on first use, not at import

from . import streams
from .batch import make_batch_engine, sliding_ks_stats, sliding_mean_diff_stats
from .calibration import ThresholdSchedule, _is_a
from .detector import DetectorConfig
from .statistics import KS, MEAN_DIFF, Kernel, ReferenceSet
from .streams import ChangePointModel, DistributionSpec
from .summaries import SummaryStatistic, apply_summary, apply_summary_rows


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

    config: DetectorConfig  # when redrawing, run 0's reference
    model: ChangePointModel
    cap: int
    master_seed: int
    redraw: Optional[DistributionSpec]  # draw each later run's reference from this


# Runs per engine: bounds a block of stream samples at 1024 runs x 1024 steps.
_RUN_BLOCK = 1024


def _stream_blocks(t: int, cap: int):
    """(first step, step count) of the blocks covering steps ``t`` to ``cap``;
    blocks grow from 128 to 1024 steps, so short runs stay cheap and long
    runs amortize the per-block cost."""
    size = 128
    while t <= cap:
        count = min(size, cap - t + 1)
        yield t, count
        t += count
        size = min(size * 2, 1024)


def _summary_block(
    summary: SummaryStatistic,
    model: ChangePointModel,
    t: int,
    count: int,
    master_seed: int,
    run_ids,
) -> np.ndarray:
    """Summaries of steps ``t .. t + count - 1`` of each run, shape
    (count, runs, out_dim); each run's samples come from its own key."""
    raw = np.empty((count, len(run_ids), model.dim), dtype=np.float64)
    for i, run_id in enumerate(run_ids):
        raw[:, i] = streams.generate_chunk(model, t, count, master_seed, run_id)
    return apply_summary_rows(summary, raw.reshape(-1, model.dim)).reshape(
        count, len(run_ids), summary.out_dim
    )


def _lockstep_detection_times(
    config: DetectorConfig,
    model: ChangePointModel,
    cap: int,
    master_seed: int,
    run_ids,
) -> List[Optional[int]]:
    """Detection times (None when censored) of runs ``run_ids``, each a row
    of one engine.

    Every step pushes one column, reads the live rows' statistics, and
    drops the rows above the threshold.  The engines' per-row expressions
    do not depend on the number of rows, so each time equals a lone
    detector's on the same stream, whatever runs share the engine.
    """
    rows = len(run_ids)
    engine = make_batch_engine(
        config.statistic, config.reference, config.window_size, rows, config.kernel
    )
    times: List[Optional[int]] = [None] * rows
    active = np.arange(rows)  # engine rows still running
    col = np.zeros((rows, config.reference.dim), dtype=np.float64)
    for t0, count in _stream_blocks(1, cap):
        block = _summary_block(
            config.summary, model, t0, count, master_seed, [run_ids[i] for i in active]
        )
        live = np.arange(active.size)  # each active row's column of the block
        for t in range(t0, t0 + count):
            col[active] = block[t - t0, live]
            # None while every row is live, so the engines slice rather than gather
            engine.push_column(col, None if active.size == rows else active)
            threshold = config.schedule.threshold_at(t)
            if threshold is None:
                continue
            hit = engine.statistics(active) > threshold
            if hit.any():
                for row in active[hit]:
                    times[row] = t
                active, live = active[~hit], live[~hit]
                if not active.size:
                    return times
    return times


def _fast_detection_time(ctx: _RunContext, config: DetectorConfig, run_id: int) -> Optional[int]:
    """Vectorized sliding-window scan of one scalar-summary run; bitwise
    equal to the engines."""
    w = config.window_size
    scan = sliding_ks_stats if config.statistic == KS else sliding_mean_diff_stats

    def summaries(t, count):
        return _summary_block(config.summary, ctx.model, t, count, ctx.master_seed, [run_id])[:, 0, 0]

    carry = summaries(1, w - 1) if w > 1 else np.empty(0, dtype=np.float64)
    for t0, count in _stream_blocks(w, ctx.cap):
        buf = np.concatenate((carry, summaries(t0, count)))
        hits = scan(buf, config.reference, w) > config.schedule.thresholds_for_range(t0, count)
        if np.any(hits):
            return t0 + int(np.argmax(hits))
        carry = buf[count:]
    return None


def _redrawn_detection_time(ctx: _RunContext, run_id: int) -> Optional[int]:
    """One run against its own reference: a sliding scan for ks / mean_diff,
    else a one-row engine."""
    config = ctx.config
    if run_id > 0:
        config = replace(config, reference=ReferenceSet(streams.draw_reference(
            ctx.redraw, config.reference.n, ctx.master_seed, run_id
        )))
    if config.statistic in (KS, MEAN_DIFF):
        return _fast_detection_time(ctx, config, run_id)
    return _lockstep_detection_times(config, ctx.model, ctx.cap, ctx.master_seed, [run_id])[0]


def _block_detection_times(ctx: _RunContext, run_ids: np.ndarray) -> List[Optional[int]]:
    """Detection times of a contiguous block of runs, in run-id order."""
    if ctx.redraw is not None:
        return [_redrawn_detection_time(ctx, int(run_id)) for run_id in run_ids]
    return _lockstep_detection_times(ctx.config, ctx.model, ctx.cap, ctx.master_seed, run_ids)


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
    config = DetectorConfig(reference, schedule, schedule.w, statistic, summary, kernel)
    check_stream(model, config.summary)
    ctx = _RunContext(config, model, cap, master_seed, reference_spec)
    # contiguous blocks of run ids, at least one per worker
    n_blocks = min(n_runs, max(workers, -(-n_runs // _RUN_BLOCK)))
    blocks = np.array_split(np.arange(n_runs), n_blocks)
    run = functools.partial(_block_detection_times, ctx)
    if workers <= 1:
        parts = map(run, blocks)
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            parts = pool.map(run, blocks)
    return [t for part in parts for t in part]


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
    if not _is_a(n_bins, numbers.Integral) or n_bins < 2:
        raise ValueError("n_bins must be an integer >= 2")
    run_lengths = np.asarray(run_lengths)
    if run_lengths.ndim != 1:
        raise ValueError("run_lengths must be 1-d")
    if run_lengths.size < 10:
        raise ValueError("need at least 10 run lengths")
    if not np.all(np.isfinite(run_lengths)):
        raise ValueError("run lengths must be finite")
    if np.any(run_lengths != np.floor(run_lengths)):
        raise ValueError("run lengths must be integers")
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
    exp = exp * (obs.sum() / exp.sum())
    # Pearson's statistic and its chi-square(k - 1) upper tail, as scipy.stats.chisquare
    return float(scipy.special.chdtrc(obs.size - 1, ((obs - exp) ** 2 / exp).sum()))

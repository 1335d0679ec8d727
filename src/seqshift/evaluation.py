"""Monte Carlo measurement of run-length and detection-delay behaviour.

Runs many independent detector instances on synthetic streams and
aggregates detection times.  Run lengths are counted in test opportunities
(a detection at the first full-window step counts as 1), the scale on
which the hazard/run-length targets are stated.  Parallelism is across
runs; every run's randomness is derived from (master seed, run index), so
reports are bitwise independent of the worker count.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy import stats as sps

from . import detector as detector_mod
from . import streams
from .batch import check_statistic, sliding_ks_stats, sliding_mean_diff_stats
from .calibration import ThresholdSchedule
from .statistics import KS, MEAN_DIFF, Kernel, ReferenceSet
from .streams import ChangePointModel, DistributionSpec
from .summaries import SummaryStatistic, identity


@dataclass
class RunLengthReport:
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

    def to_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "cap": self.cap,
            "w": self.w,
            "mean_T": self.mean_T,
            "median_T": self.median_T,
            "q10": self.q10,
            "q90": self.q90,
            "standard_error": self.standard_error,
            "censored_count": self.censored_count,
            "alpha": self.alpha,
            "slackness": self.slackness,
            "lambda": self.lam,
            "p_leq_lambda": self.p_leq_lambda,
        }


@dataclass
class DelayReport:
    """Aggregate of detection behaviour around a finite change point."""

    n_runs: int
    change_point: int
    mean_delay: Optional[float]
    false_alarm_fraction: float
    detected_after_change: int
    censored_count: int
    runs: Optional[List[Tuple[int, int, bool]]] = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "change_point": self.change_point,
            "mean_delay": self.mean_delay,
            "false_alarm_fraction": self.false_alarm_fraction,
            "detected_after_change": self.detected_after_change,
            "censored_count": self.censored_count,
        }


def slackness(report: RunLengthReport, alpha: float) -> float:
    """Ratio of the measured mean run length to the 1/alpha lower bound."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return alpha * report.mean_T


@dataclass(frozen=True)
class _RunContext:
    """Shared, picklable description of one Monte Carlo experiment."""

    master_seed: int
    model: ChangePointModel
    w: int
    statistic: str
    schedule: ThresholdSchedule
    cap: int
    summary: SummaryStatistic
    kernel: Optional[Kernel]
    reference_values: Optional[np.ndarray]
    reference_spec: Optional[DistributionSpec]
    reference_size: Optional[int]

    def fast_path(self) -> bool:
        return (
            self.statistic in (KS, MEAN_DIFF)
            and self.summary.kind == "identity"
            and self.model.dim == 1
        )


_WORKER_CTX: Optional[_RunContext] = None
_WORKER_REF: Optional[ReferenceSet] = None


def _init_worker(ctx: _RunContext) -> None:
    global _WORKER_CTX, _WORKER_REF
    _WORKER_CTX = ctx
    _WORKER_REF = (
        ReferenceSet(ctx.reference_values) if ctx.reference_values is not None else None
    )


def _reference_for_run(ctx: _RunContext, run_id: int) -> ReferenceSet:
    if _WORKER_REF is not None:
        return _WORKER_REF
    values = streams.draw_reference(
        ctx.reference_spec, ctx.reference_size, ctx.master_seed, run_id
    )
    return ReferenceSet(values)


def _fast_detection_time(
    ctx: _RunContext, ref: ReferenceSet, run_id: int
) -> Optional[int]:
    """Vectorized sliding-window scan; bitwise equal to the stepped detector."""
    w = ctx.w
    carry = (
        streams.generate_chunk(ctx.model, 1, w - 1, ctx.master_seed, run_id)[:, 0]
        if w > 1
        else np.empty(0, dtype=np.float64)
    )
    # grow the chunk geometrically: short runs stay cheap, long runs amortize
    chunk = 128
    t0 = w
    while t0 <= ctx.cap:
        count = min(chunk, ctx.cap - t0 + 1)
        chunk = min(chunk * 2, 1024)
        new = streams.generate_chunk(ctx.model, t0, count, ctx.master_seed, run_id)[:, 0]
        buf = np.concatenate((carry, new))
        if ctx.statistic == KS:
            stats = sliding_ks_stats(buf, ref, w)
        else:
            stats = sliding_mean_diff_stats(buf, ref, w)
        hits = stats > ctx.schedule.thresholds_for_range(t0, count)
        if np.any(hits):
            return t0 + int(np.argmax(hits))
        carry = buf[count:].copy() if w > 1 else carry
        t0 += count
    return None


def _stepped_detection_time(
    ctx: _RunContext, ref: ReferenceSet, run_id: int
) -> Optional[int]:
    config = detector_mod.DetectorConfig(
        reference=ref,
        schedule=ctx.schedule,
        window_size=ctx.w,
        statistic=ctx.statistic,
        summary=ctx.summary,
        kernel=ctx.kernel,
    )

    def stream():
        chunk = 2048
        t = 1
        while t <= ctx.cap:
            count = min(chunk, ctx.cap - t + 1)
            block = streams.generate_chunk(ctx.model, t, count, ctx.master_seed, run_id)
            yield from block
            t += count

    result = detector_mod.run(config, stream(), ctx.cap)
    return result.detection_time


def _execute_run(run_id: int) -> Tuple[int, Optional[int]]:
    ctx = _WORKER_CTX
    ref = _reference_for_run(ctx, run_id)
    if ctx.fast_path():
        return run_id, _fast_detection_time(ctx, ref, run_id)
    return run_id, _stepped_detection_time(ctx, ref, run_id)


def _collect_detection_times(
    ctx: _RunContext, n_runs: int, workers: int
) -> List[Tuple[int, Optional[int]]]:
    run_ids = list(range(n_runs))
    if workers <= 1:
        _init_worker(ctx)
        results = [_execute_run(i) for i in run_ids]
    else:
        with multiprocessing.Pool(
            processes=workers, initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            results = pool.map(_execute_run, run_ids, chunksize=max(1, n_runs // (workers * 8)))
    return sorted(results)


def _build_context(
    schedule: ThresholdSchedule,
    model: ChangePointModel,
    cap: int,
    master_seed: int,
    statistic: str,
    summary: Optional[SummaryStatistic],
    kernel: Optional[Kernel],
    reference: Optional[ReferenceSet],
    reference_spec: Optional[DistributionSpec],
    reference_size: Optional[int],
) -> _RunContext:
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
    w = schedule.w
    if cap < w:
        raise ValueError("cap must be at least the window size")
    dim = reference.dim if reference is not None else reference_spec.dim
    check_statistic(statistic, dim, w, kernel)
    if summary is not None and summary.kind == "model_loss":
        raise ValueError(
            "model_loss summaries need per-instance labels, which synthetic "
            "streams do not carry"
        )
    if summary is None:
        summary = identity(dim)
    return _RunContext(
        master_seed=master_seed,
        model=model,
        w=w,
        statistic=statistic,
        schedule=schedule,
        cap=cap,
        summary=summary,
        kernel=kernel,
        reference_values=None if reference is None else reference.values,
        reference_spec=reference_spec,
        reference_size=reference_size,
    )


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
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    ctx = _build_context(
        schedule, null_model, cap, master_seed, statistic, summary, kernel,
        reference, reference_spec, reference_size,
    )
    results = _collect_detection_times(ctx, n_runs, workers)

    w = schedule.w
    cap_rel = cap - w + 1
    rows: List[Tuple[int, int, bool]] = []
    rel = np.empty(n_runs, dtype=np.float64)
    censored_count = 0
    for run_id, t_abs in results:
        censored = t_abs is None
        t_rel = cap_rel if censored else t_abs - w + 1
        censored_count += censored
        rel[run_id] = t_rel
        rows.append((run_id, t_rel, censored))

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
        censored_count=censored_count,
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
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    ctx = _build_context(
        schedule, model, cap, master_seed, statistic, summary, kernel,
        reference, reference_spec, reference_size,
    )
    results = _collect_detection_times(ctx, n_runs, workers)

    tau = int(tau)
    rows: List[Tuple[int, int, bool]] = []
    delays: List[int] = []
    false_alarms = 0
    censored_count = 0
    for run_id, t_abs in results:
        if t_abs is None:
            censored_count += 1
            rows.append((run_id, -1, True))
            continue
        rows.append((run_id, t_abs, False))
        if t_abs < tau:
            false_alarms += 1
        else:
            delays.append(t_abs - tau)
    return DelayReport(
        n_runs=n_runs,
        change_point=tau,
        mean_delay=float(np.mean(delays)) if delays else None,
        false_alarm_fraction=false_alarms / n_runs,
        detected_after_change=len(delays),
        censored_count=censored_count,
        runs=rows,
    )


def geometric_gof_pvalue(
    run_lengths: np.ndarray, alpha: float, n_bins: int = 20
) -> float:
    """Chi-square goodness of fit of run lengths to Geometric(alpha).

    Bins are equal-probability under the hypothesised geometric law on
    {1, 2, ...} (duplicate edges merged, final bin open-ended), so
    expected counts stay balanced.
    """
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

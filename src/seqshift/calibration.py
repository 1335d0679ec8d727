"""Detection-threshold construction.

Two families of thresholds:

* conventional fixed thresholds estimating the level the *first* test
  statistic exceeds with probability alpha (asymptotic closed form for the
  KS distance, or a permutation estimate for any statistic) -- these only
  lower-bound the expected run length to false detection, because
  consecutive sliding-window statistics are strongly correlated; and
* simulation-calibrated time-varying schedules, built so the run length to
  false detection approximately follows a geometric law with per-step
  hazard alpha.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .batch import check_statistic, ks_stats_from_count_rows, make_batch_engine
from .statistics import _MAX_PAIR_ENTRIES, KS, MMD, Kernel, ReferenceSet, _check_count, _is_a

FIXED = "fixed"
TIME_VARYING = "time_varying"

# Hard floor on surviving calibration streams; quantile estimates degrade
# below this.  The companion sizing rule is n_streams >= floor / (1-alpha)
# ** (t_max - w + 1).
DEFAULT_MIN_SURVIVORS = 100

_SCHEDULE_KEYS = {"kind", "w", "T_max", "alpha", "values", "fixed_h", "meta"}


@dataclass(frozen=True)
class CalibrationTarget:
    """False-detection behaviour to aim for.

    ``alpha`` is the per-test-step hazard, so the expected run length to
    false detection is 1/alpha.
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")


@dataclass(frozen=True)
class ThresholdSchedule:
    """Per-step detection thresholds.

    Steps t < w are warm-up and carry no threshold.  Fixed schedules apply
    ``fixed_h`` from t = w on; time-varying schedules hold one value per
    step for t = w..t_max and extend beyond t_max at the final plateau
    value.
    """

    kind: str
    w: int
    alpha: Optional[float] = None
    fixed_h: Optional[float] = None
    values: Optional[np.ndarray] = None
    t_max: Optional[int] = None

    def __post_init__(self):
        if self.kind not in (FIXED, TIME_VARYING):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not _is_a(self.w, numbers.Integral) or self.w < 1:
            raise ValueError(f"w must be an integer >= 1, got {self.w!r}")
        alpha = self.alpha
        if alpha is not None and not (_is_a(alpha, numbers.Real) and 0.0 < alpha < 1.0):
            raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
        if self.kind == FIXED:
            if self.values is not None or self.t_max is not None:
                raise ValueError("fixed schedule takes no values or t_max")
            # +inf is a legitimate never-detect sentinel; only NaN is nonsense
            if not _is_a(self.fixed_h, numbers.Real) or math.isnan(self.fixed_h):
                raise ValueError("fixed schedule requires a numeric fixed_h")
        else:
            if self.fixed_h is not None:
                raise ValueError("time-varying schedule takes no fixed_h")
            if self.values is None or self.t_max is None:
                raise ValueError("time-varying schedule requires values and t_max")
            if not _is_a(self.t_max, numbers.Integral) or self.t_max < self.w:
                raise ValueError(f"t_max must be an integer >= w, got {self.t_max!r}")
            values = self.values  # an array, or a schedule file's list: never coerced
            if not (values.dtype.kind in "fiu" if isinstance(values, np.ndarray) else
                    isinstance(values, list) and all(_is_a(v, numbers.Real) for v in values)):
                raise ValueError("schedule values must be a list of numbers")
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (self.t_max - self.w + 1,):
                raise ValueError(
                    f"values must cover t = w..t_max: expected length "
                    f"{self.t_max - self.w + 1}, got {values.shape}"
                )
            if not np.all(np.isfinite(values)):
                raise ValueError("schedule values must be finite")
            object.__setattr__(self, "values", values)

    def threshold_at(self, t: int) -> Optional[float]:
        """Threshold for step ``t``, or None during warm-up (t < w)."""
        if t < 1:
            raise ValueError("t must be >= 1")
        if t < self.w:
            return None
        if self.kind == FIXED:
            return float(self.fixed_h)
        idx = min(t, self.t_max) - self.w
        return float(self.values[idx])

    def thresholds_for_range(self, t_start: int, count: int) -> np.ndarray:
        """Vector of thresholds for steps t_start..t_start+count-1 (all >= w)."""
        if t_start < self.w:
            raise ValueError("range must start at or after the first test step")
        if self.kind == FIXED:
            return np.full(count, self.fixed_h, dtype=np.float64)
        idx = np.minimum(np.arange(t_start, t_start + count), self.t_max) - self.w
        return self.values[idx]

    # -- serialization ----------------------------------------------------

    def to_json_dict(self, meta: Optional[dict] = None) -> dict:
        doc = {
            "kind": self.kind,
            "w": self.w,
            "T_max": self.t_max,
            "alpha": self.alpha,
            "fixed_h": self.fixed_h,
            "values": None if self.values is None else [float(v) for v in self.values],
        }
        if meta is not None:
            doc["meta"] = meta
        return doc

    def to_json(self, meta: Optional[dict] = None) -> str:
        return json.dumps(self.to_json_dict(meta), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ThresholdSchedule":
        if not isinstance(doc, dict):
            raise ValueError("schedule document must be a JSON object")
        unknown = set(doc) - _SCHEDULE_KEYS
        if unknown:
            raise ValueError(f"unknown schedule keys: {sorted(unknown)}")
        missing = {"kind", "w", "alpha"} - set(doc)
        if missing:
            raise ValueError(f"schedule document missing keys: {sorted(missing)}")
        return cls(
            kind=doc["kind"],
            w=doc["w"],
            alpha=doc["alpha"],
            fixed_h=doc.get("fixed_h"),
            values=doc.get("values"),
            t_max=doc.get("T_max"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ThresholdSchedule":
        return cls.from_json_dict(json.loads(text))


def fixed_threshold(h: float, w: int, alpha: Optional[float] = None) -> ThresholdSchedule:
    """Wrap an externally chosen constant threshold."""
    return ThresholdSchedule(kind=FIXED, w=w, alpha=alpha, fixed_h=float(h))


def ks_asymptotic_threshold(n: int, w: int, alpha: float) -> ThresholdSchedule:
    """Classical two-sample KS critical value at level alpha.

    h = c(alpha) * sqrt((n + w) / (n * w)) with c(alpha) =
    sqrt(ln(2 / alpha) / 2): the level the first KS statistic exceeds with
    probability roughly alpha, in the large-sample limit.
    """
    _check_count("n", n, 1)
    _check_count("w", w, 1)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    c = math.sqrt(math.log(2.0 / alpha) / 2.0)
    h = c * math.sqrt((n + w) / (n * w))
    return ThresholdSchedule(kind=FIXED, w=w, alpha=alpha, fixed_h=h)


def high_order_statistic(values: np.ndarray, alpha: float) -> float:
    """The ceil((1 - alpha) * m)-th order statistic, no interpolation.

    Conservative and unambiguous under ties.  The epsilon guard keeps
    exact integer boundaries (e.g. 0.98 * 20000) from being pushed up a
    rank by float representation error.
    """
    values = np.asarray(values, dtype=np.float64)
    m = values.shape[0]
    if m == 0:
        raise ValueError("no values to take an order statistic of")
    return _kth_smallest(values, _order_rank(m, alpha))


def _order_rank(m: int, alpha: float) -> int:
    """The rank k = ceil((1 - alpha) * m) of :func:`high_order_statistic`, in 1..m."""
    return min(max(math.ceil((1.0 - alpha) * m - 1e-9), 1), m)


def _kth_smallest(values: np.ndarray, k: int) -> float:
    return float(np.partition(values, k - 1)[k - 1])


def permutation_threshold(
    reference: ReferenceSet,
    w: int,
    alpha: float,
    n_perm: int,
    statistic: str = KS,
    kernel: Optional[Kernel] = None,
    master_seed: int = 0,
) -> ThresholdSchedule:
    """Offline permutation estimate of the first-test threshold.

    Each permutation splits the reference into a pseudo-window of size w
    and a pseudo-reference of the remaining n - w points and computes the
    statistic between them; the threshold is the ceil((1 - alpha) *
    n_perm)-th order statistic of those values.  KS ranks each split with
    the engines' kernel, :func:`ks_stats_from_count_rows`.  The MMD kernel
    matrix is computed once and reused across permutations; a reference
    whose n x n matrix would exceed 120M entries (n > 10954) is refused
    before it is built.
    """
    check_statistic(statistic, reference.dim, w, kernel)
    if w >= reference.n:
        raise ValueError(f"w must be smaller than the reference size ({reference.n})")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    needed = math.ceil(10.0 / alpha)
    _check_count("n_perm", n_perm, 1)
    if n_perm < needed:
        raise ValueError(
            f"n_perm={n_perm} cannot resolve the alpha={alpha} tail; need >= {needed}"
        )

    gen = rng.generator(master_seed, rng.LANE_PERMUTATION, 0)
    n = reference.n
    stats = np.empty(n_perm, dtype=np.float64)

    if statistic == MMD:
        if n * n > _MAX_PAIR_ENTRIES:
            raise ValueError(
                f"the permutation null holds the {n} x {n} reference kernel matrix: "
                f"{n}^2 x 8 bytes = {8 * n * n:,} bytes, above the "
                f"{8 * _MAX_PAIR_ENTRIES:,}-byte limit; use a reference of at most "
                f"{math.isqrt(_MAX_PAIR_ENTRIES)} points"
            )
        K = kernel.matrix(reference.values, reference.values)
        diag = np.diag(K).copy()
        total = float(K.sum())
        row_sums = K.sum(axis=1)
        m_ref = n - w
        for b in range(n_perm):
            win = gen.permutation(n)[:w]
            Kww = K[np.ix_(win, win)]
            b_sum = float(Kww.sum()) - float(diag[win].sum())
            cross = float(row_sums[win].sum()) - float(Kww.sum())
            a_sum = total - 2.0 * float(row_sums[win].sum()) + float(Kww.sum()) - (
                float(diag.sum()) - float(diag[win].sum())
            )
            stats[b] = (
                a_sum / (m_ref * (m_ref - 1))
                + b_sum / (w * (w - 1))
                - 2.0 * cross / (m_ref * w)
            )
    else:
        scalars = reference.values[:, 0]
        for b in range(n_perm):
            perm = gen.permutation(n)
            win = np.sort(scalars[perm[:w]])
            pseudo_ref = np.sort(scalars[perm[w:]])
            if statistic == KS:
                counts = np.stack((
                    pseudo_ref.searchsorted(win, side="right"),
                    -pseudo_ref.searchsorted(win, side="left"),
                ), dtype=np.int32)
                stats[b] = ks_stats_from_count_rows(counts[None], n - w, w)[0]
            else:
                stats[b] = float(pseudo_ref.mean() - win.mean())

    h = high_order_statistic(stats, alpha)
    return ThresholdSchedule(kind=FIXED, w=w, alpha=alpha, fixed_h=h)


def required_streams(alpha: float, w: int, t_max: int, min_survivors: int) -> int:
    """Smallest calibration-stream count expected to keep the survivor floor."""
    return math.ceil(min_survivors / (1.0 - alpha) ** (t_max - w + 1))


def calibrate_schedule(
    reference: ReferenceSet,
    w: int,
    target: CalibrationTarget,
    t_max: int,
    n_streams: int,
    statistic: str = KS,
    kernel: Optional[Kernel] = None,
    master_seed: int = 0,
    min_survivors: int = DEFAULT_MIN_SURVIVORS,
    diagnostics: Optional[dict] = None,
) -> ThresholdSchedule:
    """Simulation-calibrated time-varying thresholds.

    Simulates ``n_streams`` pseudo-null streams by sampling the reference
    with replacement (the reference itself stays fixed as the comparison
    baseline).  At each step t = w..t_max the conditional (1 - alpha)
    quantile of the surviving streams' statistics becomes the threshold,
    and streams strictly above it are eliminated -- exactly mirroring a
    deployed detector, so surviving streams at step t reproduce the
    conditional statistic distribution given no detection before t.  Every
    pushed point is a reference atom, so the engine receives the drawn
    atom indices and gathers the reference's per-atom tables (KS CDF
    counts, MMD cross sums, built once per reference and kernel, the MMD
    ones in the self-sum's kernel pass) instead of evaluating each point
    against the whole reference at every step.  The MMD engine also
    gathers each window's self-sum terms from an n x n atom-pair kernel
    table that it builds per call with ``Kernel.rowwise``, and frees with
    itself, for references of up to 2896 atoms (64 MiB); larger ones
    evaluate the kernel per pushed point, as the detector does.  Either
    way the schedule has the same bytes.  From the second test step on, a
    row whose bound from the engine's ``max_step`` (1/w per push for KS,
    stated at ``batch.BatchKsEngine.max_step``; none for mean_diff and
    MMD) keeps it below the k-th smallest lower bound is strictly below the
    threshold, so it survives without being computed; the threshold is the
    same order statistic of the computed rows, shifted by the skipped count.

    Raises if the surviving-stream count falls (or is bound to fall) below
    ``min_survivors`` before ``t_max``; the message carries the sizing
    rule for choosing ``n_streams``.  Pass a dict as ``diagnostics`` to
    receive the per-step survivor counts (after each elimination).
    """
    check_statistic(statistic, reference.dim, w, kernel)
    _check_count("t_max", t_max, w)
    _check_count("n_streams", n_streams, 1)
    _check_count("min_survivors", min_survivors, 1)
    alpha = target.alpha
    needed = required_streams(alpha, w, t_max, min_survivors)
    if n_streams < needed:
        raise ValueError(
            f"n_streams={n_streams} is expected to drop below the survivor floor "
            f"({min_survivors}) before t_max={t_max}: need n_streams >= "
            f"ceil({min_survivors} / (1 - alpha) ** (t_max - w + 1)) = {needed}"
        )

    gen = rng.generator(master_seed, rng.LANE_CALIBRATION, 0)
    draws = gen.integers(0, reference.n, size=(n_streams, t_max), dtype=np.int64)

    engine = make_batch_engine(statistic, reference, w, n_streams, kernel)
    for j in range(w - 1):
        atoms = draws[:, j]
        engine.push_column(reference.values[atoms], None, atoms=atoms)

    step = engine.max_step(w)
    active = np.arange(n_streams)
    # each live row's last computed statistic and its step; -inf: never computed
    last = np.zeros(n_streams, dtype=np.float64)
    since = np.full(n_streams, -np.inf)
    values = np.empty(t_max - w + 1, dtype=np.float64)
    survivor_counts = np.empty(t_max - w + 1, dtype=np.int64)
    for t in range(w, t_max + 1):
        m = active.shape[0]
        if m < min_survivors:
            raise ValueError(
                f"surviving streams fell below the floor ({min_survivors}) at step "
                f"{t}; size the simulation with n_streams >= ceil(min_survivors / "
                f"(1 - alpha) ** (t_max - w + 1)) = {required_streams(alpha, w, t_max, min_survivors)}"
            )
        atoms = draws[:, t - 1]
        engine.push_column(reference.values[atoms], active, atoms=atoms)
        # the threshold is at least L, the k-th smallest lower bound, so a row
        # whose upper bound is below L survives and is not computed; the
        # threshold is then the (k - skipped)-th smallest computed statistic
        slack = (t - since) * step + 1e-9
        k = _order_rank(m, alpha)
        computed = np.flatnonzero(last + slack >= _kth_smallest(last - slack, k))
        stats = engine.statistics(active[computed])
        h = _kth_smallest(stats, k - (m - computed.shape[0]))
        values[t - w] = h
        last[computed] = stats
        since[computed] = t
        keep = np.ones(m, dtype=bool)
        keep[computed[stats > h]] = False
        active, last, since = active[keep], last[keep], since[keep]
        survivor_counts[t - w] = active.shape[0]

    if diagnostics is not None:
        diagnostics["survivor_counts"] = survivor_counts
        diagnostics["n_streams"] = n_streams
    return ThresholdSchedule(
        kind=TIME_VARYING, w=w, alpha=alpha, values=values, t_max=t_max
    )

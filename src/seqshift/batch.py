"""The incremental statistic engines: one per statistic, many streams at once.

A ``Batch*Engine`` advances any number of sliding windows in lockstep (one
ring-buffer column per step).  Threshold calibration runs thousands of
pseudo-null streams through one engine, and the deployed detector is the
one-row case of the same engine, so the statistic a detector computes is
the one calibration ranked.  Every per-row expression is independent of
the number of rows, and the ``sliding_*_stats`` scans the Monte Carlo
harness uses on scalar streams repeat the engines' expressions, so a
vectorized run and a stepped run of the same stream agree bitwise.

Calibration only ever pushes reference atoms, so it passes their indices
as ``push_column(..., atoms=idx)`` and the engines gather the reference's
per-atom tables (KS CDF counts, MMD cross sums), built once per reference
and kernel (rbf cross sums in the self-sum's pass) by the very expression
the value path applies to a point, so both paths give the same bits.  The
engines keep only per-stream state; the detector pushes points.

:func:`check_statistic` is the one statement of each statistic's rules;
the engines, the detector, calibration, the Monte Carlo harness and the
CLI call it rather than restate them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .statistics import KS, MMD, STATISTIC_KINDS, Kernel, ReferenceSet, _WindowRing


def check_statistic(statistic: str, dim: int, w: int, kernel: Optional[Kernel]) -> None:
    """Raise ValueError unless ``statistic`` can run on ``dim``-dimensional
    summaries in windows of ``w`` with ``kernel``."""
    if statistic not in STATISTIC_KINDS:
        raise ValueError(f"unknown statistic {statistic!r}; expected one of {list(STATISTIC_KINDS)}")
    if w < 1:
        raise ValueError("window size must be >= 1")
    if statistic == MMD:
        if kernel is None:
            raise ValueError("the MMD statistic requires a kernel")
        if w < 2:
            raise ValueError("the MMD statistic needs window size >= 2")
    elif dim != 1:
        raise ValueError(f"{statistic} requires scalar summaries, got dimension {dim}")
    elif kernel is not None:
        raise ValueError(f"{statistic} takes no kernel")


def ks_stats_from_count_rows(
    left_rows: np.ndarray, right_rows: np.ndarray, n: int, w: int
) -> np.ndarray:
    """KS distance per row from unordered per-element reference CDF counts.

    The reference counts are non-decreasing functions of the value, so
    sorting a window's counts as integers recovers them in value order (a
    sort of the values themselves is never needed); the per-element
    expressions mirror the plain ``statistics._ks_from_counts`` bitwise.
    """
    left_sorted = np.sort(left_rows, axis=1)
    right_sorted = np.sort(right_rows, axis=1)
    ranks = np.arange(1, w + 1, dtype=np.float64)
    d_plus = np.max(ranks / w - right_sorted / n, axis=1)
    d_minus = np.max(left_sorted / n - (ranks - 1.0) / w, axis=1)
    return np.maximum(d_plus, d_minus)


def sliding_ks_stats(buf: np.ndarray, reference: ReferenceSet, w: int) -> np.ndarray:
    """KS statistics for every size-w sliding window over ``buf``.

    ``buf`` holds w - 1 carried values followed by the chunk's new values;
    the result has one statistic per new value.
    """
    left, right = reference.cdf_counts(buf)
    left_rows = np.lib.stride_tricks.sliding_window_view(left, w)
    right_rows = np.lib.stride_tricks.sliding_window_view(right, w)
    return ks_stats_from_count_rows(left_rows, right_rows, reference.n, w)


def sliding_mean_diff_stats(
    buf: np.ndarray, reference: ReferenceSet, w: int
) -> np.ndarray:
    """Mean-difference statistics for every size-w sliding window over ``buf``."""
    windows = np.lib.stride_tricks.sliding_window_view(buf, w)
    return reference.scalar_mean - np.sum(windows, axis=1) / w


class BatchKsEngine(_WindowRing):
    """Lockstep sliding windows for many streams, KS statistic.

    Stores each element's reference CDF counts rather than its value: one
    binary search per arriving value, or a gather from the reference's
    per-atom counts for reference atoms; integer sorts per statistic.
    """

    def __init__(self, reference: ReferenceSet, w: int, n_streams: int):
        super().__init__(w)
        self.reference = reference
        self._left = np.zeros((n_streams, w), dtype=np.int32)
        self._right = np.zeros((n_streams, w), dtype=np.int32)

    def push_column(
        self, col: np.ndarray, active: Optional[np.ndarray], atoms: Optional[np.ndarray] = None
    ) -> None:
        """Append one value per row; ``atoms``, if given, are the reference
        indices the values were drawn from (``col == reference.values[atoms]``)."""
        if atoms is None:
            left, right = self.reference.cdf_counts(np.asarray(col, dtype=np.float64).reshape(-1))
        else:
            left, right = (counts[atoms] for counts in self.reference.atom_counts)
        # dead rows receive garbage harmlessly; they are never read again
        slot = self._next_slot()
        self._left[:, slot] = left
        self._right[:, slot] = right

    def statistics(self, active: np.ndarray) -> np.ndarray:
        self._require_full()
        return ks_stats_from_count_rows(
            self._left[active], self._right[active], self.reference.n, self.w
        )


class BatchMeanDiffEngine(_WindowRing):
    """Lockstep sliding windows for many streams, mean-difference statistic.

    Each value is stored twice, w slots apart, so every window is one
    contiguous slice in arrival order and is summed in the order the
    sliding scan uses.
    """

    def __init__(self, reference: ReferenceSet, w: int, n_streams: int):
        super().__init__(w)
        self.reference = reference
        self._buffer = np.zeros((n_streams, 2 * w), dtype=np.float64)

    def push_column(
        self, col: np.ndarray, active: Optional[np.ndarray], atoms: Optional[np.ndarray] = None
    ) -> None:
        """Append one value per row; ``atoms`` is accepted and ignored."""
        col = np.asarray(col, dtype=np.float64).reshape(-1)
        slot = self._next_slot()
        self._buffer[:, slot] = col
        self._buffer[:, slot + self.w] = col

    def statistics(self, active: np.ndarray) -> np.ndarray:
        self._require_full()
        sums = self._buffer[active, self._head : self._head + self.w].sum(axis=1)
        return self.reference.scalar_mean - sums / self.w


class BatchMmdEngine(_WindowRing):
    """Lockstep sliding windows for many streams, unbiased squared MMD.

    Maintains each stream's window self-sum and reference cross-sum
    incrementally (O(n + w) kernel evaluations per stream per step, or
    O(w) when the arrivals are reference atoms, whose cross sums are
    gathered from the reference's per-atom table); each slot's reference
    cross sum is stored, so an eviction subtracts it without re-evaluating
    the kernel.  The reference self-sum is shared by all streams.  Sums are
    rebuilt from the buffers every ``_REFRESH_EVERY`` pushes to bound float
    drift.
    """

    _REFRESH_EVERY = 10_000

    def __init__(self, reference: ReferenceSet, w: int, n_streams: int, kernel: Kernel):
        super().__init__(w)
        self.reference = reference
        self.kernel = kernel
        self._buffer = np.zeros((n_streams, w, reference.dim), dtype=np.float64)
        self._slot_cross = np.zeros((n_streams, w), dtype=np.float64)
        self._b_sums = np.zeros(n_streams, dtype=np.float64)
        self._c_sums = np.zeros(n_streams, dtype=np.float64)
        self._pushes_since_refresh = 0
        self._a_sum = reference.kernel_self_sum(kernel)

    def push_column(
        self, col: np.ndarray, active: Optional[np.ndarray], atoms: Optional[np.ndarray] = None
    ) -> None:
        """Append one point per row; ``atoms``, if given, are the reference
        indices the points were drawn from (``col == reference.values[atoms]``)."""
        col = np.asarray(col, dtype=np.float64).reshape(len(col), self.reference.dim)
        rows = slice(None) if active is None else active
        if atoms is None:
            cross = self.reference.cross_sums(col[rows], self.kernel)
        else:
            cross = self.reference.atom_cross(self.kernel)[atoms[rows]]
        evicting = self.is_full
        slot = self._next_slot()
        if evicting:
            keep = np.arange(self.w - 1)
            keep[slot:] += 1  # every slot but the evicted one, in slot order
            old = self._buffer[rows, slot]
            # one gather of the live rows' kept slots
            others = self._buffer[rows if active is None else rows[:, None], keep]
            k_old = self.kernel.rowwise(old, others)
            self._b_sums[rows] -= 2.0 * k_old.sum(axis=1)
            self._c_sums[rows] -= self._slot_cross[rows, slot]
        else:
            others = self._buffer[rows, :slot]  # empty on the first push: adds 0.0
        k_new = self.kernel.rowwise(col[rows], others)
        self._b_sums[rows] += 2.0 * k_new.sum(axis=1)
        self._c_sums[rows] += cross
        self._slot_cross[rows, slot] = cross
        self._buffer[:, slot] = col
        self._pushes_since_refresh += 1
        if self._pushes_since_refresh >= self._REFRESH_EVERY:
            self.refresh_sums(np.arange(self._buffer.shape[0]) if active is None else active)

    def refresh_sums(self, active: np.ndarray) -> None:
        for i in np.asarray(active).reshape(-1):
            vals = self._buffer[i, : self._size]
            K = self.kernel.matrix(vals, vals)
            self._b_sums[i] = float(K.sum() - np.trace(K))
            self._slot_cross[i, : self._size] = self.reference.cross_sums(vals, self.kernel)
            self._c_sums[i] = float(self._slot_cross[i, : self._size].sum())
        self._pushes_since_refresh = 0

    def statistics(self, active: np.ndarray) -> np.ndarray:
        self._require_full()
        n = self.reference.n
        w = self.w
        return (
            self._a_sum / (n * (n - 1))
            + self._b_sums[active] / (w * (w - 1))
            - 2.0 * self._c_sums[active] / (n * w)
        )


def make_batch_engine(
    statistic: str,
    reference: ReferenceSet,
    w: int,
    n_streams: int,
    kernel: Optional[Kernel] = None,
):
    check_statistic(statistic, reference.dim, w, kernel)
    if statistic == MMD:
        return BatchMmdEngine(reference, w, n_streams, kernel)
    if statistic == KS:
        return BatchKsEngine(reference, w, n_streams)
    return BatchMeanDiffEngine(reference, w, n_streams)

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
as ``push_column(..., atoms=idx)``.  The engines then gather per-atom
state computed once, on first use, by the very expression the value path
applies to an arbitrary point (KS reference CDF counts, MMD reference
cross sums), so both paths give the same bits.  The detector pushes
points and evaluates them.

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
    ref_sorted = reference.sorted_values
    left = np.searchsorted(ref_sorted, buf, side="left").astype(np.int32)
    right = np.searchsorted(ref_sorted, buf, side="right").astype(np.int32)
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
    binary search per arriving value, or a gather from the per-atom counts
    when the arrivals are reference atoms; integer sorts per statistic.
    """

    def __init__(self, reference: ReferenceSet, w: int, n_streams: int):
        super().__init__(w)
        self.reference = reference
        self._left = np.zeros((n_streams, w), dtype=np.int32)
        self._right = np.zeros((n_streams, w), dtype=np.int32)
        self._atom_counts: Optional[tuple[np.ndarray, np.ndarray]] = None

    def _cdf_counts(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left and right reference CDF counts of each value."""
        ref_sorted = self.reference.sorted_values
        left = np.searchsorted(ref_sorted, values, side="left").astype(np.int32)
        right = np.searchsorted(ref_sorted, values, side="right").astype(np.int32)
        return left, right

    def push_column(
        self, col: np.ndarray, active: Optional[np.ndarray], atoms: Optional[np.ndarray] = None
    ) -> None:
        """Append one value per row; ``atoms``, if given, are the reference
        indices the values were drawn from (``col == reference.values[atoms]``)."""
        if atoms is None:
            left, right = self._cdf_counts(np.asarray(col, dtype=np.float64).reshape(-1))
        else:
            if self._atom_counts is None:
                self._atom_counts = self._cdf_counts(self.reference.values[:, 0])
            left, right = (counts[atoms] for counts in self._atom_counts)
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
    gathered from a per-atom table); each slot's reference cross sum is
    stored, so an eviction subtracts it without re-evaluating the kernel.
    The reference self-sum is shared by all streams.  Sums are rebuilt from
    the buffers every ``_REFRESH_EVERY`` pushes to bound float drift.
    """

    _CROSS_CHUNK = 1024
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
        self._ref_sum = reference.values.sum(axis=0)
        self._atom_cross: Optional[np.ndarray] = None

    def _rowwise_kernel(self, points: np.ndarray, windows: np.ndarray) -> np.ndarray:
        """k(points[i], windows[i, j]) for each row i -> (rows, window_len)."""
        if self.kernel.kind == "linear":
            # not einsum: its summation order depends on the operand shapes
            return np.multiply(windows, points[:, None, :], order="C").sum(axis=-1)
        # C order keeps each row's reductions independent of the row count
        diff = np.subtract(windows, points[:, None, :], order="C")
        sq = np.sum(diff**2, axis=-1)
        return np.exp(sq / (-2.0 * self.kernel.bandwidth**2))

    def _cross_sums(self, points: np.ndarray) -> np.ndarray:
        """sum_i k(p, x_i) over the reference for each point p -> (rows,).

        Each point's sum reduces its own kernel row, so the value does not
        depend on how many points share the block.  A linear kernel sums to
        <p, sum_i x_i>, reduced row by row because a BLAS matmul's order
        depends on the block shape.
        """
        if self.kernel.kind == "linear":
            return (points * self._ref_sum).sum(axis=1)
        out = np.empty(points.shape[0], dtype=np.float64)
        for lo in range(0, points.shape[0], self._CROSS_CHUNK):
            block = points[lo : lo + self._CROSS_CHUNK]
            out[lo : lo + self._CROSS_CHUNK] = self.kernel.matrix(
                block, self.reference.values
            ).sum(axis=1)
        return out

    def push_column(
        self, col: np.ndarray, active: Optional[np.ndarray], atoms: Optional[np.ndarray] = None
    ) -> None:
        """Append one point per row; ``atoms``, if given, are the reference
        indices the points were drawn from (``col == reference.values[atoms]``)."""
        col = np.asarray(col, dtype=np.float64)
        if col.ndim == 1:
            col = col[:, None]
        rows = slice(None) if active is None else active
        if atoms is None:
            cross = self._cross_sums(col[rows])
        else:
            if self._atom_cross is None:
                self._atom_cross = self._cross_sums(self.reference.values)
            cross = self._atom_cross[atoms[rows]]
        evicting = self.is_full
        slot = self._next_slot()
        if evicting:
            keep = np.arange(self.w - 1)
            keep[slot:] += 1  # every slot but the evicted one, in slot order
            old = self._buffer[rows, slot]
            # one gather of the live rows' kept slots
            others = self._buffer[rows if active is None else rows[:, None], keep]
            k_old = self._rowwise_kernel(old, others)
            self._b_sums[rows] -= 2.0 * k_old.sum(axis=1)
            self._c_sums[rows] -= self._slot_cross[rows, slot]
        else:
            others = self._buffer[rows, :slot]  # empty on the first push: adds 0.0
        k_new = self._rowwise_kernel(col[rows], others)
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
            self._slot_cross[i, : self._size] = self._cross_sums(vals)
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

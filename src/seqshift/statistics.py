"""Two-sample test statistics between a reference set and a sliding window.

Three statistics are provided: the Kolmogorov-Smirnov distance and the
mean difference for scalar summaries, and the unbiased squared-MMD
U-statistic for any dimension.  The functions here compute each one
exactly from a window's contents; they are the plain reference
definitions.  The incremental engines that calibration, the Monte Carlo
harness and the deployed detector all run live in :mod:`seqshift.batch`
and agree with these to 1e-9 relative.

:class:`ReferenceSet` owns what depends on the reference alone: any point's
KS CDF counts and MMD cross sums, and per-atom tables of both, built once
per reference and kernel (the rbf atom cross sums in the self-sum's pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy  # subpackages via attributes: each loads on first use, not at import

KS = "ks"
MMD = "mmd"
MEAN_DIFF = "mean_diff"
STATISTIC_KINDS = (KS, MMD, MEAN_DIFF)

# Exact median of every pairwise distance needs n(n-1)/2 floats in memory.
_MEDIAN_HEURISTIC_MAX_PAIRS = 120_000_000

_KERNEL_BLOCK = 1024  # points per block of kernel rows; bounds peak memory


@dataclass(frozen=True)
class Kernel:
    """Positive-definite kernel: ``rbf`` or ``linear``.

    RBF uses k(x, y) = exp(-||x - y||^2 / (2 * bandwidth^2)); an infinite
    bandwidth would make every MMD^2 exactly 0, a detector that never fires.
    """

    kind: str
    bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("rbf", "linear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf":
            if self.bandwidth is None or not 0.0 < self.bandwidth < np.inf:
                raise ValueError("rbf kernel requires a finite bandwidth > 0")
        elif self.bandwidth is not None:
            raise ValueError(f"{self.kind} kernel takes no bandwidth")

    def matrix(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Kernel matrix of shape (len(X), len(Y))."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
        if self.kind == "linear":
            return X @ Y.T
        sq = scipy.spatial.distance.cdist(X, Y, metric="sqeuclidean")
        return np.exp(sq / (-2.0 * self.bandwidth**2))

    def diag_sum(self, X: np.ndarray) -> float:
        """sum_i k(x_i, x_i) without building a matrix."""
        if self.kind == "linear":
            return float(np.einsum("ij,ij->", X, X))
        return float(X.shape[0])

    def rowwise(self, points: np.ndarray, windows: np.ndarray) -> np.ndarray:
        """k(points[i], windows[i, j]) for each row i -> (rows, window_len)."""
        if self.kind == "linear":
            # not einsum: its summation order depends on the operand shapes
            return np.multiply(windows, points[:, None, :], order="C").sum(axis=-1)
        # C order keeps each row's reductions independent of the row count
        diff = np.subtract(windows, points[:, None, :], order="C")
        return np.exp(np.sum(diff**2, axis=-1) / (-2.0 * self.bandwidth**2))


def median_heuristic(reference: "ReferenceSet") -> float:
    """Bandwidth set to the median of all pairwise Euclidean distances.

    Raises if the median is zero (too many identical points) or if the
    reference is too large to hold the condensed distance vector; both
    cases call for an explicit bandwidth.
    """
    n = reference.n
    n_pairs = n * (n - 1) // 2
    if n_pairs > _MEDIAN_HEURISTIC_MAX_PAIRS:
        raise ValueError(
            f"reference of size {n} too large for the exact median heuristic; "
            "pass an explicit bandwidth"
        )
    sigma = float(np.median(scipy.spatial.distance.pdist(reference.values)))
    if sigma == 0.0:
        raise ValueError(
            "median pairwise distance is zero (too many identical reference "
            "points); pass an explicit bandwidth"
        )
    return sigma


class ReferenceSet:
    """Immutable pre-change summaries and everything derived from them, each
    cached once (per kernel where one is involved); shareable across runs."""

    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError("reference needs at least 2 summaries of fixed dimension")
        if not np.all(np.isfinite(values)):
            raise ValueError("reference summaries must be finite")
        self.values = values
        self.values.setflags(write=False)
        self.n, self.dim = values.shape
        if self.dim == 1:
            self.sorted_values = np.sort(values[:, 0])
            self.scalar_mean = float(np.sum(self.sorted_values) / self.n)
        else:
            self.sorted_values = None
            self.scalar_mean = None
        self._value_sum = values.sum(axis=0)
        self._kernel_sums: dict[Kernel, tuple[float, np.ndarray]] = {}

    def cdf_counts(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left and right reference CDF counts of each scalar value (intp;
        callers that sort counts store them as int32)."""
        return (
            self.sorted_values.searchsorted(values, side="left"),
            self.sorted_values.searchsorted(values, side="right"),
        )

    @cached_property
    def atom_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`cdf_counts` of every reference atom, in stored order (int32)."""
        return tuple(c.astype(np.int32) for c in self.cdf_counts(self.values[:, 0]))

    def cross_sums(self, points: np.ndarray, kernel: Kernel) -> np.ndarray:
        """sum_i k(p, x_i) over the reference for each point p -> (rows,).

        Each point's sum reduces its own kernel row, so the value does not
        depend on how many points share the block.  A linear kernel sums to
        <p, sum_i x_i>, reduced row by row because a BLAS matmul's order
        depends on the block shape.
        """
        if kernel.kind == "linear":
            return (points * self._value_sum).sum(axis=1)
        out = np.empty(points.shape[0], dtype=np.float64)
        for lo in range(0, points.shape[0], _KERNEL_BLOCK):
            block = points[lo : lo + _KERNEL_BLOCK]
            out[lo : lo + _KERNEL_BLOCK] = kernel.matrix(block, self.values).sum(axis=1)
        return out

    def kernel_self_sum(self, kernel: Kernel) -> float:
        """Sum of k(x_i, x_j) over all i != j, cached per kernel.  Its blocked
        pass over the n x n kernel also gives the rbf atom cross sums: each
        block's row sums, from the very blocks :meth:`cross_sums` builds."""
        if kernel not in self._kernel_sums:
            total, row_sums = 0.0, []
            for lo in range(0, self.n, _KERNEL_BLOCK):
                K = kernel.matrix(self.values[lo : lo + _KERNEL_BLOCK], self.values)
                total += float(K.sum())
                row_sums.append(K.sum(axis=1))
            if kernel.kind == "linear":  # keeps the row-count-invariant <p, sum_i x_i>
                row_sums = [self.cross_sums(self.values, kernel)]
            self_sum = total - kernel.diag_sum(self.values)
            self._kernel_sums[kernel] = (self_sum, np.concatenate(row_sums))
        return self._kernel_sums[kernel][0]

    def atom_cross(self, kernel: Kernel) -> np.ndarray:
        """:meth:`cross_sums` of every atom, in stored order, cached per kernel."""
        if kernel not in self._kernel_sums:
            self.kernel_self_sum(kernel)
        return self._kernel_sums[kernel][1]


class _WindowRing:
    """Slot bookkeeping for ring buffers of the last ``w`` arrivals: slots
    fill in order, then each arrival overwrites the oldest.  The engines in
    :mod:`seqshift.batch` keep one ring per stream in lockstep."""

    def __init__(self, w: int):
        self.w = w
        self._size = 0
        self._head = 0  # the oldest slot once full

    @property
    def is_full(self) -> bool:
        return self._size == self.w

    # called on every detector step, so they read _size rather than is_full
    def _next_slot(self) -> int:
        """The slot the arrival goes to, evicting the oldest once full."""
        if self._size < self.w:
            self._size += 1
            return self._size - 1
        slot = self._head
        self._head = (self._head + 1) % self.w
        return slot

    def _require_full(self) -> None:
        if self._size < self.w:
            raise RuntimeError("windows not yet full")


class SlidingWindow(_WindowRing):
    """Ring buffer of the most recent summaries; a validated FIFO.

    Holds contents only: statistics come from the engines in
    :mod:`seqshift.batch` or, from the contents, from the functions below.
    Single-owner mutable state: one window per detector run.
    """

    def __init__(self, capacity: int, dim: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__(capacity)
        self.dim = dim
        self._buffer = np.zeros((capacity, dim), dtype=np.float64)

    def __len__(self) -> int:
        return self._size

    def values(self) -> np.ndarray:
        """Window contents in arrival order, shape (size, dim)."""
        if not self.is_full:
            return self._buffer[: self._size].copy()
        if self._head == 0:
            return self._buffer.copy()
        return np.concatenate((self._buffer[self._head :], self._buffer[: self._head]))

    def scalar_values(self) -> np.ndarray:
        if self.dim != 1:
            raise ValueError("window is not scalar")
        return self.values()[:, 0]

    def push(self, summary) -> np.ndarray:
        """Append a summary, evicting the oldest when at capacity.

        Returns the summary as stored: a float64 array of shape (dim,).
        """
        s = np.atleast_1d(np.asarray(summary, dtype=np.float64))
        if s.shape != (self.dim,):
            raise ValueError(f"summary has shape {s.shape}, window holds dimension {self.dim}")
        if not np.isfinite(s).all():
            raise ValueError("summary must be finite")
        self._buffer[self._next_slot()] = s
        return s


def _ks_from_counts(
    left_counts: np.ndarray, right_counts: np.ndarray, n: int, m: int
) -> float:
    """Exact sup |F - G| from per-window-point reference CDF counts.

    With the window sorted ascending, G jumps to (i+1)/m at point i while F
    sits at right_counts[i]/n there and reaches left_counts[i]/n just
    below; the supremum over all real u is attained among these values.
    """
    ranks = np.arange(1, m + 1, dtype=np.float64)
    d_plus = np.max(ranks / m - right_counts / n)
    d_minus = np.max(left_counts / n - (ranks - 1.0) / m)
    return float(max(d_plus, d_minus))


def ks_distance(reference: ReferenceSet, window: SlidingWindow) -> float:
    """Kolmogorov-Smirnov distance between reference and window ECDFs.

    Exact supremum over all evaluation points; always in [0, 1].
    """
    if reference.dim != 1 or window.dim != 1:
        raise ValueError("the KS distance is defined for scalar summaries only")
    m = len(window)
    if m == 0:
        raise ValueError("window is empty")
    left, right = reference.cdf_counts(np.sort(window.scalar_values()))
    return _ks_from_counts(left, right, reference.n, m)


def mean_difference(reference: ReferenceSet, window: SlidingWindow) -> float:
    """Reference mean minus window mean (scalar summaries)."""
    if reference.dim != 1 or window.dim != 1:
        raise ValueError("the mean difference is defined for scalar summaries only")
    m = len(window)
    if m == 0:
        raise ValueError("window is empty")
    return float(reference.scalar_mean - np.sum(window.scalar_values()) / m)


def mmd2_u(reference: ReferenceSet, window: SlidingWindow, kernel: Kernel) -> float:
    """Unbiased estimate of the squared maximum mean discrepancy.

    1/(n(n-1)) sum_{i!=j} k(x_i, x_j) + 1/(m(m-1)) sum_{i!=j} k(y_i, y_j)
    - 2/(nm) sum_{i,j} k(x_i, y_j); zero-mean under equality of the two
    distributions, so negative values are normal.
    """
    n = reference.n
    m = len(window)
    if n < 2 or m < 2:
        raise ValueError("mmd2_u needs at least 2 points on each side")
    vals = window.values()
    K = kernel.matrix(vals, vals)
    b = float(K.sum() - np.trace(K))
    c = float(kernel.matrix(reference.values, vals).sum())
    a = reference.kernel_self_sum(kernel)
    return a / (n * (n - 1)) + b / (m * (m - 1)) - 2.0 * c / (n * m)

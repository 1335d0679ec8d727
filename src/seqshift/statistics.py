"""Two-sample test statistics between a reference set and a sliding window.

Three statistics are provided: the Kolmogorov-Smirnov distance and the
mean difference for scalar summaries, and the unbiased squared-MMD
U-statistic for any dimension.  The functions here compute each one
exactly from a window's contents; they are the plain reference
definitions.  The incremental engines that calibration, the Monte Carlo
harness and the deployed detector all run live in :mod:`seqshift.batch`
and agree with these to 1e-9 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist, pdist

KS = "ks"
MMD = "mmd"
MEAN_DIFF = "mean_diff"
STATISTIC_KINDS = (KS, MMD, MEAN_DIFF)

# Exact median of every pairwise distance needs n(n-1)/2 floats in memory.
_MEDIAN_HEURISTIC_MAX_PAIRS = 120_000_000


@dataclass(frozen=True)
class Kernel:
    """Positive-definite kernel: ``rbf``, ``linear``, or ``constant`` (k=1).

    RBF uses k(x, y) = exp(-||x - y||^2 / (2 * bandwidth^2)).
    """

    kind: str
    bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("rbf", "linear", "constant"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf":
            if self.bandwidth is None or not self.bandwidth > 0.0:
                raise ValueError("rbf kernel requires bandwidth > 0")
        elif self.bandwidth is not None:
            raise ValueError(f"{self.kind} kernel takes no bandwidth")

    def matrix(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Kernel matrix of shape (len(X), len(Y))."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
        if self.kind == "rbf":
            sq = cdist(X, Y, metric="sqeuclidean")
            return np.exp(sq / (-2.0 * self.bandwidth**2))
        if self.kind == "linear":
            return X @ Y.T
        return np.ones((X.shape[0], Y.shape[0]), dtype=np.float64)

    def diag_sum(self, X: np.ndarray) -> float:
        """sum_i k(x_i, x_i) without building a matrix."""
        if self.kind == "linear":
            return float(np.einsum("ij,ij->", X, X))
        return float(X.shape[0])


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
    sigma = float(np.median(pdist(reference.values)))
    if sigma == 0.0:
        raise ValueError(
            "median pairwise distance is zero (too many identical reference "
            "points); pass an explicit bandwidth"
        )
    return sigma


class ReferenceSet:
    """Immutable pre-change summaries with cached sort and kernel structure.

    Shareable across detector runs; every cache is derived once from the
    stored values.
    """

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
        self._kernel_self_sums: dict[Kernel, float] = {}

    def kernel_self_sum(self, kernel: Kernel) -> float:
        """Sum of k(x_i, x_j) over all i != j, cached per kernel."""
        cached = self._kernel_self_sums.get(kernel)
        if cached is None:
            total = 0.0
            block = 1024  # row blocks bound peak memory for large references
            for lo in range(0, self.n, block):
                rows = self.values[lo : lo + block]
                total += float(kernel.matrix(rows, self.values).sum())
            cached = total - kernel.diag_sum(self.values)
            self._kernel_self_sums[kernel] = cached
        return cached


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
    wsort = np.sort(window.scalar_values())
    left = np.searchsorted(reference.sorted_values, wsort, side="left")
    right = np.searchsorted(reference.sorted_values, wsort, side="right")
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

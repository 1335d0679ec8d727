"""The incremental statistic engines: one per statistic, many streams at once.

A ``Batch*Engine`` advances any number of sliding windows in lockstep (one
ring-buffer column per step).  Threshold calibration runs thousands of
pseudo-null streams through one engine, the Monte Carlo harness runs every
run of an experiment as a row of one engine, and the deployed detector is
the one-row case of the same engine, so the statistic a detector computes
is the one calibration ranked and the harness measured.  Every per-row
expression is independent of the number of rows, and rows dropped from
``active`` cost no per-value work.  The ``sliding_*_stats`` scans repeat
the KS and mean-difference expressions over a whole scalar stream; the
harness scans every ks / mean_diff run that is alone in its group (a run
on its own redrawn reference, or a lone run), so a scanned run and a
stepped run of the same stream agree bitwise.

Calibration only ever pushes reference atoms, so it passes their indices
as ``push_column(..., atoms=idx)`` and the engines gather the reference's
per-atom tables (KS CDF counts, MMD cross sums), built once per reference
and kernel (rbf cross sums in the self-sum's pass) by the very expression
the value path applies to a point, so both paths give the same bits.  An
atom-fed MMD engine also gathers its window self-sum terms, O(w) per row
and step, from an n x n atom-pair kernel table that it builds with
``Kernel.rowwise`` (the value path's expression) and drops with itself;
above ``_ATOM_TABLE_MAX_BYTES`` it evaluates ``rowwise`` as the detector
does.  The engine a detector steps is its only copy of the window: each
engine's ``values()`` returns its first row's window contents, which a KS
engine keeps only when it has one row, so the many-row engines of
calibration and the harness allocate no value ring.  KS state is
``[right, -left]`` CDF counts per row, so one sort per block of rows gives
both halves of the statistic, bit for bit the plain definition
(:func:`ks_stats_from_count_rows` gives the argument).

Each engine states ``max_step(w)``, the most one push can move a row's
statistic: 1/w for KS (:meth:`BatchKsEngine.max_step` gives the argument),
``inf`` for mean_diff and MMD.  The three consumers that compare rows with a
threshold (calibration, the lockstep Monte Carlo and the harness's KS scan,
which passes ``windows`` to :func:`sliding_ks_stats`) keep each row's last
computed statistic and skip the kernel for rows this bound keeps clear of the
threshold; with ``inf`` they compute every row.

:func:`check_statistic` is the one statement of each statistic's rules;
the engines, the detector, calibration, the Monte Carlo harness and the
CLI call it rather than restate them.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Optional

import numpy as np

from .statistics import KS, MMD, STATISTIC_KINDS, Kernel, ReferenceSet, _is_a, _WindowRing

_KS_BLOCK = 256  # rows per block of the KS kernel; bounds its float temporaries
# An atom-pair kernel table holds 8 n^2 bytes; 64 MiB admits n <= 2896
# (8 * 2896^2 = 67,094,528 bytes), so a 30k reference never allocates 7.2 GB.
_ATOM_TABLE_MAX_BYTES = 64 * 2**20
_TABLE_BLOCK_VALUES = 2**18  # floats per rowwise temporary (2 MiB) in a table build


def check_statistic(statistic: str, dim: int, w: int, kernel: Optional[Kernel]) -> None:
    """Raise ValueError unless ``statistic`` can run on ``dim``-dimensional
    summaries in windows of ``w`` with ``kernel``."""
    if statistic not in STATISTIC_KINDS:
        raise ValueError(f"unknown statistic {statistic!r}; expected one of {list(STATISTIC_KINDS)}")
    if not _is_a(w, numbers.Integral) or w < 1:
        raise ValueError(f"window size must be an integer >= 1, got {w!r}")
    if statistic == MMD:
        if kernel is None:
            raise ValueError("the MMD statistic requires a kernel")
        if w < 2:
            raise ValueError("the MMD statistic needs window size >= 2")
    elif dim != 1:
        raise ValueError(f"{statistic} requires scalar summaries, got dimension {dim}")
    elif kernel is not None:
        raise ValueError(f"{statistic} takes no kernel")


@functools.lru_cache(maxsize=32)
def _ks_steps(w: int) -> np.ndarray:
    i = np.arange(1, w + 1, dtype=np.float64)
    steps = np.stack((i / w, (i - w) / w))  # -((w - i)/w), but +0.0 rather than -0.0 at i = w
    steps.flags.writeable = False  # cached and shared
    return steps


def ks_stats_from_count_rows(counts: np.ndarray, n: int, w: int) -> np.ndarray:
    """KS distance per row of (rows, 2, w) ``[right, -left]`` reference CDF counts.

    Counts grow with the value, so an integer sort puts them in value
    order.  Per block of ``_KS_BLOCK`` rows this is one sort, one divide,
    one in-place subtraction from the steps ``[i/w ; (i - w)/w]`` and one
    max, and it equals the oracle ``statistics._ks_from_counts`` bit for
    bit: the right half is its d+ expression; sorting -L ascending lists L
    descending, so entry j pairs with rank i = w + 1 - j and holds
    ``-(i - 1)/w - (-L/n)``, which IEEE rounds exactly as the d- term
    ``L/n - (i - 1)/w``; a max is exact.
    """
    out = np.empty(counts.shape[0], dtype=np.float64)
    for lo in range(0, counts.shape[0], _KS_BLOCK):
        t = np.sort(counts[lo : lo + _KS_BLOCK], axis=-1) / n
        np.subtract(_ks_steps(w), t, out=t)
        t.max(axis=(1, 2), out=out[lo : lo + _KS_BLOCK])
    return out


def sliding_ks_stats(
    buf: np.ndarray, reference: ReferenceSet, w: int, windows: Optional[np.ndarray] = None
) -> np.ndarray:
    """KS statistics for the size-w sliding windows over ``buf``.

    ``buf`` holds w - 1 carried values followed by the chunk's new values,
    and window j ends at new value j.  The result has one statistic per new
    value, or, given ``windows`` (window indices), one per listed window.
    """
    left, right = reference.cdf_counts(buf)
    counts = np.stack((right, -left), dtype=np.int32)  # int32 sorts faster than intp
    rows = np.lib.stride_tricks.sliding_window_view(counts, w, axis=1).swapaxes(0, 1)
    return ks_stats_from_count_rows(rows if windows is None else rows[windows], reference.n, w)


def sliding_mean_diff_stats(
    buf: np.ndarray, reference: ReferenceSet, w: int
) -> np.ndarray:
    """Mean-difference statistics for every size-w sliding window over ``buf``."""
    windows = np.lib.stride_tricks.sliding_window_view(buf, w)
    return reference.scalar_mean - np.sum(windows, axis=1) / w


def _unbounded_step(w: int) -> float:
    """No bound on how far one push moves the statistic: consumers compute
    every row at every step."""
    return math.inf


class BatchKsEngine(_WindowRing):
    """Lockstep sliding windows for many streams, KS statistic.

    Stores each element's reference CDF counts rather than its value: one
    binary search per arriving value, or a gather from the reference's
    per-atom counts for reference atoms.  One int32 array (rows, 2, w) holds
    right counts in ``[:, 0]`` and negated left counts in ``[:, 1]``, the
    layout :func:`ks_stats_from_count_rows` sorts in one call.  A one-row
    engine, the detector's, also keeps its values for :meth:`values`.
    """

    def __init__(self, reference: ReferenceSet, w: int, n_streams: int):
        super().__init__(w)
        self.reference = reference
        self._counts = np.zeros((n_streams, 2, w), dtype=np.int32)
        self._values = np.zeros((w, 1), dtype=np.float64) if n_streams == 1 else None

    @staticmethod
    def max_step(w: int) -> float:
        """The most one push can move a row's KS statistic: 1/w.

        The statistic is the sup-norm distance between the reference ECDF
        and the window ECDF (:func:`ks_stats_from_count_rows` evaluates the
        sup exactly, ties included).  One push replaces one of the w window
        points, which moves the window ECDF by at most 1/w at every point
        and leaves the reference ECDF unchanged, so by the triangle
        inequality the distance moves by at most 1/w.  After k pushes a row
        computed at d lies in d +- k/w; consumers add 1e-9 for float error
        (one statistic is off by about 4e-16).
        """
        return 1.0 / w

    def push_column(
        self, col: np.ndarray, active: Optional[np.ndarray], atoms: Optional[np.ndarray] = None
    ) -> None:
        """Append one value per row; ``atoms``, if given, are the reference
        indices the values were drawn from (``col == reference.values[atoms]``).
        Values are searched only for ``active`` rows; the others keep stale
        counts in this slot, garbage that is never read again."""
        col = np.asarray(col, dtype=np.float64).reshape(-1)
        if atoms is None:
            rows = slice(None) if active is None else active
            left, right = self.reference.cdf_counts(col[rows])
        else:
            rows = slice(None)
            left, right = (counts[atoms] for counts in self.reference.atom_counts)
        slot = self._next_slot()
        self._counts[rows, 0, slot] = right
        self._counts[rows, 1, slot] = -left
        if self._values is not None:
            self._values[slot] = col

    def statistics(self, active: np.ndarray) -> np.ndarray:
        self._require_full()
        return ks_stats_from_count_rows(self._counts[active], self.reference.n, self.w)

    def values(self) -> np.ndarray:
        """The one row's window contents in arrival order, (size, 1), a copy."""
        if self._values is None:
            raise RuntimeError("only a one-row KS engine keeps its values")
        return self._in_arrival_order(self._values)


class BatchMeanDiffEngine(_WindowRing):
    """Lockstep sliding windows for many streams, mean-difference statistic.

    Each value is stored twice, w slots apart, so every window is one
    contiguous slice in arrival order and is summed in the order the
    sliding scan uses.
    """

    max_step = staticmethod(_unbounded_step)

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

    def values(self) -> np.ndarray:
        """Row 0's window contents in arrival order, (size, 1), a copy."""
        return self._buffer[0, self._head : self._head + self._size, None].copy()


def atom_pair_table(reference: ReferenceSet, kernel: Kernel) -> Optional[np.ndarray]:
    """k(x_i, x_j) for every pair of reference atoms -> (n, n), or None when
    its 8 n^2 bytes exceed ``_ATOM_TABLE_MAX_BYTES``.

    Row i is ``kernel.rowwise(x_i, atoms)``, blocks of rows at a time: the
    expression :class:`BatchMmdEngine` applies to a pushed point, so every
    entry has the bits the value path computes (``Kernel.matrix`` rounds
    differently at d >= 8).
    """
    n = reference.n
    if 8 * n * n > _ATOM_TABLE_MAX_BYTES:
        return None
    atoms = reference.values
    table = np.empty((n, n), dtype=np.float64)
    block = max(1, _TABLE_BLOCK_VALUES // (n * reference.dim))
    for lo in range(0, n, block):
        table[lo : lo + block] = kernel.rowwise(atoms[lo : lo + block], atoms[None])
    return table


class BatchMmdEngine(_WindowRing):
    """Lockstep sliding windows for many streams, unbiased squared MMD.

    Maintains each stream's window self-sum and reference cross-sum
    incrementally (O(n + w) kernel evaluations per stream per step, or
    O(w) when the arrivals are reference atoms, whose cross sums are
    gathered from the reference's per-atom table); each slot's reference
    cross sum is stored, so an eviction subtracts it without re-evaluating
    the kernel.  An engine whose first push is atoms builds
    :func:`atom_pair_table` and keeps each slot's atom index, so the
    arrival's and the evicted point's kernel values against the kept slots
    are O(w) gathers rather than exp evaluations; above the table's size
    bound, or once a push brings points without indices, it evaluates
    ``Kernel.rowwise`` on the stored points, which gives the same bits.
    The reference self-sum is shared by all streams.  Sums are rebuilt
    from the buffers every ``_REFRESH_EVERY`` pushes to bound float drift.
    """

    _REFRESH_EVERY = 10_000
    max_step = staticmethod(_unbounded_step)

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
        # the atom-pair kernel table and each slot's atom index, while every slot has one
        self._atom_table: Optional[np.ndarray] = None
        self._slot_atoms: Optional[np.ndarray] = None

    def push_column(
        self, col: np.ndarray, active: Optional[np.ndarray], atoms: Optional[np.ndarray] = None
    ) -> None:
        """Append one point per row; ``atoms``, if given, are the reference
        indices the points were drawn from (``col == reference.values[atoms]``)."""
        col = np.asarray(col, dtype=np.float64).reshape(len(col), self.reference.dim)
        rows = slice(None) if active is None else active
        if atoms is None:
            cross = self.reference.cross_sums(col[rows], self.kernel)
            self._atom_table = self._slot_atoms = None  # this slot has no atom index
        else:
            cross = self.reference.atom_cross(self.kernel)[atoms[rows]]
            if self._size == 0:
                self._atom_table = atom_pair_table(self.reference, self.kernel)
                if self._atom_table is not None:
                    self._slot_atoms = np.empty(self._slot_cross.shape, dtype=np.intp)
        table = self._atom_table
        evicting = self.is_full
        slot = self._next_slot()
        if evicting:
            keep = np.arange(self.w - 1)
            keep[slot:] += 1  # every slot but the evicted one, in slot order
            kept = (rows if active is None else rows[:, None], keep)  # one gather of the live rows
        else:
            kept = (rows, slice(0, slot))  # empty on the first push: adds 0.0
        if table is None:
            others = self._buffer[kept]
            k_new = self.kernel.rowwise(col[rows], others)
            if evicting:
                k_old = self.kernel.rowwise(self._buffer[rows, slot], others)
        else:
            others = self._slot_atoms[kept]  # the kept slots' atoms: table columns
            n = self.reference.n  # take() reads the flat table: row * n + column
            k_new = table.take(atoms[rows][:, None] * n + others)
            if evicting:
                k_old = table.take(self._slot_atoms[rows, slot][:, None] * n + others)
            self._slot_atoms[:, slot] = atoms
        if evicting:
            self._b_sums[rows] -= 2.0 * k_old.sum(axis=1)
            self._c_sums[rows] -= self._slot_cross[rows, slot]
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

    def values(self) -> np.ndarray:
        """Row 0's window contents in arrival order, (size, dim), a copy."""
        return self._in_arrival_order(self._buffer[0])


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

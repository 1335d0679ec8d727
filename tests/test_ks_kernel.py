"""The KS kernel against its oracle, across blocks of rows.

``batch.ks_stats_from_count_rows`` sorts (rows, 2, w) ``[right, -left]``
CDF counts one block of ``_KS_BLOCK`` rows at a time.  Every row must equal
the plain ``statistics._ks_from_counts`` on that row's sorted counts,
compared as float64 bits, so a -0.0 where the oracle gives +0.0 fails too.
"""

import numpy as np
import pytest

from seqshift import ReferenceSet
from seqshift.batch import _KS_BLOCK, ks_stats_from_count_rows, make_batch_engine, sliding_ks_stats
from seqshift.statistics import _ks_from_counts


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def kernel_and_oracle(reference: ReferenceSet, windows: np.ndarray):
    """The kernel's statistic and the oracle's for each row of ``windows``."""
    n, w = reference.n, windows.shape[1]
    left, right = reference.cdf_counts(windows)
    got = ks_stats_from_count_rows(np.stack((right, -left), axis=1), n, w)
    want = [_ks_from_counts(np.sort(lo), np.sort(hi), n, w) for lo, hi in zip(left, right)]
    return bits(got), bits(want)


@pytest.mark.parametrize("source", ["atoms", "values"])
@pytest.mark.parametrize("w", [1, 2, 37, 100])
@pytest.mark.parametrize("rows", [1, 255, 256, 257, 600])
def test_kernel_matches_oracle_bitwise(rows, w, source):
    gen = np.random.default_rng(1000 * rows + w)
    # rounding makes ties: reference atoms repeat, so left != right - 1
    reference = ReferenceSet(np.round(gen.normal(size=300), 1))
    if source == "atoms":
        windows = reference.values[gen.integers(reference.n, size=(rows, w)), 0]
    else:  # some values fall on reference atoms, most between them
        windows = np.round(gen.normal(0.2, 1.3, size=(rows, w)), 2)
    got, want = kernel_and_oracle(reference, windows)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("w", [1, 2, 37])
def test_zero_statistic_is_positive_zero(w):
    """A window whose ECDF is the reference's has statistic +0.0, never -0.0."""
    gen = np.random.default_rng(w)
    reference = ReferenceSet(np.repeat(np.arange(w, dtype=np.float64), 2))
    windows = np.array([gen.permutation(w) for _ in range(2 * _KS_BLOCK + 1)], dtype=np.float64)
    got, want = kernel_and_oracle(reference, windows)
    assert np.array_equal(got, want)
    assert np.array_equal(got, bits(np.zeros(windows.shape[0])))


@pytest.mark.parametrize("atoms", [False, True])
def test_sliding_scan_equals_lockstep_rows_across_blocks(atoms):
    """Window k of one long scan is row k of an engine that was pushed
    exactly that window; more windows than one block of rows."""
    gen = np.random.default_rng(5)
    w = 30
    reference = ReferenceSet(np.round(gen.normal(size=400), 1))
    idx = gen.integers(reference.n, size=_KS_BLOCK * 2 + w + 10)
    buf = reference.values[idx, 0] if atoms else np.round(gen.normal(size=idx.size), 2)
    scan = sliding_ks_stats(buf, reference, w)
    rows = buf.size - w + 1
    assert scan.shape == (rows,) and rows > _KS_BLOCK
    engine = make_batch_engine("ks", reference, w, rows)
    windows = np.lib.stride_tricks.sliding_window_view(buf, w)
    window_atoms = np.lib.stride_tricks.sliding_window_view(idx, w)
    for j in range(w):
        engine.push_column(windows[:, j], None, atoms=window_atoms[:, j] if atoms else None)
    lockstep = engine.statistics(np.arange(rows))
    assert np.array_equal(bits(scan), bits(lockstep))
    _, want = kernel_and_oracle(reference, windows)
    assert np.array_equal(bits(scan), want)

"""One statistic, three paths: the detector, an N-row engine, the sliding scan.

The detector steps a one-row engine; calibration and the Monte Carlo
harness advance many rows of the same engine in lockstep, dropping rows
that are eliminated or have fired; and the sliding scan ``sliding_*_stats``
serves only fixed-threshold Monte Carlo runs that redraw their own
reference (ks and mean_diff).  All three must
produce the same bits, and all must match the plain definitions in
``seqshift.statistics``.  Calibration pushes reference atoms by index, so
an engine fed atom indices must also match the same engine fed the atoms'
values, bit for bit.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqshift import Detector, DetectorConfig, Kernel, ReferenceSet, fixed_threshold
from seqshift.batch import make_batch_engine, sliding_ks_stats, sliding_mean_diff_stats
from seqshift.detector import recompute_statistic
from seqshift.statistics import SlidingWindow

SLIDING = {"ks": sliding_ks_stats, "mean_diff": sliding_mean_diff_stats}


@st.composite
def cases(draw):
    statistic = draw(st.sampled_from(("ks", "mean_diff", "mmd")))
    mmd = statistic == "mmd"
    return dict(
        statistic=statistic,
        n=draw(st.integers(2, 60)),
        w=draw(st.integers(2 if mmd else 1, 30)),
        # from d = 8 numpy sums in 8 partial sums, and Kernel.matrix (cdist) rounds apart
        d=draw(st.sampled_from((1, 2, 3, 4, 8, 9))) if mmd else 1,
        kernel=draw(st.sampled_from(("rbf", "linear"))) if mmd else None,
        rows=draw(st.integers(1, 4)),
        extra_steps=draw(st.integers(0, 50)),
        seed=draw(st.integers(0, 2**32 - 1)),
        # rounding makes ties between window and reference values
        decimals=draw(st.sampled_from((1, 3, None))),
        # streams of reference atoms, pushed by index as calibration does
        atoms=draw(st.booleans()),
    )


def detector_sequence(config, stream):
    """The statistic a detector reports on every test step of ``stream``."""
    detector = Detector(config)
    out = []
    for x in stream:
        detector.step(x)
        if detector.t >= config.window_size:
            out.append(detector.last_statistic)
    return np.array(out)


def lockstep_sequences(config, streams, seed, atoms=None):
    """Every row's statistics from one engine, eliminating rows as calibration
    does (at random, from ``seed``); ``atoms`` are the streams' reference
    indices, handed to the engine as calibration hands them."""
    gen = np.random.default_rng(seed)
    rows, steps, _ = streams.shape
    w = config.window_size
    engine = make_batch_engine(config.statistic, config.reference, w, rows, config.kernel)
    out = [[] for _ in range(rows)]
    active = np.arange(rows)
    for t in range(steps):
        col_atoms = None if atoms is None else atoms[:, t]
        if t < w - 1:
            engine.push_column(streams[:, t], None, atoms=col_atoms)
            continue
        engine.push_column(streams[:, t], active, atoms=col_atoms)
        for row, value in zip(active, engine.statistics(active)):
            out[row].append(value)
        if active.shape[0] > 1 and gen.random() < 0.1:
            active = np.delete(active, gen.integers(active.shape[0]))
    return [np.array(o) for o in out]


def oracle_sequence(config, stream):
    window = SlidingWindow(config.window_size, config.reference.dim)
    out = []
    for x in stream:
        window.push(x)
        if window.is_full:
            out.append(recompute_statistic(config, window))
    return np.array(out)


def rbf_atom_case(d):
    return dict(
        statistic="mmd", n=40, w=12, d=d, kernel="rbf", rows=3, extra_steps=30,
        seed=d, decimals=None, atoms=True,
    )


@settings(max_examples=200, deadline=None)
@given(cases())
# few drawn cases are rbf atom streams at d >= 8, where Kernel.matrix differs
@example(case=rbf_atom_case(8))
@example(case=rbf_atom_case(9))
def test_detector_engine_and_sliding_scan_agree_bitwise(case):
    gen = np.random.default_rng(case["seed"])
    statistic, w, d, rows = case["statistic"], case["w"], case["d"], case["rows"]
    steps = w + case["extra_steps"]
    ref_values = gen.normal(size=(case["n"], d))
    streams = gen.normal(0.3, 1.2, size=(rows, steps, d))
    if case["decimals"] is not None:
        ref_values = np.round(ref_values, case["decimals"])
        streams = np.round(streams, case["decimals"])
    reference = ReferenceSet(ref_values)
    atoms = None
    if case["atoms"]:
        atoms = gen.integers(case["n"], size=(rows, steps))
        streams = reference.values[atoms]
    kernel = None
    if case["kernel"] == "rbf":
        kernel = Kernel("rbf", bandwidth=float(gen.uniform(0.3, 3.0)))
    elif case["kernel"] is not None:
        kernel = Kernel(case["kernel"])
    config = DetectorConfig(
        reference=reference,
        schedule=fixed_threshold(math.inf, w),
        window_size=w,
        statistic=statistic,
        kernel=kernel,
    )

    elimination_seed = int(gen.integers(2**32))
    lockstep = lockstep_sequences(config, streams, elimination_seed)
    if atoms is not None:
        gathered = lockstep_sequences(config, streams, elimination_seed, atoms)
        for by_index, by_value in zip(gathered, lockstep):
            assert np.array_equal(by_index, by_value)
    for row in range(rows):
        stepped = detector_sequence(config, streams[row])
        assert stepped.shape == (streams.shape[1] - w + 1,)
        # rows eliminated early stop reporting, like calibration streams
        assert np.array_equal(lockstep[row], stepped[: lockstep[row].shape[0]])
        if statistic in SLIDING:
            assert np.array_equal(SLIDING[statistic](streams[row, :, 0], reference, w), stepped)
        oracle = oracle_sequence(config, streams[row])
        assert np.all(np.abs(stepped - oracle) <= 1e-9 * np.maximum(1.0, np.abs(oracle)))

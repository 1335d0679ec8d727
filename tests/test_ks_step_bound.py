"""The KS step bound and the rows it lets the consumers skip.

One push replaces one of w window points, so a KS row's statistic moves by
at most ``BatchKsEngine.max_step(w)`` = 1/w per push.  Calibration, the
lockstep Monte Carlo and the sliding scan skip the kernel for rows and
windows this bound keeps clear of the threshold.  These tests check the
bound itself, that every result is byte identical with the bound switched
off (a maximum step of ``inf`` computes every row), and that the skipping
stays switched on.
"""

import json
import math

import numpy as np
import pytest

from seqshift import (
    CalibrationTarget,
    ChangePointModel,
    DistributionSpec,
    Kernel,
    ReferenceSet,
    calibrate_schedule,
    draw_reference,
    estimate_arl0,
    estimate_delay,
    fixed_threshold,
    null_model,
)
from seqshift import batch
from seqshift.batch import _KS_BLOCK, BatchKsEngine, make_batch_engine, sliding_ks_stats

NULL = DistributionSpec.gaussian(0.0, 1.0)
SHIFTED = DistributionSpec.gaussian(0.6, 1.0)


def tied_reference(n: int, seed: int, decimals=1) -> ReferenceSet:
    """A gaussian reference; rounded (the default) so its atoms tie."""
    values = draw_reference(NULL, n, master_seed=seed, stream_id=0)
    return ReferenceSet(values if decimals is None else np.round(values, decimals))


@pytest.fixture
def unbounded(monkeypatch):
    """Switch the KS bound off: every consumer computes every row."""
    monkeypatch.setattr(BatchKsEngine, "max_step", staticmethod(lambda w: math.inf))


@pytest.fixture
def kernel_rows(monkeypatch):
    """Rows handed to the KS kernel, one entry per call, in this process."""
    rows = []
    kernel = batch.ks_stats_from_count_rows

    def counted(counts, n, w):
        rows.append(counts.shape[0])
        return kernel(counts, n, w)

    monkeypatch.setattr(batch, "ks_stats_from_count_rows", counted)
    return rows


# -- the bound -------------------------------------------------------------


@pytest.mark.parametrize("source", ["atoms", "values"])
@pytest.mark.parametrize("w", [1, 2, 37, 100])
@pytest.mark.parametrize("rows", [_KS_BLOCK - 1, _KS_BLOCK + 1])
def test_engine_statistic_moves_at_most_one_over_w_per_push(rows, w, source):
    gen = np.random.default_rng(1000 * rows + w)
    reference = ReferenceSet(np.round(gen.normal(size=300), 1))
    engine = make_batch_engine("ks", reference, w, rows)
    live = np.arange(rows)
    previous = None
    largest = 0.0
    for step in range(w + 40):
        if source == "atoms":
            atoms = gen.integers(reference.n, size=rows)
            engine.push_column(reference.values[atoms], None, atoms=atoms)
        else:
            # a shifted stream, rounded so some values fall on reference atoms
            engine.push_column(np.round(gen.normal(0.3, 1.2, size=rows), 1), None)
        if step + 1 < w:
            continue
        stats = engine.statistics(live)
        if previous is not None:
            moved = np.abs(stats - previous)
            assert np.all(moved <= BatchKsEngine.max_step(w) + 1e-12)
            largest = max(largest, moved.max())
        previous = stats
    if w > 1:  # the bound is tight enough to be met, or nearly
        assert largest >= 0.5 / w


@pytest.mark.parametrize("w", [1, 2, 37, 100])
@pytest.mark.parametrize("new", [_KS_BLOCK - 1, _KS_BLOCK + 1])
@pytest.mark.parametrize("atoms", [False, True])
def test_consecutive_scan_windows_move_at_most_one_over_w(new, w, atoms):
    gen = np.random.default_rng(7 * new + w)
    reference = ReferenceSet(np.round(gen.normal(size=400), 1))
    if atoms:
        buf = reference.values[gen.integers(reference.n, size=w - 1 + new), 0]
    else:
        buf = np.round(gen.normal(0.2, 1.3, size=w - 1 + new), 1)
    stats = sliding_ks_stats(buf, reference, w)
    assert stats.shape == (new,)
    assert np.all(np.abs(np.diff(stats)) <= BatchKsEngine.max_step(w) + 1e-12)


def test_scan_computes_only_the_listed_windows():
    gen = np.random.default_rng(3)
    reference = tied_reference(300, seed=3)
    buf = np.round(gen.normal(size=50 + 500), 2)
    every = sliding_ks_stats(buf, reference, 51)
    windows = np.array([0, 7, 8, 499])
    assert np.array_equal(sliding_ks_stats(buf, reference, 51, windows), every[windows])


def test_only_ks_engines_bound_their_step(small_reference):
    assert BatchKsEngine.max_step(40) == 1 / 40
    for statistic in ("mean_diff", "mmd"):
        kernel = Kernel("rbf", bandwidth=1.0) if statistic == "mmd" else None
        engine = make_batch_engine(statistic, small_reference, 40, 3, kernel)
        assert engine.max_step(40) == math.inf


# -- byte identity with the bound switched off -------------------------------


def both_ways(request, compute):
    """``compute()`` with the bound, then with it switched off."""
    bounded = compute()
    request.getfixturevalue("unbounded")
    return bounded, compute()


@pytest.mark.parametrize("decimals", [None, 1], ids=["smooth", "tied"])
@pytest.mark.parametrize("w, alpha, t_max", [(20, 0.05, 50), (60, 0.01, 140)])
def test_calibration_is_byte_identical_without_the_bound(
    request, kernel_rows, decimals, w, alpha, t_max
):
    reference = tied_reference(500, seed=17, decimals=decimals)

    def compute():
        start = sum(kernel_rows)
        diagnostics = {}
        schedule = calibrate_schedule(
            reference, w, CalibrationTarget(alpha), t_max=t_max, n_streams=1200,
            master_seed=5, diagnostics=diagnostics,
        )
        survivors = diagnostics["survivor_counts"].tobytes()
        return schedule.to_json(), survivors, sum(kernel_rows) - start

    (json_b, counts_b, rows_b), (json_u, counts_u, rows_u) = both_ways(request, compute)
    assert json_b == json_u
    assert counts_b == counts_u
    assert rows_b < rows_u  # the bound skipped rows


def run_table(report):
    """The report's fields as JSON (NaN compares equal there) and its run table."""
    return json.dumps(report.to_dict(), sort_keys=True), report.runs


def test_lockstep_group_is_identical_without_the_bound(request, kernel_rows):
    """Runs on one shared reference step the rows of one engine."""
    reference = tied_reference(800, seed=2, decimals=None)
    schedule = calibrate_schedule(
        reference, 50, CalibrationTarget(0.02), t_max=150, n_streams=1500, master_seed=1,
    )
    kernel_rows.clear()

    def compute():
        start = sum(kernel_rows)
        arl = estimate_arl0(schedule, null_model(NULL), n_runs=60, cap=120, master_seed=4,
                            reference=reference)
        delay = estimate_delay(schedule, ChangePointModel(NULL, SHIFTED, 200), n_runs=40,
                               cap=800, master_seed=4, reference=reference)
        return run_table(arl), run_table(delay), sum(kernel_rows) - start

    (arl_b, delay_b, rows_b), (arl_u, delay_u, rows_u) = both_ways(request, compute)
    assert arl_b == arl_u and delay_b == delay_u
    assert 0 < json.loads(arl_b[0])["censored_count"] < 60
    assert rows_b < rows_u / 2


@pytest.mark.parametrize("w", [32, 75])
def test_redrawn_scans_are_identical_without_the_bound(request, kernel_rows, w):
    """Each run redraws its reference and is a lone sliding scan."""
    schedule = fixed_threshold(0.3 if w == 32 else 0.2, w=w)

    def compute():
        start = sum(kernel_rows)
        arl = estimate_arl0(schedule, null_model(NULL), n_runs=12, cap=3000, master_seed=9,
                            reference_spec=NULL, reference_size=400)
        delay = estimate_delay(schedule, ChangePointModel(NULL, SHIFTED, 600), n_runs=12,
                               cap=3000, master_seed=9, reference_spec=NULL, reference_size=400)
        return run_table(arl), run_table(delay), sum(kernel_rows) - start

    (arl_b, delay_b, rows_b), (arl_u, delay_u, rows_u) = both_ways(request, compute)
    assert arl_b == arl_u and delay_b == delay_u
    assert json.loads(arl_b[0])["censored_count"] < 12
    assert rows_b < rows_u


def test_lone_run_past_t_max_is_identical_without_the_bound(request, kernel_rows):
    """A lone run on a time-varying schedule scans on into its plateau."""
    reference = tied_reference(600, seed=8)
    schedule = calibrate_schedule(
        reference, 64, CalibrationTarget(0.02), t_max=124, n_streams=1000, master_seed=3,
    )

    def compute():
        start = sum(kernel_rows)
        tables = [
            run_table(estimate_arl0(schedule, null_model(NULL), n_runs=1, cap=4000,
                                    master_seed=seed, reference=reference))
            for seed in range(16)
        ]
        return tables, sum(kernel_rows) - start

    (tables_b, rows_b), (tables_u, rows_u) = both_ways(request, compute)
    assert tables_b == tables_u
    assert max(table[1][0][1] for table in tables_b) > 124 - 64 + 1  # past t_max
    assert rows_b < rows_u


def test_workers_are_identical_without_the_bound(request):
    reference = tied_reference(500, seed=4, decimals=None)
    schedule = fixed_threshold(0.33, w=40)

    def compute():
        shared = estimate_arl0(schedule, null_model(NULL), n_runs=30, cap=600, master_seed=6,
                               reference=reference, workers=2)
        redrawn = estimate_delay(schedule, ChangePointModel(NULL, SHIFTED, 300), n_runs=6,
                                 cap=1500, master_seed=6, reference_spec=NULL,
                                 reference_size=400, workers=2)
        return run_table(shared), run_table(redrawn)

    bounded, unbounded = both_ways(request, compute)
    assert bounded == unbounded


# -- the bound stays switched on ---------------------------------------------


def test_calibration_computes_under_70_percent_of_the_rows(kernel_rows):
    """A refactor that quietly disables the bound fails here, not only in
    the benchmark.  Full evaluation computes every live row at every step."""
    reference = tied_reference(1000, seed=12, decimals=None)
    diagnostics = {}
    calibrate_schedule(
        reference, 100, CalibrationTarget(0.01), t_max=200, n_streams=600, master_seed=2,
        diagnostics=diagnostics,
    )
    survivors = diagnostics["survivor_counts"]
    full = 600 + int(survivors[:-1].sum())
    assert sum(kernel_rows) < 0.7 * full

"""Committed calibration schedules that must reproduce byte for byte.

Each case is a small ``calibrate_schedule`` run whose ``to_json()`` output
is stored under ``tests/data/``.  A change to the engines, the bootstrap
draws or the quantile rule that moves any threshold bit fails here.
The ``ks_ties`` case rounds its reference to one decimal, so reference
atoms tie (left and right CDF counts differ by more than one), and runs
more streams than the KS kernel's block of rows.  Regenerate the files
(only for a deliberate, documented behaviour change) with
``PYTHONPATH=src python tests/test_golden_schedules.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from seqshift import (
    CalibrationTarget,
    DistributionSpec,
    Kernel,
    ReferenceSet,
    calibrate_schedule,
    draw_reference,
    median_heuristic,
)

DATA = Path(__file__).resolve().parent / "data"

SCALAR = DistributionSpec.gaussian(0.0, 1.0)
PLANE = DistributionSpec.gaussian([0.0, 0.0], [1.0, 2.0])

# name -> (reference distribution, n, w, alpha, t_max, n_streams, statistic,
#          kernel kind, decimals the reference is rounded to)
CASES = {
    "ks": (SCALAR, 200, 20, 0.05, 40, 400, "ks", None, None),
    "ks_ties": (SCALAR, 200, 20, 0.05, 40, 600, "ks", None, 1),
    "mean_diff": (SCALAR, 200, 20, 0.05, 40, 400, "mean_diff", None, None),
    "mmd_rbf": (PLANE, 120, 10, 0.05, 25, 300, "mmd", "rbf", None),
    "mmd_linear": (PLANE, 120, 10, 0.05, 25, 300, "mmd", "linear", None),
}


def golden_json(name: str) -> str:
    dist, n, w, alpha, t_max, n_streams, statistic, kind, decimals = CASES[name]
    values = draw_reference(dist, n, master_seed=7, stream_id=0)
    if decimals is not None:
        values = np.round(values, decimals)
    reference = ReferenceSet(values)
    kernel = None
    if kind == "rbf":
        kernel = Kernel("rbf", bandwidth=median_heuristic(reference))
    elif kind == "linear":
        kernel = Kernel("linear")
    schedule = calibrate_schedule(
        reference,
        w,
        CalibrationTarget(alpha),
        t_max=t_max,
        n_streams=n_streams,
        statistic=statistic,
        kernel=kernel,
        master_seed=11,
    )
    return schedule.to_json() + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_reproduces_committed_bytes(name):
    want = (DATA / f"golden_schedule_{name}.json").read_text(encoding="utf-8")
    assert golden_json(name) == want


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (DATA / f"golden_schedule_{case}.json").write_text(golden_json(case), encoding="utf-8")

"""One statement of each statistic's rules, checked at every consumer.

``batch.check_statistic`` is the only place that says which statistics
exist, which need scalar summaries, and what MMD needs; each consumer must
refuse the same bad input with the same message, and the CLI must exit 2
with it.
"""

import json

import pytest

from seqshift import DistributionSpec, ReferenceSet, draw_reference, null_model
from seqshift.batch import check_statistic, make_batch_engine
from seqshift.calibration import (
    CalibrationTarget,
    calibrate_schedule,
    fixed_threshold,
    permutation_threshold,
)
from seqshift.cli import main
from seqshift.detector import DetectorConfig
from seqshift.evaluation import estimate_arl0
from seqshift.statistics import Kernel

KERNEL = Kernel("rbf", 1.0)

# (statistic, summary dimension, window, kernel)
BAD_INPUTS = {
    "unknown-name": ("energy", 1, 5, None),
    "ks-2d": ("ks", 2, 5, None),
    "mean_diff-2d": ("mean_diff", 2, 5, None),
    "mmd-no-kernel": ("mmd", 2, 5, None),
    "mmd-w1": ("mmd", 2, 1, KERNEL),
    "ks-kernel": ("ks", 1, 5, KERNEL),
}


def _raised(call) -> str:
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


def _cli_calibrate(statistic, reference, w, kernel, tmp_path, capsys):
    detector = {
        "statistic": statistic,
        "window": w,
        "threshold": {"policy": "permutation", "alpha": 0.2, "n_permutations": 50},
    }
    if kernel is not None:
        detector["kernel"] = {"kind": kernel.kind, "bandwidth": kernel.bandwidth}
    dim = reference.dim
    cfg = {
        "seed": 1,
        "detector": detector,
        "reference": {"family": "gaussian", "means": [0.0] * dim,
                      "variances": [1.0] * dim, "size": 60},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["calibrate", "--config", str(path), "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: detector: ") and err.endswith("\n")
    return err[len("error: detector: "):-1]


CONSUMERS = {
    "make_batch_engine": lambda s, ref, w, k, *_: _raised(
        lambda: make_batch_engine(s, ref, w, 4, k)),
    "DetectorConfig": lambda s, ref, w, k, *_: _raised(
        lambda: DetectorConfig(reference=ref, schedule=fixed_threshold(0.1, w),
                               window_size=w, statistic=s, kernel=k)),
    "calibrate_schedule": lambda s, ref, w, k, *_: _raised(
        lambda: calibrate_schedule(ref, w, CalibrationTarget(alpha=0.2), t_max=w + 3,
                                   n_streams=400, statistic=s, kernel=k,
                                   min_survivors=10)),
    "permutation_threshold": lambda s, ref, w, k, *_: _raised(
        lambda: permutation_threshold(ref, w, 0.2, 50, statistic=s, kernel=k)),
    # a scalar stream model, so ks/mean_diff would take the sliding fast path
    "estimate_arl0": lambda s, ref, w, k, *_: _raised(
        lambda: estimate_arl0(fixed_threshold(0.1, w),
                              null_model(DistributionSpec.gaussian(0.0, 1.0)),
                              n_runs=2, cap=w + 10, master_seed=1, statistic=s,
                              kernel=k, reference=ref)),
    "cli calibrate": _cli_calibrate,
}


@pytest.mark.parametrize("consumer", list(CONSUMERS))
@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_every_consumer_states_the_same_rule(case, consumer, tmp_path, capsys):
    statistic, dim, w, kernel = BAD_INPUTS[case]
    expected = _raised(lambda: check_statistic(statistic, dim, w, kernel))
    spec = DistributionSpec.gaussian([0.0] * dim, [1.0] * dim)
    reference = ReferenceSet(draw_reference(spec, 60, master_seed=3, stream_id=0))
    got = CONSUMERS[consumer](statistic, reference, w, kernel, tmp_path, capsys)
    assert got == expected


@pytest.mark.parametrize("consumer", ["make_batch_engine", "calibrate_schedule",
                                      "permutation_threshold"])
@pytest.mark.parametrize("w", [5.0, True])
def test_window_must_be_an_integer(w, consumer):
    expected = _raised(lambda: check_statistic("ks", 1, w, None))
    assert expected == f"window size must be an integer >= 1, got {w!r}"
    reference = ReferenceSet(draw_reference(DistributionSpec.gaussian(0.0, 1.0), 60,
                                            master_seed=3, stream_id=0))
    assert CONSUMERS[consumer]("ks", reference, w, None) == expected

"""The benchmark's view of the package.

``perfbench/`` imports seqshift names and wraps seqshift callables where
the package looks them up (``owner.__dict__[attr]``).  These checks only
read ``perfbench/``; they fail here first when a refactor would break
``perfbench/run.py`` or its ``--trace 1`` tracer.
"""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from seqshift import DistributionSpec, ReferenceSet, draw_reference, estimate_arl0, null_model
from seqshift.calibration import fixed_threshold
from seqshift.detector import Detector, DetectorConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_targets_resolve():
    missing = [
        name for owner, attr, name, _ in load_spans().Tracer.targets()
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_tracer_sees_the_scan_and_the_engine():
    """Redrawn ks runs go through the wrapped scans and shared runs through
    the wrapped engine pushes, so ``--trace 1`` per-layer metrics are not 0."""
    spec = DistributionSpec.gaussian(0.0, 1.0)
    schedule = fixed_threshold(0.4, 10)
    common = dict(n_runs=3, cap=60, master_seed=1, statistic="ks")
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        estimate_arl0(schedule, null_model(spec), reference_spec=spec, reference_size=50, **common)
        redrawn = {span[0] for span in tracer.spans}
        mark = len(tracer.spans)
        estimate_arl0(
            schedule, null_model(spec), reference=ReferenceSet(draw_reference(spec, 50, 1)),
            **common,
        )
        shared = {span[0] for span in tracer.spans[mark:]}
    finally:
        tracer.uninstall()
    assert "batch.sliding_stats" in redrawn
    assert "batch.push_column" in shared


@pytest.mark.parametrize("script", ["workloads.py", "child.py"])
def test_imported_names_exist(script):
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "seqshift"
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name) or importlib.util.find_spec(
                f"{node.module}.{alias.name}"
            ), f"{script}: from {node.module} import {alias.name}"


def test_detector_window_values():
    config = DetectorConfig(
        reference=ReferenceSet(np.arange(10.0)),
        schedule=fixed_threshold(math.inf, 3),
        window_size=3,
    )
    det = Detector(config)
    for x in (1.0, 2.0, 3.0, 4.0, 5.0):
        det.step(x)
    np.testing.assert_array_equal(det.window.values()[:, 0], [3.0, 4.0, 5.0])

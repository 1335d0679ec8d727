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

from seqshift import ReferenceSet
from seqshift.calibration import fixed_threshold
from seqshift.detector import Detector, DetectorConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        name for owner, attr, name, _ in spans.Tracer.targets() if attr not in owner.__dict__
    ]
    assert missing == []


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

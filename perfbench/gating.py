"""Telling samples taken while the host ran slow from the rest.

Shared 2-vCPU cloud hosts, such as the one the baseline numbers were
measured on, switch between a fast and a slow state (1.5-1.7x on Python
code) for seconds to minutes at a time.  A fixed probe (``SpeedProbe`` in
``child.py``) is timed next to every sample; a sample is clean when the
probe beside it ran within ``CLEAN_SLACK`` of the floor, the fastest
typical probe seen in this checkout.  Metrics are medians over clean
samples, or over the samples with the fastest probes when too few are
clean.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

CLEAN_SLACK = 1.35  # the slow state is >= 1.45x the floor, the fast one <= 1.3x
MIN_CLEAN = 3  # clean samples a median wants
OUT_DIR = ".perfbench-out"
FLOOR_FILE = "probe_floor.json"


def floor_path(root: Path) -> Path:
    return root / OUT_DIR / FLOOR_FILE


def read_floor(root: Path) -> float:
    """The stored floor, or +inf when no run has stored one yet."""
    try:
        return float(json.loads(floor_path(root).read_text(encoding="utf-8"))["probe_s"])
    except (OSError, ValueError, KeyError):
        return float("inf")


def store_floor(root: Path, probes) -> None:
    """Lower the floor to this run's 10th-percentile probe if that is faster."""
    probes = sorted(probes)
    typical_fast = probes[len(probes) // 10]
    path = floor_path(root)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"probe_s": min(read_floor(root), typical_fast)}), encoding="utf-8")


def limit(root: Path, probes) -> float:
    """Slowest probe time a clean sample may have."""
    return CLEAN_SLACK * min(read_floor(root), min(probes))


def clean_median(samples, max_probe):
    """Median value over (value, probe) pairs whose probe <= max_probe.

    With fewer than ``MIN_CLEAN`` clean pairs, the median is over the
    ``MIN_CLEAN`` pairs with the fastest probes instead.  Also returns how
    many pairs were clean.
    """
    clean = [v for v, p in samples if p <= max_probe]
    if len(clean) < MIN_CLEAN:
        clean_or_fastest = [v for v, _ in sorted(samples, key=lambda vp: vp[1])[:MIN_CLEAN]]
    else:
        clean_or_fastest = clean
    return statistics.median(clean_or_fastest), len(clean)

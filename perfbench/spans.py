"""Span tracer that instruments seqshift from outside the package.

The tracer replaces public callables at the place where the package looks
them up (a module global or a class attribute) with a wrapper that records
one span per call: name, start, end, parent span and optional counts.
Spans stay in memory; :func:`aggregate` turns them into per-layer totals
and self times, and :meth:`Tracer.write` dumps them when the run ends.
Nothing under ``src/`` is modified: ``install`` patches attributes and
``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# Layers are the modules under src/seqshift; a span's layer is the part of
# its name before the first dot.
LAYERS = (
    "rng", "streams", "summaries", "statistics", "batch", "calibration",
    "detector", "evaluation",
)
PHASE = "phase"


def _rows(args, kwargs, result):
    col, active = args[1], args[2]
    rows = len(col)
    return {"rows": rows, "test_rows": 0 if active is None else rows}


def _stat_rows(args, kwargs, result):
    return {"rows": len(result)}


def _windows(args, kwargs, result):
    return {"windows": len(result)}


def _samples(args, kwargs, result):
    return {"samples": len(result)}


def _draw_bytes(args, kwargs, result):
    return {"draw_bytes": 8 * kwargs["n_streams"] * kwargs["t_max"]}


class Tracer:
    """Records spans for the seqshift callables listed in :meth:`targets`."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index); -1 = no parent
        self.counts = {}  # span index -> {count name: value}
        self._stack = []
        self._saved = []

    @staticmethod
    def targets():
        """(owner, attribute, span name, count function) for every wrap."""
        from seqshift import batch, calibration, detector, evaluation, rng, statistics, streams

        out = [
            (rng, "uniform_block", "rng.uniform_block", None),
            (streams, "generate_chunk", "streams.generate_chunk", _samples),
            (streams, "draw_reference", "streams.draw_reference", None),
            (statistics.ReferenceSet, "__init__", "statistics.ReferenceSet", None),
            (statistics.ReferenceSet, "kernel_self_sum", "statistics.kernel_self_sum", None),
            (statistics, "median_heuristic", "statistics.median_heuristic", None),
            (statistics.SlidingWindow, "push", "statistics.SlidingWindow.push", None),
            (detector, "ks_distance", "statistics.stat", None),
            (detector, "mean_difference", "statistics.stat", None),
            (detector, "mmd2_u", "statistics.stat", None),
            (detector, "apply_summary", "summaries.apply_summary", None),
            (detector.Detector, "step", "detector.step", None),
            (evaluation, "sliding_ks_stats", "batch.sliding_stats", _windows),
            (evaluation, "sliding_mean_diff_stats", "batch.sliding_stats", _windows),
            (calibration, "calibrate_schedule", "calibration.calibrate_schedule", _draw_bytes),
            (calibration, "permutation_threshold", "calibration.permutation_threshold", None),
            (calibration, "ks_asymptotic_threshold", "calibration.ks_asymptotic_threshold", None),
            (calibration, "high_order_statistic", "calibration.high_order_statistic", None),
            (evaluation, "estimate_arl0", "evaluation.estimate", None),
            (evaluation, "estimate_delay", "evaluation.estimate", None),
        ]
        for engine in (batch.BatchKsEngine, batch.BatchMeanDiffEngine, batch.BatchMmdEngine):
            out.append((engine, "push_column", "batch.push_column", _rows))
            out.append((engine, "statistics", "batch.statistics", _stat_rows))
        return out

    def install(self, extra_counts=None):
        """Wrap every target; ``extra_counts`` maps span names to count functions."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        extra_counts = extra_counts or {}
        for owner, attr, name, counter in self.targets():
            original = owner.__dict__[attr]
            counter = extra_counts.get(name, counter)
            setattr(owner, attr, self._wrap(original, name, counter))
            self._saved.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, original, name, counter):
        spans, counts, stack = self.spans, self.counts, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                counts[idx] = counter(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def phase(self, name):
        """Root span for one benchmark phase; its self time is the remainder."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (f"{PHASE}.{name}", start, end, -1)

    def write(self, path):
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                row.update(self.counts.get(i, {}))
                fh.write(json.dumps(row) + "\n")


def aggregate(spans, counts, lo=0, hi=None):
    """Totals over spans[lo:hi] (a whole number of phases).

    Returns ``(by_name, by_phase)``: ``by_name[name]`` holds ``calls``,
    ``busy_s`` (inclusive duration), ``self_s`` and summed counts;
    ``by_phase[phase]`` holds ``wall_s`` and ``self_s`` per layer, with
    the phase span's own self time under ``unaccounted``.
    """
    hi = len(spans) if hi is None else hi
    child_time = defaultdict(float)
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        if parent >= 0:
            child_time[parent] += end - start
    by_name = defaultdict(lambda: defaultdict(float))
    by_phase = {}
    phase_of = {}
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        dur = end - start
        own = dur - child_time[i]
        if parent < 0:
            if not name.startswith(PHASE + "."):
                raise RuntimeError(f"span {name!r} was recorded outside any phase")
            phase = name.split(".", 1)[1]
            phase_of[i] = phase
            by_phase[phase] = {"wall_s": dur, "unaccounted": own, "layers": defaultdict(float)}
            continue
        phase_of[i] = phase_of[parent]
        entry = by_name[name]
        entry["calls"] += 1
        entry["busy_s"] += dur
        entry["self_s"] += own
        for key, value in counts.get(i, {}).items():
            entry[key] += value
        by_phase[phase_of[i]]["layers"][name.split(".", 1)[0]] += own
    return by_name, by_phase

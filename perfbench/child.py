"""One workload in one fresh process (started by ``perfbench/run.py``).

Prints ``READY`` on stdout once the reference is ready (the parent times
set-up to that line) and then ``PROBE <seconds>``, one speed-probe time.
It then repeats passes of the workload's phases for ``--seconds``, or up
to ``MAX_STRETCH`` times that while too few samples are clean (see
``gating``), runs the output checks, and prints one JSON result object as
the last stdout line.  The first pass is a warm-up and is not measured.

With ``--trace 1`` passes alternate between untraced and traced; the
traced ones yield the per-layer numbers, and the ratio of their wall times
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy
import seqshift
from seqshift.detector import Detector

import gating
from spans import LAYERS, Tracer, aggregate
from workloads import (
    INVARIANCE_RUNS,
    INVARIANCE_WORKERS,
    MONITOR_SAMPLES,
    WORKLOADS,
    consumed,
    recompute,
    report_digest,
    sha256,
    within_contract,
)

# Hard stop well inside the 180 s a run may take; SIGALRM's default action
# ends the process, and a forked Monte Carlo worker does not inherit it.
TIME_LIMIT_S = 170
WARMUP_PASSES = 1  # the first pass fills caches and is left out of the metrics
MIN_TRACED_CLEAN = 2  # clean passes wanted of each kind when tracing
MAX_STRETCH = 1.5  # measuring may run this many times --seconds to find them
PROBE_REPEATS = 3


class Checks:
    """Output checks; failed / attempted is the workload's fail_frac."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def machine_block():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def estimate_counts(args, kwargs, result):
    """Tracer counts for an ``estimate_*`` call: runs, censoring, work done."""
    obs, tests = consumed(result, args[0].w, kwargs["cap"])
    return {"runs": result.n_runs, "censored": result.censored_count,
            "observations": obs, "tests": tests}


def monitor(config, xs, w):
    """Step one detector over ``xs``; per-test-step latency (us) and snapshots."""
    det = Detector(config)
    n = len(xs)
    sample_at = set(np.linspace(w - 1, n - 1, MONITOR_SAMPLES).astype(int).tolist())
    lat = [0.0] * n
    snaps = []
    clock = time.perf_counter
    for i in range(n):
        x = xs[i]
        t0 = clock()
        det.step(x)
        lat[i] = clock() - t0
        if i in sample_at:
            snaps.append((det.window.values(), det.last_statistic))
    return np.array(lat[w - 1 :]) * 1e6, snaps


class SpeedProbe:
    """A fixed piece of Python and numpy work that times the host itself.

    It touches no seqshift code, so a change to the program cannot move
    it; see ``gating`` for how its times select clean samples.
    """

    def __init__(self):
        gen = np.random.default_rng(0)
        self.sorted_ref = np.sort(gen.standard_normal(3000))
        self.small = np.sort(gen.standard_normal(100))
        self.rows = gen.integers(0, 3000, size=(2000, 100)).astype(np.int32)

    def _once(self):
        start = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i
        a = self.small
        for _ in range(300):
            pos = int(np.searchsorted(a, 0.1))
            a = np.delete(np.insert(a, pos, 0.1), pos)
            np.searchsorted(self.sorted_ref, 0.3)
        np.sort(self.rows, axis=1)
        return time.perf_counter() - start

    def __call__(self):
        return min(self._once() for _ in range(PROBE_REPEATS))


def run_pass(wl, tracer, probe):
    """calibrate -> mc -> monitor once; timings plus the artifacts made."""
    phase = tracer.phase if tracer is not None else (lambda name: nullcontext())
    clock = time.perf_counter
    probes = [probe()]
    start = clock()
    with phase("calibrate"):
        schedules = wl.calibrate()
    calibrate_s = clock() - start
    probes.append(probe())
    mc_s = 0.0
    reports = {}
    start = clock()
    with phase("mc"):
        calls = wl.mc_calls(schedules)
        for label, fn, schedule, kwargs in calls:
            t0 = clock()
            reports[label] = fn(schedule, **kwargs)
            mc_s += clock() - t0
    mc_phase_s = clock() - start
    probes.append(probe())
    start = clock()
    with phase("monitor"):
        lat, snaps = monitor(wl.monitor_config(schedules), wl.monitor_xs, wl.w)
    monitor_phase_s = clock() - start
    probes.append(probe())

    obs = sum(consumed(reports[label], s.w, kw["cap"])[0] for label, _, s, kw in calls)
    digests = {f"schedule.{k}": sha256(s.to_json()) for k, s in schedules.items()}
    digests.update({f"report.{k}": report_digest(r) for k, r in reports.items()})
    return {
        "traced": tracer is not None,
        "probes_s": probes,
        "calibrate_s": calibrate_s,
        "mc_s": mc_s,
        "mc_observations": obs,
        "mc_steps_per_s": obs / mc_s,
        "monitor_samples": int(lat.size),
        "monitor_step_p50_us": float(np.percentile(lat, 50)),
        "monitor_step_p90_us": float(np.percentile(lat, 90)),
        "monitor_step_p99_us": float(np.percentile(lat, 99)),
        "mc_phase_s": mc_phase_s,
        "monitor_phase_s": monitor_phase_s,
        "digests": digests,
        "_schedules": schedules,
        "_reports": reports,
        "_snaps": snaps,
    }


# probes (index into probes_s) that bracket each metric's phase
BRACKETS = {
    "calibrate_s": (0, 1),
    "mc_steps_per_s": (1, 2),
    "mc_phase_s": (1, 2),
    "monitor_step_p50_us": (2, 3),
    "monitor_step_p90_us": (2, 3),
    "monitor_step_p99_us": (2, 3),
    "monitor_phase_s": (2, 3),
}
END_TO_END = ("calibrate_s", "mc_steps_per_s", "monitor_step_p50_us")
# total_s, the wall time of one pass, is the sum of its phases' clean medians
TOTAL_PARTS = ("calibrate_s", "mc_phase_s", "monitor_phase_s")


def pass_median(passes, key, max_probe):
    """Median of ``key`` over passes, clean ones when there are any."""
    idx = BRACKETS[key]
    samples = [(p[key], max(p["probes_s"][i] for i in idx)) for p in passes]
    return gating.clean_median(samples, max_probe)


def run_checks(wl, passes, checks):
    """Every output check; returns informational values."""
    first = passes[0]
    info = {}
    config = wl.monitor_config(first["_schedules"])
    for values, stat in first["_snaps"]:
        want = recompute(config.statistic, wl.reference, values, config.kernel)
        checks.add("monitor statistic recomputation", within_contract(stat, want),
                   f"detector {stat!r} vs plain {want!r}")

    for p in passes[1:]:
        checks.add("passes reproduce artifacts", p["digests"] == first["digests"],
                   "artifact digests differ between passes")

    wl.check_reports(checks, first["_schedules"], first["_reports"], info)

    fn, schedule, kwargs = wl.invariance_call(first["_schedules"])
    slice_kwargs = dict(kwargs, n_runs=INVARIANCE_RUNS)
    one = fn(schedule, **slice_kwargs, workers=1)
    many = fn(schedule, **slice_kwargs, workers=INVARIANCE_WORKERS)
    checks.add("worker invariance", one.runs == many.runs and one.to_dict() == many.to_dict(),
               f"workers=1 and workers={INVARIANCE_WORKERS} run tables differ")

    mismatch = {s: wl.path_mismatch(checks, s) for s in wl.path_statistics()}
    info["path_mismatch"] = mismatch
    info["path_mismatch_max"] = max(mismatch.values())
    return info


# -- per-layer metrics ----------------------------------------------------

# metric name -> (span name, field); busy_s is inclusive of child spans
SPAN_METRICS = {
    "batch.push_column.calls": ("batch.push_column", "calls"),
    "batch.push_column.rows": ("batch.push_column", "rows"),
    "batch.push_column.busy_s": ("batch.push_column", "busy_s"),
    "batch.statistics.rows": ("batch.statistics", "rows"),
    "batch.statistics.busy_s": ("batch.statistics", "busy_s"),
    "calibration.calibrate_schedule.self_s": ("calibration.calibrate_schedule", "self_s"),
    "calibration.high_order_statistic.calls": ("calibration.high_order_statistic", "calls"),
    "calibration.high_order_statistic.busy_s": ("calibration.high_order_statistic", "busy_s"),
    "calibration.draw_bytes": ("calibration.calibrate_schedule", "draw_bytes"),
    "calibration.permutation_threshold.busy_s": ("calibration.permutation_threshold", "busy_s"),
    "rng.uniform_block.busy_s": ("rng.uniform_block", "busy_s"),
    "streams.generate_chunk.calls": ("streams.generate_chunk", "calls"),
    "streams.generate_chunk.samples": ("streams.generate_chunk", "samples"),
    "streams.generate_chunk.busy_s": ("streams.generate_chunk", "busy_s"),
    "streams.draw_reference.busy_s": ("streams.draw_reference", "busy_s"),
    "statistics.ReferenceSet.busy_s": ("statistics.ReferenceSet", "busy_s"),
    "batch.sliding_stats.windows": ("batch.sliding_stats", "windows"),
    "batch.sliding_stats.busy_s": ("batch.sliding_stats", "busy_s"),
    "evaluation.estimate.self_s": ("evaluation.estimate", "self_s"),
    "evaluation.runs": ("evaluation.estimate", "runs"),
    "evaluation.censored": ("evaluation.estimate", "censored"),
    "statistics.SlidingWindow.push.calls": ("statistics.SlidingWindow.push", "calls"),
    "statistics.SlidingWindow.push.busy_s": ("statistics.SlidingWindow.push", "busy_s"),
    "statistics.stat.calls": ("statistics.stat", "calls"),
    "statistics.stat.busy_s": ("statistics.stat", "busy_s"),
    "detector.step.calls": ("detector.step", "calls"),
    "detector.step.self_s": ("detector.step", "self_s"),
    "summaries.apply_summary.calls": ("summaries.apply_summary", "calls"),
    "summaries.apply_summary.busy_s": ("summaries.apply_summary", "busy_s"),
    "statistics.median_heuristic.busy_s": ("statistics.median_heuristic", "busy_s"),
    "statistics.kernel_self_sum.busy_s": ("statistics.kernel_self_sum", "busy_s"),
}
PHASES = ("setup", "calibrate", "mc", "monitor")


def pass_layer_values(tracer, span_range, setup_range):
    """Per-layer values of one traced pass, with the set-up spans added in."""
    merged = defaultdict(lambda: defaultdict(float))
    phases = {}
    for lo, hi in (setup_range, span_range):
        by_name, by_phase = aggregate(tracer.spans, tracer.counts, lo, hi)
        for name, entry in by_name.items():
            for key, value in entry.items():
                merged[name][key] += value
        phases.update(by_phase)

    out = {m: float(merged[span][field]) for m, (span, field) in SPAN_METRICS.items()}
    # rows evaluated / rows pushed on test steps (pushes after warm-up)
    test_rows = merged["batch.push_column"]["test_rows"]
    out["batch.alive_ratio"] = out["batch.statistics.rows"] / test_rows if test_rows else 0.0

    # consumed test steps / windows computed, over fast-path estimate calls
    windows_by_estimate = defaultdict(float)
    for i in range(*span_range):
        name, _, _, parent = tracer.spans[i]
        if name == "batch.sliding_stats":
            windows_by_estimate[parent] += tracer.counts[i]["windows"]
    windows = sum(windows_by_estimate.values())
    tests = sum(tracer.counts[p]["tests"] for p in windows_by_estimate)
    out["evaluation.window_yield"] = tests / windows if windows else 0.0

    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(ph["layers"].get(layer, 0.0) for ph in phases.values())
    for name in PHASES:
        out[f"phase.{name}.wall_s"] = phases[name]["wall_s"]
        out[f"phase.{name}.unaccounted_s"] = phases[name]["unaccounted"]
    return out, phases


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    signal.alarm(TIME_LIMIT_S)
    root = Path.cwd()
    source = Path(seqshift.__file__).resolve()
    if root / "src" not in source.parents:
        raise SystemExit(f"seqshift was imported from {source}, not from {root / 'src'}")

    wl = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({"evaluation.estimate": estimate_counts})
        with tracer.phase("setup"):
            wl.setup()
        tracer.uninstall()
        setup_range = (0, len(tracer.spans))
    else:
        wl.setup()
    print("READY", flush=True)
    probe = SpeedProbe()
    # lets the parent tell set-up samples taken in the host's slow state
    print(f"PROBE {probe()!r}", flush=True)
    if args.setup_only:
        return 0

    wl.prepare()
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            lo = len(tracer.spans)
            tracer.install({"evaluation.estimate": estimate_counts})
            try:
                result = run_pass(wl, tracer, probe)
            finally:
                tracer.uninstall()
            result["span_range"] = (lo, len(tracer.spans))
        else:
            result = run_pass(wl, None, probe)
        passes.append(result)
        timed = passes[WARMUP_PASSES:]
        limit = gating.limit(root, [t for p in passes for t in p["probes_s"]])
        if tracer is not None:
            clean = [p["traced"] for p in timed if max(p["probes_s"]) <= limit]
            enough = min(sum(clean), len(clean) - sum(clean)) >= MIN_TRACED_CLEAN
        else:
            enough = bool(timed) and all(
                pass_median(timed, key, limit)[1] >= gating.MIN_CLEAN for key in TOTAL_PARTS)
        # stop when one more pass would overrun the measuring time, once
        # there is a timed pass of each kind the metrics need
        next_end = (time.perf_counter() - start) * (len(passes) + 1) / len(passes)
        kinds = {p["traced"] for p in timed}
        if len(kinds) == (2 if tracer is not None else 1) and (
            (enough and next_end > args.seconds) or next_end > MAX_STRETCH * args.seconds
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gating.store_floor(root, [t for p in passes for t in p["probes_s"]])

    checks = Checks()
    info = run_checks(wl, passes, checks)

    untraced = [p for p in timed if not p["traced"]]
    metrics = {}
    clean_counts = {}
    phase_tables = None
    if tracer is None:
        for key in END_TO_END:
            metrics[key], clean_counts[key] = pass_median(untraced, key, limit)
        metrics["total_s"] = sum(pass_median(untraced, key, limit)[0] for key in TOTAL_PARTS)
        # too noisy on a shared host to gate a change on; printed, not metrics
        for key in ("monitor_step_p90_us", "monitor_step_p99_us"):
            info[key] = pass_median(untraced, key, limit)[0]
        metrics["peak_rss_mb"] = peak_rss_mb
    else:
        traced_passes = [p for p in timed if p["traced"]]
        clean = [p for p in traced_passes if max(p["probes_s"]) <= limit] or traced_passes
        clean_counts["traced passes"] = len(clean)
        per_pass = [pass_layer_values(tracer, p["span_range"], setup_range) for p in clean]
        for key, value in per_pass[0][0].items():
            # times vary between passes, counts do not
            metrics[key] = statistics.median(v[key] for v, _ in per_pass) if key.endswith("_s") else value
        metrics["statistics.path_mismatch_max"] = info["path_mismatch_max"]
        metrics["trace_overhead_frac"] = (
            sum(pass_median(traced_passes, key, limit)[0] for key in TOTAL_PARTS)
            / sum(pass_median(untraced, key, limit)[0] for key in TOTAL_PARTS) - 1.0
        )
        phase_tables = {
            name: {"wall_s": ph["wall_s"], "unaccounted_s": ph["unaccounted"],
                   "layers": dict(ph["layers"])}
            for name, ph in per_pass[0][1].items()
        }
        out_dir = root / gating.OUT_DIR
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}.spans.jsonl")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_block(),
        "passes": [{k: v for k, v in p.items() if not k.startswith("_")} for p in passes],
        "attempted": checks.attempted,
        "failures": checks.failures,
        "info": info,
        "metrics": metrics,
        "clean_counts": clean_counts,
        "phase_tables": phase_tables,
        "digests": passes[0]["digests"],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

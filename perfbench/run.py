"""seqshift benchmark: calibrate -> validate -> monitor, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ks-calibrated --seed 1 --seconds 15 --trace 0

Workloads and metrics are listed in BENCHMARK.json.  Each workload runs in
a fresh child process (``perfbench/child.py``) that imports seqshift from
``src/`` with BLAS/OpenMP threads pinned to 1.  Set-up time is measured
from process start to reference ready, over several fresh processes, and
reported as the median.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` it carries the per-layer ones.
The last line is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  Details
(artifact digests, machine block, per-pass numbers, spans) go to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import gating

HERE = Path(__file__).resolve().parent
SETUP_PROCESSES = 5  # set-up samples per run, the workload's own process included
EXTRA_SETUP_PROCESSES = 4  # at most this many more when too few samples are clean
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 175


class ChildFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + path if path else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, env, deadline):
    """Start one child; return (seconds to its READY line, the speed probe
    it timed right after, its last line)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        ready = probe = last = None
        for line in proc.stdout:
            line = line.strip()
            if line == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("PROBE ") and probe is None:
                probe = float(line.split()[1])
            elif line:
                last = line
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or probe is None:
        raise ChildFailed(f"{' '.join(cmd)} exited with code {code}")
    return ready, probe, last


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + CHILD_TIMEOUT_S

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (root / "src" / "seqshift" / "__init__.py").is_file():
        print("error: no seqshift sources under src/ in the current directory", file=sys.stderr)
        return 2
    compileall.compile_dir(str(root / "src"), quiet=1)
    env = child_env(root)

    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        ready, probe, last = run_child(child_args, env, deadline)
        setup = [(ready, probe)]
        # more set-up-only processes until enough clean samples, within a cap
        while not args.trace and len(setup) < SETUP_PROCESSES + EXTRA_SETUP_PROCESSES:
            clean = gating.clean_median(setup, gating.limit(root, [p for _, p in setup]))[1]
            if len(setup) >= SETUP_PROCESSES and clean >= gating.MIN_CLEAN:
                break
            setup.append(run_child([*child_args, "--setup-only"], env, deadline)[:2])
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(last)

    metrics = dict(result["metrics"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        max_probe = gating.limit(root, [p for _, p in setup])
        metrics["setup_s"], result["clean_counts"]["setup_s"] = gating.clean_median(setup, max_probe)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1

    attempted = result["attempted"]
    failed = len(result["failures"])
    machine = result["machine"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + "  ".join(f"{k}={fmt(v)}" for k, v in machine.items()))
    passes = result["passes"]
    print(f"passes {len(passes)} ({sum(p['traced'] for p in passes)} traced), "
          f"monitor samples per pass {passes[0]['monitor_samples']}, "
          f"setup samples {len(setup)}")
    print("clean passes used: " + "  ".join(f"{k}={v}" for k, v in result["clean_counts"].items()))
    for m in wanted:
        print(f"  {m['name']:<44} {fmt(metrics[m['name']]):>14} {m['unit']}")
    print(f"  {'fail_frac':<44} {fmt(failed / attempted):>14} ({failed}/{attempted} checks)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for key, value in result["info"].items():
        print(f"  info {key} = {fmt(value) if not isinstance(value, dict) else value}")
    for key, value in sorted(result["digests"].items()):
        print(f"  sha256 {key} {value}")
    if result["phase_tables"]:
        for name, table in result["phase_tables"].items():
            parts = "  ".join(f"{layer}={fmt(s)}" for layer, s in sorted(table["layers"].items()))
            print(f"  phase {name}: wall {fmt(table['wall_s'])} s = {parts}  "
                  f"unaccounted={fmt(table['unaccounted_s'])}")

    out_dir = root / gating.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    detail = dict(result, setup_samples_s=setup)
    (out_dir / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8"
    )

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

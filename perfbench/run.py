#!/usr/bin/env python3
"""uwansim benchmark.

    python3 perfbench/run.py --workload {reference,sweep,phy_maps} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; ``uwansim`` is imported from its
``src/``.  With ``--trace 0`` it prints the end-to-end metrics of the
workload, with ``--trace 1`` the per-layer metrics of a traced run.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every simulated output checked was correct.

Every measurement runs in a fresh process (``worker.py``) so one run's
peak memory, caches and tracing wrappers cannot leak into another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 150


def _worker(mode: str, args, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, args.workload,
           str(args.seed), repr(seconds), args.size]
    # its own process group, so that a timeout also ends its pool workers
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"worker {mode} timed out after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _provenance(numpy_version: str) -> dict:
    commit = None  # an exported checkout has no .git; src_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0))}


def _spread(values) -> str:
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def end_to_end(args) -> tuple[dict, dict, list[str]]:
    setups = [_worker("setup", args, 0) for _ in range(SETUP_SAMPLES)]
    run = _worker("measure", args, args.seconds)
    scaled_setups = [s["setup_s"] for s in setups]
    raw_setups = [s["raw_setup_s"] for s in setups]
    metrics = {
        "wall_s": (statistics.median(run["walls"]), "s"),
        "setup_s": (statistics.median(scaled_setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
    }
    notes = [f"wall_s: {_spread(run['walls'])} repetitions",
             f"setup_s: {_spread(scaled_setups)} fresh processes",
             f"unscaled host wall_s {statistics.median(run['raw_walls']):.4f} s, "
             f"setup_s {statistics.median(raw_setups):.4f} s"]
    if args.workload == "reference":
        for protocol in workloads.PROTOCOLS:
            times = run["part_times"][protocol]
            notes.append(f"run_s.{protocol} = {statistics.median(times):.4f} s ({_spread(times)})")
    return metrics, run, notes


def per_layer(args) -> tuple[dict, dict, list[str]]:
    plain = _worker("measure", args, args.seconds / 2)
    traced = _worker("trace", args, args.seconds / 2)
    if traced["wrappers_left"]:
        raise RuntimeError(f"tracing wrappers left installed: {traced['wrappers_left']}")
    trace = traced.pop("trace")
    metrics = {name: (value, tracing.unit(name)) for name, value in trace.items()}
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced["walls"]) / statistics.median(plain["walls"]), "1")
    for protocol in workloads.PROTOCOLS:
        times = plain["part_times"].get(protocol)
        metrics[f"run_s.{protocol}"] = (statistics.median(times) if times else 0.0, "s")
    for key in ("attempted", "failed"):
        plain[key] += traced[key]
    plain["failures"] += traced["failures"]
    notes = [f"traced repetition: median of {len(traced['walls'])}",
             f"untraced wall_s: {_spread(plain['walls'])} repetitions"]
    return metrics, plain, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uwansim" / "__init__.py").is_file():
        print(f"error: no uwansim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, run, notes = (per_layer if args.trace else end_to_end)(args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        work = ROOT / ".perfbench_work"
        if work.is_dir() and not any(work.iterdir()):
            shutil.rmtree(work, ignore_errors=True)

    failed_ratio = run["failed"] / run["attempted"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size} checked against {run['expected']}")
    print("provenance: " + json.dumps(_provenance(run["numpy"])))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<42} {failed_ratio:>14.6g} 1 ({run['failed']} of {run['attempted']})")
    for note in notes:
        print(f"  # {note}")
    for failure in run["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if run["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

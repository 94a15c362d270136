#!/usr/bin/env python3
"""lsfem benchmark: one workload per invocation, run in its own process.

    python3 perfbench/run.py --workload eps-sweep --seed 1 --seconds 45 --trace 0

Workloads: eps-sweep, layer-ladder (see perfbench/README.md).
With ``--trace 0`` one workload process repeats the timed pass while the
next one is expected to end within ``--seconds`` of its first timed call,
and the run reports medians over the passes. Set-up time is the median
over MIN_SETUPS process launches. With ``--trace 1`` the process alternates
untraced and traced passes, at least two of each, and the run reports the
per-layer metrics (medians over the traced passes) and the tracing overhead
(median over the pairs of traced minus untraced wall time).
BLAS and OpenMP pools are pinned to one thread in every workload process.

The last line of stdout is a JSON object with the keys correct, attempted,
failed and metrics. Exits 1 without that line if a workload process fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("eps-sweep", "layer-ladder")
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkloadFailed(RuntimeError):
    pass


def launch(workload: str, seed: int, *flags: str) -> dict:
    """Run one workload process to its end; returns its JSON report plus
    ``setup_s``, the time from launch to its first timed call."""
    out_dir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out_dir, *flags]
    env = dict(os.environ, **PINNED)
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise WorkloadFailed(f"{workload} process exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkloadFailed(f"{workload} process exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["first_call"] - start
    trace_file = os.path.join(out_dir, "trace.jsonl")
    if os.path.exists(trace_file):
        os.replace(trace_file, os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl"))
    shutil.rmtree(out_dir)
    return report


def end_to_end(report: dict, setups: list[float]) -> dict:
    """Medians over the passes of one process, and over the set-up samples."""
    walls = report["wall_s"]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(report["cpu_s"]), "s"),
        "dofs_per_s": (statistics.median(report["dofs"] / w for w in walls), "dofs/s"),
        "peak_mib": (report["peak_mib"], "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lsfem", "__init__.py")):
        print(f"lsfem sources not found under {ROOT}/src", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            report = launch(args.workload, args.seed, "--trace", "1")
            metrics = {k: tuple(vu) for k, vu in report["layers"].items()}
            pairs = zip(report["traced_wall_s"], report["wall_s"])
            metrics["trace.overhead_s"] = (statistics.median(t - u for t, u in pairs), "s")
        else:
            report = launch(args.workload, args.seed, "--seconds", str(args.seconds))
            setups = [report["setup_s"]]
            while len(setups) < MIN_SETUPS:
                setups.append(launch(args.workload, args.seed, "--setup-only")["setup_s"])
            metrics = end_to_end(report, setups)
    except WorkloadFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in report["bad"]:
        print(f"check failed [{args.workload}]: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: passes "
          + ", ".join(f"{w:.3f}" for w in report["wall_s"])
          + "".join(f", traced {w:.3f}" for w in report.get("traced_wall_s", ()))
          + f" s wall, set-up {report['setup_s']:.3f} s, {report['peak_mib']:.1f} MiB peak, "
          f"{report['dofs']} dofs per pass", file=sys.stderr)
    print(json.dumps({
        "correct": not report["bad"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

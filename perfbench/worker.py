"""One workload process: import, warm up, run timed passes, check them.

Started by ``run.py``; prints one JSON line on stdout as its last line: the
perf_counter reading at the first timed call, each pass's wall and CPU
time, peak RSS, dofs, operation counts and the failed checks.

- ``--setup-only`` stops at the first timed call.
- ``--seconds S`` runs passes while the next one is expected to end within
  S seconds of the first timed call; always at least one.
- ``--trace 1`` alternates untraced passes and passes with the layers
  traced, at least two of each, and adds the traced wall times and the
  per-layer metrics (medians over the traced passes).

The first pass is checked in full; every later pass must reproduce its
solutions bit for bit.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs the paths above)


def timed(run_pass, seed, out_dir):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = run_pass(seed, out_dir)
    return result, time.perf_counter() - wall0, time.process_time() - cpu0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", required=True, help="directory for the pass's files")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    run_pass = workloads.PASSES[args.workload]
    warm = os.path.join(args.out, "warm-up")
    os.makedirs(warm)
    run_pass(args.seed, warm, size="warm-up")  # lazy imports, first-call set-up
    shutil.rmtree(warm)

    first_call = time.perf_counter()
    out = {"first_call": first_call}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    first, wall, cpu = timed(run_pass, args.seed, args.out)
    walls, cpus, bad = [wall], [cpu], []
    attempted, failed = first.attempted, first.failed

    def again():
        nonlocal attempted, failed
        result, wall, cpu = timed(run_pass, args.seed, args.out)
        attempted += result.attempted
        failed += result.failed
        bad.extend(workloads.same_outputs(first, result))
        return wall, cpu

    deadline = first_call + args.seconds
    if args.trace:
        import tracing

        # untraced and traced passes alternate: at least two pairs
        traced, layers = [], []
        while True:
            with tracing.Tracer() as tracer:
                traced.append(again()[0])
            layers.append(tracer.metrics())
            tracer.dump(os.path.join(args.out, "trace.jsonl"))
            if len(traced) >= 2 and time.perf_counter() + 2 * statistics.median(walls) > deadline:
                break
            walls.append(again()[0])
        out["traced_wall_s"] = traced
        out["layers"] = {
            name: [statistics.median(m[name][0] for m in layers), unit]
            for name, (_, unit) in layers[0].items()
        }
    else:
        while time.perf_counter() + statistics.median(walls) <= deadline:
            wall, cpu = again()
            walls.append(wall)
            cpus.append(cpu)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out.update(
        wall_s=walls,
        cpu_s=cpus,
        peak_mib=peak_kib / 1024.0,
        dofs=first.dofs,
        attempted=attempted,
        failed=failed,
        bad=workloads.check(args.workload, first) + bad,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

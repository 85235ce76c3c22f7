"""ghostsim benchmark.

Run from the root of a ghostsim checkout:

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Prints a readable table, then, as the last line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Each run also leaves a
record, with the environment it ran in, under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("cli_cold", "image_sweep", "mc_io")
RUNS_DIR = ".perfbench_runs"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # kB on Linux


def run_one(args, root: str) -> int:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    import machine
    import spans
    import workloads

    runs = os.path.join(root, RUNS_DIR)
    work_dir = os.path.join(runs, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        work_dir=work_dir, env=env, tracer=spans.Tracer() if args.trace else None,
    )
    try:
        layer = workloads.execute(ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    tally = ctx.tally

    if args.trace:
        metrics = layer
        units = {name: unit for name, unit, _better in spans.per_layer_metrics()}
        samples = {}
    else:
        metrics, samples = workloads.e2e_metrics(ctx, _peak_rss_mb(args.workload))
        units = {name: unit for name, unit, _meaning in workloads.E2E_METRICS}
        missing = [name for name in units if name not in metrics]
        if missing:
            for line in tally.problems:
                print("FAILED", line, file=sys.stderr)
            print(f"error: no sample of {', '.join(missing)}", file=sys.stderr)
            return 1

    fail_frac = tally.failed / tally.attempted
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {tally.attempted}  failed {tally.failed}  fail_frac {fail_frac:g}")
    for line in tally.problems:
        print("  FAILED", line)
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:45s} {value:14.6g} {units[name]}")
    else:
        for name, unit, meaning in workloads.E2E_METRICS:
            n = len(samples.get(name, ())) or 1
            print(f"  {name:12s} {metrics[name]:12.6g} {unit:3s} n={n:<3d} "
                  f"{meaning[args.workload]}")
        extra = tally.times.get("interference_s")
        if extra:
            print(f"  (interference_s {statistics.median(extra):.6g} s, n={len(extra)}; "
                  "not bounded)")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": machine.environment(root),
        "result": result, "fail_frac": fail_frac, "problems": tally.problems,
        "samples": {**samples, **{k: v for k, v in tally.times.items() if k not in samples}},
        "spans": ctx.tracer.spans if ctx.tracer else [],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(runs, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args, root: str) -> int:
    """Every workload in its own process; one table of every metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ghostsim", "__init__.py")):
        print("error: src/ghostsim not found; run from the root of a ghostsim checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())

"""Serving benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload inproc_replay --seed 1 --seconds 30 --trace 0

Run from the repository root (the program is imported from ``src/``).
Workloads, metrics and bounds are declared in ``BENCHMARK.json``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate, traced run,
whose spans are written to ``.perfbench/traces/``.  The lines before it
report the run context, every metric by name with its unit, and the
workload's details (per-rung counts, failures by cause, per-pass figures).
A failed correctness check prints ``"correct": false`` and exits 1.
"""

import os

# Pin BLAS/OpenMP threads before NumPy loads, here and (through the
# environment) in every serving process this run starts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse
import json
import math
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import procs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _context(backend: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "kernel_backend": backend,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Every way out, a SIGTERM included, stops the processes the run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    procs.adopt_orphans()
    try:
        return _run(args)
    finally:
        procs.stop_strays()


def _run(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import numpy as np
    from repro.nn.backend import active_backend_name

    import workloads

    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            for trace in ("0", "1"):
                command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
                command += ["--seconds", str(args.seconds), "--trace", trace]
                print(f"== {name} trace={trace}", flush=True)
                status |= subprocess.run(command).returncode
        return status
    spec = _spec()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    context = _context(active_backend_name())
    context["numpy"] = np.__version__
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), run_dir, context["nproc"]
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    context["loadavg_end"] = os.getloadavg()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome.layers if args.trace else outcome.metrics
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"workload produced no value for {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = all(outcome.checks.values()) and finite

    if outcome.trace is not None:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, **outcome.trace}))
        print(f"trace: {path.relative_to(ROOT)}")
    print("context: " + json.dumps(context))
    print("details: " + json.dumps(outcome.details, default=float))
    print("checks: " + json.dumps(outcome.checks))
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

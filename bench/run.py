"""Benchmark entry point.

    python3 bench/run.py --workload embed-large|repair|cli --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the package is imported from
its ``src`` directory. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones). A
fuller result file, with the environment, every pass and op, and for
traced runs every span, goes to ``bench/out/BENCH_<workload>[.trace].json``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# One BLAS/OpenMP thread: steadier figures on a shared host, and the
# timed kernels are sparse LSQR, small dense solves and Python loops.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 5


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fresh_import_seconds(src):
    """Wall times of fresh interpreters importing the package, start to end."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    times = []
    for _ in range(IMPORT_REPEATS):
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import torustutte.cli, torustutte.serialize"],
            env=env,
            check=True,
            timeout=120,
        )
        times.append(time.perf_counter() - began)
    return times


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Checked against workloads.WORKLOADS once the thread cap is set.
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "torustutte" / "__init__.py").is_file():
        print(f"error: no torustutte package under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import measure
    import torustutte
    import workloads

    import_s = time.perf_counter() - START
    if Path(torustutte.__file__).resolve().parent != src / "torustutte":
        print(f"error: imported torustutte from {torustutte.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        names = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    import_runs = fresh_import_seconds(src)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, workdir)
    try:
        generate_s, passes = measure.run(workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(import_runs) + statistics.median(generate_s)
    attempted, failed, correct, problems = measure.outcome_summary(passes)
    if args.trace:
        e2e, layers = None, measure.per_layer(passes)
        shown, units = layers, measure.PER_LAYER
    else:
        e2e, layers = measure.end_to_end(workload, setup_s, passes), None
        shown, units = e2e, measure.END_TO_END
    metrics = {name: {"value": value, "unit": units[name]} for name, value in shown.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup": {
            "import_in_process_s": import_s,
            "import_fresh_s": import_runs,
            "generate_s": generate_s,
        },
        "end_to_end": e2e,
        "per_layer": layers,
        "passes": [
            {
                "seconds": p.seconds,
                "ops": [{"name": name, "seconds": seconds} for name, seconds in p.rec.ops],
                "outcomes": [
                    {
                        "name": name,
                        "error": outcome.error,
                        "problems": outcome.problems,
                        "stats": outcome.stats,
                        "digest": outcome.digest,
                    }
                    for name, outcome in p.results
                ],
                "span_totals": measure.span_totals(p.rec.spans),
                "spans": p.rec.spans,
            }
            for p in passes
        ],
    }
    suffix = ".trace" if args.trace else ""
    with open(OUT_DIR / f"BENCH_{args.workload}{suffix}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 quantbench/run.py --workload ineq_grid --seed 1 --seconds 15 --trace 0

Run it from anywhere; it benchmarks the ``src/quantest`` of the checkout
that holds this directory.  Workloads: cli, ineq_grid, scalar_tests,
monte_carlo (see workloads.py for what each one stresses and why).

``--trace 0`` prints the end-to-end metrics: set-up time (the median of
samples taken before and after the timed run), p50 and p90 op latency and
work items per second (from each op's fastest time over a fixed number of
cycles) and peak memory; times are divided by the host slowdown measured
with a reference task during the run (see README.md).  ``--trace 1`` runs the traced variant instead
and prints the per-layer metrics, the import breakdown and the tracing
overhead.  Each run also prints its provenance
and the error rate; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
the run goes to ``quantbench/.work/``.

Only the standard library is imported here; the workload itself runs in
a child process (worker.py), one op at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from stats import percentile

WORKLOADS = ("cli", "ineq_grid", "scalar_tests", "monte_carlo")
REQUIRED_FILES = ("src/quantest/__init__.py", "src/quantest/cli.py",
                  "tests/data/bladder_remission.csv", "tests/data/norm100_seed1234.csv")
END_TO_END = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# set-up time samples taken before the timed run and as many again after
# it, so that they spread over the run; the main worker's set-up is one more
SETUP_SAMPLES = 2
# uncontended time of worker.reference_task on the host the benchmark was
# defined on (a 2-vCPU Xeon VM at 2.1 GHz): times are reported at that speed
REFERENCE_MS = 7.7
RUN_LIMIT_S = 175.0
AFTER_RUN_RESERVE_S = 25.0


class WorkerError(RuntimeError):
    pass


def blas_cap() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def child_env(root: Path, cap: int) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cap)
    env.pop("QUANTEST_SEED", None)  # the verify seed comes from the flags
    return env


def git_revision(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "quantest").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_worker(root: Path, env: dict, argv: list, limit: float):
    """Start worker.py; return (set-up seconds, parsed RESULT or None)."""
    cmd = [sys.executable, str(root / "quantbench" / "worker.py"), *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    setup = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and setup is None:
                setup = time.perf_counter() - start - float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or setup is None:
        raise WorkerError(f"worker {' '.join(argv)} exited with code {code}")
    return setup, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one quantest benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = Path(__file__).resolve().parent.parent
    missing = [p for p in REQUIRED_FILES if not (root / p).is_file()]
    if missing:
        print(f"error: {root} is not a quantest checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    cap = blas_cap()
    env = child_env(root, cap)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    samples = 0 if args.trace else SETUP_SAMPLES

    def setup_only() -> float:
        return run_worker(root, env, common + ["--setup-only"], 60.0)[0]

    try:
        setups = [setup_only() for _ in range(samples)]
        limit = RUN_LIMIT_S - AFTER_RUN_RESERVE_S - (time.perf_counter() - started)
        setup, res = run_worker(root, env, common, limit)
        setups += [setup, *(setup_only() for _ in range(samples))]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = res["layers"]
    else:
        # the host's slowdown while the run was timed, from the reference
        # task's fastest time over the same cycles as the ops
        slowdown = res["reference_s"] * 1000.0 / REFERENCE_MS
        items = sum(res["cycle_items"])
        best_ms = [t * 1000.0 / slowdown for t in res["best_s"]]
        values = {
            "setup_s": statistics.median(setups) / slowdown,
            "latency_ms.p50": percentile(best_ms, 50),
            "latency_ms.p90": percentile(best_ms, 90),
            "items_per_s": items / (sum(best_ms) / 1000.0),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(root),
        "source_sha256": source_digest(root), "nproc": os.cpu_count(),
        "blas_threads": cap, **res["versions"],
        "reference_checked": res["reference_checked"],
    }
    ops = res["ops"]
    print("provenance " + json.dumps(provenance))
    for failure in res["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':42s} {failed / attempted:14.6g} (failed {failed} of {attempted} ops)")
    if not args.trace:
        print(f"  {ops} ops timed in {res['cycles']} cycles of {len(best_ms)}; latencies and "
              f"items_per_s use each op's fastest time over {res['best_of']} of those "
              f"cycles; setup_s is the median of {len(setups)} samples; all times are "
              f"divided by the host slowdown {slowdown:.4f} (reference task "
              f"{res['reference_s'] * 1000.0:.4f} ms, {REFERENCE_MS} ms uncontended)")
    else:
        print(f"  traced ops {ops}; spans {res['spans']}")

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {"provenance": provenance, **summary, "error_rate": failed / attempted,
              "setup_samples_s": setups, "failures": res["failures"]}
    if not args.trace:
        record["host_slowdown"] = slowdown
    out = root / "quantbench" / ".work" / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

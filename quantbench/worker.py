"""One workload process: set up, warm up, run the timed loop, report.

run.py starts this script with the checkout's ``src`` on PYTHONPATH and
the BLAS thread cap in the environment.  It prints on stdout

* ``READY <seconds>`` once set-up is done; the figure is the time spent
  generating inputs, which set-up time excludes;
* ``RESULT <json>`` at the end of a full run, or ``RECORD <json>`` (the
  check records of one cycle) with ``--record``.

The load is a closed loop with one caller on one thread: the next op
starts when the previous op and its check have returned.  Only the op
itself is timed.
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
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from stats import best_of
from tracer import Tracer, layer_metrics

# per-layer import metrics: the cumulative `python -X importtime` figure
# of each module, in ms (0 when the module is not imported)
IMPORT_MODULES = {
    "import.numpy_ms": "numpy",
    "import.scipy_special_ms": "scipy.special",
    "import.scipy_integrate_ms": "scipy.integrate",
    "import.quantest_ms": "quantest",
    "import.quantest_verify_ms": "quantest.verify",
}
IMPORT_REPEATS = 3
TRACE_METRICS = {
    "trace.untraced_items_per_s": "1/s",
    "trace.traced_items_per_s": "1/s",
    "trace.overhead_items_per_s": "1/s",
}
MAX_FAILURE_REPORTS = 3
_REFERENCE_INPUT = np.random.default_rng(0).random(200)


def reference_task() -> float:
    """The host-speed reference: a fixed mix of interpreter work and small
    NumPy calls that does not touch quantest (about 7.7 ms uncontended)."""
    s = 0.0
    for i in range(100_000):
        s += i * i
    for _ in range(300):
        a = np.sort(_REFERENCE_INPUT)
        s += float(a[3] * 2.0 + a.sum())
    return s


@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    reference: list = field(default_factory=list)  # one time per cycle
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def items_per_s(phase: Phase, ops) -> float:
    """Items of one cycle over the sum of each op's fastest time in the phase."""
    cycles = len(phase.latencies) // len(ops)
    kinds = [op.label for op in ops]
    return sum(op.items for op in ops) / sum(best_of(phase.latencies, kinds, cycles))


def make_checker(ops, reference):
    """Check op ``pos``'s result, and compare it with the reference if any."""
    def check(pos, result):
        record = ops[pos].check(result)
        if reference is not None:
            diffs = workloads.compare_record(record, reference[pos])
            if diffs:
                raise workloads.CheckFailed(
                    f"{ops[pos].label} differs from the reference: " + "; ".join(diffs[:5]))
    return check


def run_phase(ops, seconds, check, tracer=None, phase=None, cycles=1) -> Phase:
    """Run whole cycles of ops for at least ``seconds`` and at least
    ``cycles`` cycles, timing each op and checking its result, and the
    reference task at the start of each cycle."""
    phase = Phase() if phase is None else phase
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        pos = i % len(ops)
        op = ops[pos]
        error = None
        if pos == 0:
            t0 = clock()
            reference_task()
            phase.reference.append(clock() - t0)
        if tracer is not None:
            tracer.op_id = phase.attempted
            tracer.active = True
        t0 = clock()
        try:
            result = op.run()
        except Exception:
            error = traceback.format_exc(limit=4)
        finally:
            t1 = clock()
            if tracer is not None:
                tracer.active = False
        if error is None:
            try:
                check(pos, result)
            except Exception:
                error = traceback.format_exc(limit=4)
        phase.latencies.append(t1 - t0)
        phase.attempted += 1
        if error is not None:
            phase.failed += 1
            if len(phase.failures) < MAX_FAILURE_REPORTS:
                phase.failures.append(f"op {pos} ({op.label}): {error}")
        i += 1
        if i % len(ops) == 0 and i // len(ops) >= cycles and clock() - start >= seconds:
            return phase


def _importtime(text: str) -> dict:
    """Cumulative ms per module from `python -X importtime` output."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        try:
            out[name.strip()] = int(cumulative) / 1000.0
        except ValueError:  # the header line
            continue
    return out


def import_metrics(ctx, workload: str) -> dict:
    """Import breakdown, medians over a few fresh interpreters.

    ``import.interpreter_ms`` is the wall time of `python -c pass`, the
    floor under every CLI invocation.  The ``cli`` workload measures the
    imports of its first command; the others measure `import quantest`.
    """
    if workload == "cli":
        target = ["-m", "quantest.cli", "qtest", workloads.BLADDER, "--measure", "median"]
    else:
        target = ["-c", "import quantest"]
    floor, samples = [], {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([ctx.python, "-c", "pass"], cwd=ctx.root, env=ctx.env,
                       check=True, timeout=60)
        floor.append(time.perf_counter() - t0)
        proc = subprocess.run([ctx.python, "-X", "importtime", *target], cwd=ctx.root,
                              env=ctx.env, capture_output=True, text=True, check=True,
                              timeout=120)
        times = _importtime(proc.stderr)
        for name, module in IMPORT_MODULES.items():
            samples[name].append(times.get(module, 0.0))
    out = {"import.interpreter_ms": {"value": statistics.median(floor) * 1000.0, "unit": "ms"}}
    for name, values in samples.items():
        out[name] = {"value": statistics.median(values), "unit": "ms"}
    return out


def versions() -> dict:
    import scipy

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true",
                      help="exit once set-up is done (a set-up time sample)")
    mode.add_argument("--record", action="store_true",
                      help="print the check records of one cycle")
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    work = root / "quantbench" / ".work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        return _run(args, root, work, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, root: Path, work: Path, workdir: Path) -> int:
    ctx = workloads.Context(root=root, workdir=workdir, python=sys.executable,
                            env=dict(os.environ))
    t0 = time.perf_counter()
    inputs = workloads.make_inputs(args.workload, args.seed, ctx)
    excluded = time.perf_counter() - t0
    ops = workloads.make_ops(args.workload, inputs, ctx)

    # the untimed warm-up pass, one op of each kind: .pyc files get written
    # and SciPy finishes its lazy set-up; a failing op is counted in the
    # timed phase instead
    first_of_kind = {}
    for op in ops:
        first_of_kind.setdefault(op.label, op)
    for op in first_of_kind.values():
        try:
            op.run()
        except Exception:
            pass
    print(f"READY {excluded!r}", flush=True)
    if args.setup_only:
        return 0
    if args.record:
        print("RECORD " + json.dumps([op.check(op.run()) for op in ops]), flush=True)
        return 0

    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = workloads.load_reference(root).get(args.workload)
    check = make_checker(ops, reference)
    out = {"versions": versions(), "reference_checked": reference is not None}
    if not args.trace:
        best = workloads.BEST_OF[args.workload]
        phase = run_phase(ops, args.seconds, check, cycles=best)
        out["best_s"] = best_of(phase.latencies, [op.label for op in ops], best)
        out["reference_s"] = best_of(phase.reference, ["reference"], best)[0]
        out["cycles"] = len(phase.latencies) // len(ops)
        out["best_of"] = best
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        phases = [phase]
    else:
        # alternate untraced and traced cycles, so that both see the same
        # machine conditions and their difference is the tracing overhead
        untraced, traced = Phase(), Phase()
        tracer = Tracer("quantest")
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            run_phase(ops, 0, check, phase=untraced)
            tracer.install()
            try:
                run_phase(ops, 0, check, tracer=tracer, phase=traced)
            finally:
                tracer.uninstall()
        layers = layer_metrics(tracer, traced.attempted)
        layers.update(import_metrics(ctx, args.workload))
        plain, traced_rate = items_per_s(untraced, ops), items_per_s(traced, ops)
        overhead = {
            "trace.untraced_items_per_s": plain,
            "trace.traced_items_per_s": traced_rate,
            "trace.overhead_items_per_s": plain - traced_rate,
        }
        for name, value in overhead.items():
            layers[name] = {"value": value, "unit": TRACE_METRICS[name]}
        tracer.write_spans(work / f"spans-{args.workload}.tsv")
        out["layers"] = layers
        out["spans"] = len(tracer.spans)
        phase = traced
        phases = [untraced, traced]
    out.update(ops=len(phase.latencies), cycle_items=[op.items for op in ops],
               attempted=sum(p.attempted for p in phases),
               failed=sum(p.failed for p in phases),
               failures=[f for p in phases for f in p.failures][:MAX_FAILURE_REPORTS])
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload and print every metric with its unit.

    python3 quantbench/suite.py                       # each workload once
    python3 quantbench/suite.py --repeats 10 --seed 1 # steadiness report

Round r runs the workloads in the listed order when r is even and in
reverse when r is odd, with seed ``--seed + r``.  With more than one
round the report gives, for each workload and metric, the median, the
quartiles (``statistics.quantiles(n=4)``) and the interquartile distance
as a share of the median.  With ``--trace`` it runs the traced variant
and reports the per-layer metrics and the tracing overhead instead.  The
report is also written to ``quantbench/.work/suite-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS
from stats import quartiles, relative_spread


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(root / "quantbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("provenance "))
    return {"provenance": provenance, **json.loads(lines[-1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run every quantest benchmark workload.")
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0, help="seed of the first round")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    names = list(WORKLOADS)

    root = Path(__file__).resolve().parent.parent
    runs = {name: [] for name in names}
    for r in range(args.repeats):
        for name in (names if r % 2 == 0 else names[::-1]):
            res = run_once(root, name, args.seed + r, args.seconds, int(args.trace))
            runs[name].append(res)
            shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                              if not args.trace or k.startswith("trace."))
            print(f"round {r} {name} seed {args.seed + r}: failed {res['failed']}/"
                  f"{res['attempted']}; {shown}", flush=True)

    report = {"seconds": args.seconds, "trace": args.trace, "repeats": args.repeats,
              "provenance": runs[names[0]][0]["provenance"], "workloads": {}}
    for name in names:
        results = runs[name]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{name}: error_rate {failed / attempted:.6g} "
              f"(failed {failed} of {attempted} ops over {len(results)} runs)")
        print(f"  {'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  unit")
        table = {}
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = relative_spread(values) if med else 0.0
            table[metric] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": values}
            print(f"  {metric:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  "
                  f"{first['unit']}")
        report["workloads"][name] = {"error_rate": failed / attempted, "metrics": table,
                                     "seeds": [r["provenance"]["seed"] for r in results]}
    out = root / "quantbench" / ".work" / f"suite-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\nreport written to {out.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference outputs that default-seed runs are checked against.

    python3 quantbench/record_reference.py

Runs one cycle of every workload with the default seed and writes the
check records of its ops to reference_seed0.json.  Estimates, standard
errors and interval endpoints are later compared at rtol 1e-9, coverage
counts exactly.  Re-record only when a change is meant to alter
results, and say so where the change is described.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS, blas_cap, child_env
from workloads import DEFAULT_SEED


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    path = root / "quantbench" / "reference_seed0.json"
    reference = {}
    env = child_env(root, blas_cap())
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(root / "quantbench" / "worker.py"), "--workload", name,
             "--seed", str(DEFAULT_SEED), "--seconds", "0", "--record"],
            cwd=root, env=env, capture_output=True, text=True, timeout=600)
        lines = [line for line in proc.stdout.splitlines() if line.startswith("RECORD ")]
        if proc.returncode != 0 or not lines:
            print(f"error: recording {name} failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        reference[name] = json.loads(lines[-1][len("RECORD "):])
        print(f"{name}: {len(reference[name])} ops recorded")
    path.write_text(json.dumps(dict(sorted(reference.items())), indent=1) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

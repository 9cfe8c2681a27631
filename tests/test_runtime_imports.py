"""The package runs on NumPy alone and imports only what it needs.

Importing it loads no SciPy module, no concurrent.futures and no queue:
a large call runs on the process's one worker thread (quantiles._pair_for),
a plain thread that drains a queue of rounds.  The first large call
imports queue and starts the worker, which is kept; it takes one sample
of a two-sample test, or half the sort and moment table of a one-sample
call.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def loaded_after_import(package: str) -> list:
    """The modules of package that importing quantest and quantest.cli loads."""
    code = ("import sys, quantest, quantest.cli; "
            f"print(sorted(m for m in sys.modules if m.partition('.')[0] == {package!r}))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    assert loaded_after_import("scipy") == "[]"


def test_import_loads_no_concurrent_futures():
    assert loaded_after_import("concurrent") == "[]"


def test_import_loads_no_queue():
    assert loaded_after_import("queue") == "[]"
    assert loaded_after_import("_queue") == "[]"

"""The package runs on NumPy alone and imports only what it needs.

Importing it loads no SciPy module, and no concurrent.futures: a large
two-sample test starts a bare thread of its own for one sample.
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

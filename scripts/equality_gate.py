"""Numerical-equality gate: log every result a test run builds, then diff two logs.

``record`` runs pytest in process with a plugin that logs, one JSON line
each, every ``TestResult`` and ``QuantileCov`` built and every value
returned by ``coverage_sim``, ``bootstrap_se``, ``qdens_kernel``,
``qdens_inversion`` and ``fit_lognormal_sigma``.  A record is keyed by the
node id of the running test and its call order within that test, so two
runs of the same suite line up record by record.  A test whose results are
built on more than one thread has no fixed call order, so its records are
written sorted by their canonical JSON instead.  Floats are written with
``repr``, which round-trips, so equal logs mean bit-identical results.

``compare`` lines up two logs and prints, per field, the largest absolute
and relative difference over the records both logs hold, then the
records found in only one of them.  It exits 1 if a shared record differs
by more than ``--rtol`` (default 0: bit-identical), in a non-numeric value
or in its fields; records in one log only are listed but do not fail the
gate.  ``--ignore GLOB`` skips the test ids or fields (``Kind.path``, list
indices as ``[]``) that match it.

Run the suite on two trees with the same Hypothesis seed, then compare:

    PYTHONPATH=src python scripts/equality_gate.py record before.jsonl
    PYTHONPATH=src python scripts/equality_gate.py record after.jsonl
    python scripts/equality_gate.py compare before.jsonl after.jsonl

``record`` passes ``--hypothesis-seed=0`` and any further arguments on to
pytest, and keeps Hypothesis from drawing on the literals of the code and
tests it runs, which may differ between the trees.  The package is
imported from ``sys.path`` as usual, so the script can log a tree other
than its own when run from that tree.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import functools
import importlib
import json
import math
import re
import sys
import threading
from collections import Counter, defaultdict

import numpy as np
import pytest

# the functions whose return values are logged, by defining module
FUNCTIONS = {
    "quantest.qdensity": ("qdens_kernel", "qdens_inversion", "fit_lognormal_sigma"),
    "quantest.verify": ("coverage_sim", "bootstrap_se"),
}
# the result classes logged as they are built, by defining module
CLASSES = {
    "quantest.inference": ("TestResult",),
    "quantest.qcov": ("QuantileCov",),
}


def plain(x):
    """x as JSON-ready values: dataclasses as dicts, arrays as nested lists."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, np.ndarray):
        return plain(x.tolist())
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if callable(x):
        return getattr(x, "__qualname__", type(x).__name__)
    return repr(x)


class Recorder:
    """pytest plugin that writes one JSON line per logged result.

    A test's records are held until it ends, with the thread that built
    each, and then written in call order or, if several threads built
    them, in the order of their canonical JSON.
    """

    def __init__(self, path: str):
        self.out = open(path, "w")
        self.test = "<collection>"
        self.seq = Counter()
        self.pending = []  # (thread, kind, value) of the running test

    def log(self, kind: str, value) -> None:
        self.pending.append((threading.get_ident(), kind, plain(value)))

    def flush(self) -> None:
        records = [(kind, value) for _, kind, value in self.pending]
        if len({thread for thread, _, _ in self.pending}) > 1:
            records.sort(key=lambda r: json.dumps(r, sort_keys=True))
        for seq, (kind, value) in enumerate(records, self.seq[self.test]):
            self.out.write(json.dumps({"test": self.test, "seq": seq, "kind": kind,
                                       "value": value}) + "\n")
        self.seq[self.test] += len(records)
        self.pending = []

    def pytest_configure(self, config):
        # Hypothesis mixes the literals of local modules into the examples
        # it draws, so two trees whose code or tests differ in a literal
        # would draw different examples from the same seed.  Imported here:
        # pytest warns of Hypothesis's plugin imported before pytest starts
        from hypothesis.internal.conjecture import providers

        providers._get_local_constants = providers.Constants
        providers.CONSTANTS_CACHE.cache.clear()
        for module_name, names in FUNCTIONS.items():
            module = importlib.import_module(module_name)
            for name in names:
                self._replace(getattr(module, name), self._wrap(getattr(module, name)))
        for module_name, names in CLASSES.items():
            module = importlib.import_module(module_name)
            for name in names:
                self._log_init(getattr(module, name))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.log(fn.__name__, result)
            return result

        return wrapper

    @staticmethod
    def _replace(original, wrapper) -> None:
        # every namespace loaded so far that holds the function, so
        # calls between the package's own modules are logged too
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(module, name, wrapper)

    def _log_init(self, cls) -> None:
        init = cls.__init__

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.log(cls.__name__, obj)

        cls.__init__ = __init__

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.flush()
        self.test = item.nodeid
        yield
        self.flush()
        self.test = "<collection>"

    def pytest_unconfigure(self, config):
        self.flush()
        self.out.close()


def record(path: str, pytest_args: list[str]) -> int:
    return int(pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                            *pytest_args], plugins=[Recorder(path)]))


def load(path: str) -> dict:
    records = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            records[(r["test"], r["seq"])] = (r["kind"], r["value"])
    return records


def leaves(value, path: str = ""):
    """(path, leaf) pairs of a plain value; list indices become path parts."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(v, f"{path}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from leaves(v, f"{path}.{i}")
    else:
        yield path, value


def _difference(a, b):
    """(absolute, relative) difference of two numbers; None if not both numbers."""
    numbers = (int, float)
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    if not (isinstance(a, numbers) and isinstance(b, numbers)):
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    diff = abs(a - b)
    if not math.isfinite(diff):
        return math.inf, math.inf
    return diff, diff / max(abs(a), abs(b))


def compare(path_a: str, path_b: str, rtol: float = 0.0, ignore=()) -> int:
    a, b = load(path_a), load(path_b)

    def ignored(test: str, field: str) -> bool:
        return any(fnmatch.fnmatchcase(test, g) or fnmatch.fnmatchcase(field, g)
                   for g in ignore)

    stats = defaultdict(lambda: [0, 0, 0.0, 0.0])  # records, differing, max abs, max rel
    failures = []
    one_sided_fields = Counter()
    shared = sorted(a.keys() & b.keys())
    for key in shared:
        (kind_a, value_a), (kind_b, value_b) = a[key], b[key]
        if kind_a != kind_b:
            failures.append(f"{key[0]} #{key[1]}: {kind_a} against {kind_b}")
            continue
        la, lb = dict(leaves(value_a)), dict(leaves(value_b))
        worst = {}
        for path in la.keys() | lb.keys():
            field = kind_a + re.sub(r"\.\d+(?=\.|$)", "[]", path)
            if ignored(key[0], field):
                continue
            if path not in la or path not in lb:
                one_sided_fields[(field, "first" if path in la else "second")] += 1
                failures.append(f"{key[0]} #{key[1]} {kind_a}{path}: in one log only")
                continue
            d = _difference(la[path], lb[path])
            if d is None:  # not two numbers: equal or not
                d = (0.0, 0.0) if la[path] == lb[path] else (math.inf, math.inf)
            if d[1] > rtol:
                failures.append(f"{key[0]} #{key[1]} {kind_a}{path}: "
                                f"{la[path]!r} against {lb[path]!r}")
            w = worst.setdefault(field, [0.0, 0.0])
            w[0], w[1] = max(w[0], d[0]), max(w[1], d[1])
        for field, (abs_d, rel_d) in worst.items():
            s = stats[field]
            s[0] += 1
            s[1] += abs_d > 0.0 or rel_d > 0.0
            s[2], s[3] = max(s[2], abs_d), max(s[3], rel_d)

    print(f"{len(shared)} shared records, {len(a.keys() - b.keys())} only in {path_a}, "
          f"{len(b.keys() - a.keys())} only in {path_b}")
    print(f"{'field':<44} {'records':>8} {'differ':>7} {'max abs':>10} {'max rel':>10}")
    for field in sorted(stats):
        n, differ, abs_d, rel_d = stats[field]
        print(f"{field:<44} {n:>8} {differ:>7} {abs_d:>10.3g} {rel_d:>10.3g}")
    for (field, side), n in sorted(one_sided_fields.items()):
        print(f"field {field} only in the {side} log, in {n} records")
    for label, only in ((path_a, a.keys() - b.keys()), (path_b, b.keys() - a.keys())):
        per_test = Counter(test for test, _ in only)
        for test in sorted(per_test):
            print(f"only in {label}: {test} ({per_test[test]} records)")
    for line in failures[:20]:
        print(f"DIFFERS: {line}")
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more")
    print("PASS" if not failures else f"FAIL: {len(failures)} differences beyond rtol {rtol:g}")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run pytest and log every result it builds")
    rec.add_argument("log", help="JSON-lines file to write")
    cmp = sub.add_parser("compare", help="diff two logs")
    cmp.add_argument("first")
    cmp.add_argument("second")
    cmp.add_argument("--rtol", type=float, default=0.0,
                     help="largest relative difference allowed (default 0)")
    cmp.add_argument("--ignore", action="append", default=[], metavar="GLOB",
                     help="skip test node ids or fields (Kind.path) matching GLOB")
    args, rest = ap.parse_known_args(argv)
    if args.mode == "record":
        return record(args.log, rest)
    if rest:
        ap.error(f"unrecognized arguments: {' '.join(rest)}")
    return compare(args.first, args.second, args.rtol, args.ignore)


if __name__ == "__main__":
    sys.exit(main())

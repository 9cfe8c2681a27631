"""Two-sample tests at and above the concurrency gate.

When x and y hold at least inference._CONCURRENT_SIZE observations between
them, x is estimated on a worker thread while y is estimated on the
calling thread.  The results must equal, bit for bit, the serial
composition of _working_stats on each sample, and errors must come in
serial order: x's first.
"""

import dataclasses
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import quantest.inference as inference
from quantest.inference import TestOptions, _working_stats, q_test_two, qineq_test
from quantest.measures import InequalitySpec, resolve_measure
from quantest.qdensity import QdMethod
from quantest.quantiles import _sorted_rows

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GATE = inference._CONCURRENT_SIZE
RNG = np.random.default_rng(2024)
# equal sizes that reach the gate together, and unequal sizes above it
X_EQ = RNG.lognormal(0.0, 1.0, GATE // 2)
Y_EQ = RNG.lognormal(0.2, 0.8, GATE // 2)
X_BIG = RNG.lognormal(0.1, 0.9, GATE)
Y_SMALL = RNG.normal(3.0, 1.0, GATE // 4)  # has nonpositive values: fitted sigma shifts


@pytest.fixture
def threads(monkeypatch):
    """The thread id each sample's _stats_one ran on, keyed by the sample's id."""
    seen = {}
    original = inference._stats_one

    def spy(x, spec, opts):
        seen[id(x)] = threading.get_ident()
        return original(x, spec, opts)

    monkeypatch.setattr(inference, "_stats_one", spy)
    return seen


def ran_concurrently(threads, x, y) -> bool:
    """Whether x ran on the worker thread and y on the calling thread."""
    here = threading.get_ident()
    return threads[id(y)] == here != threads[id(x)]


def serial_stats(x, spec, opts):
    """(working estimate, working variance) of one sample from _working_stats."""
    est, var, _ = _working_stats(_sorted_rows(np.asarray(x, dtype=float)[None]), spec, opts)
    return float(est[0]), float(var[0])


def serial_result(x, y, spec, opts, monkeypatch):
    """q_test_two with the gate out of reach: the samples one after the other."""
    with monkeypatch.context() as m:
        m.setattr(inference, "_CONCURRENT_SIZE", math.inf)
        return q_test_two(x, y, spec, opts)


CASES = [
    ("equal n", X_EQ, Y_EQ, "median", TestOptions()),
    ("unequal n", X_BIG, Y_SMALL, "iqr", TestOptions(alternative="greater")),
    ("log ratio", X_BIG, Y_EQ, "rCViqr", TestOptions(log_transf=True, back_transf=True)),
    ("fitted sigma", X_BIG, Y_SMALL, "iqr", TestOptions(var_method=QdMethod(sigma=None))),
    ("density", Y_SMALL, X_BIG, "bowley", TestOptions(var_method=QdMethod(kind="density"))),
]


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_concurrent_two_sample_equals_the_serial_composition(case, threads, monkeypatch):
    _, x, y, measure, opts = case
    spec = resolve_measure(measure)
    r = q_test_two(x, y, spec, opts)
    assert ran_concurrently(threads, x, y)

    (wx, vx), (wy, vy) = serial_stats(x, spec, opts), serial_stats(y, spec, opts)
    assert r.se == math.sqrt(vx + vy)
    assert r.estimate == (math.exp(wx - wy) if opts.back_transf else wx - wy)
    assert dataclasses.astuple(r) == dataclasses.astuple(serial_result(x, y, spec, opts,
                                                                       monkeypatch))


@pytest.mark.parametrize("spec", [InequalitySpec(), InequalitySpec(kind="G2", J=40)],
                         ids=["QRI", "G2"])
def test_concurrent_inequality_test_equals_the_serial_composition(spec, threads, monkeypatch):
    r = qineq_test(X_EQ, X_BIG, spec)
    assert ran_concurrently(threads, X_EQ, X_BIG)
    opts = TestOptions(true_q=0.0)
    (wx, vx), (wy, vy) = serial_stats(X_EQ, spec, opts), serial_stats(X_BIG, spec, opts)
    assert (r.estimate, r.se) == (wx - wy, math.sqrt(vx + vy))
    with monkeypatch.context() as m:
        m.setattr(inference, "_CONCURRENT_SIZE", math.inf)
        assert dataclasses.astuple(r) == dataclasses.astuple(qineq_test(X_EQ, X_BIG, spec))


def test_below_the_gate_both_samples_run_on_the_calling_thread(threads):
    x, y = X_EQ[:GATE // 2], Y_EQ[:GATE // 2 - 1]
    q_test_two(x, y, resolve_measure("median"))
    assert threads == {id(x): threading.get_ident(), id(y): threading.get_ident()}


NONFINITE = X_EQ.copy()
NONFINITE[17] = np.nan
DEGENERATE = np.full(Y_EQ.size, 2.0)
NONPOSITIVE = X_EQ.copy()
NONPOSITIVE[5] = -1.0


@pytest.mark.parametrize("x, y, message", [
    (NONFINITE, DEGENERATE, "non-finite"),  # both fail: x's error
    (DEGENERATE, NONFINITE, "degenerate sample"),
    (X_EQ, NONFINITE, "non-finite"),  # only y fails: y's error
    (X_EQ, DEGENERATE, "degenerate sample"),
    (NONFINITE, Y_EQ, "non-finite"),  # only x fails
], ids=["x nonfinite, y degenerate", "x degenerate, y nonfinite", "only y nonfinite",
        "only y degenerate", "only x nonfinite"])
def test_concurrent_errors_come_in_serial_order(x, y, message, threads):
    with pytest.raises(ValueError, match=message):
        q_test_two(x, y, resolve_measure("median"))
    assert ran_concurrently(threads, x, y)


@pytest.mark.parametrize("x, y, message", [
    (NONPOSITIVE, Y_EQ, "QRI requires positive data"),
    (X_EQ, NONPOSITIVE, "QRI requires positive data"),
    (NONPOSITIVE, NONFINITE, "QRI requires positive data"),
    (NONFINITE, NONPOSITIVE, "non-finite"),
], ids=["x nonpositive", "y nonpositive", "x nonpositive, y nonfinite",
        "x nonfinite, y nonpositive"])
def test_concurrent_inequality_errors_come_in_serial_order(x, y, message, threads):
    with pytest.raises(ValueError, match=message):
        qineq_test(x, y)
    assert ran_concurrently(threads, x, y)


def test_callers_on_many_threads_each_get_their_serial_result(monkeypatch):
    # more callers than cores, switching often: each gets its own serial result
    spec = resolve_measure("iqr")
    pairs = [(X_EQ, Y_EQ), (Y_EQ, X_EQ), (X_BIG, Y_SMALL), (Y_SMALL, X_BIG)] * 2
    want = [serial_result(x, y, spec, TestOptions(), monkeypatch) for x, y in pairs]
    got = [None] * len(pairs)

    def call(i):
        got[i] = q_test_two(*pairs[i], spec)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(pairs))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker():
    # the child has none of the parent's threads: its large test starts its own
    code = f"""
import os, signal, numpy as np
from quantest import q_test_two, resolve_measure
x = np.random.default_rng(1).lognormal(size={GATE})
spec = resolve_measure("median")
before = q_test_two(x, x[::-1] * 1.5, spec)
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child stuck on the parent's worker dies, not hangs
    os._exit(0 if q_test_two(x, x[::-1] * 1.5, spec) == before else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "0"

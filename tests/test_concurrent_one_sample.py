"""One-sample calls at and above the concurrency gate.

A one-sample test, qcov or bootstrap_se on at least
quantiles._CONCURRENT_SIZE observations asks for the process's pair of
threads (quantiles._pair_for); with it, the worker thread takes half of
the sort and half of the kernel's moment table.  Every result must
equal, bit for bit, the one computed with the gate out of reach, on the
calling thread alone.  The CPU count is patched to two, so the split
paths run, and are checked, on a process pinned to one CPU too.
"""

import contextlib
import dataclasses
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import quantest.qdensity as qdensity
import quantest.quantiles as quantiles
from quantest.inference import TestOptions, q_test_one, q_test_two, qineq_test
from quantest.measures import InequalitySpec, resolve_measure
from quantest.qcov import qcov
from quantest.qdensity import QdMethod
from quantest.verify import bootstrap_se

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GATE = quantiles._CONCURRENT_SIZE
RNG = np.random.default_rng(2029)
X = RNG.lognormal(0.0, 0.8, GATE + 1001)
Y = RNG.normal(3.0, 1.0, GATE)  # has nonpositive values: fitted sigma shifts
FITTED = QdMethod(sigma=None)
DENSITY = QdMethod(kind="density")
PAIR_FOR = quantiles._pair_for  # the unspied one

pytestmark = pytest.mark.usefixtures("two_cpus")


def serial(monkeypatch, call):
    """call() with the gate out of reach: every sort and table on this thread."""
    with monkeypatch.context() as m:
        m.setattr(quantiles, "_CONCURRENT_SIZE", math.inf)
        return call()


@pytest.fixture
def paired(monkeypatch):
    """Whether each sort and each moment table that asked for the pair got it."""
    seen = {"sort": [], "table": []}

    def spy(kind):
        @contextlib.contextmanager
        def pair_for(size):
            with PAIR_FOR(size) as pair:
                seen[kind].append(pair is not None)
                yield pair
        return pair_for

    monkeypatch.setattr(quantiles, "_pair_for", spy("sort"))
    monkeypatch.setattr(qdensity, "_pair_for", spy("table"))
    return seen


TEST_CASES = [
    ("median", X, "median", TestOptions(quantile_type=4)),
    ("iqr fitted sigma", Y, "iqr", TestOptions(quantile_type=5, var_method=FITTED)),
    ("rCViqr log ratio", X, "rCViqr", TestOptions(quantile_type=6, log_transf=True,
                                                  back_transf=True)),
    ("bowley density", Y, "bowley", TestOptions(quantile_type=7, var_method=DENSITY)),
    ("qr9010", X, "qr9010", TestOptions(quantile_type=8, alternative="greater")),
    ("moors fitted sigma", X, "moors", TestOptions(quantile_type=9, var_method=FITTED)),
]


@pytest.mark.parametrize("case", TEST_CASES, ids=[c[0] for c in TEST_CASES])
def test_a_large_one_sample_test_equals_the_serial_one(case, paired, monkeypatch):
    _, x, measure, opts = case
    spec = resolve_measure(measure)
    r = q_test_one(x, spec, opts)
    assert paired["sort"] == [True]
    want = serial(monkeypatch, lambda: q_test_one(x, spec, opts))
    assert paired["sort"] == [True, False]
    assert dataclasses.astuple(r) == dataclasses.astuple(want)


INDEX_CASES = [
    ("QRI", InequalitySpec(), TestOptions()),
    ("QRI fitted sigma", InequalitySpec(), TestOptions(var_method=FITTED, quantile_type=4)),
    ("G2 log", InequalitySpec(kind="G2", J=40), TestOptions(log_transf=True, quantile_type=9)),
    ("QRI density", InequalitySpec(J=25), TestOptions(var_method=DENSITY)),
]


@pytest.mark.parametrize("case", INDEX_CASES, ids=[c[0] for c in INDEX_CASES])
def test_a_large_one_sample_index_test_equals_the_serial_one(case, paired, monkeypatch):
    _, spec, opts = case
    r = qineq_test(X, spec=spec, opts=opts)
    kernel = opts.var_method.kind == "qor"
    assert paired == {"sort": [True], "table": [True] if kernel else []}
    want = serial(monkeypatch, lambda: qineq_test(X, spec=spec, opts=opts))
    assert paired == {"sort": [True, False], "table": [True, False] if kernel else []}
    assert dataclasses.astuple(r) == dataclasses.astuple(want)


@pytest.mark.parametrize("method", [QdMethod(), FITTED, DENSITY],
                         ids=["sigma fixed", "sigma fitted", "density"])
@pytest.mark.parametrize("quantile_type", [4, 8])
def test_a_large_qcov_equals_the_serial_one(method, quantile_type, paired, monkeypatch):
    grid = InequalitySpec(J=200)._grid
    us = np.concatenate([grid[::-1], [0.5, 0.5]])  # unsorted, with duplicates
    got = qcov(Y, us, method, quantile_type)
    assert paired["sort"] == [True]
    assert all(paired["table"]) and bool(paired["table"]) == (method.kind == "qor")
    want = serial(monkeypatch, lambda: qcov(Y, us, method, quantile_type))
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, strict=True)
        else:
            assert a == b, field.name


def test_a_large_bootstrap_equals_the_serial_one(paired, monkeypatch):
    x = X[:GATE]
    got = bootstrap_se(x, resolve_measure("median"), B=500, seed=3)
    assert paired["sort"] == [True]
    assert got == serial(monkeypatch, lambda: bootstrap_se(x, resolve_measure("median"),
                                                           B=500, seed=3))


def test_below_the_gate_a_one_sample_call_stays_on_the_calling_thread(paired):
    x = X[:GATE - 1]
    qineq_test(x)
    qcov(x, InequalitySpec(J=200)._grid)
    bootstrap_se(x[:1000], resolve_measure("median"), B=500)
    assert paired == {"sort": [False] * 3, "table": [False, False]}


@pytest.fixture
def started(monkeypatch):
    """The threads started during a test, each with the thread that started it.

    The test starts with a pair that has no worker yet, and the worker it
    leaves is stopped.
    """
    starts = []
    start = threading.Thread.start

    def spy(thread):
        starts.append((threading.get_ident(), thread))
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    monkeypatch.setattr(quantiles, "_pair", quantiles._Pair())
    yield starts
    quantiles._pair.stop()


def test_a_large_two_sample_test_starts_exactly_one_worker(started, paired):
    # the pair is held for both samples, so their sorts and tables get none:
    # never more than two threads busy
    spec = InequalitySpec()
    q_test_two(X, Y + 4.0, spec)
    assert [who for who, _ in started] == [threading.get_ident()]
    assert paired == {"sort": [False, False], "table": [False, False]}


def test_a_large_one_sample_test_starts_exactly_one_worker(started, paired):
    qineq_test(X)
    assert [who for who, _ in started] == [threading.get_ident()]
    assert paired["sort"] == [True] and paired["table"] == [True]


def test_the_next_large_call_takes_the_worker_the_last_one_left(started, paired):
    qineq_test(X)
    qcov(X, [0.25, 0.5])
    q_test_two(X, Y + 4.0, InequalitySpec())
    bootstrap_se(X[:GATE], resolve_measure("median"), B=500)
    assert paired == {"sort": [True, True, False, False, True], "table": [True, False, False]}
    assert len(started) == 1 and started[0][1].is_alive()


def test_a_closed_pair_leaves_one_worker_at_most(started):
    def ask():
        with PAIR_FOR(GATE) as pair:
            return pair

    # the caller that holds the pair, and a task on its worker, get none
    with PAIR_FOR(GATE) as pair, PAIR_FOR(GATE) as again:
        assert pair is not None and again is None
        assert pair.run(ask, ask) == (None, None)
    with PAIR_FOR(GATE) as next_pair:
        assert next_pair.run(ask, ask) == (None, None)
    assert len(started) == 1 and started[0][1].is_alive()


def test_a_caller_that_finds_the_pair_held_runs_alone(started, paired, monkeypatch):
    got = []
    with PAIR_FOR(GATE) as pair:
        caller = threading.Thread(target=lambda: got.append(qineq_test(X)))
        caller.start()
        caller.join(timeout=60)
    assert not caller.is_alive()
    assert pair is not None and [t for _, t in started] == [caller]
    assert paired == {"sort": [False], "table": [False]}
    want = serial(monkeypatch, lambda: qineq_test(X))
    assert dataclasses.astuple(got[0]) == dataclasses.astuple(want)


def test_one_cpu_means_no_pair(started, paired, monkeypatch):
    monkeypatch.setattr(quantiles, "_cpu_count", lambda: 1)
    got = qineq_test(X)
    assert paired == {"sort": [False], "table": [False]} and started == []
    monkeypatch.setattr(quantiles, "_cpu_count", lambda: 2)
    assert dataclasses.astuple(got) == dataclasses.astuple(qineq_test(X))
    assert paired == {"sort": [False, True], "table": [False, True]}


def test_an_error_in_a_large_one_sample_test_is_the_serial_error(started, monkeypatch):
    x = X.copy()
    x[GATE // 3] = -1.0
    with pytest.raises(ValueError, match="QRI requires positive data"):
        qineq_test(x)
    x[GATE // 2] = math.nan
    with pytest.raises(ValueError, match="sample contains non-finite values"):
        qineq_test(x)
    with pytest.raises(ValueError, match="sample contains non-finite values"):
        qcov(x, [0.5])
    with pytest.raises(ZeroDivisionError), PAIR_FOR(GATE) as pair:
        pair.run(lambda: 1 / 0, lambda: None)
    # the errors left the worker running: the next large call takes it and
    # gets its serial result
    want = serial(monkeypatch, lambda: qineq_test(X))
    assert dataclasses.astuple(qineq_test(X)) == dataclasses.astuple(want)
    assert len(started) == 1 and started[0][1].is_alive()


def test_an_interrupted_round_leaves_the_next_rounds_their_own_results():
    # two interrupts cut a round short while its task still runs on the
    # worker; it finishes there, and every later round, a large two-sample
    # test too, gets its own result.  In a child, so pytest sees no signal.
    code = f"""
import math, os, signal, threading, time
import numpy as np
import quantest.quantiles as quantiles
from quantest import q_test_two, resolve_measure
signal.alarm(60)  # a child stuck on a round dies, not hangs
quantiles._cpu_count = lambda: 2  # the worker's path, even on one CPU
finished = threading.Event()
timers = [threading.Timer(t, os.kill, (os.getpid(), signal.SIGINT)) for t in (0.5, 1.0)]

def there():
    time.sleep(2.0)
    finished.set()
    return "x of the interrupted call"

def here():
    for t in timers:
        t.start()
    raise KeyboardInterrupt

def paired_round(there, here):
    with quantiles._pair_for(quantiles._CONCURRENT_SIZE) as pair:
        return pair.run(there, here)

try:
    paired_round(there, here)
except KeyboardInterrupt:
    pass
while True:  # the second interrupt may land here: absorb it, and wait for the worker
    try:
        for t in timers:
            t.join()
        finished.wait()
        break
    except KeyboardInterrupt:
        pass
got = []
for i in range(3):
    try:
        got.append(paired_round(lambda: f"x of call {{i}}", lambda: f"y of call {{i}}"))
    except Exception as exc:
        got.append(repr(exc))
rng = np.random.default_rng(5)
x, y = rng.lognormal(size={GATE}), rng.lognormal(0.2, 1.0, {GATE})
spec = resolve_measure("iqr")
try:
    test = q_test_two(x, y, spec)
except Exception as exc:
    got.append(repr(exc))
else:
    quantiles._CONCURRENT_SIZE = math.inf
    got.append(test == q_test_two(x, y, spec))
print(got)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == str([(f"x of call {i}", f"y of call {i}") for i in range(3)]
                                     + [True])


def test_callers_on_many_threads_each_get_their_serial_result(started, monkeypatch):
    # more callers than cores, switching often, each taking the pair or
    # finding it held: each gets its own serial result, and one worker serves them all
    calls = [lambda: qineq_test(X), lambda: q_test_one(Y, resolve_measure("iqr")),
             lambda: qineq_test(X, spec=InequalitySpec(kind="G2", J=40))] * 2
    want = [dataclasses.astuple(serial(monkeypatch, call)) for call in calls]
    got = [None] * len(calls)

    def run(i):
        got[i] = dataclasses.astuple(calls[i]())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == want
    assert len([t for _, t in started if t not in callers]) == 1

"""Sample quantiles with selectable interpolation rule.

Implements the continuous interpolation family for quantile estimation
(types 4 through 9 in the Hyndman and Fan (1996) numbering).  The default
is type 8, whose plotting position (k - 1/3)/(n + 1/3) gives approximately
median-unbiased estimates regardless of the underlying distribution.

Every estimate starts from the sorted sample.  Each kernel that can split
work on at least _CONCURRENT_SIZE (2^18) values asks _pair_for for the
calling thread and the process's one worker thread, and runs alone when
it gets none.  So a process keeps one worker at most, however many
callers it has.  Each round of work on the pair has its own outcome: a
round cut short by an interrupt finishes on the worker, and the next
round waits in the worker's queue behind it.  The sort splits the sample
about a pivot and sorts each side on its own thread (_split_sort), bit
for bit as np.sort.
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np

__all__ = ["sample_quantile", "sample_quantiles"]

# h(p) = slope(n) * p + offset, with slope expressed as n + a and offset b.
_PLOTTING_CONSTANTS = {
    4: (0.0, 0.0),
    5: (0.0, 0.5),
    6: (1.0, 0.0),
    7: (-1.0, 1.0),
    8: (1.0 / 3.0, 1.0 / 3.0),
    9: (0.25, 0.375),
}


# work on at least this many values runs on two threads: on a 2-vCPU host,
# two samples of 10^4 or 3*10^4 ran slower that way, two of 10^5 about
# broke even, two of 2*10^5 gained; one sort of 2^17 values lost with a
# worker thread started for it, one of 2^18 gained
_CONCURRENT_SIZE = 2 ** 18


class _Pair:
    """The calling thread and one worker thread, for rounds of work.

    run(there, here) runs there() on the worker, started by the first
    round and kept for the next, and here() here, and returns both
    results.  Only private functions and NumPy may run in there, so the
    tracer's spans stay on the calling thread.  An error is raised as the
    serial order, there then here, would raise it: there's first, even
    when here failed too.  Each round carries its own outcome and lock
    through the worker's queue.  So a round cut short by an interrupt
    finishes on the worker into an outcome no one reads, and the next
    round waits in the queue behind it.
    """

    def __init__(self):
        self._worker = None

    def _serve(self):
        for there, outcome, done in iter(self._rounds.get, None):  # None stops it
            try:
                outcome += there(), None
            except BaseException as exc:  # re-raised on the calling thread
                outcome += None, exc
            # dropped now: kept as loop variables until the next round, the
            # task and its outcome would hold a sample's temporaries
            del there, outcome
            done.release()

    def run(self, there, here):
        if self._worker is None:
            import queue  # about 1 ms: paid by the first large call alone

            self._rounds = queue.SimpleQueue()
            self._worker = threading.Thread(target=self._serve, daemon=True)
            self._worker.start()
        outcome, done = [], threading.Lock()
        done.acquire()
        self._rounds.put((there, outcome, done))
        try:
            result = here()
        finally:
            done.acquire()
            value, error = outcome
            if error is not None:
                raise error from None
        return value, result

    def stop(self):
        """End the worker, after the rounds queued before."""
        if self._worker is not None:
            self._rounds.put(None)
            self._worker.join()


# the process's pair, and the lock its user holds: one worker, kept, since a
# thread costs 0.1 to 0.5 ms to start, and one started while the last is
# still exiting gets a malloc arena of its own, where a large sample's freed
# temporaries stay resident beside those in the last worker's arena
_pair = _Pair()
_pair_lock = threading.Lock()


def _forget_pair():
    """A new pair and lock in a forked child: it has none of the parent's
    threads, and no thread of its own holds the lock."""
    global _pair, _pair_lock
    _pair, _pair_lock = _Pair(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pair)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_NO_PAIR = contextlib.nullcontext()


def _pair_for(size: int):
    """A context that gives the process's pair for work on size values, or None.

    None below _CONCURRENT_SIZE, when the process may use one CPU, or when
    the pair is held, by another caller or by this one further up: the
    work then runs on this thread alone.  So a task on the worker never
    gets the pair.
    """
    if size < _CONCURRENT_SIZE or _cpu_count() < 2:
        # shared: a generator's context added 2-3% to a q_test_one of 10^4
        return _NO_PAIR
    return _held_pair()


@contextlib.contextmanager
def _held_pair():
    """The pair, held for the context, or None if it is held already."""
    lock = _pair_lock
    if not lock.acquire(blocking=False):
        yield None
        return
    try:
        yield _pair
    finally:
        lock.release()


def _finite_ends(xs: np.ndarray) -> np.ndarray:
    """xs, a stack of sorted rows, after a check that every value is finite.

    The sort puts NaN and +inf last and -inf first, so the check reads
    only the two end columns, a view.
    """
    ends = xs[:, ::max(xs.shape[1] - 1, 1)]
    if np.count_nonzero(np.isfinite(ends)) < ends.size:
        raise ValueError("sample contains non-finite values")
    return xs


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of finite values sorted, a stack of samples.

    Non-finite values raise a ValueError rather than being dropped.
    """
    return _finite_ends(np.sort(rows, axis=-1))


def _sorted_one(x) -> np.ndarray:
    """A stack of one: array-like x sorted, validated.

    With the pair, the sort runs on two threads (_split_sort), bit for bit
    as np.sort.  Empty and non-finite data raise a ValueError.
    """
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    with _pair_for(arr.size) as pair:
        if pair is None:
            return _sorted_rows(arr[None])
        xs = _split_sort(arr, pair)
    return _finite_ends(xs[None])


def _split_sort(arr: np.ndarray, pair: _Pair) -> np.ndarray:
    """np.sort(arr) for a 1-D array, in three rounds on the threads of pair.

    The pivot v is the median of about 2^12 values spread evenly over
    arr.  First, each thread copies its half of arr into the output,
    counts the values below v and partitions the half at that count.
    Then the high values of the left half and the low values of the right
    half that lie on the wrong side of the total count are swapped, half
    the blocks on each thread.  Last, each thread sorts one side.  The
    sides hold the values below v and the rest, so the output is np.sort's
    bit for bit unless it holds more than one zero.  Zeros of either sign
    compare equal, and which signs np.sort leaves depends on its path (its
    min and max steps may copy one zero over another), so arr is then
    sorted again by np.sort.  NaN is never below v, so it still sorts last.

    A subsample that repeats a value marks tied data, which np.sort orders
    fast and a partition about a tied pivot slowly, so arr is then sorted
    on this thread alone.  Every large temporary is made on this thread.
    """
    n = arr.size
    sub = np.sort(arr[::max(1, n >> 12)])
    if np.count_nonzero(sub[1:] == sub[:-1]):
        return np.sort(arr)
    v = sub[sub.size // 2]
    out = np.empty(n)
    # the comparisons with v, and then the swap's temporaries
    work = np.empty(n // 8 + 2)
    below = work.view(bool)[:n]
    h = n // 2

    def split(lo, hi):
        part = out[lo:hi]
        np.copyto(part, arr[lo:hi])
        k = np.count_nonzero(np.less(part, v, out=below[lo:hi]))
        if 0 < k < part.size:
            part.partition(k)
        return k

    left, right = pair.run(lambda: split(0, h), lambda: split(h, n))
    # the fewer of the left half's high values and the right half's low
    # ones: swapping as many of each puts every value below v first
    m = min(h - left, right)
    if m:
        a, b = out[left:left + m], out[h + right - m:h + right]
        temp = work.size // 2
        pair.run(lambda: _swap(a[:m // 2], b[:m // 2], work[:temp]),
                 lambda: _swap(a[m // 2:], b[m // 2:], work[temp:]))
    k = left + right
    pair.run(out[:k].sort, out[k:].sort)
    if np.searchsorted(out, 0.0, "right") - np.searchsorted(out, 0.0, "left") > 1:
        return np.sort(arr)
    return out


def _swap(a, b, temp) -> None:
    """Exchange the values of the equal-sized arrays a and b through temp."""
    for i in range(0, a.size, temp.size):
        t = temp[:min(temp.size, a.size - i)]
        j = i + t.size
        np.copyto(t, a[i:j])
        np.copyto(a[i:j], b[i:j])
        np.copyto(b[i:j], t)


def _check_type(quantile_type: int) -> None:
    if quantile_type not in _PLOTTING_CONSTANTS:
        raise ValueError(
            f"unsupported quantile type {quantile_type!r}; supported types are 4..9"
        )


def _bracket(n: int, p: np.ndarray, quantile_type: int):
    """Where the quantiles at p lie among n >= 2 order statistics.

    Returns k and gamma: the quantile at p is gamma of the way from
    X_(k) to X_(k+1) (1-based), with 1 <= k <= n - 1 and gamma in [0, 1].
    """
    a, b = _PLOTTING_CONSTANTS[quantile_type]
    h = np.minimum(np.maximum((n + a) * p + b, 1.0), float(n))
    # h >= 1, so truncation is floor(h), and floor(min(h, n - 1)) is
    # floor(h) clipped to [1, n - 1]
    k = np.minimum(h, n - 1.0).astype(int)
    return k, h - k


def _quantiles_sorted(sorted_values: np.ndarray, ps, quantile_type: int = 8) -> np.ndarray:
    """Quantiles along the last axis of an array of pre-sorted values.

    ``sorted_values`` may be a matrix of independently sorted rows; the
    result then has one row of quantiles per input row.
    """
    p = np.asarray(ps, dtype=float)
    n = sorted_values.shape[-1]
    if n == 1:
        return sorted_values[..., 0:1] * np.ones_like(p)
    k, gamma = _bracket(n, p, quantile_type)
    lo = sorted_values[..., k - 1]
    hi = sorted_values[..., k]
    diff = hi - lo
    # evaluate the interpolation from the nearer endpoint so gamma = 0/1
    # return the order statistics exactly, then clip away any last-ulp
    # rounding outside the bracket
    out = np.where(gamma < 0.5, lo + gamma * diff, hi - (1.0 - gamma) * diff)
    # a gather from a stack of rows comes back in Fortran order; in C order
    # a sum over the quantiles adds each row as it adds a row alone.  The
    # two ufuncs are np.clip's arithmetic, without its Python wrapper
    return np.minimum(np.maximum(out, lo), hi, order="C")


def sample_quantile(s, p: float, quantile_type: int = 8) -> float:
    """Single sample quantile.

    Parameters
    ----------
    s : array-like
        Observations, all finite.
    p : float
        Probability in the closed interval [0, 1].  Values outside [0, 1]
        raise a ValueError; the endpoints clamp to the sample minimum and
        maximum.
    quantile_type : int
        Interpolation rule, one of 4..9.  Default 8.

    For type 8 the interpolation position is h = (n + 1/3) p + 1/3 clamped
    to [1, n]; with k = floor(h) the result is
    ``sorted[k] + (h - k) (sorted[k+1] - sorted[k])`` in 1-based indexing.
    """
    return float(sample_quantiles(s, [float(p)], quantile_type)[0])


def sample_quantiles(s, ps, quantile_type: int = 8) -> np.ndarray:
    """Vectorized sample_quantile; output matches the length and order of ps."""
    xs = _sorted_one(s)
    _check_type(quantile_type)
    p = np.asarray(ps, dtype=float)
    if p.size == 0:
        return np.empty(0)
    # NaN fails the check too
    if np.count_nonzero((p >= 0.0) & (p <= 1.0)) < p.size:
        raise ValueError("probabilities outside [0, 1]")
    return _quantiles_sorted(xs[0], p, quantile_type)

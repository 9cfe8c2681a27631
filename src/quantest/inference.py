"""Hypothesis tests and confidence intervals for quantile measures.

Every measure -- a quantile, a linear combination, a ratio of two
combinations or an inequality index -- is a smooth function theta of the
quantiles Q on the sorted probability grid of its spec, and the spec's
_estimate gives theta and its gradient g for a stack of samples.  The
delta method then gives

    var(theta) = g' Sigma g,

summed in O(d) from the Brownian-bridge form of Sigma (qcov._bridge_form)
without building the matrix.  For a ratio R = b1'Q / b2'Q the gradient is
(b1 - R b2)/(b2'Q).  On the log scale var(log theta) = var(theta)/theta^2,
which generally yields better-calibrated intervals for ratio measures.
Tests are Wald tests against a normal reference distribution.

The two samples of q_test_two share no work until the final difference,
so when they hold at least _CONCURRENT_SIZE (2^18) observations between
them, the first is estimated on a worker thread while the second is
estimated on the calling thread; the sort and the large NumPy loops
release the GIL.  Each sample's numbers do not depend on the thread,
so the results are bit-identical to the serial ones.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from ._normal import ndtr, ndtri
from .qcov import _bridge_form, _qhat_rows
from .qdensity import QdMethod
from .quantiles import Sample, _check_type, _padded_one

__all__ = [
    "TestOptions",
    "TestResult",
    "wald_interval",
    "p_value",
    "q_test_one",
    "q_test_two",
]

_ALTERNATIVES = ("two_sided", "less", "greater")

# two samples holding at least this many observations between them are
# estimated concurrently: on a 2-vCPU host, two samples of 10^4 or 3*10^4
# ran slower that way, two of 10^5 about broke even, two of 2*10^5 gained
_CONCURRENT_SIZE = 2 ** 18
_pool = None  # the executor of the one worker thread, started on first use
_pool_lock = threading.Lock()


def _worker():
    """The executor of the worker thread, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=1)
    return _pool


def _forget_worker():
    # a forked child has no worker thread, and another thread of the parent
    # may have held the lock: the child's first large test starts afresh
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)

RATIO_WARNING = ("estimate is a ratio; intervals and tests are usually better "
                 "behaved on the log scale (log_transf, with back_transf to "
                 "report on the ratio scale)")


@dataclass(frozen=True)
class TestOptions:
    """Options shared by the one- and two-sample tests."""

    __test__ = False  # not a pytest test class

    alternative: str = "two_sided"
    conf_level: float = 0.95
    true_q: float = 0.0
    log_transf: bool = False
    back_transf: bool = False
    min_q: float = -math.inf
    quantile_type: int = 8
    var_method: QdMethod = field(default_factory=QdMethod)

    def __post_init__(self):
        if self.alternative not in _ALTERNATIVES:
            raise ValueError(f"alternative must be one of {_ALTERNATIVES}")
        if not 0.0 < self.conf_level < 1.0:
            raise ValueError("conf_level must lie in (0, 1)")
        if self.back_transf and not self.log_transf:
            raise ValueError("back_transf requires log_transf")


@dataclass(frozen=True)
class TestResult:
    """Wald test summary, the analogue of an htest record.

    estimate, se and conf_int are reported on the scale named by
    ``scale``: "identity", "log" (a log or log-ratio estimate), or
    "back_transformed_ratio" (exponentiated back from the log scale; se
    stays on the log scale in that case).
    """

    __test__ = False  # not a pytest test class

    estimate: float
    se: float
    statistic_Z: float
    p_value: float
    conf_int: tuple
    null_value: float
    alternative: str
    scale: str
    description: str
    warnings: tuple = ()
    estimate_label: str = "estimate"
    conf_level: float = 0.95
    data_name: str = "x"


def wald_interval(est, se, level, alternative="two_sided", min_q=-math.inf):
    """Normal-theory interval; one-sided forms use z at 1 - alpha.

    The lower bound is clamped at min_q, which supports measures with a
    known lower limit such as the IQR at zero.  est and se may also be
    arrays, one interval per element.
    """
    if np.count_nonzero(se < 0):
        raise ValueError("negative standard error")
    if alternative == "two_sided":
        z = ndtri(1.0 - (1.0 - level) / 2.0)
        lo, hi = est - z * se, est + z * se
    elif alternative == "less":
        z = ndtri(level)
        lo, hi = -math.inf, est + z * se
    elif alternative == "greater":
        z = ndtri(level)
        lo, hi = est - z * se, math.inf
    else:
        raise ValueError(f"alternative must be one of {_ALTERNATIVES}")
    return np.maximum(lo, min_q), hi


def p_value(z, alternative="two_sided"):
    """Normal-reference p-value for the Wald statistic."""
    if alternative == "two_sided":
        return 2.0 * ndtr(-abs(z))
    if alternative == "less":
        return ndtr(z)
    if alternative == "greater":
        return 1.0 - ndtr(z)
    raise ValueError(f"alternative must be one of {_ALTERNATIVES}")


def _floored_warnings(floored) -> list:
    """The warning for the probabilities whose quantile density qcov floored, if any."""
    if not len(floored):
        return []
    return ["nonpositive quantile-density estimate floored at probabilities "
            + ", ".join(f"{p:g}" for p in floored)]


def _working_stats(padded, spec, opts: TestOptions):
    """Each sample's estimate and variance on the working scale.

    padded is a stack of samples, one per row, each sorted between two
    zeros; spec is a MeasureSpec or an InequalitySpec.
    Returns (working_estimate, working_variance), with one element per
    sample, and floored, the probabilities of the first sample whose
    quantile density was floored.
    The working scale is the log scale when log_transf is set.  A sample
    without an estimate raises the spec's error before the
    degenerate-sample check.
    """
    _check_type(opts.quantile_type)
    est, grad = spec._estimate(padded[:, 1:-1], opts.quantile_type)
    if np.count_nonzero(np.isnan(est)):
        raise ValueError(spec._nan_message)
    grid = spec._grid
    qhat, floored, *_ = _qhat_rows(padded, grid, opts.var_method, opts.quantile_type)
    a = grad * qhat
    var = _bridge_form(grid, a, a, padded.shape[1] - 2)
    floored = grid[floored[0]]
    if opts.log_transf:
        if np.count_nonzero(est <= 0.0):
            raise ValueError("log of non-positive ratio" if spec.is_ratio
                             else "log of nonpositive estimate")
        return np.log(est), var / est**2, floored
    return est, var, floored


def _interval(working_est, working_var, opts: TestOptions):
    """Standard errors, reported estimates and Wald intervals, per element.

    Returns (se, estimate, lower, upper); se stays on the working scale.
    """
    se = np.sqrt(np.maximum(working_var, 0.0))
    # the log-scale interval is clamped only after any back-transform, so
    # min_q always refers to the reported scale
    clamp_now = -math.inf if opts.log_transf else opts.min_q
    lo, hi = wald_interval(working_est, se, opts.conf_level, opts.alternative, clamp_now)
    estimate = working_est
    if opts.back_transf:
        estimate, lo, hi = np.exp(working_est), np.exp(lo), np.exp(hi)
    return se, estimate, np.maximum(lo, opts.min_q), hi


def _finish(working_est, working_var, null_working, opts, scale, description,
            estimate_label, null_value, warnings, data_name):
    se, estimate, lo, hi = (float(v) for v in _interval(working_est, working_var, opts))
    if se > 0.0:
        z = (working_est - null_working) / se
    else:
        z = 0.0 if working_est == null_working else math.copysign(math.inf,
                                                                  working_est - null_working)
    p = p_value(z, opts.alternative)
    if opts.back_transf:
        scale = "back_transformed_ratio"
    return TestResult(estimate=estimate, se=se, statistic_Z=z, p_value=p,
                      conf_int=(lo, hi), null_value=null_value,
                      alternative=opts.alternative, scale=scale,
                      description=description, warnings=tuple(warnings),
                      estimate_label=estimate_label, conf_level=opts.conf_level,
                      data_name=data_name)


def _stats_one(x, spec, opts: TestOptions):
    """_working_stats of one sample, as floats, with its warnings."""
    est, var, floored = _working_stats(_padded_one(x), spec, opts)
    return float(est[0]), float(var[0]), _floored_warnings(floored)


def _size(x) -> int:
    """The observations in a Sample or an array; 0 for other data.

    Converting a list holds the GIL, so lists are not worth a thread.
    """
    if isinstance(x, Sample):
        return x.n
    return x.size if isinstance(x, np.ndarray) else 0


def _stats_two(x, y, spec, opts: TestOptions):
    """_stats_one of x and of y, concurrently when they are large.

    Only private functions run on the worker thread.  An error is raised
    as the serial order would raise it: x's first, even when y failed too.
    """
    if _size(x) + _size(y) < _CONCURRENT_SIZE:
        return _stats_one(x, spec, opts), _stats_one(y, spec, opts)
    future = _worker().submit(_stats_one, x, spec, opts)
    try:
        stats_y = _stats_one(y, spec, opts)
    except Exception:
        error = future.exception()
        if error is not None:
            raise error from None
        raise
    return future.result(), stats_y


def q_test_one(x, spec, opts: TestOptions = TestOptions()) -> TestResult:
    """One-sample Wald test of a quantile measure or an inequality index.

    true_q is interpreted on the working scale: with log_transf it is the
    null value of the log measure (so the default 0 tests a ratio of 1),
    and back_transf merely reports the estimate, interval and null on the
    exponentiated scale.
    """
    working_est, working_var, warnings = _stats_one(x, spec, opts)
    if spec.is_ratio and not opts.log_transf:
        warnings.append(RATIO_WARNING)
    scale = "log" if opts.log_transf else "identity"
    null_value = math.exp(opts.true_q) if opts.back_transf else opts.true_q
    label = spec.label or "estimate"
    description = f"One sample test of the {label}"
    return _finish(working_est, working_var, opts.true_q, opts, scale,
                   description, label, null_value, warnings, "x")


def q_test_two(x, y, spec, opts: TestOptions = TestOptions()) -> TestResult:
    """Two independent-sample comparison of a quantile measure or an index.

    On the identity scale the difference of the per-sample estimates is
    tested against true_q (default 0).  With log_transf the difference of
    logs is used; with back_transf the result is reported as a ratio, the
    null true_q is interpreted on the ratio scale, and a true_q left at 0
    is reset to 1 (equal measures).

    When x and y hold at least 2^18 observations between them (as Samples
    or arrays), x is estimated on a worker thread while y is estimated
    here; the results are bit-identical to estimating one after the other.
    """
    (wx, vx, warn_x), (wy, vy, warn_y) = _stats_two(x, y, spec, opts)
    warnings = warn_x + [w for w in warn_y if w not in warn_x]
    if spec.is_ratio and not opts.log_transf:
        warnings.append(RATIO_WARNING)

    working_est = wx - wy
    working_var = vx + vy
    if opts.back_transf:
        null_ratio = 1.0 if opts.true_q == 0.0 else opts.true_q
        if null_ratio <= 0.0:
            raise ValueError("back-transformed null value must be positive")
        null_working = math.log(null_ratio)
        null_value = null_ratio
        label = f"ratio of {spec.plural}"
    elif opts.log_transf:
        null_working = opts.true_q
        null_value = opts.true_q
        label = f"log ratio of {spec.plural}"
    else:
        null_working = opts.true_q
        null_value = opts.true_q
        label = f"difference in {spec.plural}"
    scale = "log" if opts.log_transf else "identity"
    description = f"Two sample test of the {spec.label or 'measure'}"
    return _finish(working_est, working_var, null_working, opts, scale,
                   description, label, null_value, warnings, "x and y")

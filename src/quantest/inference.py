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
them, the first is estimated on a thread of its own while the second is
estimated on the calling thread; the sort and the large NumPy loops
release the GIL.  Each sample's numbers do not depend on the thread,
so the results are bit-identical to the serial ones.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ._normal import ndtr, ndtri
from .measures import InequalitySpec
from .qcov import _bridge_form, _qhat_rows
from .qdensity import QdMethod
from .quantiles import _check_type, _sorted_one

__all__ = [
    "TestOptions",
    "TestResult",
    "wald_interval",
    "p_value",
    "q_test_one",
    "q_test_two",
    "qineq_test",
]

_ALTERNATIVES = ("two_sided", "less", "greater")

# two samples holding at least this many observations between them are
# estimated concurrently: on a 2-vCPU host, two samples of 10^4 or 3*10^4
# ran slower that way, two of 10^5 about broke even, two of 2*10^5 gained
_CONCURRENT_SIZE = 2 ** 18

RATIO_WARNING = ("estimate is a ratio; intervals and tests are usually better "
                 "behaved on the log scale (log_transf, with back_transf to "
                 "report on the ratio scale)")


@dataclass(frozen=True)
class TestOptions:
    """Options shared by the one- and two-sample tests.

    true_q None means the measure's own null: for one sample the spec's
    _null (0 for a MeasureSpec, 0.5 for an InequalitySpec), for two
    samples a difference of 0, or a ratio of 1 under back_transf.
    """

    __test__ = False  # not a pytest test class

    alternative: str = "two_sided"
    conf_level: float = 0.95
    true_q: float | None = None
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
        _check_type(self.quantile_type)
        if self.true_q is not None and math.isnan(self.true_q):
            raise ValueError("true_q must not be NaN")
        if math.isnan(self.min_q):
            raise ValueError("min_q must not be NaN")
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


def _working_stats(xs, spec, opts: TestOptions):
    """Each sample's estimate and variance on the working scale.

    xs is a stack of sorted samples, one per row, unpadded: only the
    kernel's band gather (qdensity._band_sums) reads the zeros
    X_(0) = X_(n+1) = 0.  spec is a MeasureSpec or an InequalitySpec.
    Returns (working_estimate, working_variance), with one element per
    sample, and floored, the probabilities of the first sample whose
    quantile density was floored.
    The working scale is the log scale when log_transf is set.  A sample
    without an estimate raises the spec's error before the
    degenerate-sample check.  A variance that is not finite (a quantile
    density so large that its square overflows) raises a ValueError that
    names the grid probability of the sample's largest estimate.
    """
    est, grad = spec._estimate(xs, opts.quantile_type)
    if np.count_nonzero(np.isnan(est)):
        raise ValueError(spec._nan_message)
    grid = spec._grid
    qhat, floored, *_ = _qhat_rows(xs, grid, opts.var_method, opts.quantile_type)
    a = grad * qhat
    with np.errstate(over="ignore"):
        var = _bridge_form(grid, a, a, xs.shape[1])
    bad = ~np.isfinite(var)
    if np.count_nonzero(bad):
        q = qhat[np.argmax(bad)]
        raise ValueError(f"variance is not finite: the quantile-density estimate "
                         f"reaches {q.max():.3g} at p = {grid[np.argmax(q)]:g}")
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


def _finish(working_est, working_var, null_working, opts, description,
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
    else:
        scale = "log" if opts.log_transf else "identity"
    return TestResult(estimate=estimate, se=se, statistic_Z=z, p_value=p,
                      conf_int=(lo, hi), null_value=null_value,
                      alternative=opts.alternative, scale=scale,
                      description=description, warnings=tuple(warnings),
                      estimate_label=estimate_label, conf_level=opts.conf_level,
                      data_name=data_name)


def _stats_one(x, spec, opts: TestOptions):
    """_working_stats of one sample, as floats, with its warnings."""
    est, var, floored = _working_stats(_sorted_one(x), spec, opts)
    return float(est[0]), float(var[0]), _floored_warnings(floored)


def _size(x) -> int:
    """The observations in an array; 0 for other data.

    Converting a list holds the GIL, so lists are not worth a thread.
    """
    return x.size if isinstance(x, np.ndarray) else 0


def _stats_two(x, y, spec, opts: TestOptions):
    """_stats_one of x and of y, concurrently when they are large.

    x runs on a thread of its own, started for this call, and only private
    functions run there.  An error is raised as the serial order would
    raise it: x's first, even when y failed too.
    """
    if _size(x) + _size(y) < _CONCURRENT_SIZE:
        return _stats_one(x, spec, opts), _stats_one(y, spec, opts)
    out = {}

    def run_x():
        try:
            out["stats"] = _stats_one(x, spec, opts)
        except BaseException as exc:  # re-raised on the calling thread below
            out["error"] = exc

    worker = threading.Thread(target=run_x)
    worker.start()
    try:
        stats_y = _stats_one(y, spec, opts)
    finally:
        worker.join()
        if "error" in out:
            raise out["error"] from None
    return out["stats"], stats_y


def q_test_one(x, spec, opts: TestOptions = TestOptions()) -> TestResult:
    """One-sample Wald test of a quantile measure or an inequality index.

    true_q is interpreted on the working scale: with log_transf it is the
    null value of the log measure (so 0 tests a ratio of 1), and
    back_transf merely reports the estimate, interval and null on the
    exponentiated scale.  true_q None tests the spec's _null: 0 for a
    MeasureSpec, 0.5 for an InequalitySpec.
    """
    working_est, working_var, warnings = _stats_one(x, spec, opts)
    if spec.is_ratio and not opts.log_transf:
        warnings.append(RATIO_WARNING)
    null = spec._null if opts.true_q is None else opts.true_q
    null_value = math.exp(null) if opts.back_transf else null
    label = spec.label or "estimate"
    description = f"One sample test of the {label}"
    return _finish(working_est, working_var, null, opts,
                   description, label, null_value, warnings, "x")


def q_test_two(x, y, spec, opts: TestOptions = TestOptions()) -> TestResult:
    """Two independent-sample comparison of a quantile measure or an index.

    On the identity scale the difference of the per-sample estimates is
    tested against true_q.  With log_transf the difference of logs is used;
    with back_transf the result is reported as a ratio and the null true_q
    is interpreted on the ratio scale, where it must be positive.  true_q
    None tests equal measures: a difference of 0, or a ratio of 1 under
    back_transf.

    When x and y hold at least 2^18 observations between them, x is
    estimated on a thread of its own while y is estimated here; the
    results are bit-identical to estimating one after the other.
    """
    (wx, vx, warn_x), (wy, vy, warn_y) = _stats_two(x, y, spec, opts)
    warnings = warn_x + [w for w in warn_y if w not in warn_x]
    if spec.is_ratio and not opts.log_transf:
        warnings.append(RATIO_WARNING)

    working_est = wx - wy
    working_var = vx + vy
    if opts.back_transf:
        null_value = 1.0 if opts.true_q is None else opts.true_q
        if null_value <= 0.0:
            raise ValueError("back-transformed null value must be positive")
        null_working = math.log(null_value)
        label = f"ratio of {spec.plural}"
    else:
        null_working = null_value = 0.0 if opts.true_q is None else opts.true_q
        label = (f"log ratio of {spec.plural}" if opts.log_transf
                 else f"difference in {spec.plural}")
    description = f"Two sample test of the {spec.label or 'measure'}"
    return _finish(working_est, working_var, null_working, opts,
                   description, label, null_value, warnings, "x and y")


def qineq_test(x, y=None, spec: InequalitySpec = InequalitySpec(),
               opts: TestOptions = TestOptions()) -> TestResult:
    """Wald test for an inequality index, one sample or two.

    This is q_test_one, or q_test_two when y is given.  With opts.true_q
    None, one sample tests H0: index = 0.5 and two samples test a
    difference of 0.
    """
    return q_test_one(x, spec, opts) if y is None else q_test_two(x, y, spec, opts)

"""Hypothesis tests and confidence intervals for quantile measures.

Every measure -- a quantile, a linear combination, a ratio of two
combinations or an inequality index -- is a smooth function theta of the
quantiles Q on the sorted probability grid of its spec, and the spec's
_estimate gives theta and its gradient g for a stack of samples.  The
delta method then gives

    var(theta) = g' Sigma g,

summed in O(d) from the Brownian-bridge form of Sigma (_bridge_form)
without building the matrix.  For a ratio R = b1'Q / b2'Q the gradient is
(b1 - R b2)/(b2'Q).  On the log scale var(log theta) = var(theta)/theta^2,
which generally yields better-calibrated intervals for ratio measures.
Tests are Wald tests against a normal reference distribution.

The two samples of q_test_two share no work until the final difference,
so when they hold at least 2^18 observations between them and the call
gets the process's worker thread (quantiles._pair_for), the first is
estimated there while the second is estimated on the calling thread; the
sort and the large NumPy loops release the GIL.  Each sample's sort and
moment table then run on its one thread.  A one-sample test gives the
worker half of its sort and moment table instead.  On one CPU, or while
another caller holds the worker, a call runs on its thread alone.  Each
sample's numbers do not depend on the thread, so the results are
bit-identical to the serial ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._normal import ndtr, ndtri
from .measures import InequalitySpec
from .qdensity import QdMethod, _qhat_rows
from .quantiles import _check_type, _pair_for, _sorted_one

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

RATIO_WARNING = ("estimate is a ratio; intervals and tests are usually better "
                 "behaved on the log scale (log_transf, with back_transf to "
                 "report on the ratio scale)")


@dataclass(frozen=True)
class TestOptions:
    """Options shared by the one- and two-sample tests.

    true_q is the null on the reported scale, as min_q is: the measure
    (or two samples' difference) on the identity scale, its log under
    log_transf, and the measure (or ratio) under back_transf, where it
    must be positive.  None means no effect (0, or 1 under back_transf),
    but a one-sample index keeps its null of 0.5 (log 0.5 under log_transf alone).
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
        if self.back_transf and self.true_q is not None and self.true_q <= 0.0:
            raise ValueError("back-transformed null value must be positive")
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
    stays on the log scale in that case).  null_value is on the same
    scale: the TestOptions true_q, or the null it resolved to.
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


def _bridge_form(p: np.ndarray, a, c, n: int):
    """a' M c / n along the last axis, with M_ij = p_i (1 - p_j) for i <= j.

    p is sorted; a and c are stacks of rows over it.  With a = w1 q_hat and
    c = w2 q_hat this is w1' Sigma w2, Sigma the covariance of the quantile
    estimators at p.  Each column j pairs with every i <= j of a and every
    i < j of c, so the form is

        sum_j (1 - p_j) (c_j sum_{i<=j} a_i p_i + a_j sum_{i<j} c_i p_i),

    two prefix sums and O(d) work.  Every term is a product: there is no
    min(p_i, p_j) - p_i p_j to cancel.
    """
    # the ufuncs' own methods: cumsum and sum cost more on small grids
    q = 1.0 - p
    inclusive_a = np.add.accumulate(a * p, axis=-1)
    inclusive_c = inclusive_a if c is a else np.add.accumulate(c * p, axis=-1)
    return (np.add.reduce(q * (c * inclusive_a), axis=-1)
            + np.add.reduce(q[1:] * (a[..., 1:] * inclusive_c[..., :-1]), axis=-1)) / n


def _working_stats(xs, spec, opts: TestOptions):
    """Each sample's estimate and variance on the working scale.

    xs is a stack of sorted samples, one per row, unpadded: only the
    kernel's band gather (qdensity._band_sums) reads the zeros
    X_(0) = X_(n+1) = 0.  spec is a MeasureSpec or an InequalitySpec.
    Returns (working_estimate, working_variance), with one element per
    sample, and floored, the probabilities of the first sample whose
    quantile density was floored.
    The working scale is the log scale when log_transf is set.  A sample
    without an estimate raises the spec's error, and one whose estimate
    overflows a ValueError, before the degenerate-sample check.  A
    variance that is not finite raises a ValueError.  It names the
    sample's largest quantile-density estimate and its grid probability
    when that estimate's square overflows, and the measure's largest
    gradient entry otherwise.
    """
    est, grad = spec._estimate(xs, opts.quantile_type)
    if np.count_nonzero(np.isfinite(est)) < est.size:
        if np.count_nonzero(np.isnan(est)):
            raise ValueError(spec._nan_message)
        raise ValueError("the estimate is not finite: the measure's value overflows")
    grid = spec._grid
    qhat, floored, *_ = _qhat_rows(xs, grid, opts.var_method, opts.quantile_type, spec._z)
    with np.errstate(over="ignore", invalid="ignore"):
        a = grad * qhat
        var = _bridge_form(grid, a, a, xs.shape[1])
    if np.count_nonzero(np.isfinite(var)) < var.size:
        row = np.argmax(~np.isfinite(var))
        q = qhat[row]
        with np.errstate(over="ignore"):
            qhat_overflows = not np.isfinite(q.max() ** 2)
        if qhat_overflows:
            raise ValueError(f"variance is not finite: the quantile-density estimate "
                             f"reaches {q.max():.3g} at p = {grid[np.argmax(q)]:g}")
        g = np.broadcast_to(grad, qhat.shape)[row]
        j = np.argmax(np.abs(g))
        raise ValueError(f"variance is not finite: the measure's gradient "
                         f"reaches {g[j]:.3g} at p = {grid[j]:g}")
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
    if not opts.back_transf:
        return (se, working_est,
                *wald_interval(working_est, se, opts.conf_level, opts.alternative, opts.min_q))
    lo, hi = wald_interval(working_est, se, opts.conf_level, opts.alternative)
    # clamped after the back-transform: min_q refers to the reported scale
    return se, np.exp(working_est), np.maximum(np.exp(lo), opts.min_q), np.exp(hi)


def _finish(working_est, working_var, warnings, spec, opts: TestOptions,
            two_sample: bool) -> TestResult:
    """The TestResult of a working estimate and variance, and the one place
    a null is resolved: true_q or its default (see TestOptions) is reported
    as null_value, and its log under back_transf is the working null."""
    se, estimate, lo, hi = (float(v) for v in _interval(working_est, working_var, opts))
    if opts.true_q is not None:
        null_value = opts.true_q
    elif two_sample or spec._null is None:
        null_value = 1.0 if opts.back_transf else 0.0
    elif opts.log_transf and not opts.back_transf:
        null_value = math.log(spec._null)
    else:
        null_value = spec._null
    null = math.log(null_value) if opts.back_transf else null_value
    if se > 0.0:
        z = (working_est - null) / se
    else:
        z = 0.0 if working_est == null else math.copysign(math.inf, working_est - null)
    if spec.is_ratio and not opts.log_transf:
        warnings.append(RATIO_WARNING)
    if opts.back_transf:
        scale, contrast = "back_transformed_ratio", "ratio of"
    elif opts.log_transf:
        scale, contrast = "log", "log ratio of"
    else:
        scale, contrast = "identity", "difference in"
    label = f"{contrast} {spec.plural}" if two_sample else spec.label or "estimate"
    noun = spec.label or ("measure" if two_sample else "estimate")
    description = f"{'Two' if two_sample else 'One'} sample test of the {noun}"
    return TestResult(estimate=estimate, se=se, statistic_Z=z,
                      p_value=p_value(z, opts.alternative), conf_int=(lo, hi),
                      null_value=null_value, alternative=opts.alternative,
                      scale=scale, description=description, warnings=tuple(warnings),
                      estimate_label=label, conf_level=opts.conf_level,
                      data_name="x and y" if two_sample else "x")


def _stats_one(x, spec, opts: TestOptions):
    """_working_stats of one sample, as floats, with its warnings."""
    est, var, floored = _working_stats(_sorted_one(x), spec, opts)
    return float(est[0]), float(var[0]), _floored_warnings(floored)


def _stats_two(x, y, spec, opts: TestOptions):
    """_stats_one of the arrays x and y, x on the worker thread with the pair."""
    with _pair_for(x.size + y.size) as pair:
        if pair is None:
            return _stats_one(x, spec, opts), _stats_one(y, spec, opts)
        return pair.run(lambda: _stats_one(x, spec, opts), lambda: _stats_one(y, spec, opts))


def q_test_one(x, spec, opts: TestOptions = TestOptions()) -> TestResult:
    """One-sample Wald test of a quantile measure or an inequality index.

    true_q is read on the reported scale (see TestOptions): the measure,
    its log under log_transf, and the measure again under back_transf.
    true_q None tests a measure of 0 (a ratio of 1 under back_transf), or
    an index of 0.5.

    A sample of at least 2^18 observations may be sorted, and its
    kernel's moment table built, on this thread and the worker thread;
    the results are bit-identical to one thread's.
    """
    working_est, working_var, warnings = _stats_one(x, spec, opts)
    return _finish(working_est, working_var, warnings, spec, opts, two_sample=False)


def q_test_two(x, y, spec, opts: TestOptions = TestOptions()) -> TestResult:
    """Two independent-sample comparison of a quantile measure or an index.

    On the identity scale the difference of the per-sample estimates is
    tested; with log_transf the difference of logs, and with back_transf
    it is reported as a ratio.  true_q is read on that reported scale
    (see TestOptions), and None tests equal measures: a difference of 0,
    or a ratio of 1 under back_transf.

    When x and y hold at least 2^18 observations between them, x may be
    estimated on the worker thread while y is estimated here; the results
    are bit-identical to estimating one after the other.
    """
    x = np.asarray(x, dtype=float)
    try:
        y = np.asarray(y, dtype=float)
    except (TypeError, ValueError):
        # the serial order: x's own error, if it has one, comes first
        _stats_one(x, spec, opts)
        raise
    (wx, vx, warn_x), (wy, vy, warn_y) = _stats_two(x, y, spec, opts)
    warnings = warn_x + [w for w in warn_y if w not in warn_x]
    return _finish(wx - wy, vx + vy, warnings, spec, opts, two_sample=True)


def qineq_test(x, y=None, spec: InequalitySpec = InequalitySpec(),
               opts: TestOptions = TestOptions()) -> TestResult:
    """Wald test for an inequality index, one sample or two.

    This is q_test_one, or q_test_two when y is given, and reads true_q
    as they do.  With opts.true_q None, one sample tests an index of 0.5
    (log 0.5 under log_transf alone) and two samples test equal indices.
    """
    return q_test_one(x, spec, opts) if y is None else q_test_two(x, y, spec, opts)

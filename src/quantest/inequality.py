"""Quantile-ratio inequality indices.

Both indices summarize inequality through ratios of symmetric quantiles
Q(p/2)/Q(1-p/2) of a positive variable, averaged over the midpoint grid
p_i = (i - 1/2)/J:

    QRI = (1/J) sum_i [1 - Q(p_i/2)/Q(1-p_i/2)]
    G2  = (2/J) sum_i p_i [1 - Q(p_i/2)/Q(1-p_i/2)]

QRI weights all ratios equally; G2 weights them toward the extremes,
mirroring the Gini index's emphasis.  Both are 0 for constant data
(perfect equality, exactly 0 on the midpoint grid) and approach 1 under
extreme inequality.  Standard errors come from the delta method over the
joint covariance of all 2J quantile estimators, contracted with the
gradient in O(J) by qcov._bridge_form: the covariance matrix is never
built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inference import TestOptions, TestResult, _finish, _floored_warnings
from .qcov import _bridge_form, _qhat_rows
from .qdensity import QdMethod
from .quantiles import _check_type, _quantiles_sorted, as_sample

__all__ = ["InequalitySpec", "qri_estimate", "g2_estimate", "ineq_variance", "qineq_test"]


@dataclass(frozen=True)
class InequalitySpec:
    """Index choice plus testing options.

    true_ineq is the null value for the one-sample test; None picks the
    default 0.5.  For the two-sample test the null is the zero difference
    unless true_ineq is set explicitly.
    """

    kind: str = "QRI"
    J: int = 100
    true_ineq: float | None = None
    alternative: str = "two_sided"
    conf_level: float = 0.95
    quantile_type: int = 8
    var_method: QdMethod = field(default_factory=QdMethod)

    def __post_init__(self):
        if self.kind not in ("QRI", "G2"):
            raise ValueError("kind must be 'QRI' or 'G2'")
        if self.J < 2:
            raise ValueError("J must be at least 2")
        if not 0.0 < self.conf_level < 1.0:
            raise ValueError("conf_level must lie in (0, 1)")


def _midpoint_grid(J: int) -> np.ndarray:
    return (np.arange(1, J + 1) - 0.5) / J


def _check_positive(rows, kind: str) -> None:
    if np.count_nonzero(rows[..., 0] <= 0.0):
        raise ValueError(f"{kind} requires positive data")


def _ratio_terms(rows, J: int, quantile_type: int):
    """The midpoint grid and each sorted row's quantiles at p/2 and 1 - p/2."""
    p = _midpoint_grid(J)
    lower = _quantiles_sorted(rows, p / 2.0, quantile_type)
    upper = _quantiles_sorted(rows, 1.0 - p / 2.0, quantile_type)
    return p, lower, upper


def _index(kind: str, p, lower, upper):
    """QRI or G2 of each row of ratio terms."""
    terms = 1.0 - lower / upper
    if kind == "QRI":
        return terms.mean(axis=-1)
    return (2.0 * p * terms).sum(axis=-1) / p.size


def _index_rows(rows, kind: str, J: int, quantile_type: int):
    """The index of each row of a stack of sorted samples.

    rows needs only a shape and indexing along its last axis, as in
    _quantiles_sorted.  Rows with a nonpositive value give NaN.
    """
    est = _index(kind, *_ratio_terms(rows, J, quantile_type))
    return np.where(rows[..., 0] > 0.0, est, np.nan)


def _estimate(x, kind: str, J: int, quantile_type: int) -> float:
    """qri_estimate or g2_estimate: _index_rows with a stack of one."""
    rows = as_sample(x).sorted[None]
    _check_positive(rows, kind)
    if J < 2:
        raise ValueError("J must be at least 2")
    _check_type(quantile_type)
    return float(_index_rows(rows, kind, J, quantile_type)[0])


def qri_estimate(s, J: int = 100, quantile_type: int = 8) -> float:
    """Quantile ratio index on the midpoint grid."""
    return _estimate(s, "QRI", J, quantile_type)


def g2_estimate(s, J: int = 100, quantile_type: int = 8) -> float:
    """Gini-weighted quantile ratio index on the midpoint grid.

    Implemented as (2/J) sum p_i (1 - ratio_i), which equals
    1 - (2/J) sum p_i ratio_i because the midpoint weights sum to J/2;
    this form returns exactly 0 for constant data.
    """
    return _estimate(s, "G2", J, quantile_type)


def ineq_variance(s, spec: InequalitySpec) -> float:
    """Delta-method variance of the index estimate.

    Contracts the covariance of all 2J quantile estimators with the
    gradient of the index with respect to each quantile, in O(J) and
    without building the 2J x 2J matrix.  For
    QRI the gradient entries are -1/(J u_i) for the lower quantiles and
    l_i/(J u_i^2) for the upper ones (l and u the lower/upper quantile
    estimates); for G2 they carry the extra 2 p_i weight.
    """
    return _one_sample(s, spec)[1]


def _sample_stats(values, padded, spec: InequalitySpec):
    """Index estimates and their delta-method variances, one per sample.

    values and padded are a stack of samples, one per row: as drawn, and
    sorted between two zeros.  The ratio-term quantiles are computed once,
    for both the estimate and the gradient.  Also returns the
    probabilities at which the first sample's quantile density was
    floored.
    """
    rows = padded[:, 1:-1]
    _check_positive(rows, spec.kind)
    _check_type(spec.quantile_type)
    p, lower, upper = _ratio_terms(rows, spec.J, spec.quantile_type)
    # p/2 ascends below 1/2 and 1 - p/2 descends above it, so the grid
    # with the upper half reversed is sorted, as _bridge_form needs
    grid = np.concatenate([p / 2.0, 1.0 - p[::-1] / 2.0])
    qhat, _, _, floored, *_ = _qhat_rows(values, padded, grid, spec.var_method,
                                         spec.quantile_type)
    weight = np.ones(spec.J) if spec.kind == "QRI" else 2.0 * p
    g_lower = -weight / (spec.J * upper)
    g_upper = weight * lower / (spec.J * upper**2)
    a = np.concatenate([g_lower, g_upper[..., ::-1]], axis=-1) * qhat
    var = _bridge_form(grid, a, a, values.shape[1])
    return _index(spec.kind, p, lower, upper), var, grid[floored[0]]


def _one_sample(x, spec: InequalitySpec):
    """Estimate, variance and floored-density warnings of one sample."""
    s = as_sample(x)
    est, var, floored = _sample_stats(s.values[None], s.padded[None], spec)
    return float(est[0]), float(var[0]), _floored_warnings(floored)


def qineq_test(x, y=None, spec: InequalitySpec = InequalitySpec()) -> TestResult:
    """Wald test for an inequality index, one sample or two.

    One sample tests H0: index = true_ineq (default 0.5).  Two samples
    test the difference of indices against 0, or against true_ineq when
    it is set explicitly.
    """
    est_x, var_x, warnings = _one_sample(x, spec)
    if y is None:
        null = 0.5 if spec.true_ineq is None else spec.true_ineq
        est, var = est_x, var_x
        label = spec.kind
        description = f"One sample test of the {spec.kind}"
        data_name = "x"
    else:
        est_y, var_y, warn_y = _one_sample(y, spec)
        warnings += [w for w in warn_y if w not in warnings]
        null = 0.0 if spec.true_ineq is None else spec.true_ineq
        est = est_x - est_y
        var = var_x + var_y
        label = f"difference in {spec.kind}"
        description = f"Two sample test of the {spec.kind}"
        data_name = "x and y"
    opts = TestOptions(alternative=spec.alternative, conf_level=spec.conf_level)
    return _finish(est, var, null, opts, "identity", description, label, null,
                   warnings, data_name)

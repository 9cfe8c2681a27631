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
joint covariance of all 2J quantile estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .inference import TestOptions, TestResult, _finish, _floored_warnings
from .qcov import qcov
from .qdensity import QdMethod
from .quantiles import Sample, as_sample, sample_quantiles

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


def _check_positive(s: Sample, kind: str) -> None:
    if s.min() <= 0.0:
        raise ValueError(f"{kind} requires positive data")


def _ratio_terms(s: Sample, J: int, quantile_type: int):
    p = _midpoint_grid(J)
    lower = sample_quantiles(s, p / 2.0, quantile_type)
    upper = sample_quantiles(s, 1.0 - p / 2.0, quantile_type)
    return p, lower, upper


def qri_estimate(s, J: int = 100, quantile_type: int = 8) -> float:
    """Quantile ratio index on the midpoint grid."""
    s = as_sample(s)
    _check_positive(s, "QRI")
    if J < 2:
        raise ValueError("J must be at least 2")
    _, lower, upper = _ratio_terms(s, J, quantile_type)
    return float(np.mean(1.0 - lower / upper))


def g2_estimate(s, J: int = 100, quantile_type: int = 8) -> float:
    """Gini-weighted quantile ratio index on the midpoint grid.

    Implemented as (2/J) sum p_i (1 - ratio_i), which equals
    1 - (2/J) sum p_i ratio_i because the midpoint weights sum to J/2;
    this form returns exactly 0 for constant data.
    """
    s = as_sample(s)
    _check_positive(s, "G2")
    if J < 2:
        raise ValueError("J must be at least 2")
    p, lower, upper = _ratio_terms(s, J, quantile_type)
    return float(np.sum(2.0 * p * (1.0 - lower / upper)) / J)


def ineq_variance(s, spec: InequalitySpec) -> float:
    """Delta-method variance of the index estimate.

    Builds the covariance of all 2J quantile estimators and contracts it
    with the gradient of the index with respect to each quantile.  For
    QRI the gradient entries are -1/(J u_i) for the lower quantiles and
    l_i/(J u_i^2) for the upper ones (l and u the lower/upper quantile
    estimates); for G2 they carry the extra 2 p_i weight.
    """
    return _variance(as_sample(s), spec)[0]


def _variance(s: Sample, spec: InequalitySpec):
    """ineq_variance, with the covariance it contracted."""
    _check_positive(s, spec.kind)
    p, lower, upper = _ratio_terms(s, spec.J, spec.quantile_type)
    grid = np.concatenate([p / 2.0, 1.0 - p / 2.0])
    cov = qcov(s, grid, spec.var_method, spec.quantile_type)
    weight = np.ones(spec.J) if spec.kind == "QRI" else 2.0 * p
    g_lower = -weight / (spec.J * upper)
    g_upper = weight * lower / (spec.J * upper**2)
    g = np.concatenate([g_lower, g_upper])
    return float(g @ cov.matrix @ g), cov


def _one_sample(s: Sample, spec: InequalitySpec):
    """Estimate, standard error and floored-density warnings of one sample."""
    est = (qri_estimate if spec.kind == "QRI" else g2_estimate)(s, spec.J, spec.quantile_type)
    var, cov = _variance(s, spec)
    return est, math.sqrt(max(var, 0.0)), _floored_warnings(cov)


def qineq_test(x, y=None, spec: InequalitySpec = InequalitySpec()) -> TestResult:
    """Wald test for an inequality index, one sample or two.

    One sample tests H0: index = true_ineq (default 0.5).  Two samples
    test the difference of indices against 0, or against true_ineq when
    it is set explicitly.
    """
    sx = as_sample(x)
    est_x, se_x, warnings = _one_sample(sx, spec)
    if y is None:
        null = 0.5 if spec.true_ineq is None else spec.true_ineq
        est, se = est_x, se_x
        label = spec.kind
        description = f"One sample test of the {spec.kind}"
        data_name = "x"
    else:
        sy = as_sample(y)
        est_y, se_y, warn_y = _one_sample(sy, spec)
        warnings += [w for w in warn_y if w not in warnings]
        null = 0.0 if spec.true_ineq is None else spec.true_ineq
        est = est_x - est_y
        se = math.sqrt(se_x**2 + se_y**2)
        label = f"difference in {spec.kind}"
        description = f"Two sample test of the {spec.kind}"
        data_name = "x and y"
    opts = TestOptions(alternative=spec.alternative, conf_level=spec.conf_level)
    return _finish(est, se**2, null, opts, "identity", description, label, null,
                   warnings, data_name)

"""Quantile-ratio inequality indices.

Both indices summarize inequality through ratios of symmetric quantiles
Q(p/2)/Q(1-p/2) of a positive variable, averaged over the midpoint grid
p_i = (i - 1/2)/J:

    QRI = (1/J) sum_i [1 - Q(p_i/2)/Q(1-p_i/2)]
    G2  = (2/J) sum_i p_i [1 - Q(p_i/2)/Q(1-p_i/2)]

QRI weights all ratios equally; G2 weights them toward the extremes,
mirroring the Gini index's emphasis.  Both are 0 for constant data
(perfect equality, exactly 0 on the midpoint grid) and approach 1 under
extreme inequality.

An InequalitySpec is tested like any quantile measure: it holds the 2J
probabilities p_i/2 and 1 - p_i/2 as one sorted grid, and its _estimate
gives the index and its gradient in the grid quantiles, -w_i/(J u_i) at
the lower quantile l_i and w_i l_i/(J u_i^2) at the upper one u_i (w_i
is 1 for QRI and 2 p_i for G2).  q_test_one/q_test_two contract that
gradient with the Brownian-bridge covariance in O(J), as for every
measure; the covariance matrix is never built.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .inference import TestOptions, TestResult, q_test_one, q_test_two
from .measures import estimate_measure
from .quantiles import _quantiles_sorted

__all__ = ["InequalitySpec", "qri_estimate", "g2_estimate", "qineq_test"]


@dataclass(frozen=True)
class InequalitySpec:
    """Index choice and the null value of its test.

    true_ineq is the null value for the one-sample test; None picks the
    default 0.5.  For the two-sample test the null is the zero difference
    unless true_ineq is set explicitly.  The test options (alternative,
    confidence level, quantile type, variance method) are a TestOptions.
    """

    kind: str = "QRI"
    J: int = 100
    true_ineq: float | None = None

    is_ratio = False

    def __post_init__(self):
        if self.kind not in ("QRI", "G2"):
            raise ValueError("kind must be 'QRI' or 'G2'")
        if self.J < 2:
            raise ValueError("J must be at least 2")
        if self.true_ineq is not None and math.isnan(self.true_ineq):
            raise ValueError("true_ineq must not be NaN")
        p = (np.arange(1, self.J + 1) - 0.5) / self.J
        # p/2 ascends below 1/2 and 1 - p/2 descends above it, so the grid
        # with the upper half reversed is sorted
        grid = np.concatenate([p / 2.0, 1.0 - p[::-1] / 2.0])
        weight = np.ones(self.J) if self.kind == "QRI" else 2.0 * p
        grid.setflags(write=False)
        weight.setflags(write=False)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_weight", weight)

    # reports name the index alone: "One sample test of the QRI",
    # "difference in QRI"
    @property
    def label(self) -> str:
        return self.kind

    plural = label

    @property
    def _nan_message(self) -> str:
        return f"{self.kind} requires positive data"

    def _estimate(self, rows, quantile_type: int, gradient: bool = True):
        """The index and its gradient over _grid, for each row of a stack.

        rows is a stack of sorted samples; it needs only a shape and
        indexing along its last axis, as in _quantiles_sorted.  Rows with a
        nonpositive value give NaN.  With gradient False the gradient is
        None.
        """
        J, w = self.J, self._weight
        xq = _quantiles_sorted(rows, self._grid, quantile_type)
        lower, upper = xq[..., :J], xq[..., J:][..., ::-1]
        grad = None
        # a row with a nonpositive value may divide by zero; it gives NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            index = np.add.reduce(w * (1.0 - lower / upper), axis=-1) / J
            if gradient:
                grad = np.concatenate([-w / (J * upper), (w * lower / (J * upper**2))[..., ::-1]],
                                      axis=-1)
        return np.where(rows[..., 0] > 0.0, index, np.nan), grad


def qri_estimate(s, J: int = 100, quantile_type: int = 8) -> float:
    """Quantile ratio index on the midpoint grid."""
    return estimate_measure(s, InequalitySpec("QRI", J), quantile_type)


def g2_estimate(s, J: int = 100, quantile_type: int = 8) -> float:
    """Gini-weighted quantile ratio index on the midpoint grid.

    Implemented as (2/J) sum p_i (1 - ratio_i), which equals
    1 - (2/J) sum p_i ratio_i because the midpoint weights sum to J/2;
    this form returns exactly 0 for constant data.
    """
    return estimate_measure(s, InequalitySpec("G2", J), quantile_type)


def qineq_test(x, y=None, spec: InequalitySpec = InequalitySpec(),
               opts: TestOptions = TestOptions()) -> TestResult:
    """Wald test for an inequality index, one sample or two.

    One sample tests H0: index = true_ineq (default 0.5).  Two samples
    test the difference of indices against 0, or against true_ineq when
    it is set explicitly.  The null comes from spec; opts.true_q is not
    read.
    """
    if y is None:
        null = 0.5 if spec.true_ineq is None else spec.true_ineq
        return q_test_one(x, spec, dataclasses.replace(opts, true_q=null))
    null = 0.0 if spec.true_ineq is None else spec.true_ineq
    return q_test_two(x, y, spec, dataclasses.replace(opts, true_q=null))

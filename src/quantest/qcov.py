"""Covariance matrix of sample quantile estimators.

For probabilities p <= r the asymptotic covariance of the corresponding
quantile estimators is p(1-r) q(p) q(r) / n, with q the quantile density.
qcov plugs in an estimate of q at every requested probability and returns
the full symmetric matrix.  The Wald tests never build it: inference sums
their quadratic forms g' Sigma g directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._normal import ndtri
from .qdensity import QdMethod, _qhat_rows
from .quantiles import _check_type, _sorted_one

__all__ = ["QuantileCov", "qcov"]


@dataclass(frozen=True)
class QuantileCov:
    """Symmetric d x d covariance matrix for quantile estimators.

    probs keeps the caller's order (duplicates included).  floored lists
    the probabilities whose raw quantile-density estimate came out
    nonpositive and was floored to a tiny positive value; a nonempty
    tuple flags the matrix as suspect.  sigma is the lognormal shape
    used for the QOR bandwidths (None for the density method); shift is
    the location shift applied before fitting, None unless a fit ran.
    bandwidths holds the kernel bandwidth at each of probs, in the same
    order (None for the density method).
    """

    probs: np.ndarray
    matrix: np.ndarray
    n: int
    method: QdMethod
    floored: tuple = ()
    sigma: float | None = None
    shift: float | None = None
    bandwidths: np.ndarray | None = None

    def __post_init__(self):
        self.probs.setflags(write=False)
        self.matrix.setflags(write=False)
        if self.bandwidths is not None:
            self.bandwidths.setflags(write=False)


def qcov(x, us, method: QdMethod = QdMethod(), quantile_type: int = 8) -> QuantileCov:
    """Estimated covariance matrix of the quantile estimators at us.

    Duplicate probabilities are computed once and mirrored into the
    output, which preserves the caller's ordering.  Entry (i, j) with
    p_i <= p_j is p_i (1 - p_j) q_hat(p_i) q_hat(p_j) / n.  A sample of
    at least 2^18 observations may be sorted, and its kernel's moment
    table built, on this thread and the worker thread, with the same bits.
    """
    xs = _sorted_one(x)
    n = xs.shape[1]
    _check_type(quantile_type)
    ps = np.atleast_1d(np.asarray(us, dtype=float))
    if ps.size == 0:
        raise ValueError("need at least one probability")
    # NaN fails the check too
    if np.count_nonzero((ps > 0.0) & (ps < 1.0)) < ps.size:
        raise ValueError("probabilities must lie strictly inside (0, 1)")

    uniq, inverse = np.unique(ps, return_inverse=True)
    qhat, floored, b, sigma, shift = _qhat_rows(xs, uniq, method, quantile_type, ndtri(uniq))
    if shift is not None:
        sigma, shift = float(sigma[0]), float(shift[0])
    # m[i, j] = min(p_i, p_j) (1 - max(p_i, p_j)) / n, in the caller's order
    m = np.minimum.outer(ps, ps) * (1.0 - np.maximum.outer(ps, ps)) / n
    q = qhat[0, inverse]
    return QuantileCov(probs=ps.copy(), matrix=m * np.multiply.outer(q, q), n=n,
                       method=method, floored=tuple(float(p) for p in uniq[floored[0]]),
                       sigma=sigma, shift=shift,
                       bandwidths=None if b is None else np.atleast_2d(b)[0, inverse])

"""Covariance matrix of sample quantile estimators.

For probabilities p <= r the asymptotic covariance of the corresponding
quantile estimators is p(1-r) q(p) q(r) / n, with q the quantile density.
qcov plugs in an estimate of q at every requested probability and returns
the full symmetric matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qdensity import (
    QdMethod,
    _bandwidths,
    _qdens_grid,
    _qor_lognormal,
    fit_lognormal_sigma,
    qdens_inversion,
)
from .quantiles import as_sample

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


def _qdens_at(s, ps: np.ndarray, method: QdMethod, quantile_type: int):
    """Quantile-density estimates at each p, their bandwidths and fit metadata."""
    if method.kind == "qor":
        if method.sigma is None:
            sigma, shift = fit_lognormal_sigma(s)
        else:
            sigma, shift = method.sigma, None
        # one probability costs less as a NumPy scalar than as an array
        grid = ps[0] if ps.size == 1 else ps
        b = np.atleast_1d(_bandwidths(_qor_lognormal(sigma, grid), grid, s.n,
                                      method.bw_correct, method.kernel))
        if not method.bw_correct and not (b.min() > 0.0 and b.max() < 1.0):
            raise ValueError("bandwidth must lie in (0, 1)")
        return _qdens_grid(s.padded, ps, b, method.kernel), b, sigma, shift
    out = np.array([qdens_inversion(s, p, quantile_type) for p in ps])
    return out, None, None, None


def qcov(x, us, method: QdMethod = QdMethod(), quantile_type: int = 8) -> QuantileCov:
    """Estimated covariance matrix of the quantile estimators at us.

    Duplicate probabilities are computed once and mirrored into the
    output, which preserves the caller's ordering.  Entry (i, j) with
    p_i <= p_j is p_i (1 - p_j) q_hat(p_i) q_hat(p_j) / n.
    """
    s = as_sample(x)
    ps = np.atleast_1d(np.asarray(us, dtype=float))
    if ps.size == 0:
        raise ValueError("need at least one probability")
    if np.any(ps <= 0.0) or np.any(ps >= 1.0):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    if s.max() == s.min():
        raise ValueError("degenerate sample")

    uniq, inverse = np.unique(ps, return_inverse=True)
    qhat, b, sigma, shift = _qdens_at(s, uniq, method, quantile_type)

    floored = ()
    # a genuine quantile density is on the order of the data range; this
    # threshold only catches estimates that are zero or negative up to
    # floating-point noise (e.g. exact plateaus in the order statistics)
    eps = 1e-12 * (s.max() - s.min())
    bad = qhat <= eps
    if np.any(bad):
        floored = tuple(float(p) for p in uniq[bad])
        qhat = np.where(bad, eps, qhat)

    # m[i, j] = min(p_i, p_j) (1 - max(p_i, p_j)) / n
    pi = np.minimum.outer(uniq, uniq)
    pj = np.maximum.outer(uniq, uniq)
    m = pi * (1.0 - pj) / s.n
    cov_uniq = m * np.outer(qhat, qhat)
    cov = cov_uniq[np.ix_(inverse, inverse)]

    return QuantileCov(probs=ps.copy(), matrix=cov, n=s.n, method=method,
                       floored=floored, sigma=sigma, shift=shift,
                       bandwidths=None if b is None else b[inverse])

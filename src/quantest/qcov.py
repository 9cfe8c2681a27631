"""Covariance matrix of sample quantile estimators.

For probabilities p <= r the asymptotic covariance of the corresponding
quantile estimators is p(1-r) q(p) q(r) / n, with q the quantile density.
qcov plugs in an estimate of q at every requested probability and returns
the full symmetric matrix.

The Wald tests need only quadratic forms g' Sigma g of this matrix.  Its
p(1-r) part is a Brownian-bridge kernel, which is semiseparable, so
_bridge_form sums such a form with prefix sums in O(d) and never builds
the d x d matrix; qcov is the only place that does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._normal import ndtri
from .qdensity import (
    QdMethod,
    _bandwidths,
    _fit_sigma,
    _inversion_grid,
    _qdens_grid,
    _qor_lognormal,
)
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


def _qhat_rows(xs, grid: np.ndarray, method: QdMethod, quantile_type: int, z=None):
    """Floored quantile-density estimates of each sample of a stack.

    xs is a stack of sorted samples, one per row; grid is sorted and
    unique.  z holds the standard normal quantiles at grid, as a spec
    keeps them; None computes them.  Returns the estimates at grid (one
    row per sample), a mask of the floored estimates, the bandwidths at
    grid and the lognormal sigma and shift, each None where the method
    has none.
    The bandwidths are shared by every row unless sigma is fitted; sigma
    and shift are then one per row.
    """
    lo, hi = xs[:, 0], xs[:, -1]
    if np.count_nonzero(hi == lo):
        raise ValueError("degenerate sample")
    b = sigma = shift = None
    if method.kind == "density":
        qhat = _inversion_grid(xs, grid, quantile_type)
    else:
        if method.sigma is None:
            sigma, shift = _fit_sigma(xs)
            row_sigma = sigma[:, None]
        else:
            sigma = row_sigma = method.sigma
        # one probability costs less as a NumPy scalar than as an array
        one = grid.size == 1
        ps = grid[0] if one else grid
        zs = ndtri(ps) if z is None else z[0] if one else z
        b = np.atleast_1d(_bandwidths(_qor_lognormal(row_sigma, zs), ps, xs.shape[1]))
        qhat = _qdens_grid(xs, grid, b)

    # a genuine quantile density is on the order of the data range; this
    # threshold only catches estimates that are zero or negative up to
    # floating-point noise (e.g. exact plateaus in the order statistics)
    eps = (1e-12 * (hi - lo))[:, None]
    floored = qhat <= eps
    return np.maximum(qhat, eps), floored, b, sigma, shift


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
    inclusive_c = np.add.accumulate(c * p, axis=-1)
    return (np.add.reduce(q * (c * inclusive_a), axis=-1)
            + np.add.reduce(q[1:] * (a[..., 1:] * inclusive_c[..., :-1]), axis=-1)) / n


def qcov(x, us, method: QdMethod = QdMethod(), quantile_type: int = 8) -> QuantileCov:
    """Estimated covariance matrix of the quantile estimators at us.

    Duplicate probabilities are computed once and mirrored into the
    output, which preserves the caller's ordering.  Entry (i, j) with
    p_i <= p_j is p_i (1 - p_j) q_hat(p_i) q_hat(p_j) / n.
    """
    xs = _sorted_one(x)
    n = xs.shape[1]
    _check_type(quantile_type)
    ps = np.atleast_1d(np.asarray(us, dtype=float))
    if ps.size == 0:
        raise ValueError("need at least one probability")
    # NaN fails the check too
    if not np.all((ps > 0.0) & (ps < 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")

    uniq, inverse = np.unique(ps, return_inverse=True)
    qhat, floored, b, sigma, shift = _qhat_rows(xs, uniq, method, quantile_type)
    if shift is not None:
        sigma, shift = float(sigma[0]), float(shift[0])
    # m[i, j] = min(p_i, p_j) (1 - max(p_i, p_j)) / n, in the caller's order
    m = np.minimum.outer(ps, ps) * (1.0 - np.maximum.outer(ps, ps)) / n
    q = qhat[0, inverse]
    return QuantileCov(probs=ps.copy(), matrix=m * np.multiply.outer(q, q), n=n,
                       method=method, floored=tuple(float(p) for p in uniq[floored[0]]),
                       sigma=sigma, shift=shift,
                       bandwidths=None if b is None else np.atleast_2d(b)[0, inverse])

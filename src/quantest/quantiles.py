"""Sample quantiles with selectable interpolation rule.

Implements the continuous interpolation family for quantile estimation
(types 4 through 9 in the Hyndman and Fan (1996) numbering).  The default
is type 8, whose plotting position (k - 1/3)/(n + 1/3) gives approximately
median-unbiased estimates regardless of the underlying distribution.
"""

from __future__ import annotations

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


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of finite values sorted, a stack of samples.

    Non-finite values raise a ValueError rather than being dropped.  The
    sort puts NaN and +inf last and -inf first, so the check reads only
    the two end columns of the sorted stack.
    """
    xs = np.sort(rows, axis=-1)
    if not np.all(np.isfinite(xs[:, [0, -1]])):
        raise ValueError("sample contains non-finite values")
    return xs


def _sorted_one(x) -> np.ndarray:
    """A stack of one: array-like x sorted, validated.

    Empty and non-finite data raise a ValueError.
    """
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    return _sorted_rows(arr[None])


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
    h = (n + a) * p + b
    h = np.clip(h, 1.0, float(n))
    k = np.clip(np.floor(h).astype(int), 1, n - 1)
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
    # a sum over the quantiles adds each row as it adds a row alone
    return np.clip(out, lo, hi, order="C")


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
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("probabilities outside [0, 1]")
    return _quantiles_sorted(xs[0], p, quantile_type)

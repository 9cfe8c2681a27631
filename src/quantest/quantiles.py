"""Sample quantiles with selectable interpolation rule.

Implements the continuous interpolation family for quantile estimation
(types 4 through 9 in the Hyndman and Fan (1996) numbering).  The default
is type 8, whose plotting position (k - 1/3)/(n + 1/3) gives approximately
median-unbiased estimates regardless of the underlying distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Sample", "as_sample", "sample_quantile", "sample_quantiles"]

# h(p) = slope(n) * p + offset, with slope expressed as n + a and offset b.
_PLOTTING_CONSTANTS = {
    4: (0.0, 0.0),
    5: (0.0, 0.5),
    6: (1.0, 0.0),
    7: (-1.0, 1.0),
    8: (1.0 / 3.0, 1.0 / 3.0),
    9: (0.25, 0.375),
}


@dataclass(frozen=True)
class Sample:
    """Immutable collection of finite observations with a cached sort.

    Construct through :func:`as_sample` (or ``Sample.from_values``), which
    validates the data.  NaN and infinite entries are rejected outright
    rather than dropped, so a constructed Sample is always safe input for
    the variance machinery downstream.  ``padded`` holds the order
    statistics between two zeros, X_(0) = X_(n+1) = 0, and ``sorted`` is
    the view of it without them; the kernel quantile density takes the
    spacings of the padded sample.
    """

    values: np.ndarray
    sorted: np.ndarray
    padded: np.ndarray = field(repr=False)

    @classmethod
    def from_values(cls, values) -> "Sample":
        arr = np.asarray(values, dtype=float).ravel()
        padded = _padded_one(arr)[0]
        srt = padded[1:-1]
        # bootstrap_se resamples in input order, so a Sample keeps a copy
        arr = arr.copy()
        arr.setflags(write=False)
        srt.setflags(write=False)
        padded.setflags(write=False)
        return cls(values=arr, sorted=srt, padded=padded)

    @property
    def n(self) -> int:
        return self.values.size

    def min(self) -> float:
        return float(self.sorted[0])

    def max(self) -> float:
        return float(self.sorted[-1])


def _padded_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of finite values sorted between two zeros, as Sample.padded.

    Non-finite values raise a ValueError, as in Sample.from_values.
    """
    if not np.all(np.isfinite(rows)):
        raise ValueError("sample contains non-finite values")
    padded = np.zeros(rows.shape[:-1] + (rows.shape[-1] + 2,))
    padded[..., 1:-1] = rows
    padded[..., 1:-1].sort(axis=-1)
    return padded


def _padded_one(x) -> np.ndarray:
    """A stack of one: x as Sample.padded with a leading axis, validated.

    A Sample passes its own padded array; other data are sorted straight
    into a new one, without the copy of the values a Sample keeps.  Empty
    and non-finite data raise a ValueError, as in Sample.from_values.
    """
    if isinstance(x, Sample):
        return x.padded[None]
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    return _padded_rows(arr[None])


def as_sample(x) -> Sample:
    """Coerce array-like data (or pass through a Sample) with validation."""
    if isinstance(x, Sample):
        return x
    return Sample.from_values(x)


def _check_type(quantile_type: int) -> None:
    if quantile_type not in _PLOTTING_CONSTANTS:
        raise ValueError(
            f"unsupported quantile type {quantile_type!r}; supported types are 4..9"
        )


def _quantiles_sorted(sorted_values: np.ndarray, ps, quantile_type: int = 8) -> np.ndarray:
    """Quantiles along the last axis of an array of pre-sorted values.

    ``sorted_values`` may be a matrix of independently sorted rows; the
    result then has one row of quantiles per input row.
    """
    a, b = _PLOTTING_CONSTANTS[quantile_type]
    p = np.asarray(ps, dtype=float)
    n = sorted_values.shape[-1]
    if n == 1:
        return sorted_values[..., 0:1] * np.ones_like(p)
    h = (n + a) * p + b
    h = np.clip(h, 1.0, float(n))
    k = np.clip(np.floor(h).astype(int), 1, n - 1)
    gamma = h - k
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
    s : Sample or array-like
        Observations.
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
    xp = _padded_one(s)
    _check_type(quantile_type)
    p = np.asarray(ps, dtype=float)
    if p.size == 0:
        return np.empty(0)
    # NaN fails the check too
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("probabilities outside [0, 1]")
    return _quantiles_sorted(xp[0, 1:-1], p, quantile_type)

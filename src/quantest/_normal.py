"""Standard normal distribution function and quantile, NumPy and stdlib only.

``ndtr`` is ``erfc`` from ``math``.  ``ndtri`` is
``statistics.NormalDist().inv_cdf``, Wichura's algorithm AS241, which is
accurate to about 1e-16 relative.  Arrays go through it one element at a
time, about 0.3 us each: most calls pass a scalar or a short grid, where
a vectorised NumPy port of AS241 costs tens of microseconds.  Both follow
SciPy: ndtri(0) = -inf, ndtri(1) = inf, nan outside [0, 1],
and an array result has the shape of its argument.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_inv_cdf = NormalDist().inv_cdf
_SQRT2 = math.sqrt(2.0)


def ndtr(x: float) -> float:
    """Standard normal distribution function at a scalar."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _edge(p: float) -> float:
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return math.nan


def ndtri(p):
    """Standard normal quantile: a float for a scalar, else an array of p's shape."""
    if isinstance(p, float) or np.ndim(p) == 0:
        p = float(p)
        return _inv_cdf(p) if 0.0 < p < 1.0 else _edge(p)
    p = np.asarray(p, dtype=float)
    z = [_inv_cdf(v) if 0.0 < v < 1.0 else _edge(v) for v in p.ravel().tolist()]
    return np.array(z, dtype=float).reshape(p.shape)

"""Quantile density estimation.

The quantile density q(p) = Q'(p) = 1/f(Q(p)) drives the sampling
variability of quantile estimators: n var(x_p) is approximately
p(1-p) q(p)^2.  Two estimators are provided.

The direct kernel estimator (Jones 1992) smooths the order statistics,

    q_hat(p) = sum_i X_(i) [K_b(p - (i-1)/n) - K_b(p - i/n)],

with K_b(y) = K(y/b)/b and K the Epanechnikov kernel 0.75 (1 - u^2) on
|u| <= 1.  Its mean-squared-error-optimal bandwidth is

    b_raw = (R(K)/mu2(K)^2)^(1/5) |q(p)/q''(p)|^(2/5) n^(-1/5),

where R(K) = 3/5 is the kernel roughness and mu2 = 1/5 its second moment,
so the leading constant is 15^(1/5).  The ratio QOR(p) = q(p)/q''(p) is
unknown, so it is evaluated under a lognormal working model (Prendergast
& Staudte 2016), either with a fixed shape parameter (sigma = 1 by
default) or with sigma fitted from the data.  The bandwidth used is
b_raw clamped to [1/n, min(p, 1-p)], so the kernel window stays inside
(0, 1) wherever 1/n <= min(p, 1-p).

The alternative inverts a Gaussian kernel density estimate with Silverman's
bandwidth at the estimated quantile: q_hat(p) = 1/f_hat(x_p).  Both
estimators take a stack of sorted samples, one per row.

The direct estimator is evaluated at every probability of a grid at once.
Summation by parts over the zero-padded sample X_(0) = X_(n+1) = 0 turns
it into a sum over the spacings D_j = X_(j+1) - X_(j),

    q_hat(p) = sum_{j=0}^{n} D_j K_b(p - j/n),

whose interior terms are all nonnegative.  A small band (the grid size
times the widest kernel window up to 2^17 spacings) is gathered and
summed directly.  On a larger grid, K_b(p - j/n) is
quadratic in j inside the window, so each p needs only the window sums
of D_j and D_j (j - np)^2.  They come from a dyadic table of the moments
of 64-spacing blocks, each taken about its own start and re-centred on
np; the ragged window ends, in the block on either side of the table,
are summed directly.  Every table entry adds nonnegative terms, so the
result keeps float64 accuracy (about 2e-14 relative to the literal sum
at n = 10^6), where global prefix sums of j D_j and j^2 D_j lose digits
to cancellation.  The table holds O(n/64) numbers.

The window sums and the leaf moments are fixed-order NumPy reductions
(einsum and subtraction), never BLAS calls: a BLAS dot product splits
over the BLAS threads, so its last bits, and its speed on a busy host,
would depend on the BLAS thread count.  These do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import ndtri
from .quantiles import _check_type, _padded_one, _quantiles_sorted

__all__ = [
    "Kernel",
    "EPANECHNIKOV",
    "QdMethod",
    "qor_lognormal",
    "fit_lognormal_sigma",
    "optimal_bandwidth",
    "qdens_kernel",
    "qdens_inversion",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NEG_LOG_2PI = -math.log(2.0 * math.pi)


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    return 0.75 * np.maximum(1.0 - u * u, 0.0)


@dataclass(frozen=True)
class Kernel:
    """Symmetric density K with the constants the bandwidth rule needs.

    roughness is R(K) = integral of K^2, second_moment is mu2(K), and
    support is the radius (in units of the bandwidth) at and beyond which
    fn returns zero.
    """

    name: str
    fn: callable
    roughness: float
    second_moment: float
    support: float

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(u, dtype=float))

    @property
    def bandwidth_constant(self) -> float:
        return (self.roughness / self.second_moment**2) ** 0.2


EPANECHNIKOV = Kernel("epanechnikov", _epanechnikov, roughness=0.6,
                      second_moment=0.2, support=1.0)


@dataclass(frozen=True)
class QdMethod:
    """How to estimate q(p) for variance construction.

    kind "qor" uses the direct Epanechnikov kernel estimator with the
    clamped QOR bandwidth under a lognormal working model; sigma is that
    model's shape, the default 1.0 or None to fit it from the data via
    fit_lognormal_sigma.  kind "density" inverts a Gaussian KDE at the
    quantile and has no bandwidth rule, so its sigma is stored as None
    whatever was passed.  These are the three methods: sigma fixed, sigma
    fitted, and density.
    """

    kind: str = "qor"
    sigma: float | None = 1.0

    def __post_init__(self):
        if self.kind not in ("qor", "density"):
            raise ValueError(f"unknown quantile-density method {self.kind!r}")
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.kind == "density":  # no bandwidth rule, so no sigma
            object.__setattr__(self, "sigma", None)


def qor_lognormal(sigma: float, p: float) -> float:
    """QOR(p) = q(p)/q''(p) for a lognormal with shape sigma.

    The location parameter cancels, leaving

        QOR(p) = phi(z_p)^2 / ((sigma + z_p)^2 + z_p (sigma + z_p) + 1)

    with z_p the standard normal quantile and phi its density.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return float(_qor_lognormal(sigma, _check_p(p)))


def _check_p(p) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    return p


def _qor_lognormal(sigma: float, p):
    # phi(z)^2 = exp(-z^2 - log(2 pi)), and with t = sigma + z the
    # denominator is t (t + z) + 1
    z = ndtri(p)
    t = sigma + z
    return np.exp(_NEG_LOG_2PI - z * z) / (t * (t + z) + 1.0)


def fit_lognormal_sigma(s) -> tuple[float, float]:
    """Lognormal shape fitted on the log scale, shifting nonpositive data.

    Returns (sigma_hat, shift).  shift is 0 when all values are positive,
    otherwise -min + (max - min)/n, chosen so the shifted data are
    strictly positive.  sigma_hat is the n-1 divisor standard deviation
    of the logs of the shifted order statistics.  Shifting is legitimate
    preprocessing here because q(p) is invariant to location.
    """
    xp = _padded_one(s)
    if xp.shape[1] - 2 < 2:
        raise ValueError("need at least two observations to fit sigma")
    if xp[0, -2] == xp[0, 1]:
        raise ValueError("degenerate sample")
    sigma, shift = _fit_sigma(xp)
    return float(sigma[0]), float(shift[0])


def _fit_sigma(xp: np.ndarray):
    """fit_lognormal_sigma of each row of a stack of padded samples.

    The logs go into one buffer, which the standard deviation then
    works in.
    """
    lo, hi = xp[:, 1], xp[:, -2]
    shift = np.where(lo > 0, 0.0, -lo + (hi - lo) / (xp.shape[1] - 2))
    if np.count_nonzero(shift):
        logs = np.add(xp[:, 1:-1], shift[:, None])
        np.log(logs, out=logs)
    else:
        logs = np.log(xp[:, 1:-1])
    return _std_rows(logs, logs), shift


def _std_rows(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.std(rows, axis=1, ddof=1), with out (rows' shape) the only temporary.

    The reductions and their order are np.std's, so the result is
    bit-identical to it; out may be rows itself.
    """
    n = rows.shape[1]
    mean = np.add.reduce(rows, axis=1, keepdims=True) / n
    np.subtract(rows, mean, out=out)
    np.multiply(out, out, out=out)
    return np.sqrt(np.add.reduce(out, axis=1) / (n - 1))


def optimal_bandwidth(qor_value: float, p: float, n: int) -> float:
    """MSE-optimal bandwidth for the direct Epanechnikov kernel estimator.

    b_raw = 15^(1/5) |qor_value|^(2/5) n^(-1/5), clamped to
    min(b_raw, p, 1-p) so the kernel window stays inside (0, 1) and
    floored at 1/n.
    """
    if n < 2:
        raise ValueError("need at least two observations")
    return float(_bandwidths(qor_value, _check_p(p), n))


def _bandwidths(qor, p, n: int):
    b = EPANECHNIKOV.bandwidth_constant * np.abs(qor) ** 0.4 * n ** -0.2
    return np.maximum(np.minimum(b, np.minimum(p, 1.0 - p)), 1.0 / n)


def qdens_kernel(s, p: float, b: float) -> float:
    """Direct Epanechnikov kernel estimate of q(p) at bandwidth b in (0, 1).

    A stack of one sample and a grid of one probability.
    """
    xp = _padded_one(s)
    p = _check_p(p)
    if not 0.0 < b < 1.0:
        raise ValueError("bandwidth must lie in (0, 1)")
    return float(_qdens_grid(xp, np.array([p]), np.array([float(b)]))[0, 0])


# spacings per leaf block of the moment table
_BLOCK = 64
# largest band, in probabilities times window spacings, gathered at once
_BAND_MAX = 2 ** 17
# blocks per pass while building the table, which bounds its temporaries
_CHUNK = 2048


def _qdens_grid(xp: np.ndarray, p: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct kernel estimates of q at the probabilities p with bandwidths b.

    xp is a stack of samples sorted between two zeros (Sample.padded), one
    per row; the result has one row of estimates per row of xp.  b holds
    one bandwidth per probability, shared by every row, or one row of them
    per row of xp; every b lies in (0, 1).  Shared bandwidths give every
    row the same windows and kernel weights.  The table path handles one
    row at a time.
    """
    n = xp.shape[1] - 2
    c = n * p  # window centres and half-widths, in spacings
    h = n * b
    reach = h.max()  # the widest kernel window's radius
    width = int(2.0 * reach) + 2
    if p.size * width > _BAND_MAX:
        hs = np.broadcast_to(h, (xp.shape[0], p.size))
        q = np.stack([_table_sums(x, c, hx) for x, hx in zip(xp, hs)])
    else:
        lo = (c - reach).astype(np.intp)
        if width > n + 1:  # windows wider than the sample: take all of it
            lo, width = np.maximum(lo, 0), n + 1
        q = _band_sums(xp, lo, c, h, width)
    return q / b


def _band_sums(xp, lo, c, h, width: int) -> np.ndarray:
    """sum_j D_j K((j - c)/h) over j = lo .. lo + width - 1, per row and window.

    xp is a stack of padded samples, one per row.  lo and c give one
    window per probability, the same for every row; h is one half-width
    per probability or a row of them per row of xp.  The spacings
    D_j = xp[j+1] - xp[j] are gathered with the indices clipped to xp, so
    those outside 0 .. n are zero; the window must hold every j where the
    Epanechnikov K is nonzero.  Rows, and then windows, go in chunks of at
    most _BAND_MAX gathered spacings.  Each window is summed by einsum in a
    fixed order, with no BLAS call, so the bits do not depend on the BLAS
    thread count.
    """
    rows, d = xp.shape[0], lo.size
    if rows * d * width > _BAND_MAX:
        if rows > 1:
            step = max(1, _BAND_MAX // (d * width))
            return np.concatenate([_band_sums(xp[i:i + step], lo, c,
                                              h if h.ndim == 1 else h[i:i + step], width)
                                   for i in range(0, rows, step)])
        step = max(1, _BAND_MAX // width)
        if d > step:
            return np.concatenate([_band_sums(xp, lo[i:i + step], c[i:i + step],
                                              h[..., i:i + step], width)
                                   for i in range(0, d, step)], axis=1)
    j = lo[:, None] + np.arange(width + 1)
    x = xp.take(j, axis=1, mode="clip")
    w = _epanechnikov((j[:, :-1] - c[:, None]) / h[..., None])
    return np.einsum("...j,...j->...", np.diff(x), w)


def _table_sums(xp, c, h) -> np.ndarray:
    """The Epanechnikov sums of _band_sums, with full blocks from the table.

    K((j - c)/h) = 0.75 (1 - (j - c)^2/h^2) inside the window, so the
    full blocks of a window contribute 0.75 (S0 - S2/h^2) with S0 the sum
    of D_j and S2 the sum of D_j (j - c)^2.  Blocks hold only spacings
    inside their window, where that quadratic is nonnegative, and none of
    the padded end spacings D_0 and D_n.
    """
    n = xp.size - 2
    lo = np.maximum(np.ceil(c - h), 1.0).astype(np.intp)
    hi = np.minimum(np.floor(c + h), n - 1.0).astype(np.intp)
    kl = -(-lo // _BLOCK)  # first block inside the window
    kr = (hi + 1) // _BLOCK  # one past the last
    full = kr > kl
    kr = np.maximum(kr, kl)
    # the block before kl and the block from kr on hold the ragged window
    # ends and, where the window reaches them, D_0 and D_n; K is zero on
    # the rest of these two bands
    out = (_band_sums(xp[None], (kl - 1) * _BLOCK, c, h, _BLOCK)
           + _band_sums(xp[None], kr * _BLOCK, c, h, _BLOCK))[0]
    if not full.any():
        return out

    # a bottom-up walk of the dyadic table takes O(log n) runs per window
    k0, k1 = int(kl[full].min()), int(kr[full].max())
    left, right = kl - k0, kr - k0
    sums = np.zeros((2, c.size))
    for level, table in enumerate(_moment_table(xp, k0, k1)):
        size = _BLOCK << level
        take = (left & 1).astype(bool) & (left < right)
        _add_runs(sums, table, left, take, (k0 * _BLOCK + left * size) - c)
        left = left + take
        take = (right & 1).astype(bool) & (left < right)
        right = right - take
        _add_runs(sums, table, right, take, (k0 * _BLOCK + right * size) - c)
        left >>= 1
        right >>= 1
    return out + 0.75 * (sums[0] - sums[1] / (h * h))


def _add_runs(sums, table, node, take, e):
    """Add the moments of the table rows node, where take, to sums.

    e is each run's start minus the window centre, so the second moment
    about the centre is m2 + 2 e m1 + e^2 m0.
    """
    m = table.take(node, axis=0, mode="clip")
    sums[0] += np.where(take, m[:, 0], 0.0)
    sums[1] += np.where(take, m[:, 2] + e * (2.0 * m[:, 1] + e * m[:, 0]), 0.0)


def _moment_table(xp, k0: int, k1: int) -> list:
    """Spacing moments of dyadic runs of the blocks k0 .. k1-1.

    Level l row i holds sum D_j t^q (q = 0, 1, 2) over the 2^l blocks
    from block k0 + i 2^l on, with t the offset of spacing j from the
    run's start.  Block k holds the spacings D_j = xp[j+1] - xp[j] with
    j in [64k, 64k + 64).  A leaf's zeroth moment telescopes to
    xp[64k + 64] - xp[64k], one rounding; the other two are einsum
    reductions.  None is a BLAS call, so the bits do not depend on the BLAS
    thread count.
    """
    t = np.arange(_BLOCK, dtype=float)
    t2 = t * t
    level = np.empty((k1 - k0, 3))
    for a in range(k0, k1, _CHUNK):
        z = min(a + _CHUNK, k1)
        run = xp[a * _BLOCK:z * _BLOCK + 1]
        spacings = np.diff(run).reshape(-1, _BLOCK)
        rows = level[a - k0:z - k0]
        np.subtract(run[_BLOCK::_BLOCK], run[:-1:_BLOCK], out=rows[:, 0])
        np.einsum("ij,j->i", spacings, t, out=rows[:, 1])
        np.einsum("ij,j->i", spacings, t2, out=rows[:, 2])
    levels = [level]
    half = _BLOCK
    while level.shape[0] > 1:
        m = level.shape[0] // 2
        lft, rgt = level[0:2 * m:2], level[1:2 * m:2]
        level = lft + rgt
        level[:, 1] += half * rgt[:, 0]
        level[:, 2] += half * (2.0 * rgt[:, 1] + half * rgt[:, 0])
        levels.append(level)
        half *= 2
    return levels


def _inversion_grid(xp: np.ndarray, p: np.ndarray, quantile_type: int) -> np.ndarray:
    """1/f_hat(x_p) at the probabilities p for each row of a padded stack xp.

    f_hat is the row's Gaussian kernel density estimate, summed over the
    whole row, with the Silverman bandwidth 0.9 min(sd, IQR/1.349) n^(-1/5)
    from the type-8 quartiles (the sd alone where the IQR is 0); x_p is
    the row's sample quantile of quantile_type.  One (rows, n) buffer
    holds every temporary of the sums.
    """
    rows = xp[:, 1:-1]
    u = np.empty(rows.shape)
    sd = _std_rows(rows, u)
    lower, upper = _quantiles_sorted(rows, [0.25, 0.75]).T
    scale = np.minimum(sd, (upper - lower) / 1.349)
    scale = np.where(scale > 0, scale, sd)  # many ties in the middle
    if np.count_nonzero(scale <= 0):
        raise ValueError("degenerate sample")
    h = 0.9 * scale * rows.shape[1] ** -0.2
    fhat = np.empty((rows.shape[0], p.size))
    for j, x in enumerate(_quantiles_sorted(rows, p, quantile_type).T):
        np.subtract(x[:, None], rows, out=u)
        u /= h[:, None]
        np.multiply(u, u, out=u)
        u *= -0.5  # exact, so this is -0.5 u u in either order
        np.exp(u, out=u)
        fhat[:, j] = np.mean(u, axis=1) / (_SQRT_2PI * h)
    if np.count_nonzero((fhat <= 0.0) | ~np.isfinite(fhat)):
        raise ValueError("zero density at quantile")
    return 1.0 / fhat


def qdens_inversion(s, p: float, quantile_type: int = 8) -> float:
    """Estimate q(p) as 1/f_hat(x_p): a grid of one.

    f_hat is a Gaussian kernel density estimate with the Silverman
    bandwidth 0.9 min(sd, IQR/1.349) n^(-1/5); x_p is the type-8 sample
    quantile by default.
    """
    xp = _padded_one(s)
    _check_type(quantile_type)
    p = np.array([_check_p(p)])
    if xp.shape[1] - 2 < 2:
        raise ValueError("need at least two observations")
    return float(_inversion_grid(xp, p, quantile_type)[0, 0])

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
bandwidth h at the estimated quantile: q_hat(p) = 1/f_hat(x_p).  In a
sorted sample the kernel terms far from x_p underflow or are negligible,
so f_hat sums only a window: every X_i with (x_p - X_i)^2 <= d^2 + 100 h^2,
d the distance from x_p to the nearest order statistic.  Each term left
out is below e^-50 times the largest one, so f_hat moves by less than
n e^-50 relative (2e-16 at n = 10^6).  Samples shorter than
_WINDOW_MIN = 2^15, and windows that would hold half the sample or more,
sum the whole sample; a window found to reach past the middle half of
its sample from two order statistics is not searched for.  Both
estimators take a stack of sorted samples, one per row.

The direct estimator is evaluated at every probability of a grid at once.
Summation by parts over the zero-padded sample X_(0) = X_(n+1) = 0 turns
it into a sum over the spacings D_j = X_(j+1) - X_(j),

    q_hat(p) = sum_{j=0}^{n} D_j K_b(p - j/n),

whose interior terms are all nonnegative.  The stacks hold the sorted
samples alone: only _band_sums knows the pad, and it places the end
terms D_0 = X_(1) and D_n = -X_(n).  A small band (the grid size
times the widest kernel window up to 2^17 spacings) is gathered and
summed directly.  On a larger grid, K_b(p - j/n) is
quadratic in j inside the window, so each p needs only the window sums
of D_j and D_j (j - np)^2.  They come from a dyadic table of the moments
of 32-spacing blocks, each taken about its own start and re-centred on
np; the ragged window ends, in the block on either side of the table,
are summed directly.  A window's bottom-up walk of the table has its
ends at every level in closed form, so all windows and levels are
gathered and summed at once, with no loop over the levels.  Every table
entry adds nonnegative terms, so the result keeps float64 accuracy
(about 2e-14 relative to the literal sum at n = 10^6), where global
prefix sums of j D_j and j^2 D_j lose digits to cancellation.  The table
holds O(n/32) numbers.  Its leaves are independent, so a table over at
least 2^18 values that gets the process's worker (quantiles._pair_for)
fills half of them there; on one CPU, inside a two-sample test or while
another caller holds the worker it is built here alone, to the same bits.

The window sums and the leaf moments are fixed-order NumPy reductions
(einsum and subtraction), never BLAS calls: a BLAS dot product splits
over the BLAS threads, so its last bits, and its speed on a busy host,
would depend on the BLAS thread count.  These do not.

The variances of qcov and of the Wald tests take q_hat from one function,
_qhat_rows.  It evaluates a QdMethod on a sorted grid for a stack of
samples: the inversion, or the direct estimator with the QOR bandwidths
at the grid's normal quantiles z, which the caller passes, and sigma
fixed or fitted per sample.  An estimate at or below 1e-12 times the
sample's range (an exact plateau in the order statistics) is floored
there and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import ndtri
from .quantiles import _bracket, _check_type, _pair_for, _quantiles_sorted, _sorted_one

__all__ = [
    "QdMethod",
    "qor_lognormal",
    "fit_lognormal_sigma",
    "optimal_bandwidth",
    "qdens_kernel",
    "qdens_inversion",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NEG_LOG_2PI = -math.log(2.0 * math.pi)


# (R(K) / mu2(K)^2)^(1/5) of the Epanechnikov kernel, R(K) = 0.6 and
# mu2(K) = 0.2; 15 ** 0.2 is one ulp away from it
_BANDWIDTH_CONSTANT = (0.6 / 0.2**2) ** 0.2


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
    return float(_qor_lognormal(sigma, ndtri(_check_p(p))))


def _check_p(p) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    return p


def _qor_lognormal(sigma: float, z):
    """qor_lognormal at the probabilities whose normal quantiles are z."""
    # phi(z)^2 = exp(-z^2 - log(2 pi)), and with t = sigma + z the
    # denominator is t (t + z) + 1
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
    xs = _sorted_one(s)
    if xs.shape[1] < 2:
        raise ValueError("need at least two observations to fit sigma")
    if xs[0, -1] == xs[0, 0]:
        raise ValueError("degenerate sample")
    sigma, shift = _fit_sigma(xs)
    return float(sigma[0]), float(shift[0])


def _fit_sigma(xs: np.ndarray):
    """fit_lognormal_sigma of each row of a stack of sorted samples.

    The logs go into one buffer, which the standard deviation then
    works in.
    """
    lo, hi = xs[:, 0], xs[:, -1]
    shift = np.where(lo > 0, 0.0, -lo + (hi - lo) / xs.shape[1])
    if np.count_nonzero(shift):
        logs = np.add(xs, shift[:, None])
        np.log(logs, out=logs)
    else:
        logs = np.log(xs)
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
    b = _BANDWIDTH_CONSTANT * np.abs(qor) ** 0.4 * n ** -0.2
    return np.maximum(np.minimum(b, np.minimum(p, 1.0 - p)), 1.0 / n)


def qdens_kernel(s, p: float, b: float) -> float:
    """Direct Epanechnikov kernel estimate of q(p) at bandwidth b in (0, 1).

    A stack of one sample and a grid of one probability.
    """
    xs = _sorted_one(s)
    p = _check_p(p)
    if not 0.0 < b < 1.0:
        raise ValueError("bandwidth must lie in (0, 1)")
    return float(_qdens_grid(xs, np.array([p]), np.array([float(b)]))[0, 0])


# spacings per leaf block of the moment table
_BLOCK = 32
# largest band, in probabilities times window spacings, gathered at once
_BAND_MAX = 2 ** 17
# blocks per pass while building the table, which bounds its temporaries
_CHUNK = 4096


def _qdens_grid(xs: np.ndarray, p: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct kernel estimates of q at the probabilities p with bandwidths b.

    xs is a stack of sorted samples (_sorted_rows), one per row, without
    the zero pad, which _band_sums supplies; the result has one row of
    estimates per row of xs.  b holds one bandwidth per probability,
    shared by every row, or one row of them per row of xs; every b lies
    in (0, 1).  Shared bandwidths give every row the same windows and
    kernel weights.  The table path handles one row at a time.
    """
    n = xs.shape[1]
    c = n * p  # window centres and half-widths, in spacings
    h = n * b
    reach = h.max()  # the widest kernel window's radius
    width = int(2.0 * reach) + 2
    if p.size * width > _BAND_MAX:
        hs = np.broadcast_to(h, (xs.shape[0], p.size))
        q = np.stack([_table_sums(x, c, hx) for x, hx in zip(xs, hs)])
    else:
        lo = (c - reach).astype(np.intp)
        if width > n + 1:  # windows wider than the sample: take all of it
            lo, width = np.maximum(lo, 0), n + 1
        q = _band_sums(xs, lo, c, h, width)
    return q / b


def _band_sums(xs, lo, c, h, width: int) -> np.ndarray:
    """sum_j D_j K((j - c)/h) over j = lo .. lo + width - 1, per row and window.

    xs is a stack of sorted samples, one per row.  lo and c give one
    window per probability, the same for every row; h is one half-width
    per probability or a row of them per row of xs.  Only this code knows
    the zero pad X_(0) = X_(n+1) = 0: X_(j) is gathered from xs[j - 1]
    with the index clipped to the row, so every spacing outside 1 .. n-1
    is zero, and then D_0 = X_(1) and D_n = -X_(n), exactly the padded
    spacings, are set in the windows that hold j = 0 or j = n.  The
    window must hold every j where the Epanechnikov K is nonzero.  Rows,
    and then windows, go in chunks of at most _BAND_MAX gathered
    spacings.  Each window is summed by einsum in a fixed order, with no
    BLAS call, so the bits do not depend on the BLAS thread count.
    """
    (rows, n), d = xs.shape, lo.size
    if rows * d * width > _BAND_MAX:
        if rows > 1:
            step = max(1, _BAND_MAX // (d * width))
            return np.concatenate([_band_sums(xs[i:i + step], lo, c,
                                              h if h.ndim == 1 else h[i:i + step], width)
                                   for i in range(0, rows, step)])
        step = max(1, _BAND_MAX // width)
        if d > step:
            return np.concatenate([_band_sums(xs, lo[i:i + step], c[i:i + step],
                                              h[..., i:i + step], width)
                                   for i in range(0, d, step)], axis=1)
    i = lo[:, None] + np.arange(-1, width)  # X_(j) is xs[j - 1], j = lo .. lo + width
    x = xs.take(i, axis=1, mode="clip")
    dx = np.subtract(x[..., 1:], x[..., :-1])
    del x  # freed before the weights' buffer is made: the peak heap stays lower
    j = i[:, 1:]  # the j of each D_j in dx
    if lo.min() <= 0:  # some window holds j = 0
        np.copyto(dx, xs[:, :1, None], where=j == 0)
    if lo.max() + width > n:  # some window holds j = n
        np.copyto(dx, -xs[:, -1:, None], where=j == n)
    # the Epanechnikov weights 0.75 max(1 - u^2, 0), u = (j - c)/h, in one buffer
    w = np.empty(h.shape + (width,))
    np.subtract(j, c[:, None], out=w)
    w /= h[..., None]
    np.multiply(w, w, out=w)
    np.subtract(1.0, w, out=w)
    np.maximum(w, 0.0, out=w)
    w *= 0.75
    return np.einsum("...j,...j->...", dx, w)


def _table_sums(xs, c, h) -> np.ndarray:
    """The Epanechnikov sums of _band_sums, with full blocks from the table.

    xs is one sorted sample.  K((j - c)/h) = 0.75 (1 - (j - c)^2/h^2)
    inside the window, so the full blocks of a window contribute
    0.75 (S0 - S2/h^2) with S0 the sum of D_j and S2 the sum of
    D_j (j - c)^2.  Blocks hold only spacings inside their window, where
    that quadratic is nonnegative, and never the end terms D_0 and D_n:
    those come from _band_sums, which sums the two ragged ends of each
    window, one _BLOCK-spacing band on either side of its full blocks.
    The full blocks kl .. kr-1 are O(log n) runs of the dyadic table: a
    bottom-up walk whose ends at level l are ceil(kl / 2^l) and
    floor(kr / 2^l), counted from the table's first block.  It takes the
    run at an odd left end and the one just before an odd right end while
    the ends differ.  Every level's runs are gathered from the one table
    buffer at once and added in the walk's order, level by level, left
    run before right.
    """
    n = xs.size
    lo = np.maximum(np.ceil(c - h), 1.0).astype(np.intp)
    hi = np.minimum(np.floor(c + h), n - 1.0).astype(np.intp)
    kl = -(-lo // _BLOCK)  # first block inside the window
    kr = (hi + 1) // _BLOCK  # one past the last
    full = kr > kl
    kr = np.maximum(kr, kl)
    # the block before kl and the block from kr on hold the ragged window
    # ends and, where the window reaches them, D_0 and D_n; K is zero on
    # the rest of these two bands
    out = (_band_sums(xs[None], (kl - 1) * _BLOCK, c, h, _BLOCK)
           + _band_sums(xs[None], kr * _BLOCK, c, h, _BLOCK))[0]
    if not full.any():
        return out

    # the walk at every level at once; once its ends meet, the left end
    # stays at or past the right one at every higher level, so nothing
    # more is taken
    k0, k1 = int(kl[full].min()), int(kr[full].max())
    table, start = _moment_table(xs, k0, k1)
    level = np.arange(start.size)[:, None]
    left = -(-(kl - k0) >> level)
    right = (kr - k0) >> level
    node = np.stack([left, right - 1], axis=1)  # (levels, 2, windows)
    # the run at an odd left end and the one before an odd right end, while
    # the ends differ; taking the left run never stops the right one, since
    # that needs an odd left end and right = left + 1, which is even
    take = (np.stack([left, right], axis=1) & 1).astype(bool) & (left < right)[:, None]
    m = table.take(start[:, None, None] + node, axis=0, mode="clip")
    # each run's start minus the window centre, e, moves the second moment
    # about the run's start to the centre: m2 + 2 e m1 + e^2 m0
    e = (k0 * _BLOCK + node * (_BLOCK << level)[:, None]) - c
    m0 = m[..., 0]
    runs = np.stack([m0, m[..., 2] + e * (2.0 * m[..., 1] + e * m0)], axis=2)
    # summed in the walk's order: per level, its left run, then its right
    sums = np.add.reduce(np.where(take[:, :, None], runs, 0.0).reshape(-1, 2, c.size), axis=0)
    return out + 0.75 * (sums[0] - sums[1] / (h * h))


def _moment_table(xs, k0: int, k1: int):
    """Spacing moments of dyadic runs of the blocks k0 .. k1-1, in one buffer.

    Returns the buffer and the row where each level starts in it.  Level
    l row i holds sum D_j t^q (q = 0, 1, 2) over the 2^l blocks from block
    k0 + i 2^l on, with t the offset of spacing j from the run's start;
    level l + 1 has half as many rows as level l, rounded down.  Block k
    holds the spacings D_j = X_(j+1) - X_(j) with j in [32k, 32k + 32)
    (_BLOCK = 32), X_(j) = xs[j - 1].  The blocks hold spacings 1 .. n-1
    only (k0 >= 1), so they never reach the zero pad, which only
    _band_sums knows.  A leaf's zeroth moment telescopes to
    X_(32k + 32) - X_(32k), one rounding; the other two are einsum
    reductions.  None is a BLAS call, so the bits do not depend on the
    BLAS thread count.  The leaves are filled in chunks of _CHUNK blocks,
    each chunk on its own, so with more than one chunk and the pair for
    xs.size values each thread fills half of them; the levels above are
    added on this thread.
    """
    sizes = [k1 - k0]
    while sizes[-1] > 1:
        sizes.append(sizes[-1] // 2)
    start = np.cumsum([0] + sizes)
    table = np.empty((start[-1], 3))
    t = np.arange(_BLOCK, dtype=float)
    t2 = t * t

    def leaves(chunks, buffer):
        for a in chunks:
            z = min(a + _CHUNK, k1)
            run = xs[a * _BLOCK - 1:z * _BLOCK]
            spacings = np.subtract(run[1:], run[:-1],
                                   out=buffer[:(z - a) * _BLOCK]).reshape(-1, _BLOCK)
            rows = table[a - k0:z - k0]
            np.subtract(run[_BLOCK::_BLOCK], run[:-1:_BLOCK], out=rows[:, 0])
            np.einsum("ij,j->i", spacings, t, out=rows[:, 1])
            np.einsum("ij,j->i", spacings, t2, out=rows[:, 2])

    chunks = range(k0, k1, _CHUNK)
    size = min(_CHUNK, k1 - k0) * _BLOCK
    with _pair_for(xs.size if len(chunks) > 1 else 0) as pair:
        if pair is None:
            leaves(chunks, np.empty(size))
        else:
            # the worker's spacings buffer too is made here
            buffers = np.empty((2, size))
            half = len(chunks) // 2
            pair.run(lambda: leaves(chunks[:half], buffers[0]),
                     lambda: leaves(chunks[half:], buffers[1]))
    levels = [table[a:z] for a, z in zip(start[:-1], start[1:])]
    half = _BLOCK
    for below, level in zip(levels, levels[1:]):
        lft, rgt = below[0:2 * len(level):2], below[1:2 * len(level):2]
        np.add(lft, rgt, out=level)
        level[:, 1] += half * rgt[:, 0]
        level[:, 2] += half * (2.0 * rgt[:, 1] + half * rgt[:, 0])
        half *= 2
    return table, start[:-1]


def _inversion_grid(rows: np.ndarray, p: np.ndarray, quantile_type: int) -> np.ndarray:
    """1/f_hat(x_p) at the probabilities p for each row of a sorted stack.

    f_hat is the row's Gaussian kernel density estimate with the Silverman
    bandwidth 0.9 min(sd, IQR/1.349) n^(-1/5) from the type-8 quartiles
    (the sd alone where the IQR is 0); x_p is the row's sample quantile of
    quantile_type.  The kernel is summed over the window of the sorted
    row that _inversion_windows gives, which is the whole row unless the
    window holds less than half of it; the terms it drops change f_hat by
    less than n e^-50 relative.  Grid points where every row sums all of
    itself are summed over the whole stack at once, the others row by
    row, with the same operations, so a row gives the same bits in any
    stack.  One (rows, n) buffer holds every temporary of the sums.
    """
    u = np.empty(rows.shape)
    sd = _std_rows(rows, u)
    lower, upper = _quantiles_sorted(rows, [0.25, 0.75]).T
    scale = np.minimum(sd, (upper - lower) / 1.349)
    scale = np.where(scale > 0, scale, sd)  # many ties in the middle
    if np.count_nonzero(scale <= 0):
        raise ValueError("degenerate sample")
    n = rows.shape[1]
    h = 0.9 * scale * n ** -0.2
    xp = _quantiles_sorted(rows, p, quantile_type)
    lo, hi = _inversion_windows(rows, p, quantile_type, xp, h)
    whole = np.all(hi - lo == n, axis=0)
    sums = np.empty(xp.shape)
    for j, x in enumerate(xp.T):
        if whole[j]:
            sums[:, j] = _gauss_sums(x[:, None], rows, h[:, None], u)
        else:
            for r, (a, b) in enumerate(zip(lo[:, j], hi[:, j])):
                sums[r, j] = _gauss_sums(x[r], rows[r, a:b], h[r], u[r, :b - a])
    fhat = sums / n / (_SQRT_2PI * h[:, None])
    if np.count_nonzero((fhat <= 0.0) | ~np.isfinite(fhat)):
        raise ValueError("zero density at quantile")
    return 1.0 / fhat


# rows shorter than this sum the kernel over the whole row at every p: for
# them, finding the windows and summing row by row costs more than the
# terms a window skips
_WINDOW_MIN = 2 ** 15


def _inversion_windows(rows, p, quantile_type: int, xp, h):
    """Each row's kernel window at each of its quantiles xp, as [lo, hi).

    rows is a sorted stack, xp its quantiles of quantile_type at p (one
    row per row of rows) and h its bandwidths.  Each quantile x lies
    between two adjacent order statistics, and one of them is the nearest
    to it, at distance d.  The window of x holds every X_i with
    (x - X_i)^2 <= d^2 + 100 h^2 and the two order statistics around x,
    so the nearest one is always kept.  A term exp(-(x - X_i)^2 / 2 h^2)
    it drops is below e^-50 times the nearest one's, so the dropped terms
    sum to less than n e^-50 (2e-16 at n = 10^6) of the kept ones.  A
    window that would hold at least half its row, and every window of a
    row shorter than _WINDOW_MIN, is the whole row [0, n).  Each row's
    windows depend only on that row.

    A window reaches at least 10 h either side of its quantile x.  So
    where x -+ 10 h spans the m = ceil(n/2) order statistics about p's
    place in the row, which their two ends show, the window holds half
    the row and is the whole row.  A row where that holds at every p is
    not searched, and when it holds in every row, nothing more is done.
    """
    n = rows.shape[1]
    lo = np.zeros(xp.shape, dtype=np.intp)
    hi = np.full(xp.shape, n, dtype=np.intp)
    if n < _WINDOW_MIN:
        return lo, hi
    m = n - n // 2
    s = np.clip((n * p).astype(np.intp) - m // 2, 0, n - m)
    spread = 10.0 * h[:, None]
    covered = np.all((rows[:, s] >= xp - spread) & (rows[:, s + m - 1] <= xp + spread), axis=1)
    if covered.all():
        return lo, hi
    k = _bracket(n, p, quantile_type)[0]
    below, above = rows[:, k - 1], rows[:, k]  # the order statistics around xp
    reach = np.hypot(np.minimum(xp - below, above - xp), spread)
    # the ends never come inside the bracket, whatever the rounding of xp -+ reach
    left = np.minimum(xp - reach, below)
    right = np.maximum(xp + reach, above)
    for row, a, b, lft, rgt, skip in zip(rows, lo, hi, left, right, covered):
        if skip:
            continue
        a[:] = np.searchsorted(row, lft, "left")
        b[:] = np.searchsorted(row, rgt, "right")
    half = 2 * (hi - lo) >= n
    np.copyto(lo, 0, where=half)
    np.copyto(hi, n, where=half)
    return lo, hi


def _gauss_sums(x, values, h, out) -> np.ndarray:
    """sum exp(-u^2 / 2) with u = (x - values) / h along the last axis.

    out, of the broadcast shape, holds every temporary.
    """
    np.subtract(x, values, out=out)
    out /= h
    np.multiply(out, out, out=out)
    out *= -0.5  # exact, so this is -0.5 u u in either order
    np.exp(out, out=out)
    return np.add.reduce(out, axis=-1)


def qdens_inversion(s, p: float, quantile_type: int = 8) -> float:
    """Estimate q(p) as 1/f_hat(x_p): a grid of one.

    f_hat is a Gaussian kernel density estimate with the Silverman
    bandwidth h = 0.9 min(sd, IQR/1.349) n^(-1/5); x_p is the type-8
    sample quantile by default.  The kernel is summed over every X_i with
    (x_p - X_i)^2 <= d^2 + 100 h^2, d the distance from x_p to the nearest
    order statistic, which moves f_hat by less than n e^-50 relative;
    samples shorter than 2^15 values, and windows that would hold half
    the sample or more, sum the whole sample.
    """
    xs = _sorted_one(s)
    _check_type(quantile_type)
    p = np.array([_check_p(p)])
    if xs.shape[1] < 2:
        raise ValueError("need at least two observations")
    return float(_inversion_grid(xs, p, quantile_type)[0, 0])


def _qhat_rows(xs, grid: np.ndarray, method: QdMethod, quantile_type: int, z: np.ndarray):
    """Floored quantile-density estimates of each sample of a stack.

    xs is a stack of sorted samples, one per row; grid is sorted and
    unique, and z holds the standard normal quantiles at grid.  Returns
    the estimates at grid (one row per sample), a mask of the floored
    estimates, the bandwidths at grid and the lognormal sigma and shift,
    each None where the method has none.
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
        ps, zs = (grid[0], z[0]) if one else (grid, z)
        b = np.atleast_1d(_bandwidths(_qor_lognormal(row_sigma, zs), ps, xs.shape[1]))
        qhat = _qdens_grid(xs, grid, b)

    # a genuine quantile density is on the order of the data range; this
    # threshold only catches estimates that are zero or negative up to
    # floating-point noise (e.g. exact plateaus in the order statistics)
    eps = (1e-12 * (hi - lo))[:, None]
    floored = qhat <= eps
    return np.maximum(qhat, eps), floored, b, sigma, shift

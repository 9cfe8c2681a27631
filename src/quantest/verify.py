"""Monte Carlo and bootstrap checks of the inference machinery.

coverage_sim measures empirical confidence-interval coverage against the
true population value of a measure, computed from closed-form population
quantile functions (or, for the inequality indices, a fixed composite
Gauss-Legendre rule on dyadic panels, within 1e-15 relative of 30-digit
values).
bootstrap_se is an independent route to a standard error, used as an
oracle for the delta-method SEs.

Replicate RNG streams are spawned from a single seed (numpy PCG64 via
SeedSequence.spawn), so results are reproducible and independent of
evaluation order.  coverage_sim draws each replicate from its own stream
as a replicate-by-replicate loop would, stacks the draws in chunks of
replicates, sorts each chunk once and computes every replicate's interval
with the same estimator core that q_test_one and qineq_test run on a
stack of one sample; no covariance matrix is built.  bootstrap_se draws
its resamples in blocks of about 2^20 indices and holds each resample as
integer ranks into the sample's sort.  It orders the ranks only as far as
the estimator reads them: a small grid's order statistics are selected
into their sorted place by partitions, a large grid sorts every resample.
It gathers only those order statistics and keeps only the B estimates.
Memory in both is therefore bounded by the chunk or block, not by reps
or B.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._normal import ndtri
from .inequality import InequalitySpec
from .inference import TestOptions, _interval, _working_stats
from .qdensity import _BAND_MAX, QdMethod
from .quantiles import _padded_rows, as_sample

__all__ = [
    "Distribution",
    "SimConfig",
    "population_measure_value",
    "coverage_sim",
    "bootstrap_se",
    "RNG_DESCRIPTION",
]

RNG_DESCRIPTION = "numpy PCG64, per-replicate SeedSequence.spawn streams"

# resampled indices that bootstrap_se draws, ranks and orders at a time
_BOOT_BLOCK = 2**20

# composite Gauss-Legendre rule for the inequality indices' population values
_GL_POINTS = 20
_GL_PANELS = 61

_DEFAULT_PARAMS = {
    "normal": (0.0, 1.0),
    "lognormal": (0.0, 1.0),
    "uniform": (0.0, 1.0),
    "exponential": (1.0,),
}


@dataclass(frozen=True)
class Distribution:
    """Sampling distribution with a closed-form quantile function."""

    name: str
    params: tuple = ()

    def __post_init__(self):
        if self.name not in _DEFAULT_PARAMS:
            raise ValueError(f"unknown distribution {self.name!r}; "
                             f"choose from {sorted(_DEFAULT_PARAMS)}")
        want = len(_DEFAULT_PARAMS[self.name])
        params = tuple(float(v) for v in self.params) or _DEFAULT_PARAMS[self.name]
        if len(params) != want:
            raise ValueError(f"{self.name} takes {want} parameter(s)")
        object.__setattr__(self, "params", params)
        if self.name in ("normal", "lognormal") and params[1] <= 0:
            raise ValueError("scale parameter must be positive")
        if self.name == "uniform" and params[1] <= params[0]:
            raise ValueError("uniform needs a < b")
        if self.name == "exponential" and params[0] <= 0:
            raise ValueError("rate must be positive")

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if self.name == "normal":
            mu, sd = self.params
            return mu + sd * ndtri(p)
        if self.name == "lognormal":
            mu, sd = self.params
            return np.exp(mu + sd * ndtri(p))
        if self.name == "uniform":
            a, b = self.params
            return a + (b - a) * p
        lam, = self.params
        return -np.log1p(-p) / lam

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.name == "normal":
            return rng.normal(self.params[0], self.params[1], n)
        if self.name == "lognormal":
            return rng.lognormal(self.params[0], self.params[1], n)
        if self.name == "uniform":
            return rng.uniform(self.params[0], self.params[1], n)
        return rng.exponential(1.0 / self.params[0], n)


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one coverage study.

    log_ratio switches ratio measures to the log-scale interval with
    back-transformation (the recommended reporting practice for ratios;
    slightly more conservative).  The default False verifies the interval
    the package constructs with default options.  var_method is the
    quantile-density method of every replicate's variance.
    """

    distribution: Distribution
    n: int
    reps: int
    measure: object  # MeasureSpec or InequalitySpec
    level: float = 0.95
    seed: int = 0
    log_ratio: bool = False
    var_method: QdMethod = field(default_factory=QdMethod)

    def __post_init__(self):
        if self.reps < 100:
            raise ValueError("need at least 100 replications")
        if self.n < 2:
            raise ValueError("need n of at least 2")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")


@functools.cache
def _gauss_legendre_panels():
    """Nodes and weights of the composite rule on (0, 1), built once, read-only."""
    x, w = np.polynomial.legendre.leggauss(_GL_POINTS)
    edges = np.concatenate(([0.0], np.exp2(np.arange(-_GL_PANELS + 1, 1.0))))
    half = np.diff(edges)[:, None] / 2.0
    p = (edges[:-1, None] + half * (x + 1.0)).ravel()
    weights = (half * w).ravel()
    p.setflags(write=False)
    weights.setflags(write=False)
    return p, weights


def population_measure_value(dist: Distribution, measure) -> float:
    """True value of a measure under the distribution.

    Quantile measures plug the population quantile function into their
    combinations.  Inequality indices integrate the symmetric quantile
    ratio over (0, 1) with 20-point Gauss-Legendre rules on the 61 panels
    between 0, 2^-60, 2^-59, ..., 1/2 and 1: the panels shrink toward 0,
    where the ratio is not smooth.  Against 30-digit values this is within
    1e-15 relative for QRI and G2 under lognormal (sigma 0.25 to 3),
    exponential and uniform distributions.
    """
    _check_spec(measure)
    if isinstance(measure, InequalitySpec):
        if float(dist.quantile(1e-12)) <= 0.0:
            raise ValueError(f"{measure.kind} requires a positive-support distribution")

        p, weights = _gauss_legendre_panels()
        # at the smallest nodes 1 - p/2 rounds to 1, the upper quantile is
        # infinite and the ratio is 0, its limit
        with np.errstate(divide="ignore", over="ignore"):
            terms = 1.0 - dist.quantile(p / 2.0) / dist.quantile(1.0 - p / 2.0)
        if measure.kind == "G2":
            terms = 2.0 * p * terms
        return float(terms @ weights)
    num = float(np.dot(measure.coef, dist.quantile(np.asarray(measure.u))))
    if not measure.is_ratio:
        return num
    den = float(np.dot(measure.coef2, dist.quantile(np.asarray(measure.u2))))
    if den == 0.0:
        raise ValueError(f"the population denominator of the measure is zero under "
                         f"the {dist.name} distribution")
    return num / den


def _check_spec(measure) -> None:
    """A TypeError for anything without a spec's _estimate."""
    if not hasattr(measure, "_estimate"):
        raise TypeError("measure must be a MeasureSpec or InequalitySpec")


def _replicate_intervals(cfg: SimConfig):
    """The study's interval function.

    The function takes a stack of samples, one per row, and returns the
    lower and upper bounds of the interval that q_test_one builds for each.
    """
    use_log = cfg.log_ratio and cfg.measure.is_ratio
    opts = TestOptions(conf_level=cfg.level, log_transf=use_log, back_transf=use_log,
                       var_method=cfg.var_method)

    def intervals(values):
        est, var, _ = _working_stats(_padded_rows(values), cfg.measure, opts)
        return _interval(est, var, opts)[2:]
    return intervals


def coverage_sim(cfg: SimConfig):
    """Empirical coverage of the measure's confidence interval.

    Returns (coverage, avg_width, mc_se) where mc_se is the binomial
    Monte Carlo standard error sqrt(c(1-c)/reps).  Each replicate is drawn
    from its own stream.  The replicates go through the estimators in
    chunks, each sorted once as a stack of rows; a chunk holds about
    _BAND_MAX numbers, counting each replicate's sample and its d
    quantile-density estimates.  A replicate on which q_test_one or
    qineq_test would raise makes the study raise the same error, that of
    the first such replicate.
    """
    true_val = population_measure_value(cfg.distribution, cfg.measure)
    intervals = _replicate_intervals(cfg)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.reps)
    step = max(1, _BAND_MAX // (cfg.n + cfg.measure._grid.size))
    covered = 0
    widths = np.empty(cfg.reps)
    for start in range(0, cfg.reps, step):
        values = np.stack([cfg.distribution.sample(np.random.default_rng(stream), cfg.n)
                           for stream in streams[start:start + step]])
        try:
            lo, hi = intervals(values)
        except ValueError:
            # raise the error of the chunk's first failing replicate
            for i in range(len(values)):
                intervals(values[i:i + 1])
            raise
        covered += int(np.count_nonzero((lo <= true_val) & (true_val <= hi)))
        widths[start:start + len(values)] = hi - lo
    coverage = covered / cfg.reps
    mc_se = math.sqrt(coverage * (1.0 - coverage) / cfg.reps)
    return coverage, float(np.mean(widths)), mc_se


def _select_pays(n: int, m: int) -> bool:
    """Whether m one-kth partitions of rows of n ranks cost less than a sort.

    Set from the time per block of 2^20 indices on a 2-vCPU Xeon with
    AVX-512 and NumPy 2.4.  Selecting the columns of d grid probabilities
    (k - 1, then k, as _quantiles_sorted reads them) beat sorting for
    d = 1 from n = 1000, for d up to four or five at n = 10^4, seven at
    3*10^4 and about ten from 10^5 to 10^6, where the limit stops
    growing.  The rule stays at or below those counts.
    """
    return m <= min(math.isqrt(n) // 30, 10)


class _RankRows:
    """Resamples held as ranks into the sorted sample, ordered on demand.

    Each row of ranks is one resample, unsorted.  Indexing with a key
    (..., index) gathers the order statistics that index names along the
    last axis.  Each named column not yet in its sorted place is put there
    first, by one one-kth partition of the stretch between the nearest
    columns already placed; when _select_pays says that costs more, every
    row is sorted instead.  sorted_values[rank] is monotone in the rank,
    so the values gathered equal those from sorting the resampled values.
    """

    def __init__(self, sorted_values: np.ndarray, ranks: np.ndarray):
        self.shape = ranks.shape
        self._sorted = sorted_values
        self._ranks = ranks
        # the columns in their sorted place between two sentinels, or None
        # once every row is sorted
        self._placed = [-1, ranks.shape[-1]]

    def __getitem__(self, key):
        cols = key[-1]
        if isinstance(cols, slice):
            cols = np.arange(*cols.indices(self.shape[-1]))
        if self._placed is not None:
            self._place(np.ravel(cols).tolist())
        return self._sorted.take(self._ranks.take(cols, axis=-1))

    def _place(self, cols: list) -> None:
        new = sorted(set(cols).difference(self._placed))
        if not _select_pays(self.shape[-1], len(new)):
            self._ranks.sort(axis=-1)
            self._placed = None
            return
        for c in new:
            i = bisect.bisect(self._placed, c)
            lo, hi = self._placed[i - 1] + 1, self._placed[i]
            # one kth per call: with several, NumPy leaves its SIMD path
            self._ranks[..., lo:hi].partition(c - lo, axis=-1)
            self._placed.insert(i, c)


def bootstrap_se(s, measure, B: int = 2000, seed: int = 0) -> float:
    """Standard deviation of B nonparametric-resample estimates.

    The estimates are those of estimate_measure for a MeasureSpec and of
    qri_estimate/g2_estimate for an InequalitySpec, with quantile type 8.
    Resamples failing to produce an estimate (zero denominator, or
    nonpositive values for an inequality index) are dropped; more than 5%
    failures is an error.

    The resamples are drawn in blocks of about _BOOT_BLOCK indices, in the
    generator's order, and only their estimates are kept.  Each resample
    is held as ranks into the sample's sort (int16 up to 2^15 values,
    else int32), unsorted.  The estimators gather only the order
    statistics they read, and only those are put in their sorted place:
    selected by one-kth partitions for a grid of a few probabilities, or
    by sorting every resample for a larger grid or a small sample (see
    _RankRows).  sorted[rank] is monotone in the rank, so the estimates
    equal those from sorting the resampled values.
    """
    s = as_sample(s)
    if B < 500:
        raise ValueError("need at least 500 bootstrap resamples")
    _check_spec(measure)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rank = np.empty(s.n, dtype=np.int16 if s.n <= 2**15 else np.int32)
    rank[np.argsort(s.values, kind="stable")] = np.arange(s.n)
    est = np.empty(B)
    step = max(1, _BOOT_BLOCK // s.n)
    for start in range(0, B, step):
        ranks = rank.take(rng.integers(0, s.n, size=(min(step, B - start), s.n)))
        rows = _RankRows(s.sorted, ranks)
        est[start:start + len(ranks)] = measure._estimate(rows, 8, gradient=False)[0]
    ok = np.isfinite(est)
    if (B - int(ok.sum())) > 0.05 * B:
        raise ValueError("estimator failed on more than 5% of bootstrap resamples")
    return float(np.std(est[ok], ddof=1))


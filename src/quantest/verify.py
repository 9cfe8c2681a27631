"""Monte Carlo and bootstrap checks of the inference machinery.

coverage_sim measures empirical confidence-interval coverage against the
true population value of a measure, computed from closed-form population
quantile functions (or quadrature for the inequality indices).
bootstrap_se is an independent route to a standard error, used as an
oracle for the delta-method SEs.

Replicate RNG streams are spawned from a single seed (numpy PCG64 via
SeedSequence.spawn), so results are reproducible and independent of
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtri

from .inequality import InequalitySpec, g2_estimate, qineq_test, qri_estimate
from .inference import TestOptions, q_test_one
from .measures import MeasureSpec
from .quantiles import _quantiles_sorted, as_sample

__all__ = [
    "Distribution",
    "SimConfig",
    "population_quantile",
    "population_measure_value",
    "coverage_sim",
    "bootstrap_se",
    "gini_coefficient",
    "RNG_DESCRIPTION",
]

RNG_DESCRIPTION = "numpy PCG64, per-replicate SeedSequence.spawn streams"

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
    the package constructs with default options.
    """

    distribution: Distribution
    n: int
    reps: int
    measure: object  # MeasureSpec or InequalitySpec
    level: float = 0.95
    seed: int = 0
    log_ratio: bool = False

    def __post_init__(self):
        if self.reps < 100:
            raise ValueError("need at least 100 replications")
        if self.n < 2:
            raise ValueError("need n of at least 2")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")


def population_quantile(dist: Distribution, p):
    """Population quantile function of the named distribution."""
    return dist.quantile(p)


def population_measure_value(dist: Distribution, measure) -> float:
    """True value of a measure under the distribution.

    Quantile measures plug the population quantile function into their
    combinations; inequality indices integrate the symmetric quantile
    ratio by adaptive quadrature.
    """
    if isinstance(measure, MeasureSpec):
        num = float(np.dot(measure.coef, dist.quantile(np.asarray(measure.u))))
        if not measure.is_ratio:
            return num
        den = float(np.dot(measure.coef2, dist.quantile(np.asarray(measure.u2))))
        if den == 0.0:
            raise ValueError(f"the population denominator of the measure is zero under "
                             f"the {dist.name} distribution")
        return num / den
    if isinstance(measure, InequalitySpec):
        if float(dist.quantile(1e-12)) <= 0.0:
            raise ValueError(f"{measure.kind} requires a positive-support distribution")

        def ratio(p):
            return dist.quantile(p / 2.0) / dist.quantile(1.0 - p / 2.0)

        if measure.kind == "QRI":
            val, _ = quad(lambda p: 1.0 - ratio(p), 0.0, 1.0, limit=200)
        else:
            val, _ = quad(lambda p: 2.0 * p * (1.0 - ratio(p)), 0.0, 1.0, limit=200)
        return float(val)
    raise TypeError("measure must be a MeasureSpec or InequalitySpec")


def _interval_for(measure, data, level: float, log_ratio: bool = False):
    if isinstance(measure, MeasureSpec):
        use_log = log_ratio and measure.is_ratio
        opts = TestOptions(conf_level=level, log_transf=use_log,
                           back_transf=use_log)
        return q_test_one(data, measure, opts).conf_int
    spec = measure
    if spec.conf_level != level:
        spec = InequalitySpec(kind=spec.kind, J=spec.J, true_ineq=spec.true_ineq,
                              alternative=spec.alternative, conf_level=level,
                              quantile_type=spec.quantile_type,
                              var_method=spec.var_method)
    return qineq_test(data, spec=spec).conf_int


def coverage_sim(cfg: SimConfig):
    """Empirical coverage of the measure's confidence interval.

    Returns (coverage, avg_width, mc_se) where mc_se is the binomial
    Monte Carlo standard error sqrt(c(1-c)/reps).
    """
    true_val = population_measure_value(cfg.distribution, cfg.measure)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.reps)
    covered = 0
    widths = np.empty(cfg.reps)
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        data = cfg.distribution.sample(rng, cfg.n)
        lo, hi = _interval_for(cfg.measure, data, cfg.level, cfg.log_ratio)
        covered += int(lo <= true_val <= hi)
        widths[i] = hi - lo
    coverage = covered / cfg.reps
    mc_se = math.sqrt(coverage * (1.0 - coverage) / cfg.reps)
    return coverage, float(np.mean(widths)), mc_se


def _batch_measure(sorted_rows: np.ndarray, measure: MeasureSpec, quantile_type: int):
    """Measure estimates for a batch of sorted resamples; NaN marks failures."""
    num = _quantiles_sorted(sorted_rows, np.asarray(measure.u), quantile_type) @ np.asarray(measure.coef)
    if not measure.is_ratio:
        return num
    den = _quantiles_sorted(sorted_rows, np.asarray(measure.u2), quantile_type) @ np.asarray(measure.coef2)
    out = np.full(num.shape, np.nan)
    ok = den != 0.0
    out[ok] = num[ok] / den[ok]
    return out


def _batch_inequality(sorted_rows: np.ndarray, spec: InequalitySpec):
    p = (np.arange(1, spec.J + 1) - 0.5) / spec.J
    lower = _quantiles_sorted(sorted_rows, p / 2.0, spec.quantile_type)
    upper = _quantiles_sorted(sorted_rows, 1.0 - p / 2.0, spec.quantile_type)
    terms = 1.0 - lower / upper
    if spec.kind == "QRI":
        est = terms.mean(axis=-1)
    else:
        est = (2.0 * p * terms).sum(axis=-1) / spec.J
    est = np.where(sorted_rows[..., 0] > 0.0, est, np.nan)
    return est


def bootstrap_se(s, measure, B: int = 2000, seed: int = 0) -> float:
    """Standard deviation of B nonparametric-resample estimates.

    Resamples failing to produce an estimate (zero denominator, or
    nonpositive values for an inequality index) are dropped; more than 5%
    failures is an error.
    """
    s = as_sample(s)
    if B < 500:
        raise ValueError("need at least 500 bootstrap resamples")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = rng.integers(0, s.n, size=(B, s.n))
    rows = np.sort(s.values[idx], axis=1)
    if isinstance(measure, MeasureSpec):
        est = _batch_measure(rows, measure, 8)
    elif isinstance(measure, InequalitySpec):
        est = _batch_inequality(rows, measure)
    else:
        raise TypeError("measure must be a MeasureSpec or InequalitySpec")
    ok = np.isfinite(est)
    if (B - int(ok.sum())) > 0.05 * B:
        raise ValueError("estimator failed on more than 5% of bootstrap resamples")
    return float(np.std(est[ok], ddof=1))


def gini_coefficient(x) -> float:
    """Plain sample Gini index (convenience for comparison narratives)."""
    s = as_sample(x)
    if s.min() < 0:
        raise ValueError("Gini requires nonnegative data")
    total = float(s.values.sum())
    if total == 0.0:
        raise ValueError("Gini undefined for all-zero data")
    i = np.arange(1, s.n + 1)
    return float(2.0 * np.dot(i, s.sorted) / (s.n * total) - (s.n + 1.0) / s.n)

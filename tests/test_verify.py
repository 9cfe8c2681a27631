"""Monte Carlo verification harness: distributions, coverage, bootstrap."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from quantest.inequality import InequalitySpec
from quantest.measures import MeasureSpec, resolve_measure
from quantest.inference import q_test_one
from quantest.verify import (
    Distribution,
    RNG_DESCRIPTION,
    SimConfig,
    bootstrap_se,
    coverage_sim,
    gini_coefficient,
    population_measure_value,
    population_quantile,
)

Z75 = ndtri(0.75)


# ---------------------------------------------------------------------------
# Distribution


def test_distribution_quantiles_closed_forms():
    assert Distribution("normal").quantile(0.5) == 0.0
    assert Distribution("normal", (2.0, 3.0)).quantile(0.975) == pytest.approx(
        2.0 + 3.0 * 1.959963984540054, rel=1e-12)
    assert Distribution("lognormal").quantile(0.5) == pytest.approx(1.0, rel=1e-15)
    assert Distribution("uniform", (2.0, 5.0)).quantile(0.5) == 3.5
    assert Distribution("uniform", (2.0, 5.0)).quantile(0.0) == 2.0
    assert Distribution("uniform", (2.0, 5.0)).quantile(1.0) == 5.0
    assert Distribution("exponential", (2.0,)).quantile(0.5) == pytest.approx(
        math.log(2.0) / 2.0, rel=1e-12)


def test_distribution_defaults():
    assert Distribution("normal").params == (0.0, 1.0)
    assert Distribution("lognormal").params == (0.0, 1.0)
    assert Distribution("uniform").params == (0.0, 1.0)
    assert Distribution("exponential").params == (1.0,)


def test_distribution_validation():
    with pytest.raises(ValueError, match="unknown distribution"):
        Distribution("cauchy")
    with pytest.raises(ValueError, match="parameter"):
        Distribution("normal", (1.0,))
    with pytest.raises(ValueError, match="scale"):
        Distribution("normal", (0.0, -1.0))
    with pytest.raises(ValueError, match="a < b"):
        Distribution("uniform", (3.0, 3.0))
    with pytest.raises(ValueError, match="rate"):
        Distribution("exponential", (0.0,))


def test_distribution_sampling_matches_quantiles():
    rng = np.random.default_rng(17)
    for dist in (Distribution("normal", (1.0, 2.0)),
                 Distribution("lognormal"),
                 Distribution("uniform", (-1.0, 4.0)),
                 Distribution("exponential", (0.5,))):
        x = dist.sample(rng, 40_000)
        emp = np.quantile(x, [0.25, 0.5, 0.75])
        pop = dist.quantile(np.array([0.25, 0.5, 0.75]))
        np.testing.assert_allclose(emp, pop, atol=4.0 * np.std(x) / math.sqrt(len(x)) * 3 + 0.02)


def test_uniform_samples_stay_in_range():
    rng = np.random.default_rng(18)
    x = Distribution("uniform", (2.0, 5.0)).sample(rng, 1000)
    assert x.min() >= 2.0 and x.max() <= 5.0


# ---------------------------------------------------------------------------
# population measure values


def test_population_median_of_normal_is_zero():
    assert population_measure_value(Distribution("normal"),
                                    resolve_measure("median")) == 0.0


def test_population_iqr_of_lognormal():
    want = math.exp(Z75) - math.exp(-Z75)
    got = population_measure_value(Distribution("lognormal"),
                                   resolve_measure("iqr"))
    assert got == pytest.approx(want, rel=1e-12)


def test_population_ratio_measure():
    want = 0.75 * (math.exp(Z75) - math.exp(-Z75))  # median is 1
    got = population_measure_value(Distribution("lognormal"),
                                   resolve_measure("rCViqr"))
    assert got == pytest.approx(want, rel=1e-12)


def test_population_ratio_with_zero_denominator_is_a_value_error():
    # the normal median is 0, the denominator of the robust CV
    with pytest.raises(ValueError, match="denominator .* zero"):
        population_measure_value(Distribution("normal"), resolve_measure("rCViqr"))


def test_population_inequality_matches_closed_form():
    want = 1.0 - 2.0 * math.e**2 * float(ndtr(-2.0))
    got = population_measure_value(Distribution("lognormal"), InequalitySpec())
    assert got == pytest.approx(want, rel=1e-8)


def test_population_inequality_needs_positive_support():
    with pytest.raises(ValueError, match="positive-support"):
        population_measure_value(Distribution("normal"), InequalitySpec())


def test_population_measure_type_error():
    with pytest.raises(TypeError):
        population_measure_value(Distribution("normal"), "median")


def test_population_quantile_passthrough():
    d = Distribution("uniform", (0.0, 10.0))
    assert population_quantile(d, 0.3) == pytest.approx(3.0, rel=1e-15)


# ---------------------------------------------------------------------------
# coverage simulation


def test_sim_config_validation():
    d = Distribution("normal")
    m = resolve_measure("median")
    with pytest.raises(ValueError, match="100 replications"):
        SimConfig(d, n=100, reps=50, measure=m)
    with pytest.raises(ValueError, match="n of at least 2"):
        SimConfig(d, n=1, reps=100, measure=m)
    with pytest.raises(ValueError, match="level"):
        SimConfig(d, n=100, reps=100, measure=m, level=0.0)


def test_coverage_at_level_half_is_about_half():
    cfg = SimConfig(Distribution("normal"), n=100, reps=400,
                    measure=resolve_measure("median"), level=0.5, seed=11)
    coverage, width, mc_se = coverage_sim(cfg)
    assert mc_se == pytest.approx(math.sqrt(coverage * (1 - coverage) / 400),
                                  rel=1e-12)
    assert abs(coverage - 0.5) <= 3.0 * mc_se
    assert width > 0.0


def test_coverage_is_deterministic_for_a_seed():
    cfg = SimConfig(Distribution("lognormal"), n=60, reps=120,
                    measure=resolve_measure("iqr"), seed=3)
    assert coverage_sim(cfg) == coverage_sim(cfg)


def test_coverage_ratio_measure_default_and_log_scale():
    base = SimConfig(Distribution("lognormal"), n=100, reps=100,
                     measure=resolve_measure("rCViqr"), seed=5)
    coverage, width, _ = coverage_sim(base)
    assert 0.85 <= coverage <= 1.0
    assert width > 0.0
    logged = SimConfig(Distribution("lognormal"), n=100, reps=100,
                       measure=resolve_measure("rCViqr"), seed=5,
                       log_ratio=True)
    cov_log, width_log, _ = coverage_sim(logged)
    assert 0.85 <= cov_log <= 1.0
    # the log-scale interval is asymmetric, so the two runs must differ
    assert width_log != width


def test_coverage_inequality_index_runs():
    cfg = SimConfig(Distribution("lognormal"), n=300, reps=100,
                    measure=InequalitySpec(), seed=8)
    coverage, _, _ = coverage_sim(cfg)
    assert 0.8 <= coverage <= 1.0


def test_rng_description_names_the_generator():
    assert "PCG64" in RNG_DESCRIPTION


# ---------------------------------------------------------------------------
# bootstrap oracle


def test_bootstrap_requires_enough_resamples():
    with pytest.raises(ValueError, match="at least 500"):
        bootstrap_se(np.arange(1.0, 50.0), resolve_measure("median"), B=100)


def test_bootstrap_fails_cleanly_on_degenerate_denominator():
    x = np.full(40, 2.5)
    with pytest.raises(ValueError, match="more than 5%"):
        bootstrap_se(x, resolve_measure("bowley"), B=600, seed=1)


def test_bootstrap_fails_cleanly_on_invalid_inequality_rows():
    rng = np.random.default_rng(404)
    x = np.concatenate([rng.lognormal(size=49), [-1.0]])
    with pytest.raises(ValueError, match="more than 5%"):
        bootstrap_se(x, InequalitySpec(), B=600, seed=1)


def test_bootstrap_type_error():
    with pytest.raises(TypeError):
        bootstrap_se(np.arange(1.0, 50.0), "median", B=600)


def test_bootstrap_is_deterministic():
    rng = np.random.default_rng(9)
    x = rng.lognormal(size=120)
    m = resolve_measure("iqr")
    assert bootstrap_se(x, m, B=800, seed=4) == bootstrap_se(x, m, B=800, seed=4)


def test_bootstrap_agrees_with_delta_method_se():
    rng = np.random.default_rng(404)
    x = rng.lognormal(size=200)
    delta = q_test_one(x, resolve_measure("median")).se
    boot = bootstrap_se(x, resolve_measure("median"), B=2000, seed=0)
    assert abs(boot / delta - 1.0) < 0.30


def test_bootstrap_inequality_se_positive():
    rng = np.random.default_rng(12)
    x = rng.lognormal(size=150)
    se = bootstrap_se(x, InequalitySpec(kind="G2"), B=600, seed=2)
    assert 0.0 < se < 0.5


# ---------------------------------------------------------------------------
# Gini


def test_gini_small_example():
    assert gini_coefficient([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 9.0, rel=1e-12)


def test_gini_constant_is_zero():
    assert gini_coefficient(np.full(25, 7.0)) == pytest.approx(0.0, abs=1e-15)


def test_gini_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        gini_coefficient([-1.0, 2.0])
    with pytest.raises(ValueError, match="all-zero"):
        gini_coefficient(np.zeros(10))


def test_gini_lognormal_population_value():
    rng = np.random.default_rng(15)
    x = rng.lognormal(size=10_000)
    want = 2.0 * float(ndtr(1.0 / math.sqrt(2.0))) - 1.0
    assert gini_coefficient(x) == pytest.approx(want, abs=0.02)

"""Monte Carlo verification harness: distributions, coverage, bootstrap."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import quantest.verify as verify
from quantest.inference import TestOptions, q_test_one
from quantest.measures import InequalitySpec, MeasureSpec, resolve_measure
from quantest.qdensity import QdMethod
from quantest.quantiles import _quantiles_sorted
from quantest.verify import (
    Distribution,
    RNG_DESCRIPTION,
    SimConfig,
    bootstrap_se,
    coverage_sim,
    population_measure_value,
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
    assert Distribution("uniform", (0.0, 10.0)).quantile(0.3) == pytest.approx(3.0, rel=1e-15)
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


@pytest.mark.parametrize("name, params", [
    ("normal", (math.nan, 1.0)), ("normal", (0.0, math.inf)),
    ("lognormal", (-math.inf, 1.0)), ("uniform", (0.0, math.nan)),
    ("exponential", (math.inf,)),
])
def test_distribution_rejects_nonfinite_parameters(name, params):
    with pytest.raises(ValueError, match="must be finite"):
        Distribution(name, params)


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


def random_combination(rng):
    """Probabilities, with repeats, and coefficients of a random combination."""
    u = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=rng.integers(1, 7))
    return tuple(u), tuple(rng.normal(size=u.size) * 10.0 ** rng.integers(-3, 4))


def fsum_combination(dist, u, coef):
    """b' Q(u) summed exactly by math.fsum, with the sum of |b_i Q(u_i)|."""
    terms = [c * float(dist.quantile(p)) for p, c in zip(u, coef)]
    return math.fsum(terms), math.fsum(map(abs, terms))


@pytest.mark.parametrize("name", ["normal", "lognormal", "uniform", "exponential"])
def test_population_value_matches_an_fsum_oracle(name):
    dist = Distribution(name)
    rng = np.random.default_rng(24)
    eps = np.finfo(float).eps
    ratios = 0
    for _ in range(200):
        u, coef = random_combination(rng)
        num, num_abs = fsum_combination(dist, u, coef)
        if rng.random() < 0.5:
            got = population_measure_value(dist, MeasureSpec(u=u, coef=coef))
            assert abs(got - num) <= 4 * eps * num_abs, (u, coef)
            continue
        u2, coef2 = random_combination(rng)
        den, den_abs = fsum_combination(dist, u2, coef2)
        if abs(den) <= 0.1 * den_abs:  # a denominator that is or nearly is zero
            continue
        ratios += 1
        got = population_measure_value(dist, MeasureSpec(u=u, coef=coef, u2=u2, coef2=coef2))
        want = num / den
        tol = eps * abs(want) + 4 * eps * (num_abs + abs(want) * den_abs) / abs(den)
        assert abs(got - want) <= tol, (u, coef, u2, coef2)
    assert ratios > 50


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
    for measure in (m, resolve_measure("iqr"), InequalitySpec("QRI"), InequalitySpec("G2")):
        with pytest.raises(ValueError, match="log_ratio applies only to ratio measures"):
            SimConfig(d, n=100, reps=100, measure=measure, log_ratio=True)
    # a measure without _estimate is a TypeError, with log_ratio or without
    with pytest.raises(TypeError, match="MeasureSpec or InequalitySpec"):
        SimConfig(d, n=100, reps=100, measure="rCViqr", log_ratio=True)
    with pytest.raises(TypeError, match="MeasureSpec or InequalitySpec"):
        coverage_sim(SimConfig(d, n=100, reps=100, measure="rCViqr"))


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


@pytest.mark.parametrize("x, message", [
    ([], "empty sample"), ([1.0, 2.0, math.nan], "non-finite"),
    ([1.0, math.inf, 2.0], "non-finite"), ([-math.inf, 1.0, 2.0], "non-finite"),
    ([math.nan, 1.0, 2.0], "non-finite"), ([1.0, 2.0, -math.inf], "non-finite"),
    ([math.nan], "non-finite"),
])
def test_bootstrap_rejects_empty_and_nonfinite_data(x, message):
    with pytest.raises(ValueError, match=message):
        bootstrap_se(x, resolve_measure("median"), B=500)


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
# batched coverage against the replicate-by-replicate loop


def loop_interval(cfg, data):
    use_log = cfg.log_ratio and cfg.measure.is_ratio
    opts = TestOptions(conf_level=cfg.level, log_transf=use_log, back_transf=use_log,
                       var_method=cfg.var_method)
    return q_test_one(data, cfg.measure, opts).conf_int


def loop_coverage(cfg):
    """The study one replicate at a time through the public tests: the oracle."""
    true_val = population_measure_value(cfg.distribution, cfg.measure)
    covered, widths = 0, []
    for stream in np.random.SeedSequence(cfg.seed).spawn(cfg.reps):
        data = cfg.distribution.sample(np.random.default_rng(stream), cfg.n)
        lo, hi = loop_interval(cfg, data)
        covered += int(lo <= true_val <= hi)
        widths.append(hi - lo)
    return covered, float(np.mean(widths))


def chunk_size(cfg):
    if isinstance(cfg.measure, InequalitySpec):
        d = 2 * cfg.measure.J
    else:
        d = len(set(cfg.measure.u) | set(cfg.measure.u2 or ()))
    return max(1, verify._BAND_MAX // (cfg.n + d))


D = Distribution
QRI25, G2_25 = InequalitySpec("QRI", 25), InequalitySpec("G2", 25)
ORACLE_CASES = [
    # (distribution, n, reps, measure, level, log_ratio[, var_method])
    (D("normal"), 60, 100, resolve_measure("median"), 0.95, False),
    (D("normal", (1.0, 2.0)), 2500, 120, resolve_measure("median"), 0.5, False),
    (D("uniform"), 40, 100, resolve_measure("iqr"), 0.5, False),
    (D("exponential", (2.0,)), 80, 100, resolve_measure("iqr"), 0.95, False),
    (D("lognormal"), 100, 100, resolve_measure("rCViqr"), 0.95, False),
    (D("lognormal"), 100, 100, resolve_measure("rCViqr"), 0.95, True),
    (D("exponential"), 50, 110, resolve_measure("rCViqr"), 0.5, True),
    (D("uniform", (1.0, 3.0)), 70, 100, resolve_measure("rCViqr"), 0.95, False),
    (D("normal"), 90, 100, resolve_measure("bowley"), 0.95, False),
    (D("exponential"), 90, 100, resolve_measure("qr9010"), 0.5, True),
    (D("uniform"), 120, 100, resolve_measure("moors"), 0.95, False),
    (D("lognormal", (0.5, 0.7)), 120, 100, resolve_measure("moors"), 0.95, True),
    (D("lognormal"), 200, 100, QRI25, 0.95, False),
    (D("exponential"), 150, 101, G2_25, 0.5, False),
    (D("uniform", (0.5, 2.0)), 120, 100, InequalitySpec("QRI", 100), 0.95, False),
    (D("lognormal", (0.0, 0.5)), 300, 100, InequalitySpec("G2", 100), 0.5, False),
    (D("lognormal"), 150, 100, QRI25, 0.95, False, QdMethod(sigma=None)),
    # large enough for the Epanechnikov table path, one row at a time
    (D("lognormal"), 20000, 100, QRI25, 0.95, False, QdMethod(sigma=None)),
    (D("exponential"), 80, 100, G2_25, 0.95, False, QdMethod(kind="density")),
    (D("lognormal"), 120, 100, QRI25, 0.5, False, QdMethod()),
    (D("exponential"), 90, 100, resolve_measure("iqr"), 0.95, False, QdMethod(sigma=None)),
    (D("lognormal"), 70, 100, resolve_measure("rCViqr"), 0.95, True, QdMethod(kind="density")),
]


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_batched_coverage_matches_the_replicate_loop(case):
    dist, n, reps, measure, level, log_ratio, *method = ORACLE_CASES[case]
    cfg = SimConfig(dist, n=n, reps=reps, measure=measure, level=level, seed=case,
                    log_ratio=log_ratio, var_method=method[0] if method else QdMethod())
    coverage, width, _ = coverage_sim(cfg)
    covered, want_width = loop_coverage(cfg)
    assert coverage == covered / reps
    assert width == pytest.approx(want_width, rel=1e-14, abs=0.0)


def test_oracle_cases_include_partial_chunks():
    partial = [c for c in ORACLE_CASES
               if c[2] % chunk_size(SimConfig(c[0], n=c[1], reps=c[2], measure=c[3])) != 0]
    kinds = {type(c[3]) for c in partial}
    assert kinds == {MeasureSpec, InequalitySpec}


@pytest.mark.parametrize("name", ["normal", "lognormal", "uniform", "exponential"])
def test_coverage_matches_the_loop_for_a_multi_word_seed(name):
    # 2^64 + 5 hashes three 32-bit words; 100 replicates of 2000 fill 65, then 35
    cfg = SimConfig(Distribution(name), n=2000, reps=100, measure=resolve_measure("iqr"),
                    seed=2**64 + 5)
    assert cfg.reps % chunk_size(cfg) != 0
    coverage, width, _ = coverage_sim(cfg)
    covered, want_width = loop_coverage(cfg)
    assert coverage == covered / cfg.reps
    assert width == pytest.approx(want_width, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3])
@pytest.mark.parametrize("start, count", [(0, 1), (0, 2), (0, 100), (2001, 1), (2001, 2),
                                          (2001, 100)])
def test_stream_states_are_those_of_the_spawned_generators(seed, start, count):
    children = np.random.SeedSequence(seed).spawn(start + count)[start:]
    want = [np.random.default_rng(child).bit_generator.state for child in children]
    assert verify._stream_states(seed, start, count) == want


@pytest.mark.parametrize("seed", [-1, -(2**64), 1.0, 0.5, "3", None, (1, 2)])
def test_sim_config_rejects_a_seed_that_is_no_non_negative_integer(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        SimConfig(Distribution("normal"), n=50, reps=100, measure=resolve_measure("median"),
                  seed=seed)


def test_study_with_a_failing_replicate_raises_the_loops_error():
    # a replicate median below 0 gives a negative robust CV, whose log fails
    cfg = SimConfig(Distribution("normal", (1.0, 1.0)), n=10, reps=130,
                    measure=resolve_measure("rCViqr"), seed=1, log_ratio=True)
    failing = []
    for i, stream in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.reps)):
        data = cfg.distribution.sample(np.random.default_rng(stream), cfg.n)
        try:
            loop_interval(cfg, data)
        except ValueError as exc:
            failing.append((i, str(exc)))
    assert len(failing) == 1
    with pytest.raises(ValueError) as loop_exc:
        loop_coverage(cfg)
    with pytest.raises(ValueError) as batch_exc:
        coverage_sim(cfg)
    assert str(batch_exc.value) == str(loop_exc.value) == failing[0][1]


ZERO_MEDIAN = np.concatenate([np.linspace(-1.0, -0.5, 9), [0.0, 0.0], np.linspace(1.0, 2.0, 9)])
NEGATIVE_MEDIAN = np.linspace(-2.0, 1.0, 20)
NOT_FINITE = np.concatenate([np.linspace(1.0, 2.0, 19), [np.inf]])


@pytest.mark.parametrize("measure, log_ratio, first, later, message", [
    # the positivity check comes before the degenerate-sample check
    (InequalitySpec("QRI", 5), False, np.full(20, 5.0), np.linspace(0.0, 1.0, 20),
     "degenerate sample"),
    (InequalitySpec("G2", 5), False, np.linspace(0.0, 1.0, 20), np.full(20, 5.0),
     "G2 requires positive data"),
    (resolve_measure("rCViqr"), True, ZERO_MEDIAN, NEGATIVE_MEDIAN, "zero denominator"),
    (resolve_measure("rCViqr"), True, NEGATIVE_MEDIAN, ZERO_MEDIAN, "log of non-positive ratio"),
    (resolve_measure("rCViqr"), True, NOT_FINITE, NEGATIVE_MEDIAN, "non-finite"),
])
def test_study_raises_the_first_failing_replicates_error(monkeypatch, measure, log_ratio,
                                                         first, later, message):
    # replicates 1 and 3 fail in different ways; the loop stops at replicate 1
    rows = np.tile(np.linspace(1.0, 2.0, 20), (120, 1))
    rows[1], rows[3] = first, later
    draws = iter(rows)
    monkeypatch.setattr(Distribution, "sample", lambda self, rng, n: next(draws).copy())
    cfg = SimConfig(Distribution("uniform", (1.0, 2.0)), n=20, reps=120, measure=measure,
                    seed=0, log_ratio=log_ratio)
    with pytest.raises(ValueError, match=message):
        coverage_sim(cfg)
    draws = iter(rows)
    with pytest.raises(ValueError, match=message):
        loop_coverage(cfg)


# ---------------------------------------------------------------------------
# bootstrap: ranks against sorting the resampled values


def float_sort_bootstrap(x, measure, B, seed):
    """bootstrap_se by gathering and sorting B x n resampled values."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = x[rng.integers(0, x.size, size=(B, x.size))]
    rows.sort(axis=1)
    if isinstance(measure, MeasureSpec):
        # each combination as products summed along the row, over the
        # sorted grid of all the measure's probabilities
        grid = np.unique(measure.u + (measure.u2 or ()))
        xq = _quantiles_sorted(rows, grid, 8)

        def combination(u, coef):
            b = np.zeros(grid.size)
            np.add.at(b, np.searchsorted(grid, u), coef)
            return np.add.reduce(xq * b, axis=-1)

        num = est = combination(measure.u, measure.coef)
        if measure.is_ratio:
            den = combination(measure.u2, measure.coef2)
            est = np.full(num.shape, np.nan)
            est[den != 0.0] = num[den != 0.0] / den[den != 0.0]
    else:
        p = (np.arange(1, measure.J + 1) - 0.5) / measure.J
        terms = 1.0 - (_quantiles_sorted(rows, p / 2.0, 8)
                       / _quantiles_sorted(rows, 1.0 - p / 2.0, 8))
        est = terms.mean(axis=-1) if measure.kind == "QRI" else \
            (2.0 * p * terms).sum(axis=-1) / measure.J
        est = np.where(rows[:, 0] > 0.0, est, np.nan)
    ok = np.isfinite(est)
    return float(np.std(est[ok], ddof=1)), int((~ok).sum())


# resamples are drawn in blocks of _BOOT_BLOCK // n rows; at n = 4001 this
# B leaves a last block of one row
ONE_ROW_B = 2 * (verify._BOOT_BLOCK // 4001) + 1


@pytest.mark.parametrize("label, n, measure, B", [
    ("median, ties", 300, resolve_measure("median"), 600),
    ("bowley, ties", 500, resolve_measure("bowley"), 500),
    ("qri", 400, InequalitySpec("QRI", 20), 500),
    ("g2", 250, InequalitySpec("G2", 30), 700),
    ("moors at 2^15", 2**15, resolve_measure("moors"), 500),
    ("iqr above 2^15", 2**15 + 1, resolve_measure("iqr"), 500),
    ("median, last block of one row", 4001, resolve_measure("median"), ONE_ROW_B),
    ("rCViqr, ties, last block of one row", 4001, resolve_measure("rCViqr"), ONE_ROW_B),
    ("g2, last block of one row", 4001, InequalitySpec("G2", 25), ONE_ROW_B),
    # selected, not sorted: one column per access at 10^4 over five blocks,
    # two int32 columns per access above 2^15
    ("median, selected", 10**4, resolve_measure("median"), 500),
    ("qr9010, selected above 2^15", 2**15 + 1, resolve_measure("qr9010"), 500),
    ("median at n = 2", 2, resolve_measure("median"), 500),
    # about half the sample at one value: a few resamples have a zero IQR,
    # the denominator of Bowley's skew, whose three quartiles are selected
    ("bowley, atom, selected", 10**4, resolve_measure("bowley"), 500),
])
def test_bootstrap_matches_the_float_sort_bit_for_bit(label, n, measure, B):
    rng = np.random.default_rng(n)
    x = rng.lognormal(size=n)
    if "ties" in label:
        x = np.round(x, 1)
    if "atom" in label:
        x = np.concatenate([rng.normal(0.0, 1.0, 2560), np.full(n - 2560 - n // 4, 2.0),
                            rng.normal(4.0, 1.0, n // 4)])
    got = bootstrap_se(x, measure, B=B, seed=3)
    want, failed = float_sort_bootstrap(x, measure, B, 3)
    assert (failed > 0) == ("atom" in label)
    assert got == want


def test_bootstrap_with_some_failing_resamples_matches_the_float_sort():
    # most of the sample at one value: some resamples have a zero IQR,
    # the denominator of Bowley's skew
    rng = np.random.default_rng(31)
    x = np.concatenate([np.full(45, 2.0), rng.normal(2.0, 1.0, 55)])
    measure = resolve_measure("bowley")
    want, failed = float_sort_bootstrap(x, measure, 1000, 5)
    assert 0 < failed <= 50
    assert bootstrap_se(x, measure, B=1000, seed=5) == want


# ---------------------------------------------------------------------------
# _RankRows: every gather against the same gather from the sorted ranks


def check_rank_rows(ranks, keys):
    """Gather each key from _RankRows in turn and from np.sort(ranks)."""
    n = ranks.shape[-1]
    # strictly increasing values, so a gathered value names its rank
    values = np.arange(n) + 0.5
    want = np.sort(ranks, axis=-1)
    rows = verify._RankRows(values, ranks.copy())
    for key in keys:
        got = rows[key]
        assert got.shape == values[want[key]].shape
        assert np.array_equal(got, values[want[key]]), key
    return rows


@pytest.mark.parametrize("dtype, n", [(np.int16, 10**4), (np.int32, 2**15 + 1)])
def test_rank_rows_select_columns_as_the_sort_places_them(dtype, n):
    rng = np.random.default_rng(n)
    # heavy ties: each row holds few distinct ranks, bunched near the middle
    ties = rng.integers(n // 2 - 20, n // 2 + 20, size=(5, n)).astype(dtype)
    spread = rng.integers(0, n, size=(5, n)).astype(dtype)
    keys = [
        (..., 0),
        (..., n - 1),
        (..., np.array([n // 2, n // 2 - 1, n // 2 + 1])),
        (..., np.array([n // 2 + 2, n // 2 + 2, 7])),   # duplicates, out of order
        (..., np.array([n // 2, n // 2 + 1])),          # placed already
        (..., slice(n // 3, n // 3 + 3)),
        (..., n // 3 + 1),
        (Ellipsis, np.array([n - 2, 1, n - 3])),
    ]
    for ranks in (ties, spread):
        rows = check_rank_rows(ranks, keys)
        # no access named more than three new columns: nothing was sorted
        assert rows._placed is not None


def test_rank_rows_sort_when_selecting_costs_more():
    rng = np.random.default_rng(5)
    n = 10**4
    ranks = rng.integers(0, n, size=(4, n)).astype(np.int16)
    rows = check_rank_rows(ranks, [(..., np.array([10, 5000]))])
    assert rows._placed is not None
    # four new columns at 10^4: every row is sorted, and stays so
    rows = check_rank_rows(ranks, [(..., np.array([10, 5000])),
                                   (..., np.array([1, 2, 3, 4000])),
                                   (..., np.array([0, 9999, 17]))])
    assert rows._placed is None
    assert np.array_equal(rows._ranks, np.sort(ranks, axis=-1))
    # the benchmark's bootstraps fall on both sides: the median at 10^4
    # selects, QRI's 200 columns at 10^3 sort
    assert verify._select_pays(10**4, 1) and not verify._select_pays(1000, 200)
    # below about 10^3 even one column sorts
    check_rank_rows(rng.integers(0, 300, size=(6, 300)).astype(np.int16),
                    [(..., np.array([149])), (..., 150)])
    assert not verify._select_pays(300, 1)


def test_rank_rows_single_value_rows():
    ranks = np.zeros((7, 1), dtype=np.int16)
    # the n = 1 path of _quantiles_sorted reads a slice, then column 0
    check_rank_rows(ranks, [(..., slice(0, 1)), (..., 0), (..., slice(0, 1))])

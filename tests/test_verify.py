"""Monte Carlo verification harness: distributions, coverage, bootstrap."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import quantest.verify as verify
from quantest.inference import TestOptions, q_test_one
from quantest.measures import InequalitySpec, MeasureSpec, resolve_measure
from quantest.qdensity import QdMethod
from quantest.quantiles import _Pair as Pair
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


# name -> (parameters, the NumPy draw the row stands for, its quantile
# function at p = 0, 0.3 and 1 in closed form)
TABLE_ROWS = {
    "normal": ((1.5, 2.0), lambda rng, n: rng.normal(1.5, 2.0, n),
               [-math.inf, 1.5 + 2.0 * ndtri(0.3), math.inf]),
    "lognormal": ((0.5, 0.8), lambda rng, n: rng.lognormal(0.5, 0.8, n),
                  [0.0, math.exp(0.5 + 0.8 * ndtri(0.3)), math.inf]),
    "uniform": ((-1.0, 4.0), lambda rng, n: rng.uniform(-1.0, 4.0, n), [-1.0, 0.5, 4.0]),
    "exponential": ((2.0,), lambda rng, n: rng.exponential(0.5, n),
                    [0.0, -math.log(0.7) / 2.0, math.inf]),
}


@pytest.mark.parametrize("name", list(verify._DISTRIBUTIONS))
def test_every_table_row_is_its_numpy_draw_and_closed_form(name):
    params, draw, quantiles = TABLE_ROWS[name]
    dist = Distribution(name, params)
    for seed in (0, 1, 2):
        got = dist.sample(np.random.default_rng(seed), 500)
        assert np.array_equal(got, draw(np.random.default_rng(seed), 500))
    with np.errstate(divide="ignore"):
        np.testing.assert_allclose(dist.quantile([0.0, 0.3, 1.0]), quantiles, rtol=1e-15)


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


# ---------------------------------------------------------------------------
# bootstrap: a block split over two threads against the serial loop


def serial_bootstrap(x, measure, B, seed):
    """bootstrap_se as one serial loop: draw, rank, sort and estimate a block at a time."""
    x = np.asarray(x, dtype=float)
    n = x.size
    srt = np.sort(x)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(x, kind="stable")] = np.arange(n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    step = max(1, verify._BOOT_BLOCK // n)
    est = []
    for start in range(0, B, step):
        rows = np.sort(rank.take(rng.integers(0, n, (min(step, B - start), n))), axis=-1)
        est.append(measure._estimate(srt[rows], 8, gradient=False)[0])
    est = np.concatenate(est)
    ok = np.isfinite(est)
    if B - int(ok.sum()) > 0.05 * B:
        raise ValueError("estimator failed on more than 5% of bootstrap resamples")
    return float(np.std(est[ok], ddof=1))


def count_splits(monkeypatch):
    """Count the blocks whose draws bootstrap_se splits over two threads."""
    calls = []
    split_draws = verify._split_draws

    def spy(pair, rng, rank, flat, gens):
        calls.append(flat.size)
        return split_draws(pair, rng, rank, flat, gens)
    monkeypatch.setattr(verify, "_split_draws", spy)
    return calls


# (n, measure, B, blocks split): blocks hold _BOOT_BLOCK // n rows, and
# a split block's draws are cut in pieces of about _PIECE indices.  At
# 10^4 and 40000 a word is rejected about once per 10^6 draws, so most
# blocks have pieces that read words of the next piece's stream; at 3333
# and 1001 almost none do.
@pytest.mark.parametrize("n, measure, B, split", [
    # 19 blocks of 104 rows, then 24 rows (240,000 indices, serial)
    (10**4, resolve_measure("median"), 2000, 19),
    # 4 blocks of 104 rows, then a split last block of 84
    (10**4, resolve_measure("iqr"), 500, 5),
    # 19 blocks of 26 rows, then a split last block of 16
    (40000, resolve_measure("qr9010"), 510, 20),
    # odd n, 314-row blocks and a split last block of 272
    (3333, resolve_measure("rCViqr"), 900, 3),
    # the sort path: 1047 rows (odd, so the row groups differ), then 953
    (1001, InequalitySpec("QRI", 25), 2000, 2),
    (10**4, InequalitySpec("G2", 100), 500, 5),
])
def test_split_bootstrap_is_the_serial_loop(monkeypatch, n, measure, B, split):
    x = np.random.default_rng(n).lognormal(size=n)
    calls = count_splits(monkeypatch)
    got = bootstrap_se(x, measure, B=B, seed=7)
    assert len(calls) == split
    assert got == serial_bootstrap(x, measure, B, 7)


def test_split_bootstrap_falls_back_to_the_serial_draw(monkeypatch):
    # no LCG steps allowed: every piece after a rejected word is drawn
    # again from where the pieces before it end
    monkeypatch.setattr(verify, "_SPLIT_STEPS", 0)
    x = np.random.default_rng(40000).lognormal(size=40000)
    measure = resolve_measure("median")
    assert bootstrap_se(x, measure, B=520, seed=1) == serial_bootstrap(x, measure, 520, 1)


def test_split_bootstrap_raises_the_serial_error():
    # nine tenths of the sample at one value: most resamples have a zero IQR,
    # the denominator of Bowley's skew
    rng = np.random.default_rng(8)
    x = np.concatenate([np.full(9000, 2.0), rng.normal(2.0, 1.0, 1000)])
    measure = resolve_measure("bowley")
    with pytest.raises(ValueError, match="more than 5%") as serial:
        serial_bootstrap(x, measure, 500, 2)
    with pytest.raises(ValueError, match="more than 5%") as split:
        bootstrap_se(x, measure, B=500, seed=2)
    assert str(split.value) == str(serial.value)


@pytest.mark.parametrize("name", ["median", "iqr"])
@pytest.mark.parametrize("label", ["rounded", "signed zeros", "int32 ranks"])
def test_bootstrap_ranks_ties_as_a_stable_argsort_would(label, name):
    # bootstrap_se ranks with the default argsort, which orders tied values
    # its own way; tied values have equal sorted[rank], so the SE is that of
    # serial_bootstrap's ranks, from a stable argsort
    rng = np.random.default_rng(12)
    if label == "signed zeros":
        x = rng.permutation(np.concatenate([np.full(400, 0.0), np.full(300, -0.0),
                                            rng.normal(size=2300)]))
    else:
        x = np.round(rng.lognormal(size=3000 if label == "rounded" else 40000), 1)
    assert not np.array_equal(np.argsort(x), np.argsort(x, kind="stable"))
    measure = resolve_measure(name)
    assert bootstrap_se(x, measure, B=500, seed=4) == serial_bootstrap(x, measure, 500, 4)


def first_piece_end(state, n, h):
    """Whether the serial draw of h indices from state ends on a buffered word,
    and the 32-bit words past the first h it reads: its rejections."""
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    rng.integers(0, n, h)
    end = rng.bit_generator.state
    rng.bit_generator.state = state
    rng.bit_generator.advance((h - state["has_uint32"]) // 2)
    steps = 0
    while rng.bit_generator.state["state"] != end["state"]:
        rng.bit_generator.advance(1)
        steps += 1
    return end["has_uint32"], 2 * steps - end["has_uint32"]


@pytest.mark.parametrize("limit", [verify._SPLIT_STEPS, 8, 0])
def test_split_draws_are_the_serial_draw(monkeypatch, limit):
    # 2^32 mod n is 2^20: a word is rejected with probability 2^-12, so a
    # first piece of about 2^17 words reads about 32 words of the next
    # piece's stream, 16 LCG steps
    monkeypatch.setattr(verify, "_SPLIT_STEPS", limit)
    found = []
    steps_between = verify._steps_between

    def spy(start, end):
        found.append(steps_between(start, end))
        return found[-1]
    monkeypatch.setattr(verify, "_steps_between", spy)
    n = 3 * 2**19
    rank = np.random.default_rng(1).permutation(n).astype(np.int32)
    ends = set()
    for seed in range(3):
        for buffered in (0, 1):
            for m in (2**18, 2**18 + 1):
                rng = np.random.default_rng(seed)
                if buffered:
                    rng.integers(0, 2**32, dtype=np.uint32)
                state = rng.bit_generator.state
                assert state["has_uint32"] == buffered
                serial = np.random.Generator(np.random.PCG64())
                serial.bit_generator.state = state
                want = rank.take(serial.integers(0, n, m))
                h = m // 2 - m // 2 % 2 + buffered
                end, r = first_piece_end(state, n, h)
                ends.add((end, r))
                flat = np.empty(m, dtype=np.int32)
                found.clear()
                with Pair() as pair:
                    verify._split_draws(pair, rng, rank, flat, [])
                assert np.array_equal(flat, want)
                assert rng.bit_generator.state == serial.bit_generator.state
                # two pieces; past the step limit the second is drawn again
                assert found == [None if (r + end) // 2 > limit else (r + end) // 2]
    # first pieces that end on a buffered word and on a whole one, all
    # reading into the second piece's words
    assert {end for end, _ in ends} == {0, 1}
    assert min(r for _, r in ends) > 0


def test_split_draws_in_many_pieces_are_the_serial_draw():
    # one block of a sample above 2^20 values is one resample, cut into
    # ten pieces; 2^32 mod n is about 0.8 n, so each piece of 2^17 words
    # holds about 32 rejected ones and reads words of the next piece's stream
    n = 2**20 + 2**18 + 1
    rank = np.random.default_rng(2).permutation(n).astype(np.int32)
    rng = np.random.default_rng(5)
    rng.integers(0, 2**32, dtype=np.uint32)
    serial = np.random.Generator(np.random.PCG64())
    serial.bit_generator.state = rng.bit_generator.state
    want = rank.take(serial.integers(0, n, n))
    flat = np.empty(n, dtype=np.int32)
    gens = []
    with Pair() as pair:
        verify._split_draws(pair, rng, rank, flat, gens)
    assert len(gens) == n // verify._PIECE - 1
    assert np.array_equal(flat, want)
    assert rng.bit_generator.state == serial.bit_generator.state


# ---------------------------------------------------------------------------
# bootstrap: against the exact bootstrap variance of an order statistic


def exact_bootstrap_variance(x, k):
    """The bootstrap variance of the k-th order statistic, with no Monte Carlo.

    Maritz & Jarrett (1978): for distinct values, the k-th order statistic
    of a resample is X_(j) with probability
    w_j = P(Bin(n, j/n) >= k) - P(Bin(n, (j-1)/n) >= k), so
    Var* = sum w_j X_(j)^2 - (sum w_j X_(j))^2, summed about the mean here.
    The binomial terms are summed in log space.
    """
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    i = np.arange(k, n + 1)
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(t + 1) - math.lgamma(n - t + 1)
                           for t in i])
    tail = [0.0]
    for j in range(1, n):
        p = j / n
        tail.append(float(np.exp(log_choose + i * math.log(p) + (n - i) * math.log1p(-p)).sum()))
    tail.append(1.0)
    w = np.diff(tail)
    mean = float(w @ xs)
    return float(w @ (xs - mean) ** 2)


def test_exact_bootstrap_variance_of_a_small_sample():
    # n = 3, median: the resample median is X_(1) with probability 7/27,
    # X_(2) with 13/27 and X_(3) with 7/27
    x = np.array([1.0, 2.0, 4.0])
    w = np.array([7.0, 13.0, 7.0]) / 27.0
    mean = w @ x
    assert exact_bootstrap_variance(x, 2) == pytest.approx(w @ (x - mean) ** 2, rel=1e-12)


def test_bootstrap_se_averages_to_the_exact_bootstrap_se():
    # n = 1001: the type-8 median is X_(501), and B = 2000 is two split
    # blocks of 1047 and 953 rows
    x = np.random.default_rng(2024).lognormal(size=1001)
    exact = math.sqrt(exact_bootstrap_variance(x, 501))
    ses = np.array([bootstrap_se(x, resolve_measure("median"), B=2000, seed=seed)
                    for seed in range(20)])
    # an SD of B = 2000 draws scatters by about sqrt(1/(2B)), 1.6%, per
    # seed for normal draws; the median's lumpy resample distribution gives
    # about 2% here.  The tolerance is four standard errors of the mean of
    # the 20 seeds, from their own spread, and that spread must stay below
    # 4% per seed
    spread = float(np.std(ses, ddof=1))
    assert spread < 0.04 * exact
    assert abs(ses.mean() - exact) < 4.0 * spread / math.sqrt(len(ses))

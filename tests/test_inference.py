"""Wald tests, intervals, delta-method variances, one/two-sample tests."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from quantest._normal import ndtri
from quantest.inference import (
    TestOptions,
    _bridge_form,
    p_value,
    q_test_one,
    q_test_two,
    qineq_test,
    wald_interval,
)
from quantest.measures import InequalitySpec, MeasureSpec, resolve_measure
from quantest.qcov import qcov
from quantest.qdensity import QdMethod, _qhat_rows
from quantest.quantiles import _sorted_rows, sample_quantile
from quantest.verify import Distribution, SimConfig, coverage_sim
from conftest import data_path

Z975 = 1.959963984540054


# ---------------------------------------------------------------------------
# the matrix route, b' Sigma b from a QuantileCov, as the oracle of _bridge_form


def lincomb_stats(cov, xhat, b1, b2=None):
    """Estimates and (co)variances of coefficient combinations, from the matrix.

    Returns (est1, est2, v1, v2, v12); the entries for the second
    combination are None when b2 is absent.  Coefficients are aligned
    with cov.probs.
    """
    b1, m = np.asarray(b1, dtype=float), cov.matrix
    if b2 is None:
        return xhat @ b1, None, b1 @ m @ b1, None, None
    b2 = np.asarray(b2, dtype=float)
    return xhat @ b1, xhat @ b2, b1 @ m @ b1, b2 @ m @ b2, b1 @ m @ b2


def bridge(x, ps, b1, b2):
    """_bridge_form of b1 and b2 over the sorted grid ps, as the Wald tests sum it."""
    grid = np.asarray(ps)
    qhat = _qhat_rows(_sorted_rows(x[None]), grid, QdMethod(), 8, ndtri(grid))[0][0]
    return float(_bridge_form(grid, np.multiply(b1, qhat), np.multiply(b2, qhat), x.size))


def test_unit_vector_recovers_variance_entry(norm100):
    ps = [0.25, 0.5, 0.75]
    cov = qcov(norm100, ps)
    e = [0.0, 1.0, 0.0]
    est1, est2, v1, v2, v12 = lincomb_stats(cov, np.zeros(3), e)
    assert v1 == cov.matrix[1, 1]
    assert est2 is None and v2 is None and v12 is None
    assert bridge(norm100, ps, e, e) == pytest.approx(v1, rel=1e-14)


def test_contrast_expansion_by_hand(norm100):
    ps = [0.25, 0.75]
    cov = qcov(norm100, ps)
    m = cov.matrix
    by_hand = m[0, 0] + m[1, 1] - 2.0 * m[0, 1]
    _, _, v1, _, _ = lincomb_stats(cov, np.zeros(2), [-1.0, 1.0])
    assert v1 == pytest.approx(by_hand, rel=1e-12)
    assert bridge(norm100, ps, [-1.0, 1.0], [-1.0, 1.0]) == pytest.approx(by_hand, rel=1e-12)


def test_identical_combinations_give_equal_terms(norm100):
    ps = [0.3, 0.6]
    cov = qcov(norm100, ps)
    b = [0.5, 2.0]
    est1, est2, v1, v2, v12 = lincomb_stats(cov, np.array([1.0, 2.0]), b, b)
    assert est1 == est2
    assert v1 == pytest.approx(v2, rel=1e-15)
    assert v12 == pytest.approx(v1, rel=1e-15)
    assert bridge(norm100, ps, b, b) == pytest.approx(v12, rel=1e-14)


# ---------------------------------------------------------------------------
# ratio measures: one gradient, (b1 - R b2)/theta2


def test_log_scale_ratio_se_is_the_ratio_se_over_the_ratio(bladder):
    spec = resolve_measure("rCViqr")
    r = q_test_one(bladder, spec)
    rlog = q_test_one(bladder, spec, TestOptions(log_transf=True))
    assert rlog.estimate == math.log(r.estimate)
    assert rlog.se == pytest.approx(r.se / r.estimate, rel=1e-14)


def test_ratio_of_a_combination_to_itself_has_se_exactly_zero():
    # the gradient b1 - R b2 is exactly 0 at R = 1; three forms combined
    # leave a rounding residue
    spec = MeasureSpec(u=(0.25, 0.75), coef=(-1.0, 1.0), u2=(0.25, 0.75), coef2=(-1.0, 1.0))
    streams = np.random.SeedSequence(0).spawn(200)
    for i, stream in enumerate(streams):
        x = np.random.default_rng(stream).lognormal(size=20 + 10 * i)
        r = q_test_one(x, spec)
        assert r.estimate == 1.0
        assert r.se == 0.0
        assert r.conf_int == (1.0, 1.0)


def test_ratio_with_zero_numerator_has_the_numerators_se():
    # the median is the order statistic 0, so R = 0 and var R = v1/theta2^2
    x = np.array([-3.0, -1.5, -0.5, 0.0, 0.7, 2.0, 4.5])
    ratio = MeasureSpec(u=(0.5,), coef=(1.0,), u2=(0.75,), coef2=(1.0,))
    r = q_test_one(x, ratio)
    assert r.estimate == 0.0
    cov = qcov(x, [0.5, 0.75])
    want = math.sqrt(cov.matrix[0, 0]) / sample_quantile(x, 0.75)
    assert r.se == pytest.approx(want, rel=1e-14)


def test_ratio_errors_name_the_failure():
    zero_median = np.concatenate([np.linspace(-1.0, -0.5, 9), [0.0, 0.0],
                                  np.linspace(1.0, 2.0, 9)])
    with pytest.raises(ValueError, match="zero denominator"):
        q_test_one(zero_median, resolve_measure("rCViqr"))
    with pytest.raises(ValueError, match="non-positive ratio"):
        q_test_one(np.linspace(-2.0, 1.0, 20), resolve_measure("rCViqr"),
                   TestOptions(log_transf=True))


# ---------------------------------------------------------------------------
# wald_interval / p_value


def test_wald_two_sided_standard_normal():
    lo, hi = wald_interval(0.0, 1.0, 0.95)
    assert lo == pytest.approx(-Z975, rel=1e-12)
    assert hi == pytest.approx(Z975, rel=1e-12)
    assert lo == pytest.approx(-1.95996, abs=1e-5)


def test_wald_min_q_clamp():
    assert wald_interval(0.1, 0.15306, 0.95, min_q=0.0)[0] == 0.0
    lo, hi = wald_interval(0.1, 0.15306, 0.95, min_q=0.0)
    assert hi == pytest.approx(0.1 + Z975 * 0.15306, rel=1e-9)


def test_wald_one_sided_uses_alpha_quantile():
    z95 = 1.6448536269514722
    lo, hi = wald_interval(2.0, 0.5, 0.95, alternative="less")
    assert lo == -math.inf
    assert hi == pytest.approx(2.0 + z95 * 0.5, rel=1e-12)
    lo, hi = wald_interval(2.0, 0.5, 0.95, alternative="greater")
    assert hi == math.inf
    assert lo == pytest.approx(2.0 - z95 * 0.5, rel=1e-12)


def test_p_value_pinned():
    assert p_value(0.0) == 1.0
    assert p_value(9.408) < 2.2e-16
    assert p_value(-2.0898) == pytest.approx(0.03664, abs=1e-5)
    assert p_value(-1.5, "less") == pytest.approx(float(ndtr(-1.5)), rel=1e-12)
    assert p_value(-1.5, "greater") == pytest.approx(1.0 - float(ndtr(-1.5)),
                                                     rel=1e-12)


# ---------------------------------------------------------------------------
# one-sample test


def test_bladder_median_regression(bladder):
    r = q_test_one(bladder, resolve_measure("median"))
    assert r.estimate == 6.395
    assert r.statistic_Z == pytest.approx(9.408, abs=0.05)
    assert r.p_value < 2.2e-16
    assert r.conf_int[0] == pytest.approx(5.062726, abs=0.02)
    assert r.conf_int[1] == pytest.approx(7.727274, abs=0.02)
    assert r.scale == "identity"
    assert r.description == "One sample test of the median"


def test_bladder_upper_quartile_regression(bladder):
    r = q_test_one(bladder, MeasureSpec.from_arrays([0.75]))
    assert r.conf_int[0] == pytest.approx(9.168747, abs=0.05)
    assert r.conf_int[1] == pytest.approx(14.632920, abs=0.05)


def test_null_at_estimate_gives_unit_p(bladder):
    est = q_test_one(bladder, resolve_measure("median")).estimate
    r = q_test_one(bladder, resolve_measure("median"),
                   TestOptions(true_q=est))
    assert r.statistic_Z == 0.0
    assert r.p_value == 1.0


def test_interval_p_value_duality():
    rng = np.random.default_rng(77)
    for _ in range(40):
        x = rng.lognormal(size=80)
        true_q = float(rng.uniform(0.2, 3.0))
        r = q_test_one(x, resolve_measure("median"),
                       TestOptions(true_q=true_q, conf_level=0.9))
        outside = true_q < r.conf_int[0] - 1e-10 or true_q > r.conf_int[1] + 1e-10
        assert outside == (r.p_value < 0.1 - 1e-10) or \
            abs(r.p_value - 0.1) < 1e-8


def test_interval_monotone_in_level(bladder):
    widths = []
    for level in (0.80, 0.90, 0.95, 0.99):
        r = q_test_one(bladder, resolve_measure("iqr"),
                       TestOptions(conf_level=level))
        widths.append(r.conf_int[1] - r.conf_int[0])
    assert widths == sorted(widths)


def test_location_equivariance_of_median_test():
    rng = np.random.default_rng(3)
    x = rng.lognormal(size=150)
    c = 250.0
    r1 = q_test_one(x, resolve_measure("median"), TestOptions(true_q=1.0))
    r2 = q_test_one(x + c, resolve_measure("median"), TestOptions(true_q=1.0 + c))
    assert r2.statistic_Z == pytest.approx(r1.statistic_Z, rel=1e-9)
    assert r2.p_value == pytest.approx(r1.p_value, rel=1e-9)


def test_ratio_measure_without_log_warns(bladder):
    r = q_test_one(bladder, resolve_measure("rCViqr"))
    assert any("log" in w for w in r.warnings)
    rlog = q_test_one(bladder, resolve_measure("rCViqr"),
                      TestOptions(log_transf=True))
    assert not any("log scale" in w for w in rlog.warnings)


def test_back_transform_consistency(bladder):
    spec = resolve_measure("rCViqr")
    rlog = q_test_one(bladder, spec, TestOptions(log_transf=True))
    rback = q_test_one(bladder, spec,
                       TestOptions(log_transf=True, back_transf=True))
    assert rlog.scale == "log"
    assert rback.scale == "back_transformed_ratio"
    assert math.exp(rlog.estimate) == rback.estimate
    assert math.exp(rlog.conf_int[0]) == rback.conf_int[0]
    assert math.exp(rlog.conf_int[1]) == rback.conf_int[1]
    # Z, p and se stay on the working (log) scale
    assert rback.statistic_Z == rlog.statistic_Z
    assert rback.se == rlog.se


def test_one_sample_null_value_scales(bladder):
    # true_q is read on the reported scale: a ratio of 0.5 under back_transf
    spec = resolve_measure("rCViqr")
    r = q_test_one(bladder, spec,
                   TestOptions(log_transf=True, back_transf=True, true_q=0.5))
    assert r.null_value == 0.5


def test_log_transform_requires_positive_estimate():
    x = np.array([-5.0, -4.0, -3.0, -2.0, -1.0] * 10)
    with pytest.raises(ValueError, match="log"):
        q_test_one(x, resolve_measure("median"), TestOptions(log_transf=True))


def test_min_q_clamps_reported_interval(bladder):
    r = q_test_one(bladder, resolve_measure("median"),
                   TestOptions(true_q=6.0, min_q=6.0))
    assert r.conf_int[0] == 6.0


def test_options_validation():
    with pytest.raises(ValueError):
        TestOptions(alternative="both")
    with pytest.raises(ValueError):
        TestOptions(conf_level=1.0)
    with pytest.raises(ValueError):
        TestOptions(back_transf=True)
    with pytest.raises(ValueError, match="unsupported quantile type 99"):
        TestOptions(quantile_type=99)
    # a NaN null would make Z and p NaN, and a NaN clamp the lower bound
    with pytest.raises(ValueError, match="true_q must not be NaN"):
        TestOptions(true_q=math.nan)
    with pytest.raises(ValueError, match="min_q must not be NaN"):
        TestOptions(min_q=math.nan)


# ---------------------------------------------------------------------------
# three construction routes, bit-identical results


def _methods_trio():
    m1 = resolve_measure("rCViqr")
    m2 = MeasureSpec.from_arrays([0.25, 0.75], [-0.75, 0.75],
                                 u2=[0.5], coef2=[1.0])
    m3 = MeasureSpec.from_arrays([0.25, 0.5, 0.75],
                                 np.array([[-0.75, 0.0, 0.75],
                                           [0.0, 1.0, 0.0]]))
    return m1, m2, m3


@pytest.mark.parametrize("opts", [TestOptions(),
                                  TestOptions(log_transf=True, back_transf=True)])
def test_three_construction_methods_bit_identical(bladder, opts):
    results = [q_test_one(bladder, spec, opts) for spec in _methods_trio()]
    base = results[0]
    for r in results[1:]:
        assert r.estimate == base.estimate
        assert r.se == base.se
        assert r.statistic_Z == base.statistic_Z
        assert r.p_value == base.p_value
        assert r.conf_int == base.conf_int


def test_three_methods_on_random_data():
    rng = np.random.default_rng(1234)
    x = rng.lognormal(size=60)
    results = [q_test_one(x, spec) for spec in _methods_trio()]
    assert len({r.conf_int for r in results}) == 1
    assert len({r.estimate for r in results}) == 1


# ---------------------------------------------------------------------------
# two-sample test


def test_two_sample_identical_inputs_zero_difference(bladder):
    r = q_test_two(bladder, bladder, resolve_measure("median"))
    assert r.estimate == 0.0
    assert r.p_value == 1.0
    assert "difference in medians" in r.estimate_label
    assert r.description.startswith("Two sample test")
    assert r.data_name == "x and y"


def test_two_sample_difference_se_combines():
    rng = np.random.default_rng(10)
    x = rng.lognormal(size=120)
    y = rng.lognormal(0.4, 1.0, size=90)
    spec = resolve_measure("median")
    rx = q_test_one(x, spec)
    ry = q_test_one(y, spec)
    r = q_test_two(x, y, spec)
    assert r.estimate == pytest.approx(rx.estimate - ry.estimate, rel=1e-12)
    assert r.se == pytest.approx(math.hypot(rx.se, ry.se), rel=1e-12)


def test_two_sample_log_back_ratio():
    rng = np.random.default_rng(11)
    x = rng.lognormal(size=200)
    y = rng.lognormal(0.5, 1.0, size=150)
    spec = resolve_measure("median")
    r = q_test_two(x, y, spec, TestOptions(log_transf=True, back_transf=True))
    rx = q_test_one(x, spec)
    ry = q_test_one(y, spec)
    assert r.estimate == pytest.approx(rx.estimate / ry.estimate, rel=1e-12)
    assert r.scale == "back_transformed_ratio"
    # default null difference 0 becomes a null ratio of 1
    assert r.null_value == 1.0
    assert "ratio of medians" in r.estimate_label


def test_two_sample_log_without_back():
    rng = np.random.default_rng(12)
    x = rng.lognormal(size=100)
    y = rng.lognormal(size=100)
    r = q_test_two(x, y, resolve_measure("median"), TestOptions(log_transf=True))
    assert r.scale == "log"
    assert "log ratio of medians" in r.estimate_label


def test_two_sample_back_transform_null_validation():
    rng = np.random.default_rng(13)
    x = rng.lognormal(size=50)
    y = rng.lognormal(size=50)
    with pytest.raises(ValueError):
        q_test_two(x, y, resolve_measure("median"),
                   TestOptions(log_transf=True, back_transf=True, true_q=-2.0))


def test_two_sample_back_transform_null_of_zero_raises():
    # 0 is no ratio: only a true_q left unset tests equal measures
    rng = np.random.default_rng(13)
    x = rng.lognormal(size=50)
    y = rng.lognormal(size=50)
    with pytest.raises(ValueError, match="back-transformed null value must be positive"):
        opts = TestOptions(log_transf=True, back_transf=True, true_q=0.0)
        q_test_two(x, y, resolve_measure("median"), opts)
    assert q_test_two(x, y, resolve_measure("median"),
                      TestOptions(log_transf=True, back_transf=True)).null_value == 1.0


@pytest.mark.parametrize("kind", ["QRI", "G2"])
def test_one_sample_index_test_is_qineq_test(kind):
    # an unset true_q tests the index's own null, 0.5, on either route
    x = np.random.default_rng(15).lognormal(size=300)
    spec = InequalitySpec(kind, J=40)
    r = q_test_one(x, spec)
    assert r.null_value == 0.5
    assert dataclasses.astuple(r) == dataclasses.astuple(qineq_test(x, spec=spec))


def test_two_sample_ratio_warning():
    rng = np.random.default_rng(14)
    x = rng.lognormal(size=80)
    y = rng.lognormal(size=70)
    r = q_test_two(x, y, resolve_measure("rCViqr"))
    assert any("log" in w for w in r.warnings)


# ---------------------------------------------------------------------------
# a variance that overflows is a stated failure, never an infinite SE


@pytest.fixture(scope="module")
def overflow_sample():
    """Replicate 212 of a QRI density-method study: lognormal, n = 50, seed 11.

    The Gaussian KDE is tiny but positive at its extreme sample quantiles,
    so 1/f_hat reaches about 4e162 and the variance overflows.
    """
    return np.loadtxt(data_path("qri_density_overflow.csv"), skiprows=1)


DENSITY = TestOptions(var_method=QdMethod("density"))
OVERFLOW = r"variance is not finite: .* reaches 4\.16e\+162 at p = 0\.9775"


def test_an_overflowing_variance_raises_and_names_its_probability(overflow_sample):
    qri = InequalitySpec("QRI", 100)
    good = np.random.default_rng(212).lognormal(size=50)
    calls = [lambda: q_test_one(overflow_sample, qri, DENSITY),
             lambda: q_test_two(overflow_sample, good, qri, DENSITY),
             lambda: q_test_two(good, overflow_sample, qri, DENSITY),
             lambda: qineq_test(overflow_sample, opts=DENSITY),
             lambda: qineq_test(good, overflow_sample, opts=DENSITY)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no NumPy overflow warning
        for call in calls:
            with pytest.raises(ValueError, match=OVERFLOW):
                call()
        assert math.isfinite(q_test_one(good, qri, DENSITY).se)
    # the QOR kernel estimate stays finite on the same sample
    assert math.isfinite(q_test_one(overflow_sample, qri).se)


@pytest.mark.parametrize("u, coef, blame", [
    ([0.5], [1e200], "1e+200 at p = 0.5"),
    ([0.5], [1e308], "1e+308 at p = 0.5"),
    ([0.25, 0.75], [-1e200, 1e200], "-1e+200 at p = 0.25"),
])
def test_an_overflowing_variance_blames_a_huge_coefficient(u, coef, blame):
    # q_hat peaks at 2.68 here; its square is finite, so the gradient is at fault
    x = np.random.default_rng(0).lognormal(size=300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            q_test_one(x, MeasureSpec.from_arrays(u, coef))
    assert str(info.value) == f"variance is not finite: the measure's gradient reaches {blame}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u, coef, u2, coef2", [
    ([0.25, 0.75], [-1e308, 1e308], None, None),
    ([0.75], [1e308], [0.5], [1e-300]),
])
def test_an_overflowing_estimate_is_named(u, coef, u2, coef2):
    # Q(0.75) is above 1 here, so 1e308 Q(0.75) overflows; the gradient is finite
    x = np.random.default_rng(0).lognormal(size=300)
    spec = MeasureSpec.from_arrays(u, coef, u2, coef2)
    with pytest.raises(ValueError,
                       match="^the estimate is not finite: the measure's value overflows$"):
        q_test_one(x, spec)


def test_a_study_with_an_overflowing_replicate_raises():
    # the first 213 replicates of seed 11 end with the sample above
    cfg = SimConfig(Distribution("lognormal"), n=50, reps=213,
                    measure=InequalitySpec("QRI", 100), seed=11,
                    var_method=QdMethod("density"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=OVERFLOW):
            coverage_sim(cfg)

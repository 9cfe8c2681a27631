"""Quantile-ratio inequality indices: estimates, variances, tests."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from quantest.inequality import (
    InequalitySpec,
    g2_estimate,
    qineq_test,
    qri_estimate,
)
from quantest.inference import TestOptions, _working_stats
from quantest.measures import resolve_measure
from quantest.qcov import qcov
from quantest.qdensity import QdMethod
from quantest.quantiles import as_sample, sample_quantiles
from conftest import require_house_fixtures


def index_variance(x, spec, method=QdMethod()):
    """The delta-method variance that qineq_test takes its SE from."""
    opts = TestOptions(var_method=method)
    return float(_working_stats(as_sample(x).padded[None], spec, opts)[1][0])


def lognormal_qri(sigma: float) -> float:
    """Population QRI of a lognormal: 1 - 2 exp(2 sigma^2) Phi(-2 sigma).

    The symmetric quantile ratio of lognormal(mu, sigma) is
    exp(2 sigma z_{p/2}), so the index is the integral over p of
    1 - exp(2 sigma z_{p/2}); the closed form follows from the truncated
    normal moment-generating function.
    """
    return 1.0 - 2.0 * math.exp(2.0 * sigma * sigma) * float(ndtr(-2.0 * sigma))


def lognormal_qri_quad(sigma: float) -> float:
    val, _ = quad(lambda p: 1.0 - math.exp(2.0 * sigma * ndtri(p / 2.0)),
                  0.0, 1.0)
    return val


def lognormal_g2_quad(sigma: float) -> float:
    val, _ = quad(lambda p: 2.0 * p * (1.0 - math.exp(2.0 * sigma * ndtri(p / 2.0))),
                  0.0, 1.0)
    return val


# ---------------------------------------------------------------------------
# population values


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_closed_form_matches_quadrature(sigma):
    assert lognormal_qri(sigma) == pytest.approx(lognormal_qri_quad(sigma),
                                                 rel=1e-8)


def test_sigma_one_reference_value():
    assert lognormal_qri(1.0) == pytest.approx(0.6638, abs=5e-5)


def test_population_midpoint_sum_converges_to_integral():
    J = 10_000
    p = (np.arange(1, J + 1) - 0.5) / J
    midpoint = float(np.mean(1.0 - np.exp(2.0 * ndtri(p / 2.0))))
    assert midpoint == pytest.approx(lognormal_qri(1.0), abs=1e-6)


# ---------------------------------------------------------------------------
# estimators


def test_qri_consistent_on_large_lognormal():
    rng = np.random.default_rng(2026)
    x = rng.lognormal(size=100_000)
    assert qri_estimate(x) == pytest.approx(lognormal_qri(1.0), abs=0.01)


def test_g2_consistent_on_large_lognormal():
    rng = np.random.default_rng(2026)
    x = rng.lognormal(size=100_000)
    assert g2_estimate(x) == pytest.approx(lognormal_g2_quad(1.0), abs=0.01)


def test_constant_data_gives_exact_zero():
    x = np.full(50, 3.7)
    assert qri_estimate(x) == 0.0
    assert g2_estimate(x) == 0.0


def test_indices_lie_in_unit_interval():
    x = np.array([1.0, 3.0])
    for est in (qri_estimate(x), g2_estimate(x)):
        assert 0.0 < est < 1.0


def test_positive_data_required():
    with pytest.raises(ValueError, match="QRI requires positive data"):
        qri_estimate([-1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="G2 requires positive data"):
        g2_estimate([0.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="positive data"):
        qineq_test([0.0, 1.0, 2.0])


def test_grid_size_validation():
    x = np.arange(1.0, 20.0)
    with pytest.raises(ValueError, match="J must be at least 2"):
        qri_estimate(x, J=1)
    with pytest.raises(ValueError, match="J must be at least 2"):
        g2_estimate(x, J=0)


def test_grid_refinement_is_stable():
    rng = np.random.default_rng(5)
    x = rng.lognormal(size=10_000)
    assert abs(qri_estimate(x, J=100) - qri_estimate(x, J=1000)) <= 0.005
    assert abs(g2_estimate(x, J=100) - g2_estimate(x, J=1000)) <= 0.005


def test_scale_invariance():
    rng = np.random.default_rng(6)
    x = rng.lognormal(size=300)
    assert qri_estimate(137.0 * x) == pytest.approx(qri_estimate(x), rel=1e-12)
    assert g2_estimate(137.0 * x) == pytest.approx(g2_estimate(x), rel=1e-12)


def test_g2_leq_qri_and_ordering():
    # the Gini-style weights 2 p_i average to 1 but down-weight the most
    # extreme ratios (small p), so G2 <= QRI for positive-ratio data
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.lognormal(sigma=rng.uniform(0.2, 2.0), size=200)
        assert g2_estimate(x) <= qri_estimate(x) + 1e-12


# ---------------------------------------------------------------------------
# delta-method variance


def _index_from_quantiles(kind, J, lower, upper):
    p = (np.arange(1, J + 1) - 0.5) / J
    weight = np.ones(J) if kind == "QRI" else 2.0 * p
    return float(np.sum(weight * (1.0 - lower / upper)) / J)


@pytest.mark.parametrize("kind", ["QRI", "G2"])
def test_variance_matches_finite_difference_gradient(kind):
    rng = np.random.default_rng(8)
    x = rng.lognormal(size=400)
    spec = InequalitySpec(kind=kind, J=2)
    s = as_sample(x)
    p = np.array([0.25, 0.75])
    grid = np.concatenate([p / 2.0, 1.0 - p / 2.0])
    q = sample_quantiles(s, grid)
    cov = qcov(s, grid)

    def f(qv):
        return _index_from_quantiles(kind, 2, qv[:2], qv[2:])

    h = 1e-5
    g_fd = np.zeros(4)
    for i in range(4):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        g_fd[i] = (f(qp) - f(qm)) / (2.0 * h)
    var_fd = float(g_fd @ cov.matrix @ g_fd)
    assert index_variance(x, spec) == pytest.approx(var_fd, rel=1e-6)


@pytest.mark.parametrize("kind, J, method", [
    ("QRI", 50, QdMethod()),
    ("G2", 50, QdMethod()),
    ("G2", 7, QdMethod(sigma=None)),
    ("QRI", 20, QdMethod(kind="density")),
])
def test_variance_matches_the_public_matrix(kind, J, method):
    # the gradient in the caller's order (lower quantiles, then upper)
    # against the variance contracted without the matrix
    x = np.round(np.random.default_rng(J).lognormal(size=300), 2)
    spec = InequalitySpec(kind=kind, J=J)
    p = (np.arange(1, J + 1) - 0.5) / J
    lower, upper = sample_quantiles(x, p / 2.0), sample_quantiles(x, 1.0 - p / 2.0)
    weight = np.ones(J) if kind == "QRI" else 2.0 * p
    g = np.concatenate([-weight / (J * upper), weight * lower / (J * upper**2)])
    cov = qcov(x, np.concatenate([p / 2.0, 1.0 - p / 2.0]), method)
    assert index_variance(x, spec, method) == pytest.approx(g @ cov.matrix @ g,
                                                           rel=1e-13, abs=0.0)


def test_variance_nonnegative_on_random_samples():
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = rng.lognormal(sigma=rng.uniform(0.3, 1.5), size=150)
        for kind in ("QRI", "G2"):
            assert index_variance(x, InequalitySpec(kind=kind)) >= 0.0


def test_variance_shrinks_with_sample_size():
    rng = np.random.default_rng(22)
    small = rng.lognormal(size=200)
    large = rng.lognormal(size=20_000)
    assert index_variance(large, InequalitySpec()) < index_variance(small, InequalitySpec())


# ---------------------------------------------------------------------------
# hypothesis test wrapper


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        InequalitySpec(kind="gini")
    with pytest.raises(ValueError, match="J"):
        InequalitySpec(J=1)


def test_one_sample_default_null_is_half():
    rng = np.random.default_rng(30)
    x = rng.lognormal(size=500)
    r = qineq_test(x)
    assert r.null_value == 0.5
    assert r.estimate == qri_estimate(x)
    assert r.statistic_Z == pytest.approx((r.estimate - 0.5) / r.se, rel=1e-12)
    assert r.estimate_label == "QRI"
    assert r.description == "One sample test of the QRI"
    assert r.data_name == "x"


def test_one_sample_null_override():
    rng = np.random.default_rng(31)
    x = rng.lognormal(size=500)
    r = qineq_test(x, spec=InequalitySpec(true_ineq=0.3))
    assert r.null_value == 0.3
    assert r.statistic_Z == pytest.approx((r.estimate - 0.3) / r.se, rel=1e-12)


def test_one_sample_alternative_less():
    rng = np.random.default_rng(32)
    x = rng.lognormal(size=400)
    r = qineq_test(x, opts=TestOptions(alternative="less"))
    assert r.p_value == pytest.approx(float(ndtr(r.statistic_Z)), rel=1e-12)
    assert r.conf_int[0] == -math.inf


def test_two_sample_identical_data():
    rng = np.random.default_rng(33)
    x = rng.lognormal(size=300)
    r = qineq_test(x, x)
    assert r.estimate == 0.0
    assert r.null_value == 0.0
    assert r.statistic_Z == 0.0
    assert r.p_value == 1.0
    assert r.estimate_label == "difference in QRI"
    assert r.description == "Two sample test of the QRI"
    assert r.data_name == "x and y"


def test_two_sample_combines_variances():
    rng = np.random.default_rng(34)
    x = rng.lognormal(sigma=1.0, size=400)
    y = rng.lognormal(sigma=0.5, size=300)
    spec = InequalitySpec(kind="G2")
    r = qineq_test(x, y, spec)
    assert r.estimate == pytest.approx(g2_estimate(x) - g2_estimate(y), rel=1e-12)
    vx = index_variance(x, spec)
    vy = index_variance(y, spec)
    assert r.se == pytest.approx(math.sqrt(vx + vy), rel=1e-12)


def test_two_sample_null_override():
    rng = np.random.default_rng(35)
    x = rng.lognormal(size=200)
    y = rng.lognormal(size=200)
    r = qineq_test(x, y, InequalitySpec(true_ineq=0.1))
    assert r.null_value == 0.1


def test_z_statistic_is_calibrated():
    # under the true null, |Z| < 3 should hold in at least 99% of draws
    true_val = lognormal_qri(1.0)
    spec = InequalitySpec(kind="QRI", true_ineq=true_val)
    reps = 300
    streams = np.random.SeedSequence(20260818).spawn(reps)
    ok = 0
    for child in streams:
        rng = np.random.default_rng(child)
        x = rng.lognormal(size=10_000)
        if abs(qineq_test(x, spec=spec).statistic_Z) < 3.0:
            ok += 1
    assert ok / reps >= 0.99


def test_two_city_qri_difference_regression():
    x, y = require_house_fixtures()
    r = qineq_test(x, y)
    assert r.estimate == pytest.approx(-0.05577099, abs=1e-6)
    assert r.statistic_Z == pytest.approx(-2.7952, abs=0.05)
    assert r.conf_int[0] == pytest.approx(-0.09487684, abs=0.002)
    assert r.conf_int[1] == pytest.approx(-0.01666514, abs=0.002)


def test_floored_density_is_reported_as_in_q_test_one():
    # integer-valued data: long plateaus in the order statistics give
    # zero kernel estimates of the quantile density at many grid points
    from quantest.inference import q_test_one
    from quantest.measures import resolve_measure

    x = np.round(np.random.default_rng(0).lognormal(0.0, 0.8, 400)) + 1.0
    spec = InequalitySpec(kind="QRI", J=100)
    p = (np.arange(1, spec.J + 1) - 0.5) / spec.J
    cov = qcov(x, np.concatenate([p / 2.0, 1.0 - p / 2.0]))
    assert len(cov.floored) == 41
    expected = ("nonpositive quantile-density estimate floored at probabilities "
                + ", ".join(f"{q:g}" for q in cov.floored))
    r = qineq_test(x, spec=spec)
    assert r.warnings == (expected,)
    assert q_test_one(x, resolve_measure("median")).warnings[0].startswith(
        "nonpositive quantile-density estimate floored at probabilities ")
    # the warning is carried, not the floor changed
    assert r.se == pytest.approx(math.sqrt(index_variance(x, spec)), rel=1e-15)
    # a second sample's warnings join the first's, once each
    both = qineq_test(x, x, spec)
    assert both.warnings == (expected,)
    y = np.random.default_rng(1).lognormal(size=400)
    assert qineq_test(y, spec=spec).warnings == ()
    assert qineq_test(x, y, spec).warnings == (expected,)
    assert qineq_test(y, x, spec).warnings == (expected,)


@pytest.mark.parametrize("kind", ["QRI", "G2"])
def test_ratio_term_quantiles_are_computed_once_per_sample(kind, monkeypatch):
    import quantest.inequality as ineq

    calls = []
    quantiles = ineq._quantiles_sorted

    def counting(rows, ps, quantile_type=8):
        calls.append(np.size(ps))
        return quantiles(rows, ps, quantile_type)

    monkeypatch.setattr(ineq, "_quantiles_sorted", counting)
    rng = np.random.default_rng(77)
    x, y = rng.lognormal(size=300), rng.lognormal(0.2, 0.8, size=200)
    spec = InequalitySpec(kind, J=40)
    one = qineq_test(x, spec=spec)
    assert calls == [80]  # the lower and the upper ratio-term quantiles, as one grid
    qineq_test(x, y, spec=spec)
    assert calls == [80] * 3

    # the estimate and the standard error come from the same terms
    estimator = qri_estimate if kind == "QRI" else g2_estimate
    assert one.estimate == estimator(x, 40)
    assert one.se == pytest.approx(math.sqrt(index_variance(x, spec)), rel=1e-15)


def test_variance_builds_no_covariance_matrix():
    # the 4000 x 4000 covariance of J = 2000 would take 128 MB
    x = np.random.default_rng(3).lognormal(size=10**5)
    tracemalloc.start()
    try:
        r = qineq_test(x, spec=InequalitySpec("QRI", 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.se > 0.0
    assert peak < 16 * 2**20


@pytest.mark.parametrize("kind", ["QRI", "G2", "rCViqr", "moors"])
def test_stacked_index_equals_each_row_alone(kind):
    # a stack's sum over the J ratio terms, or over a measure's quantile
    # combinations, must add as one row's does, so bootstrap blocks and
    # coverage chunks of any size give the same numbers
    rows = np.sort(np.random.default_rng(4).lognormal(size=(40, 300)), axis=1)
    specs = ([InequalitySpec(kind, J) for J in (9, 25, 100)] if kind in ("QRI", "G2")
             else [resolve_measure(kind)])
    for spec in specs:
        stacked = spec._estimate(rows, 8)[0]
        alone = [spec._estimate(row[None], 8)[0][0] for row in rows]
        np.testing.assert_array_equal(stacked, alone)

"""Quantile density estimation: QOR, bandwidths, kernel and inversion."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from quantest.qdensity import (
    EPANECHNIKOV,
    GAUSSIAN,
    QdMethod,
    _fit_sigma,
    fit_lognormal_sigma,
    optimal_bandwidth,
    qdens_inversion,
    qdens_kernel,
    qor_lognormal,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def lognormal_qdens(p, mu, sigma):
    """q(p) = Q'(p) for the lognormal, computed from first principles."""
    z = ndtri(p)
    phi = np.exp(-0.5 * z * z) / SQRT_2PI
    return sigma * np.exp(mu + sigma * z) / phi


def fd_qor(p, mu, sigma, h=1e-4):
    """q/q'' with q'' from a central second difference — independent oracle."""
    q0 = lognormal_qdens(p, mu, sigma)
    qpp = (lognormal_qdens(p + h, mu, sigma) - 2.0 * q0
           + lognormal_qdens(p - h, mu, sigma)) / (h * h)
    return q0 / qpp


# ---------------------------------------------------------------------------
# QOR closed form


def test_qor_matches_finite_differences_on_grid():
    for sigma in (0.25, 0.5, 1.0, 2.0):
        for p in np.arange(0.05, 0.951, 0.05):
            got = qor_lognormal(sigma, float(p))
            want = fd_qor(float(p), 0.0, sigma)
            assert got == pytest.approx(want, rel=1e-4), (sigma, p)


def test_qor_independent_of_location():
    # the closed form takes no location parameter; the defining ratio
    # q/q'' is location-free because mu scales q and q'' identically
    for mu in (-3.0, 0.0, 1.7):
        assert fd_qor(0.3, mu, 1.0) == pytest.approx(qor_lognormal(1.0, 0.3),
                                                     rel=1e-4)


def test_qor_pinned_values():
    assert qor_lognormal(1.0, 0.5) == pytest.approx(1.0 / (4.0 * math.pi),
                                                    rel=1e-12)
    # sigma -> 0 limit at the median is 1/(2 pi)
    assert qor_lognormal(1e-4, 0.5) == pytest.approx(1.0 / (2.0 * math.pi),
                                                     rel=1e-3)
    # z = 0 reduces the denominator to sigma^2 + 1
    for sigma in (0.3, 1.0, 2.5):
        phi0 = 1.0 / SQRT_2PI
        assert qor_lognormal(sigma, 0.5) == pytest.approx(
            phi0 * phi0 / (sigma * sigma + 1.0), rel=1e-12)


def test_qor_domain_errors():
    with pytest.raises(ValueError):
        qor_lognormal(0.0, 0.5)
    with pytest.raises(ValueError):
        qor_lognormal(-1.0, 0.5)
    with pytest.raises(ValueError):
        qor_lognormal(1.0, 0.0)
    with pytest.raises(ValueError):
        qor_lognormal(1.0, 1.0)


# ---------------------------------------------------------------------------
# lognormal shape fit


def test_fit_sigma_positive_data_exact():
    sigma, shift = fit_lognormal_sigma([math.e, math.e**2, math.e**3])
    assert shift == 0.0
    assert sigma == pytest.approx(1.0, rel=1e-12)


def test_fit_sigma_shift_rule():
    x = [-5.0, -3.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 4.5, 5.0]
    sigma, shift = fit_lognormal_sigma(x)
    assert shift == pytest.approx(5.0 + 10.0 / 10.0)  # -min + range/n
    assert sigma > 0.0


def test_fit_sigma_of_a_stack_is_the_std_of_each_row_as_drawn():
    # the rows of a coverage study are fitted in their drawn order, so a
    # stack gives each sample's fit bit for bit
    rng = np.random.default_rng(41)
    values = np.concatenate([rng.lognormal(size=(3, 257)), rng.normal(size=(3, 257))])
    padded = np.zeros((6, 259))
    padded[:, 1:-1] = np.sort(values, axis=1)
    sigma, shift = _fit_sigma(values, padded)
    for v, got_sigma, got_shift in zip(values, sigma, shift):
        want_sigma, want_shift = fit_lognormal_sigma(v)
        assert (got_sigma, got_shift) == (want_sigma, want_shift)
        assert got_sigma == np.std(np.log(v + got_shift), ddof=1)


def test_fit_sigma_errors():
    with pytest.raises(ValueError):
        fit_lognormal_sigma([2.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        fit_lognormal_sigma([1.0])


# ---------------------------------------------------------------------------
# bandwidth


def test_bandwidth_pinned_example():
    b = optimal_bandwidth(0.07958, 0.5, 100)
    assert b == pytest.approx((0.15 ** 0.2) * (0.07958 ** 0.4), rel=1e-12)
    assert b == pytest.approx(0.2486, abs=5e-4)


def test_bandwidth_zero_qor_floors_at_1_over_n():
    assert optimal_bandwidth(0.0, 0.5, 100) == 0.01
    assert optimal_bandwidth(0.0, 0.9, 25) == 0.04


def test_bandwidth_boundary_clamp():
    # raw value well above p = 0.1 must clamp to 0.1
    b_raw = optimal_bandwidth(0.07958, 0.1, 100, bw_correct=False)
    assert b_raw > 0.1
    assert optimal_bandwidth(0.07958, 0.1, 100) == pytest.approx(0.1)


def test_bandwidth_without_correction_is_raw():
    b_raw = optimal_bandwidth(0.02, 0.02, 50, bw_correct=False)
    assert b_raw == pytest.approx((15.0 / 50.0) ** 0.2 * 0.02 ** 0.4, rel=1e-12)
    assert optimal_bandwidth(0.02, 0.02, 50) == pytest.approx(0.02)


def test_bandwidth_range_property():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = float(rng.uniform(0.01, 0.99))
        n = int(rng.integers(2, 5000))
        qor = float(rng.uniform(0.0, 0.3))
        b = optimal_bandwidth(qor, p, n)
        edge = min(p, 1.0 - p)
        if edge >= 1.0 / n:
            assert 1.0 / n <= b <= edge + 1e-15
        else:
            assert b == pytest.approx(1.0 / n)


def test_bandwidth_kernel_constants():
    assert EPANECHNIKOV.bandwidth_constant == pytest.approx(15.0 ** 0.2, rel=1e-12)
    # R(K) = 1/(2 sqrt(pi)), mu2 = 1 for the Gaussian
    assert GAUSSIAN.bandwidth_constant == pytest.approx(
        (1.0 / (2.0 * math.sqrt(math.pi))) ** 0.2, rel=1e-12)


# ---------------------------------------------------------------------------
# direct kernel estimator


def test_kernel_constant_sample_telescopes_to_zero():
    x = np.full(50, 7.3)
    assert qdens_kernel(x, 0.5, 0.2) == pytest.approx(0.0, abs=1e-8)


def test_kernel_uniform_grid_near_one():
    n = 1000
    x = np.arange(1, n + 1) / n
    b = optimal_bandwidth(qor_lognormal(1.0, 0.5), 0.5, n)
    assert qdens_kernel(x, 0.5, b) == pytest.approx(1.0, abs=0.05)


def test_kernel_normal_simulation_oracle():
    rng = np.random.default_rng(321)
    b = optimal_bandwidth(qor_lognormal(1.0, 0.5), 0.5, 200)
    est = [qdens_kernel(rng.normal(size=200), 0.5, b) for _ in range(100)]
    assert np.mean(est) == pytest.approx(SQRT_2PI, rel=0.20)


def test_kernel_windowing_matches_full_sum():
    # the windowed evaluation must equal the literal full sum
    rng = np.random.default_rng(17)
    x = np.sort(rng.lognormal(size=300))
    n = x.size
    for p, b in [(0.5, 0.13), (0.05, 0.04), (0.97, 0.02), (0.5, 0.9)]:
        i = np.arange(1, n + 1)
        w = (EPANECHNIKOV((p - (i - 1) / n) / b) - EPANECHNIKOV((p - i / n) / b)) / b
        full = float(np.dot(x, w))
        assert qdens_kernel(x, p, b) == pytest.approx(full, rel=1e-12, abs=1e-12)


def test_kernel_gaussian_route():
    rng = np.random.default_rng(7)
    x = rng.normal(size=500)
    b = optimal_bandwidth(qor_lognormal(1.0, 0.5), 0.5, 500, kernel=GAUSSIAN)
    est = qdens_kernel(x, 0.5, b, kernel=GAUSSIAN)
    assert est == pytest.approx(SQRT_2PI, rel=0.35)


def test_kernel_scale_equivariance_and_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.lognormal(size=120)
    b = 0.11
    base = qdens_kernel(x, 0.4, b)
    assert qdens_kernel(5.0 * x, 0.4, b) == pytest.approx(5.0 * base, rel=1e-12)
    # interior p with the kernel window inside (0,1): weights sum to zero,
    # so adding a constant cancels exactly up to rounding
    shifted = qdens_kernel(x + 1000.0, 0.4, b)
    assert shifted == pytest.approx(base, abs=1e-7)


def test_kernel_argument_validation():
    with pytest.raises(ValueError):
        qdens_kernel([1.0, 2.0], 0.0, 0.1)
    with pytest.raises(ValueError):
        qdens_kernel([1.0, 2.0], 0.5, 0.0)
    with pytest.raises(ValueError):
        qdens_kernel([1.0, 2.0], 0.5, 1.0)


# ---------------------------------------------------------------------------
# density-inversion estimator


def test_inversion_normal_oracle():
    rng = np.random.default_rng(42)
    x = rng.normal(size=5000)
    assert qdens_inversion(x, 0.5) == pytest.approx(SQRT_2PI, rel=0.20)


def test_inversion_uniform_oracle():
    rng = np.random.default_rng(43)
    x = rng.uniform(size=1000)
    assert qdens_inversion(x, 0.5) == pytest.approx(1.0, abs=0.1)


def test_inversion_constant_sample_errors():
    with pytest.raises(ValueError):
        qdens_inversion(np.full(20, 3.0), 0.5)


# ---------------------------------------------------------------------------
# method config


def test_qdmethod_validation():
    assert QdMethod().sigma == 1.0
    assert QdMethod(sigma=None).sigma is None
    with pytest.raises(ValueError):
        QdMethod(kind="nope")
    with pytest.raises(ValueError):
        QdMethod(sigma=0.0)

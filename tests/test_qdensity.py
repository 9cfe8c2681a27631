"""Quantile density estimation: QOR, bandwidths, kernel and inversion."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from quantest.qdensity import (
    _BANDWIDTH_CONSTANT,
    _WINDOW_MIN,
    QdMethod,
    _fit_sigma,
    _inversion_grid,
    _inversion_windows,
    fit_lognormal_sigma,
    optimal_bandwidth,
    qdens_inversion,
    qdens_kernel,
    qor_lognormal,
)
from quantest.quantiles import _bracket, _quantiles_sorted, _sorted_rows

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


def test_fit_sigma_of_a_stack_is_the_std_of_the_log_of_each_sorted_row():
    # the fit reads the sorted rows of the stack, so a stack gives each
    # sample's fit bit for bit
    rng = np.random.default_rng(41)
    values = np.concatenate([rng.lognormal(size=(3, 257)), rng.normal(size=(3, 257))])
    sigma, shift = _fit_sigma(_sorted_rows(values))
    for v, got_sigma, got_shift in zip(values, sigma, shift):
        want_sigma, want_shift = fit_lognormal_sigma(v)
        assert (got_sigma, got_shift) == (want_sigma, want_shift)
        assert got_sigma == np.std(np.log(np.sort(v) + got_shift), ddof=1)


@pytest.mark.parametrize("n", [2, 3, 100, 10**4, 10**6])
def test_fit_sigma_in_place_equals_the_std_of_the_shifted_logs(n):
    # the in-place fit is np.std(np.log(rows + shift), ddof=1) bit for bit,
    # on positive rows (shift 0) and on rows with a nonzero shift
    rng = np.random.default_rng(n)
    for values in (rng.lognormal(size=(2, n)), rng.normal(size=(2, n)),
                   np.stack([rng.lognormal(size=n), rng.normal(size=n)])):
        xs = _sorted_rows(values)
        lo, hi = xs[:, 0], xs[:, -1]
        shift = np.where(lo > 0, 0.0, -lo + (hi - lo) / n)
        sigma, got_shift = _fit_sigma(xs)
        np.testing.assert_array_equal(got_shift, shift)
        np.testing.assert_array_equal(
            sigma, np.std(np.log(xs + shift[:, None]), axis=1, ddof=1))


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


def raw_bandwidth(qor, n):
    return 15.0 ** 0.2 * abs(qor) ** 0.4 * n ** -0.2


def test_bandwidth_boundary_clamp():
    # raw value well above p = 0.1 must clamp to 0.1
    assert raw_bandwidth(0.07958, 100) > 0.1
    assert optimal_bandwidth(0.07958, 0.1, 100) == pytest.approx(0.1)
    # and well above 1 - p = 0.05 > 1/n must clamp to 0.05
    assert raw_bandwidth(0.02, 100) > 0.05
    assert optimal_bandwidth(0.02, 0.95, 100) == pytest.approx(0.05)


def test_bandwidth_without_correction_is_raw():
    # 1/n = 0.02 < b_raw = 0.164 < min(p, 1 - p) = 0.3: neither clamp binds
    b_raw = raw_bandwidth(-0.02, 50)
    assert 1.0 / 50 < b_raw < 0.3
    assert optimal_bandwidth(-0.02, 0.3, 50) == pytest.approx(b_raw, rel=1e-12)
    assert optimal_bandwidth(-0.02, 0.7, 50) == pytest.approx(b_raw, rel=1e-12)


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
    # (R(K) / mu2(K)^2)^(1/5) = 15^(1/5) for the Epanechnikov kernel, pinned
    # to the bit: 15 ** 0.2 rounds one ulp higher
    assert _BANDWIDTH_CONSTANT == 1.7187719275874787


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
    def epanechnikov(u):
        return 0.75 * np.maximum(1.0 - u**2, 0.0)

    rng = np.random.default_rng(17)
    x = np.sort(rng.lognormal(size=300))
    n = x.size
    for p, b in [(0.5, 0.13), (0.05, 0.04), (0.97, 0.02), (0.5, 0.9)]:
        i = np.arange(1, n + 1)
        w = (epanechnikov((p - (i - 1) / n) / b) - epanechnikov((p - i / n) / b)) / b
        full = float(np.dot(x, w))
        assert qdens_kernel(x, p, b) == pytest.approx(full, rel=1e-12, abs=1e-12)


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


# numpy's names for the Hyndman-Fan types, an independent route to x_p
NUMPY_METHOD = {4: "interpolated_inverted_cdf", 5: "hazen", 6: "weibull", 7: "linear",
                8: "median_unbiased", 9: "normal_unbiased"}


def inversion_oracle(x, p, quantile_type=8):
    """1 / mean(phi((x_p - X_i)/h)) / h, with the Silverman h written out."""
    x = np.asarray(x, dtype=float)
    sd = np.std(x, ddof=1)
    q1, q3 = np.quantile(x, [0.25, 0.75], method="median_unbiased")
    scale = min(sd, (q3 - q1) / 1.349)
    if scale <= 0:
        scale = sd
    h = 0.9 * scale * x.size ** -0.2
    xp = np.quantile(x, p, method=NUMPY_METHOD[quantile_type])
    fhat = math.fsum(np.exp(-0.5 * ((xp - x) / h) ** 2) / SQRT_2PI) / x.size / h
    if fhat == 0.0:
        raise ValueError("zero density at quantile")
    return 1.0 / fhat


INVERSION_PS = np.array([0.01, 0.1, 0.25, 0.5, 0.8, 0.99])
# about two thirds tied at 5: both quartiles are 5, so h comes from the sd
TIED = np.concatenate([np.full(70, 5.0), np.random.default_rng(7).normal(5.0, 2.0, 30)])


@pytest.mark.parametrize("quantile_type", sorted(NUMPY_METHOD))
@pytest.mark.parametrize("n", [2, 3, 100, 10**4])
def test_inversion_matches_the_literal_sum(n, quantile_type):
    rng = np.random.default_rng(n + quantile_type)
    x = rng.lognormal(size=n)
    got = _inversion_grid(_sorted_rows(x[None]), INVERSION_PS, quantile_type)[0]
    want = [inversion_oracle(x, p, quantile_type) for p in INVERSION_PS]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    for p, w in zip(INVERSION_PS, want):
        assert qdens_inversion(x, p, quantile_type) == pytest.approx(w, rel=1e-13, abs=0)


@pytest.mark.parametrize("quantile_type", sorted(NUMPY_METHOD))
def test_inversion_falls_back_to_the_sd_when_the_iqr_is_zero(quantile_type):
    q1, q3 = np.quantile(TIED, [0.25, 0.75], method="median_unbiased")
    assert q1 == q3 == 5.0
    got = _inversion_grid(_sorted_rows(TIED[None]), INVERSION_PS, quantile_type)[0]
    want = [inversion_oracle(TIED, p, quantile_type) for p in INVERSION_PS]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_inversion_zero_density_at_quantile():
    # x_p at p = 0.1 falls in the gap between -1e6 and a cluster near 0
    # whose quartiles set h to about 1e-4: every kernel term underflows
    x = np.concatenate([np.full(10, -1e6), np.linspace(0.0, 1e-3, 90)])
    with pytest.raises(ValueError, match="zero density at quantile"):
        inversion_oracle(x, 0.1)
    with pytest.raises(ValueError, match="zero density at quantile"):
        qdens_inversion(x, 0.1)
    with pytest.raises(ValueError, match="zero density at quantile"):
        _inversion_grid(_sorted_rows(x[None]), np.array([0.1, 0.5]), 8)


def test_inversion_row_of_a_stack_equals_the_row_alone():
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.lognormal(size=(4, 300)), rng.normal(size=(3, 300)),
                             np.round(rng.normal(size=(3, 300)), 1)])
    ps = np.array([0.05, 0.5, 0.7, 0.95])
    for quantile_type in (4, 8):
        stack = _inversion_grid(_sorted_rows(values), ps, quantile_type)
        for v, row in zip(values, stack):
            np.testing.assert_array_equal(row, _inversion_grid(_sorted_rows(v[None]), ps,
                                                               quantile_type)[0])


def inversion_temporaries(rows, p, quantile_type, windowed=True):
    """_inversion_grid as a fresh array per step: np.std and exp(-0.5 u u).

    Each row sums its window from _inversion_windows, or the whole of
    itself when windowed is False, as every row did before the windows.
    """
    n = rows.shape[1]
    h = bandwidths(rows)
    xp = _quantiles_sorted(rows, p, quantile_type)
    lo, hi = _inversion_windows(rows, p, quantile_type, xp, h)
    if not windowed:
        lo, hi = np.zeros_like(lo), np.full_like(hi, n)
    fhat = np.empty(xp.shape)
    for r, (row, hr) in enumerate(zip(rows, h)):
        for j, x in enumerate(xp[r]):
            u = (x - row[lo[r, j]:hi[r, j]]) / hr
            fhat[r, j] = np.sum(np.exp(-0.5 * u * u)) / n / (SQRT_2PI * hr)
    return 1.0 / fhat


def bandwidths(rows):
    """The Silverman bandwidth of each row, from np.std and the type-8 quartiles."""
    sd = np.std(rows, axis=1, ddof=1)
    lower, upper = _quantiles_sorted(rows, [0.25, 0.75]).T
    scale = np.minimum(sd, (upper - lower) / 1.349)
    return 0.9 * np.where(scale > 0, scale, sd) * rows.shape[1] ** -0.2


def windows(rows, ps, quantile_type=8):
    xp = _quantiles_sorted(rows, ps, quantile_type)
    return _inversion_windows(rows, ps, quantile_type, xp, bandwidths(rows))


@pytest.mark.parametrize("quantile_type", [4, 8, 9])
@pytest.mark.parametrize("n", [2, 3, 100, 10**4, 10**5])
def test_inversion_in_place_equals_fresh_temporaries(n, quantile_type):
    # one reused buffer gives the same bits as a new array per step, over
    # the same windows, on smooth, tied and tiny-scale rows
    rng = np.random.default_rng(n + 7 * quantile_type)
    values = np.stack([rng.lognormal(size=n), rng.normal(size=n),
                       np.round(rng.normal(size=n), 1) + (np.arange(n) == 0),
                       1.0 + 1e-12 * rng.normal(size=n)])
    xs = _sorted_rows(values)
    ps = np.array([0.01, 0.1, 0.25, 0.5, 0.8, 0.99])
    np.testing.assert_array_equal(_inversion_grid(xs, ps, quantile_type),
                                  inversion_temporaries(xs, ps, quantile_type))


WINDOW_PS = np.array([0.001, 0.1, 0.5, 0.9, 0.999])


@pytest.mark.parametrize("rounded", [False, True])
@pytest.mark.parametrize("n", [10**5, 10**6])
def test_inversion_window_matches_the_literal_sum(n, rounded):
    # heavy tails, and rows rounded to one decimal, so ties and zeros
    x = np.random.default_rng(n).lognormal(0.0, 2.0, n)
    if rounded:
        x = np.round(x, 1)
    xs = _sorted_rows(x[None])
    lo, hi = windows(xs, WINDOW_PS)
    assert np.count_nonzero(hi - lo < n // 2) >= 2  # the tails sum windows
    got = _inversion_grid(xs, WINDOW_PS, 8)[0]
    want = [inversion_oracle(x, p) for p in WINDOW_PS]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_inversion_stack_mixing_windows_and_whole_rows_equals_each_row_alone():
    rng = np.random.default_rng(21)
    n = 2 * _WINDOW_MIN
    values = np.stack([rng.lognormal(size=n), rng.normal(size=n), rng.lognormal(0.0, 2.0, n),
                       np.round(rng.normal(size=n), 1), rng.uniform(size=n)])
    xs = _sorted_rows(values)
    ps = np.array([0.02, 0.5, 0.98])
    lo, hi = windows(xs, ps)
    whole = hi - lo == n
    # at 0.02 some rows sum their whole row and some a window; at 0.5 all
    # sum their whole row
    assert whole[:, 0].any() and not whole[:, 0].all() and whole[:, 1].all()
    stack = _inversion_grid(xs, ps, 8)
    for r, row in enumerate(xs):
        np.testing.assert_array_equal(stack[r], _inversion_grid(row[None], ps, 8)[0])
    np.testing.assert_array_equal(stack, inversion_temporaries(xs, ps, 8))


def test_inversion_window_reaches_a_nearest_point_beyond_10h():
    # 90% of the values on [0, 1] set h to about 0.05; x_p lies in the
    # middle of the gap up to the rest, 12 h or more from either side
    n = 2 * _WINDOW_MIN
    m = 9 * n // 10
    x = np.concatenate([np.linspace(0.0, 1.0, m), np.linspace(2.3, 3.3, n - m)])
    p = (m + 1 / 6) / (n + 1 / 3)  # h(p) = m + 1/2: halfway from X_(m) to X_(m+1)
    xs = _sorted_rows(x[None])
    xp = _quantiles_sorted(xs, [p], 8)[0, 0]
    h = bandwidths(xs)[0]
    assert min(xp - 1.0, 2.3 - xp) > 12 * h
    lo, hi = windows(xs, np.array([p]))
    assert 0 < hi - lo < n // 2
    got = _inversion_grid(xs, np.array([p]), 8)[0, 0]
    # every term is near exp(-72) or below, so the literal sum takes this
    # x_p and h: a last-bit change in either moves it by about 1e-14
    fhat = math.fsum(np.exp(-0.5 * ((xp - x) / h) ** 2)) / n / (SQRT_2PI * h)
    assert got == pytest.approx(1.0 / fhat, rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [100, _WINDOW_MIN - 1, _WINDOW_MIN, 10**5])
def test_inversion_window_covering_its_row_is_the_full_sum(n):
    # every row shorter than _WINDOW_MIN, and every window that holds at
    # least half its row, gives the bits of the sum over the whole row
    rng = np.random.default_rng(n)
    xs = _sorted_rows(np.stack([rng.normal(size=n), rng.uniform(size=n)]))
    ps = np.array([0.3, 0.5, 0.7])
    lo, hi = windows(xs, ps)
    assert np.all(lo == 0) and np.all(hi == n)
    np.testing.assert_array_equal(_inversion_grid(xs, ps, 8),
                                  inversion_temporaries(xs, ps, 8, windowed=False))


def searched_windows(rows, ps, quantile_type=8):
    """The windows of _inversion_windows with every row of n >= _WINDOW_MIN searched."""
    n = rows.shape[1]
    xp = _quantiles_sorted(rows, ps, quantile_type)
    k = _bracket(n, ps, quantile_type)[0]
    below, above = rows[:, k - 1], rows[:, k]
    reach = np.hypot(np.minimum(xp - below, above - xp), 10.0 * bandwidths(rows)[:, None])
    left, right = np.minimum(xp - reach, below), np.maximum(xp + reach, above)
    lo = np.stack([np.searchsorted(row, v, "left") for row, v in zip(rows, left)])
    hi = np.stack([np.searchsorted(row, v, "right") for row, v in zip(rows, right)])
    half = 2 * (hi - lo) >= n
    return np.where(half, 0, lo), np.where(half, n, hi)


@pytest.fixture
def searches(monkeypatch):
    """The rows np.searchsorted searched, by their length."""
    seen = []
    searchsorted = np.searchsorted

    def spy(a, v, side="left"):
        seen.append(len(a))
        return searchsorted(a, v, side)

    monkeypatch.setattr(np, "searchsorted", spy)
    return seen


@pytest.mark.parametrize("quantile_type", [4, 8])
@pytest.mark.parametrize("n", [_WINDOW_MIN, 10**5, 2**18 + 1])
def test_inversion_windows_skip_only_searches_that_give_the_whole_row(n, quantile_type,
                                                                      searches):
    rng = np.random.default_rng(n + quantile_type)
    rows = _sorted_rows(np.stack([rng.lognormal(0.0, 0.6, n), rng.lognormal(0.0, 2.0, n),
                                  rng.normal(size=n), np.round(rng.normal(size=n), 1),
                                  rng.uniform(size=n)]))
    for ps in (np.array([0.5]), WINDOW_PS, np.array([0.02, 0.3, 0.98])):
        want = searched_windows(rows, ps, quantile_type)
        got = windows(rows, ps, quantile_type)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
    # the median's window on the lognormal(0, 0.6) row holds the middle
    # half of it below n = 2^18, and the row is not searched; at 2^18 the
    # window still holds half the row, but not the middle half
    searches.clear()
    assert windows(rows[:1], np.array([0.5]), quantile_type)[1] == n
    assert (searches == []) == (n < 2**18)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
def test_inversion_rejects_p_outside_the_open_interval(p):
    x = np.random.default_rng(0).lognormal(size=100)
    with pytest.raises(ValueError, match=r"p must lie strictly inside \(0, 1\)"):
        qdens_inversion(x, p)


def test_inversion_names_an_unsupported_quantile_type():
    with pytest.raises(ValueError, match="unsupported quantile type 99"):
        qdens_inversion(np.arange(10.0), 0.5, quantile_type=99)


# ---------------------------------------------------------------------------
# method config


def test_qdmethod_validation():
    assert QdMethod().sigma == 1.0
    assert QdMethod(sigma=None).sigma is None
    # the density method has no bandwidth rule, so it keeps no sigma
    assert QdMethod(kind="density", sigma=0.7) == QdMethod(kind="density")
    assert QdMethod(kind="density", sigma=1.0).sigma is None
    with pytest.raises(ValueError):
        QdMethod(kind="density", sigma=-1.0)
    with pytest.raises(ValueError):
        QdMethod(kind="nope")
    with pytest.raises(ValueError):
        QdMethod(sigma=0.0)

"""Grid evaluation of the direct kernel quantile density.

Every probability of a qcov call is evaluated in one pass over the order
statistics: small bands are gathered and summed directly, larger grids
read the window sums from a dyadic table of block moments.  Both regimes
must reproduce the literal order-statistic sum.
"""

import math

import numpy as np
import pytest

import quantest.qdensity as qd
from quantest.qcov import qcov
from quantest.qdensity import optimal_bandwidth, qor_lognormal

RTOL = 1e-10
FLOOR = 1e-12  # absolute floor, as a share of the data range


def epanechnikov(u):
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def literal_qdens(xs, p, b):
    """sum_i X_(i) [K_b(p - (i-1)/n) - K_b(p - i/n)], summed exactly.

    Only the order statistics whose two kernel arguments can fall inside
    the support [-1, 1] are summed; every other term is exactly zero.
    """
    n = xs.size
    lo = max(1, math.floor(n * (p - b)) - 1)
    hi = min(n, math.ceil(n * (p + b)) + 2)
    i = np.arange(lo, hi + 1)
    w = (epanechnikov((p - (i - 1) / n) / b) - epanechnikov((p - i / n) / b)) / b
    return math.fsum(xs[i - 1] * w)


def assert_literal(got, xs, ps, bs):
    span = xs[-1] - xs[0]
    for g, p, b in zip(got, ps, bs):
        want = literal_qdens(xs, p, b)
        assert abs(g - want) <= RTOL * abs(want) + FLOOR * span, (p, b, g, want)


@pytest.fixture(params=["default", "band", "table"])
def regime(request, monkeypatch):
    """Run a test with the size switch as shipped, or forced to one side."""
    if request.param == "band":
        monkeypatch.setattr(qd, "_BAND_MAX", 2**62)
    elif request.param == "table":
        monkeypatch.setattr(qd, "_BAND_MAX", 0)
    return request.param


@pytest.fixture
def table_calls(monkeypatch):
    calls = []
    table_sums = qd._table_sums

    def spy(*args):
        calls.append(args[1].size)
        return table_sums(*args)

    monkeypatch.setattr(qd, "_table_sums", spy)
    return calls


def grid(xs, ps, bs):
    """The grid estimates at ps for the sorted sample xs, a stack of one."""
    return qd._qdens_grid(xs[None], np.asarray(ps), np.asarray(bs))[0]


def random_sample(rng, n, case):
    x = [rng.lognormal(size=n), rng.normal(size=n), rng.exponential(size=n)][case % 3]
    x = x * rng.choice([1e-3, 1.0, 1e3])
    if case % 4 == 0:
        x = np.round(x, 1)  # ties
    return np.sort(x)


def qor_bandwidths(ps, n, sigma=1.0):
    return np.array([optimal_bandwidth(qor_lognormal(sigma, p), p, n) for p in ps])


def test_grid_matches_literal_sum_on_random_cases(regime, table_calls):
    rng = np.random.default_rng(20241011)
    for case in range(60):
        n = int(rng.integers(2, 5001))
        xs = random_sample(rng, n, case)
        ps = np.sort(rng.uniform(5e-4, 1.0 - 5e-4, int(rng.integers(1, 13))))
        if case % 2:
            # any bandwidth, so windows run past 0 and 1
            bs = rng.uniform(1e-3, 0.999, ps.size)
        else:
            bs = np.maximum(np.minimum(rng.uniform(0.0, 0.5, ps.size),
                                       np.minimum(ps, 1.0 - ps)), 1.0 / n)
        assert_literal(grid(xs, ps, bs), xs, ps, bs)
    # a QRI-sized grid of interior windows
    xs = random_sample(rng, 5000, 1)
    p = (np.arange(1, 101) - 0.5) / 100
    ps = np.concatenate([p / 2, 1.0 - p / 2])
    bs = qor_bandwidths(ps, xs.size)
    assert_literal(grid(xs, ps, bs), xs, ps, bs)
    if regime == "default":
        assert table_calls, "no case reached the table"
        assert len(table_calls) < 61, "every case took the table"
    elif regime == "band":
        assert not table_calls


def test_grid_matches_literal_sum_at_a_million(regime):
    rng = np.random.default_rng(7)
    xs = np.sort(rng.lognormal(0.0, 0.8, 10**6))
    ps = np.array([0.0025, 0.1, 0.5, 0.9, 0.9975])
    bs = qor_bandwidths(ps, xs.size)
    assert_literal(grid(xs, ps, bs), xs, ps, bs)


def test_a_median_window_of_over_12500_spacings_matches_the_literal_sum(table_calls):
    # the band path sums the whole window at once
    rng = np.random.default_rng(17)
    n = 10**5
    xs = np.sort(rng.lognormal(0.0, 0.8, n))
    ps = np.array([0.5])
    bs = qor_bandwidths(ps, n, sigma=0.8)
    assert 2 * n * bs[0] >= 12_500
    assert_literal(grid(xs, ps, bs), xs, ps, bs)
    assert not table_calls


def test_a_table_over_several_chunks_matches_the_literal_sum(table_calls):
    # more than 2^17 spacings: the table is built in chunks, each leaf's
    # zeroth moment telescoped from its two end values
    rng = np.random.default_rng(19)
    n = 2**17 + 12_345
    xs = np.sort(np.round(rng.lognormal(size=n), 3))  # ties: many zero spacings
    p = (np.arange(1, 51) - 0.5) / 50
    ps = np.concatenate([p / 2, 1.0 - p[::-1] / 2, [0.05, 0.93]])
    bs = np.concatenate([qor_bandwidths(ps[:-2], n), [0.2, 0.3]])  # two reach D_0/D_n
    assert_literal(grid(xs, ps, bs), xs, ps, bs)
    assert table_calls == [ps.size]
    assert n // qd._BLOCK > qd._CHUNK


def test_stacked_rows_with_their_own_fitted_bandwidths_match_the_literal_sum(table_calls):
    # fitted sigma gives each row its own bandwidths; the band goes in row chunks
    rng = np.random.default_rng(23)
    n, ps = 20_000, np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    rows = np.sort(rng.lognormal(0.0, rng.uniform(0.4, 1.5, (8, 1)), (8, n)), axis=1)
    sigma, _ = qd._fit_sigma(rows)
    bs = qd._bandwidths(qd._qor_lognormal(sigma[:, None], ps), ps, n)
    got = qd._qdens_grid(rows, ps, bs)
    assert rows.shape[0] * ps.size * 2 * n * bs.max() > qd._BAND_MAX
    for xs, g, b in zip(rows, got, bs):
        assert_literal(g, xs, ps, b)
    assert not table_calls


@pytest.mark.parametrize("p, b", [(0.05, 0.2), (0.93, 0.3), (0.5, 0.9), (0.01, 0.999)])
def test_truncated_windows_keep_the_end_terms(regime, p, b):
    rng = np.random.default_rng(3)
    xs = np.sort(rng.lognormal(size=700))
    assert_literal(grid(xs, [p], [b]), xs, [p], [b])


def test_plateau_windows_are_exactly_zero(regime):
    # every spacing inside the window is zero, so the nonnegative terms sum
    # to exactly zero rather than to rounding noise
    xs = np.concatenate([np.linspace(0.0, 1.0, 1500), np.full(7000, 5.0),
                         np.linspace(9.0, 10.0, 1500)])
    ps = np.array([0.3, 0.5, 0.7])
    got = grid(xs, ps, np.full(3, 0.1))
    np.testing.assert_array_equal(got, 0.0)


def test_location_invariance_and_scale_equivariance(regime):
    rng = np.random.default_rng(9)
    x = rng.lognormal(size=3000)
    p = (np.arange(1, 41) - 0.5) / 40
    ps = np.concatenate([p / 2, 1.0 - p / 2])
    bs = qor_bandwidths(ps, x.size)
    base = grid(np.sort(x), ps, bs)
    moved = grid(np.sort(250.0 + 3.5 * x), ps, bs)
    np.testing.assert_allclose(moved, 3.5 * base, rtol=1e-9)
    # reflecting the sample mirrors the probabilities
    np.testing.assert_allclose(grid(np.sort(-x), 1.0 - ps, bs), base, rtol=1e-9)


def test_qcov_is_positive_semidefinite_on_random_samples(regime):
    rng = np.random.default_rng(13)
    for case in range(20):
        n = int(rng.integers(10, 4000))
        x = random_sample(rng, n, case)
        if np.ptp(x) == 0.0:
            continue
        ps = rng.uniform(0.005, 0.995, int(rng.integers(1, 120)))
        c = qcov(x, ps)
        np.testing.assert_array_equal(c.matrix, c.matrix.T)
        assert np.linalg.eigvalsh(c.matrix).min() >= -1e-10 * np.trace(c.matrix)

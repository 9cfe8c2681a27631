"""The sorted stack and interpolated sample quantiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantest.quantiles import (
    _quantiles_sorted,
    _sorted_one,
    _sorted_rows,
    sample_quantile,
    sample_quantiles,
)

# numpy's names for the same interpolation families, used as an
# independent oracle
NUMPY_METHOD = {
    4: "interpolated_inverted_cdf",
    5: "hazen",
    6: "weibull",
    7: "linear",
    8: "median_unbiased",
    9: "normal_unbiased",
}

PLOTTING = {4: (0.0, 0.0), 5: (0.0, 0.5), 6: (1.0, 0.0), 7: (-1.0, 1.0),
            8: (1.0 / 3.0, 1.0 / 3.0), 9: (0.25, 0.375)}


def reference_quantile(values, p, qtype=8):
    """Brute-force reference: h-position formula evaluated literally."""
    s = np.sort(np.asarray(values, dtype=float))
    n = s.size
    a, b = PLOTTING[qtype]
    h = (n + a) * p + b
    h = min(max(h, 1.0), float(n))
    k = int(math.floor(h))
    if k >= n:
        k = n - 1
    if n == 1:
        return float(s[0])
    g = h - k
    return float(s[k - 1] + g * (s[k] - s[k - 1]))


# ---------------------------------------------------------------------------
# the sorted stack


def test_sorted_one_is_a_stack_of_one_sorted_sample_with_no_pad():
    for data, want in (([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
                       (np.array([[3.0, 1.0], [2.0, 5.0]]), [1.0, 2.0, 3.0, 5.0]),
                       ([-2.0, 0.0, -7.5], [-7.5, -2.0, 0.0]),
                       (4.0, [4.0])):
        got = _sorted_one(data)
        assert got.shape == (1, len(want))
        np.testing.assert_array_equal(got, [want])
        np.testing.assert_array_equal(got, _sorted_rows(np.ravel(data)[None]))
    np.testing.assert_array_equal(_sorted_rows(np.array([[2.0, -1.0], [0.5, 0.25]])),
                                  [[-1.0, 2.0], [0.25, 0.5]])
    for bad, message in (([], "empty sample"), ([1.0, np.nan], "non-finite"),
                         ([1.0, np.inf], "non-finite")):
        with pytest.raises(ValueError, match=message):
            _sorted_one(bad)


# ---------------------------------------------------------------------------
# oracle agreement


def test_matches_bruteforce_reference_small_samples():
    rng = np.random.default_rng(20240817)
    ps = np.linspace(0.0, 1.0, 21)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        x = rng.normal(size=n) * 10.0
        for p in ps:
            got = sample_quantile(x, float(p))
            want = reference_quantile(x, float(p))
            assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("qtype", sorted(NUMPY_METHOD))
def test_matches_numpy_methods(qtype):
    rng = np.random.default_rng(99 + qtype)
    ps = np.linspace(0.01, 0.99, 33)
    for _ in range(50):
        x = rng.normal(size=int(rng.integers(2, 40)))
        got = sample_quantiles(x, ps, quantile_type=qtype)
        want = np.quantile(x, ps, method=NUMPY_METHOD[qtype])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_pinned_type8_values():
    x = np.arange(1.0, 101.0)
    # h = (100 + 1/3) p + 1/3; data are 1..100 so the quantile equals h
    assert sample_quantile(x, 0.5) == pytest.approx(50.5, abs=1e-12)
    assert sample_quantile(x, 0.25) == pytest.approx((100 + 1 / 3) * 0.25 + 1 / 3,
                                                     abs=1e-12)
    iqr = sample_quantile(x, 0.75) - sample_quantile(x, 0.25)
    assert iqr == pytest.approx(50.0 + 1.0 / 6.0, abs=1e-12)


def test_bladder_median_is_pinned_value(bladder):
    # n = 128: h = 64.5, interpolating the 64th and 65th order statistics
    assert sample_quantile(bladder, 0.5) == 6.395
    s = np.sort(bladder)
    assert s[63] == 6.25 and s[64] == 6.54


def test_boundaries_clamp_to_extremes():
    x = [5.0, -2.0, 7.5, 0.0]
    for qtype in range(4, 10):
        assert sample_quantile(x, 0.0, quantile_type=qtype) == -2.0
        assert sample_quantile(x, 1.0, quantile_type=qtype) == 7.5


def test_single_observation_constant():
    for p in (0.0, 0.3, 0.5, 1.0):
        assert sample_quantile([4.2], p) == 4.2


def test_invalid_arguments():
    with pytest.raises(ValueError):
        sample_quantile([1.0, 2.0], -0.01)
    with pytest.raises(ValueError):
        sample_quantile([1.0, 2.0], 1.01)
    with pytest.raises(ValueError):
        sample_quantile([1.0, 2.0], 0.5, quantile_type=3)
    with pytest.raises(ValueError):
        sample_quantile([1.0, 2.0], 0.5, quantile_type=10)


def test_nan_probability_rejected():
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        sample_quantiles([1.0, 2.0, 3.0, 4.0], [math.nan])
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        sample_quantiles([1.0, 2.0, 3.0, 4.0], [0.5, math.nan])
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        sample_quantile([1.0, 2.0, 3.0, 4.0], math.nan)


def test_sample_quantiles_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    x = rng.normal(size=17)
    ps = [0.9, 0.1, 0.5, 0.1]  # unsorted, duplicated
    got = sample_quantiles(x, ps)
    assert got.shape == (4,)
    for g, p in zip(got, ps):
        assert g == sample_quantile(x, p)
    assert sample_quantiles(x, []).size == 0


def test_quantiles_sorted_batched_rows():
    rng = np.random.default_rng(11)
    rows = np.sort(rng.normal(size=(6, 25)), axis=1)
    ps = np.array([0.2, 0.5, 0.8])
    got = _quantiles_sorted(rows, ps, 8)
    assert got.shape == (6, 3)
    for i in range(6):
        for j, p in enumerate(ps):
            assert got[i, j] == pytest.approx(
                reference_quantile(rows[i], float(p)), abs=1e-12)


# ---------------------------------------------------------------------------
# properties

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False, width=64)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(finite, min_size=1, max_size=30),
       p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0))
def test_monotone_in_p(xs, p1, p2):
    lo, hi = min(p1, p2), max(p1, p2)
    assert sample_quantile(xs, lo) <= sample_quantile(xs, hi) + 1e-12


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(finite, min_size=1, max_size=30), p=st.floats(0.0, 1.0))
def test_range_bounds(xs, p):
    q = sample_quantile(xs, p)
    assert min(xs) <= q <= max(xs)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=20),
       p=st.floats(0.0, 1.0),
       a=st.floats(0.01, 100.0), c=st.floats(-1e3, 1e3))
def test_affine_equivariance(xs, p, a, c):
    x = np.asarray(xs)
    got = sample_quantile(a * x + c, p)
    want = a * sample_quantile(x, p) + c
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_ties_are_interpolated_naturally():
    x = [1.0, 1.0, 1.0, 1.0, 5.0]
    assert sample_quantile(x, 0.5) == 1.0
    assert sample_quantile(x, 0.95) > 1.0

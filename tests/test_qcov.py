"""Covariance matrix of quantile estimators."""

import math

import numpy as np
import pytest

from quantest.inference import q_test_one
from quantest.measures import MEASURE_NAMES, resolve_measure
from quantest.qcov import _bridge_form, _qhat_rows, qcov
from quantest.qdensity import (
    QdMethod,
    fit_lognormal_sigma,
    optimal_bandwidth,
    qor_lognormal,
)
from quantest.quantiles import _padded_rows, sample_quantiles

# published covariance matrix for the committed standard-normal n=100
# fixture at probabilities (0.25, 0.5, 0.75)
NORM100_TARGET = np.array([
    [0.014761324, 0.008562415, 0.007882055],
    [0.008562415, 0.014900078, 0.013716134],
    [0.007882055, 0.013716134, 0.037878793],
])


def test_reproduces_published_matrix(norm100):
    c = qcov(norm100, [0.25, 0.5, 0.75])
    rel = np.abs(c.matrix - NORM100_TARGET) / np.abs(NORM100_TARGET)
    # contract tolerance
    assert rel.max() < 0.05
    # regression lock on the default configuration (fixed sigma = 1)
    assert rel.max() < 1e-4


def test_single_probability_diagonal(norm100):
    c = qcov(norm100, [0.5])
    assert c.matrix.shape == (1, 1)
    v = c.matrix[0, 0]
    assert v >= 0.0
    assert v == pytest.approx(NORM100_TARGET[1, 1], rel=1e-4)


def test_median_variance_matches_asymptotics():
    # var(median) for N(0,1), n = 100 is p(1-p)/(n phi(0)^2) = pi/200
    rng = np.random.default_rng(123)
    n = 100
    vals = [qcov(rng.normal(size=n), [0.5]).matrix[0, 0] for _ in range(1000)]
    mean_v = float(np.mean(vals))
    assert mean_v == pytest.approx(math.pi / 200.0, rel=0.15)


def test_symmetry_and_psd_random_samples():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.lognormal(size=int(rng.integers(20, 300)))
        us = np.sort(rng.uniform(0.05, 0.95, size=int(rng.integers(1, 6))))
        c = qcov(x, us)
        np.testing.assert_array_equal(c.matrix, c.matrix.T)
        eig = np.linalg.eigvalsh(c.matrix)
        assert eig.min() >= -1e-10 * np.trace(c.matrix)


def test_entry_formula_orientation(norm100):
    # entry (i, j) with p_i <= p_j must be p_i (1 - p_j) qh_i qh_j / n
    n = norm100.size
    p1, p2 = 0.2, 0.7
    c = qcov(norm100, [p1, p2])
    v1 = qcov(norm100, [p1]).matrix[0, 0]
    v2 = qcov(norm100, [p2]).matrix[0, 0]
    q1 = math.sqrt(v1 * n / (p1 * (1 - p1)))
    q2 = math.sqrt(v2 * n / (p2 * (1 - p2)))
    want = p1 * (1 - p2) * q1 * q2 / n
    assert c.matrix[0, 1] == pytest.approx(want, rel=1e-10)
    assert c.matrix[1, 0] == pytest.approx(want, rel=1e-10)
    # and with the arguments reversed the same number appears
    c_rev = qcov(norm100, [p2, p1])
    assert c_rev.matrix[0, 1] == pytest.approx(want, rel=1e-12)


def test_scale_equivariance(norm100):
    a = 3.7
    base = qcov(norm100, [0.3, 0.6]).matrix
    scaled = qcov(a * norm100, [0.3, 0.6]).matrix
    np.testing.assert_allclose(scaled, a * a * base, rtol=1e-12)


def test_nan_probability_rejected(norm100):
    with pytest.raises(ValueError, match="strictly inside"):
        qcov(norm100, [math.nan, 0.5])


def test_duplicate_probabilities_mirrored(norm100):
    c = qcov(norm100, [0.5, 0.25, 0.5])
    assert list(c.probs) == [0.5, 0.25, 0.5]
    base = qcov(norm100, [0.5, 0.25])
    # rows/cols for the duplicated probability are identical
    np.testing.assert_array_equal(c.matrix[0], c.matrix[2])
    assert c.matrix[0, 0] == base.matrix[0, 0]
    assert c.matrix[0, 1] == base.matrix[0, 1]
    assert c.matrix[2, 2] == base.matrix[0, 0]


def test_caller_order_preserved(norm100):
    c = qcov(norm100, [0.75, 0.25])
    assert list(c.probs) == [0.75, 0.25]
    cc = qcov(norm100, [0.25, 0.75])
    assert c.matrix[0, 0] == cc.matrix[1, 1]
    assert c.matrix[0, 1] == cc.matrix[0, 1]


def test_validation_errors(norm100):
    with pytest.raises(ValueError):
        qcov(norm100, [])
    with pytest.raises(ValueError):
        qcov(norm100, [0.0])
    with pytest.raises(ValueError):
        qcov(norm100, [1.0])
    with pytest.raises(ValueError):
        qcov(np.full(30, 2.0), [0.5])


@pytest.mark.parametrize("method", [QdMethod(), QdMethod(kind="density")])
def test_unsupported_quantile_type_is_named(norm100, method):
    with pytest.raises(ValueError, match="unsupported quantile type 99"):
        qcov(norm100, [0.5], method=method, quantile_type=99)


def test_density_method_route(norm100):
    c = qcov(norm100, [0.25, 0.5, 0.75], method=QdMethod(kind="density"))
    np.testing.assert_array_equal(c.matrix, c.matrix.T)
    assert np.all(np.diag(c.matrix) > 0.0)
    assert c.sigma is None and c.shift is None
    # same asymptotics, looser agreement with the published matrix
    rel = np.abs(c.matrix - NORM100_TARGET) / np.abs(NORM100_TARGET)
    assert rel.max() < 0.6


def test_sigma_metadata_modes(norm100):
    default = qcov(norm100, [0.5])
    assert default.sigma == 1.0 and default.shift is None

    fitted = qcov(norm100, [0.5], method=QdMethod(sigma=None))
    sig, shift = fit_lognormal_sigma(norm100)
    assert fitted.sigma == pytest.approx(sig)
    assert fitted.shift == pytest.approx(shift)
    assert fitted.shift > 0.0  # data contain negatives, so a shift applied

    fixed = qcov(norm100, [0.5], method=QdMethod(sigma=0.7))
    assert fixed.sigma == 0.7 and fixed.shift is None


def test_flooring_flags_zero_density():
    # a long interior plateau makes the kernel window see constant order
    # statistics, so the raw estimate telescopes to zero and is floored
    x = np.concatenate([np.linspace(0, 1, 15), np.full(70, 5.0),
                        np.linspace(9, 10, 15)])
    c = qcov(x, [0.5])
    assert c.floored == (0.5,)
    assert 0.0 < c.matrix[0, 0] < 1e-12


def test_bandwidths_follow_the_caller_order(norm100):
    us = [0.75, 0.1, 0.5, 0.1]
    c = qcov(norm100, us)
    want = [optimal_bandwidth(qor_lognormal(1.0, u), u, norm100.size) for u in us]
    np.testing.assert_allclose(c.bandwidths, want, rtol=1e-14)
    assert c.bandwidths[1] == c.bandwidths[3]
    assert not c.bandwidths.flags.writeable
    fitted = qcov(norm100, us, method=QdMethod(sigma=None))
    want = [optimal_bandwidth(qor_lognormal(fitted.sigma, u), u, norm100.size) for u in us]
    np.testing.assert_allclose(fitted.bandwidths, want, rtol=1e-14)
    assert qcov(norm100, us, method=QdMethod(kind="density")).bandwidths is None


# ---------------------------------------------------------------------------
# _bridge_form: the O(d) quadratic form against the public matrix

PLATEAU = np.concatenate([np.linspace(0, 1, 15), np.full(70, 5.0), np.linspace(9, 10, 15)])


def bridge_forms(rows, ps, w1, w2, method):
    """_bridge_form of w1 and w2, given over ps in the caller's order, per row."""
    values = np.atleast_2d(rows)
    uniq, inverse = np.unique(ps, return_inverse=True)
    qhat, *_ = _qhat_rows(_padded_rows(values), uniq, method, 8)
    # coefficients at a repeated probability add up on the unique grid
    a = np.bincount(inverse, w1, uniq.size) * qhat
    c = np.bincount(inverse, w2, uniq.size) * qhat
    return _bridge_form(uniq, a, c, values.shape[1])


@pytest.mark.parametrize("label, ps, method", [
    ("sorted", [0.1, 0.25, 0.5, 0.75, 0.9], QdMethod()),
    ("unsorted with duplicates", [0.75, 0.1, 0.5, 0.1, 0.9, 0.5, 0.02], QdMethod()),
    ("fitted sigma", [0.6, 0.05, 0.3, 0.3, 0.95], QdMethod(sigma=None)),
    ("density", [0.8, 0.2, 0.5, 0.2], QdMethod(kind="density")),
    # 1/n > min(p, 1 - p): the bandwidth is 1/n and the window reaches the end terms
    ("extreme tails", [0.997, 0.003, 0.5, 0.003], QdMethod()),
    ("one probability", [0.3], QdMethod()),
    ("wide grid", np.linspace(0.01, 0.99, 99)[::-1], QdMethod()),
])
def test_bridge_form_matches_the_matrix_product(label, ps, method):
    rng = np.random.default_rng(len(label))
    ps = np.asarray(ps, dtype=float)
    rows = rng.lognormal(size=(4, 150))
    rows[3] = np.round(rows[3], 1)  # ties
    w1, w2 = rng.normal(size=(2, ps.size))
    v1 = bridge_forms(rows, ps, w1, w1, method)
    v12 = bridge_forms(rows, ps, w1, w2, method)
    for r, x in enumerate(rows):
        m = qcov(x, ps, method).matrix
        assert v1[r] == pytest.approx(w1 @ m @ w1, rel=1e-13, abs=0.0)
        # a cross form can cancel to near zero, so its rounding is measured
        # against the form of the absolute values, which bounds both sums
        assert abs(v12[r] - w1 @ m @ w2) <= 1e-13 * (np.abs(w1) @ m @ np.abs(w2))
        # a stack of one gives the row of the stack
        assert bridge_forms(x, ps, w1, w2, method)[0] == v12[r]


def test_bridge_form_with_floored_points():
    ps = np.array([0.5, 0.2, 0.45, 0.9])
    c = qcov(PLATEAU, ps)
    assert c.floored == (0.45, 0.5)
    w1, w2 = np.array([1.0, -2.0, 0.5, 1.5]), np.array([0.0, 1.0, 1.0, -1.0])
    got = bridge_forms(PLATEAU, ps, w1, w2, QdMethod())[0]
    assert got == pytest.approx(w1 @ c.matrix @ w2, rel=1e-13, abs=0.0)


def test_bridge_form_is_the_diagonal_on_one_point():
    p = np.array([0.3])
    assert _bridge_form(p, np.array([2.0]), np.array([3.0]), 10) == 6.0 * 0.3 * 0.7 / 10


def lincomb_stats(cov, xhat, b1, b2=None):
    """The estimates b'Q and the variance b' Sigma b, from the public matrix.

    The matrix route the Wald tests' _bridge_form replaces, kept as its
    oracle; returns (est1, est2, v1), with est2 None when b2 is absent.
    """
    return xhat @ b1, None if b2 is None else xhat @ b2, b1 @ cov.matrix @ b1


# an index has no u/coef for the matrix oracle
@pytest.mark.parametrize("name", [m for m in MEASURE_NAMES if m not in ("qrXXYY", "QRI", "G2")]
                         + ["qr9010"])
def test_q_test_one_se_equals_lincomb_stats_on_the_public_matrix(name, norm100):
    # a ratio R = theta1/theta2 has the gradient (b1 - R b2)/theta2
    spec = resolve_measure(name)
    x = np.exp(norm100 / 2.0)
    grid = np.unique(spec.u + (spec.u2 or ()))
    b1 = np.zeros(grid.size)
    np.add.at(b1, np.searchsorted(grid, spec.u), spec.coef)
    b2 = None
    if spec.is_ratio:
        b2 = np.zeros(grid.size)
        np.add.at(b2, np.searchsorted(grid, spec.u2), spec.coef2)
    cov = qcov(x, grid)
    est1, est2, _ = lincomb_stats(cov, sample_quantiles(x, grid), b1, b2)
    g = (b1 - est1 / est2 * b2) / est2 if spec.is_ratio else b1
    *_, var = lincomb_stats(cov, sample_quantiles(x, grid), g)
    assert q_test_one(x, spec).se == pytest.approx(math.sqrt(var), rel=1e-13, abs=0.0)

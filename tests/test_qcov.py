"""Covariance matrix of quantile estimators."""

import math

import numpy as np
import pytest

from quantest.qcov import qcov
from quantest.qdensity import QdMethod, fit_lognormal_sigma, optimal_bandwidth, qor_lognormal

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

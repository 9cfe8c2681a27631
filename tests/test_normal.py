"""The SciPy-free normal distribution function and quantile, against SciPy."""

import math

import numpy as np
import pytest

from quantest._normal import ndtr, ndtri

special = pytest.importorskip("scipy.special")


def _max_rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.abs(b)))


def test_ndtri_matches_scipy_on_dense_grid_and_tails():
    p = np.concatenate([np.linspace(0.0, 1.0, 20001)[1:-1],
                        np.logspace(-300, -1, 2000),
                        1.0 - np.logspace(-16, -1, 300)])
    ours, ref = ndtri(p), special.ndtri(p)
    nonzero = ref != 0.0
    assert _max_rel(ours[nonzero], ref[nonzero]) < 2e-15
    assert np.all(ours[~nonzero] == 0.0)


@pytest.mark.parametrize("p", [1e-300, 1e-20, 0.025, 0.3, 0.5, 0.75, 0.975, 1.0 - 1e-16])
def test_ndtri_scalar_matches_array(p):
    assert ndtri(p) == ndtri(np.array([p]))[0]
    assert ndtri(np.float64(p)) == ndtri(p)
    assert ndtri(np.array(p)) == ndtri(p)
    assert isinstance(ndtri(p), float)


def test_ndtri_edges_follow_scipy():
    p = np.array([0.0, 1.0, -0.5, 1.5, np.nan, -np.inf, np.inf])
    expected = special.ndtri(p)
    np.testing.assert_array_equal(ndtri(p), expected)
    for v, e in zip(p.tolist(), expected.tolist()):
        got = ndtri(v)
        assert got == e or (math.isnan(got) and math.isnan(e))
    assert ndtri(0) == -math.inf and ndtri(1) == math.inf


@pytest.mark.parametrize("shape", [(0,), (3,), (2, 3), (2, 1, 4)])
def test_ndtri_keeps_shape(shape):
    p = np.random.default_rng(1).uniform(size=shape)
    out = ndtri(p)
    assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float
    if p.size:
        assert _max_rel(out, special.ndtri(p)) < 2e-15


def test_ndtri_accepts_lists():
    np.testing.assert_allclose(ndtri([0.1, 0.9]), special.ndtri([0.1, 0.9]), rtol=2e-15)


def test_ndtr_matches_scipy():
    z = np.linspace(-37.0, 10.0, 20001)
    ours = np.array([ndtr(v) for v in z.tolist()])
    assert _max_rel(ours, special.ndtr(z)) < 1e-12


def test_ndtr_limits():
    assert ndtr(-math.inf) == 0.0
    assert ndtr(math.inf) == 1.0
    assert ndtr(0.0) == 0.5
    assert math.isnan(ndtr(math.nan))

import os

import numpy as np
import pytest

import quantest.quantiles as quantiles

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# Optional two-city house-price fixtures.  The public dataset behind them
# could not be retrieved, so the regression tests that need them skip;
# the coverage/property suites stand in for that criterion.
HOUSE_X = os.path.join(DATA_DIR, "houses_bundoora.csv")
HOUSE_Y = os.path.join(DATA_DIR, "houses_kingsbury.csv")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


@pytest.fixture(scope="session")
def bladder() -> np.ndarray:
    return np.loadtxt(data_path("bladder_remission.csv"), skiprows=1)


@pytest.fixture(scope="session")
def norm100() -> np.ndarray:
    return np.loadtxt(data_path("norm100_seed1234.csv"), skiprows=1)


def require_house_fixtures():
    if not (os.path.exists(HOUSE_X) and os.path.exists(HOUSE_Y)):
        pytest.skip("two-city house-price fixtures not available; "
                    "covered instead by the coverage and property suites")
    x = np.loadtxt(HOUSE_X, skiprows=1)
    y = np.loadtxt(HOUSE_Y, skiprows=1)
    return x, y


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs for quantiles._pair_for, however many the process may use,
    so the split paths run, and are checked, on one CPU too."""
    monkeypatch.setattr(quantiles, "_cpu_count", lambda: 2)


@pytest.fixture
def pair():
    """A pair of threads of its own, whose worker is stopped after the test."""
    pair = quantiles._Pair()
    yield pair
    pair.stop()

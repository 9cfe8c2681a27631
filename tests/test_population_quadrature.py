"""Population QRI and G2 from the Gauss-Legendre rule, against 30-digit values."""

import pytest

from quantest.measures import InequalitySpec
from quantest.verify import Distribution, population_measure_value

mp = pytest.importorskip("mpmath")


def _oracle(dist: Distribution, kind: str) -> float:
    """The index as a 30-digit mpmath integral."""
    with mp.workdps(30):
        if dist.name == "lognormal":
            # with p = erfc(t / sqrt 2) the ratio is exp(-2 sigma t) and
            # dp = -2 phi(t) dt, which takes the non-smooth end p = 0 to infinity
            sigma = mp.mpf(dist.params[1])

            def f(t):
                p = mp.erfc(t / mp.sqrt(2))
                weight = 1 if kind == "QRI" else 2 * p
                return weight * (1 - mp.exp(-2 * sigma * t)) * 2 * mp.npdf(t)

            return float(mp.quad(f, [0, 1, 4, 10, mp.inf]))
        if dist.name == "exponential":
            def ratio(p):
                return mp.log(1 - p / 2) / mp.log(p / 2)
        else:
            a, b = (mp.mpf(v) for v in dist.params)

            def ratio(p):
                return (a + (b - a) * p / 2) / (a + (b - a) * (1 - p / 2))

        def g(p):
            return (1 if kind == "QRI" else 2 * p) * (1 - ratio(p))

        return float(mp.quad(g, [0, mp.mpf(2) ** -40, mp.mpf(2) ** -20, mp.mpf(2) ** -10,
                                 0.5, 1]))


DISTRIBUTIONS = [
    Distribution("lognormal", (0.0, 0.25)),
    Distribution("lognormal", (0.0, 1.0)),
    Distribution("lognormal", (1.5, 2.0)),
    Distribution("lognormal", (0.0, 3.0)),
    Distribution("exponential", (1.0,)),
    Distribution("exponential", (4.0,)),
    Distribution("uniform", (1.0, 3.0)),
    Distribution("uniform", (0.1, 5.0)),
]


@pytest.mark.parametrize("kind", ["QRI", "G2"])
@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: "-".join([d.name, *(f"{v:g}" for v in d.params)]))
def test_population_index_matches_mpmath(dist, kind):
    value = population_measure_value(dist, InequalitySpec(kind=kind))
    assert value == pytest.approx(_oracle(dist, kind), rel=1e-14, abs=0.0)

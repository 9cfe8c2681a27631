"""Two-sample results are antisymmetric under swapping the samples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantest.inequality import InequalitySpec, qineq_test
from quantest.inference import TestOptions, q_test_two
from quantest.measures import resolve_measure

NAMES = ["median", "iqr", "rCViqr", "bowley", "kelly", "groenR", "groenL", "moors",
         "lqw", "rqw", "qr9010"]
FLIPPED = {"two_sided": "two_sided", "less": "greater", "greater": "less"}
ALTERNATIVES = list(FLIPPED)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(30, 400)


def _samples(seed, n, m, positive):
    rng = np.random.default_rng(seed)
    if positive:
        return rng.lognormal(0.0, 0.8, n), rng.lognormal(0.3, 1.1, m)
    return rng.normal(0.0, 1.0, n), rng.standard_t(4, m)


def _assert_negated(a, b):
    assert b.estimate == -a.estimate
    assert b.se == a.se
    assert b.statistic_Z == -a.statistic_Z
    assert b.conf_int == (-a.conf_int[1], -a.conf_int[0])


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=sizes, m=sizes, name=st.sampled_from(NAMES),
       positive=st.booleans(), alternative=st.sampled_from(ALTERNATIVES))
def test_difference_measures_negate(seed, n, m, name, positive, alternative):
    # a one-sided alternative turns round with the samples
    x, y = _samples(seed, n, m, positive)
    spec = resolve_measure(name)
    a = q_test_two(x, y, spec, TestOptions(alternative=alternative))
    b = q_test_two(y, x, spec, TestOptions(alternative=FLIPPED[alternative]))
    _assert_negated(a, b)
    if alternative == "two_sided":
        assert b.p_value == a.p_value
    else:
        assert b.p_value == pytest.approx(a.p_value, rel=1e-12, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=sizes, m=sizes, name=st.sampled_from(["rCViqr", "qr9010", "median", "iqr"]))
def test_log_ratios_negate_and_ratios_invert(seed, n, m, name):
    x, y = _samples(seed, n, m, positive=True)
    spec = resolve_measure(name)
    log_opts = TestOptions(log_transf=True)
    _assert_negated(q_test_two(x, y, spec, log_opts), q_test_two(y, x, spec, log_opts))

    back = TestOptions(log_transf=True, back_transf=True)
    a, b = q_test_two(x, y, spec, back), q_test_two(y, x, spec, back)
    assert b.estimate == pytest.approx(1.0 / a.estimate, rel=1e-14)
    assert b.se == a.se
    assert b.statistic_Z == -a.statistic_Z
    assert b.p_value == a.p_value
    assert b.conf_int[0] == pytest.approx(1.0 / a.conf_int[1], rel=1e-14)
    assert b.conf_int[1] == pytest.approx(1.0 / a.conf_int[0], rel=1e-14)
    assert a.null_value == b.null_value == 1.0


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=sizes, m=sizes, kind=st.sampled_from(["QRI", "G2"]),
       J=st.integers(2, 60))
def test_inequality_difference_negates(seed, n, m, kind, J):
    x, y = _samples(seed, n, m, positive=True)
    spec = InequalitySpec(kind=kind, J=J)
    a, b = qineq_test(x, y, spec), qineq_test(y, x, spec)
    _assert_negated(a, b)
    assert b.p_value == a.p_value
    assert math.isfinite(a.statistic_Z)

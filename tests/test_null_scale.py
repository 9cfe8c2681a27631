"""One null scale: true_q is read on the reported scale of every test.

true_q is the measure (or the two-sample difference) on the identity
scale, its log under log_transf, and the measure (or the ratio) again
under back_transf, where the working null is its log.
"""

import math

import numpy as np
import pytest

from quantest.inference import TestOptions, q_test_one, q_test_two, qineq_test
from quantest.measures import InequalitySpec, resolve_measure


@pytest.fixture(scope="module")
def lognormal300():
    return np.random.default_rng(3).lognormal(size=300)


@pytest.mark.parametrize("kind", ["QRI", "G2"])
@pytest.mark.parametrize("back", [False, True])
def test_unset_index_null_is_half_on_the_log_scale(lognormal300, kind, back):
    # an unset one-sample index null is an index of 0.5, so log 0.5 on the
    # log scale, never log(index) = 0.5
    spec = InequalitySpec(kind)
    r = qineq_test(lognormal300, spec=spec,
                   opts=TestOptions(log_transf=True, back_transf=back))
    assert r.null_value == (0.5 if back else math.log(0.5))
    index = q_test_one(lognormal300, spec).estimate
    assert r.statistic_Z == pytest.approx((math.log(index) - math.log(0.5)) / r.se,
                                          rel=1e-12)
    if not back:
        assert r.statistic_Z == (r.estimate - math.log(0.5)) / r.se


RATIO_MEASURES = [resolve_measure("rCViqr"), resolve_measure("qr9010"),
                  InequalitySpec("QRI", J=40), InequalitySpec("G2", J=40)]


@pytest.mark.parametrize("spec", RATIO_MEASURES, ids=["rCViqr", "qr9010", "QRI", "G2"])
@pytest.mark.parametrize("t", [0.25, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("two_sample", [False, True])
def test_a_null_means_the_same_on_every_scale(spec, t, two_sample):
    rng = np.random.default_rng(21)
    x = rng.lognormal(size=200)
    y = rng.lognormal(0.3, 1.2, size=150)

    def run(opts):
        return q_test_two(x, y, spec, opts) if two_sample else q_test_one(x, spec, opts)

    back = run(TestOptions(log_transf=True, back_transf=True, true_q=t))
    log = run(TestOptions(log_transf=True, true_q=math.log(t)))
    assert back.null_value == t
    assert log.null_value == math.log(t)
    assert back.statistic_Z == log.statistic_Z
    assert back.p_value == log.p_value


@pytest.mark.parametrize("t", [0.0, -2.0, -math.inf])
@pytest.mark.parametrize("two_sample", [False, True])
def test_nonpositive_back_transformed_null_raises(t, two_sample):
    rng = np.random.default_rng(22)
    x, y = rng.lognormal(size=50), rng.lognormal(size=50)
    spec = resolve_measure("rCViqr")
    with pytest.raises(ValueError, match="back-transformed null value must be positive"):
        opts = TestOptions(log_transf=True, back_transf=True, true_q=t)
        q_test_two(x, y, spec, opts) if two_sample else q_test_one(x, spec, opts)


@pytest.mark.parametrize("two_sample", [False, True])
def test_unset_null_is_no_effect(two_sample):
    # an unset null tests 0 on the identity and log scales and 1
    # back-transformed; a one-sample measure has no reference of its own
    rng = np.random.default_rng(23)
    x, y = rng.lognormal(size=120), rng.lognormal(size=90)
    spec = resolve_measure("rCViqr")
    for opts, null in ((TestOptions(), 0.0), (TestOptions(log_transf=True), 0.0),
                       (TestOptions(log_transf=True, back_transf=True), 1.0)):
        r = q_test_two(x, y, spec, opts) if two_sample else q_test_one(x, spec, opts)
        assert r.null_value == null

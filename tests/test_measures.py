"""Measure registry, custom combinations, point estimation."""

import numpy as np
import pytest
from scipy.special import ndtri

from quantest.inference import q_test_one
from quantest.measures import (
    MEASURE_NAMES,
    InequalitySpec,
    MeasureSpec,
    estimate_measure,
    resolve_measure,
)

# expected registry rows: (u, coef, u2, coef2)
REGISTRY_ROWS = {
    "median": ((0.5,), (1.0,), None, None),
    "iqr": ((0.25, 0.75), (-1.0, 1.0), None, None),
    "rCViqr": ((0.25, 0.75), (-0.75, 0.75), (0.5,), (1.0,)),
    "bowley": ((0.25, 0.5, 0.75), (1.0, -2.0, 1.0), (0.25, 0.75), (-1.0, 1.0)),
    "kelly": ((0.1, 0.5, 0.9), (1.0, -2.0, 1.0), (0.1, 0.9), (-1.0, 1.0)),
    "groenR": ((0.25, 0.5, 0.75), (1.0, -2.0, 1.0), (0.25, 0.5), (-1.0, 1.0)),
    "groenL": ((0.25, 0.5, 0.75), (1.0, -2.0, 1.0), (0.5, 0.75), (-1.0, 1.0)),
    "moors": ((1 / 8, 3 / 8, 5 / 8, 7 / 8), (-1.0, 1.0, -1.0, 1.0),
              (2 / 8, 6 / 8), (-1.0, 1.0)),
    "lqw": ((0.125, 0.25, 0.375), (1.0, -2.0, 1.0), (0.125, 0.375), (-1.0, 1.0)),
    "rqw": ((0.625, 0.75, 0.875), (1.0, -2.0, 1.0), (0.625, 0.875), (-1.0, 1.0)),
}


def test_registry_rows_match_definitions():
    for name, (u, coef, u2, coef2) in REGISTRY_ROWS.items():
        spec = resolve_measure(name)
        assert spec.u == pytest.approx(u), name
        assert spec.coef == pytest.approx(coef), name
        if u2 is None:
            assert spec.u2 is None and spec.coef2 is None, name
        else:
            assert spec.u2 == pytest.approx(u2), name
            assert spec.coef2 == pytest.approx(coef2), name
    assert set(REGISTRY_ROWS) <= set(MEASURE_NAMES)


def test_contrast_measures_have_zero_sum_coefficients():
    for name in ("bowley", "kelly", "groenR", "groenL", "moors", "lqw", "rqw"):
        spec = resolve_measure(name)
        assert sum(spec.coef) == 0.0, name
        assert sum(spec.coef2) == 0.0, name


def test_tail_parameter_handling():
    b = resolve_measure("bowley", 0.1)
    assert b.u == pytest.approx((0.1, 0.5, 0.9))
    assert b.tail_p == 0.1
    r = resolve_measure("rqw", 0.9)
    assert r.u == pytest.approx((0.55, 0.75, 0.95))
    # defaults
    assert resolve_measure("lqw").tail_p == 0.25
    assert resolve_measure("rqw").tail_p == 0.75


def test_tail_parameter_errors():
    with pytest.raises(ValueError):
        resolve_measure("bowley", 0.7)
    with pytest.raises(ValueError):
        resolve_measure("bowley", 0.0)
    with pytest.raises(ValueError):
        resolve_measure("rqw", 0.3)
    with pytest.raises(ValueError, match="tail parameter"):
        resolve_measure("median", 0.3)
    with pytest.raises(ValueError, match="tail parameter"):
        resolve_measure("kelly", 0.2)


def test_every_listed_name_resolves_under_its_own_name():
    for name in MEASURE_NAMES:
        if name == "qrXXYY":
            continue
        spec = resolve_measure(name)
        assert getattr(spec, "name", getattr(spec, "kind", None)) == name


@pytest.mark.parametrize("name, lo, hi, interval", [
    ("bowley", 0.0, 0.5, "(0, 0.5)"),
    ("groenR", 0.0, 0.5, "(0, 0.5)"),
    ("groenL", 0.0, 0.5, "(0, 0.5)"),
    ("lqw", 0.0, 0.5, "(0, 0.5)"),
    ("rqw", 0.5, 1.0, "(0.5, 1)"),
])
def test_tailed_measures_reject_both_ends_of_their_interval(name, lo, hi, interval):
    for p in (lo, hi):
        with pytest.raises(ValueError) as info:
            resolve_measure(name, p)
        assert str(info.value) == f"p for {name} must lie in {interval}"
    inside = resolve_measure(name, (lo + hi) / 2)
    assert inside.tail_p == (lo + hi) / 2


@pytest.mark.parametrize("name", ["median", "iqr", "rCViqr", "kelly", "moors", "qr9010",
                                  "QRI", "G2"])
def test_fixed_measures_reject_a_tail_parameter(name):
    with pytest.raises(ValueError) as info:
        resolve_measure(name, 0.25)
    assert str(info.value) == f"measure {name!r} takes no tail parameter"


def test_inequality_indices_resolve_to_their_specs():
    assert {"QRI", "G2"} <= set(MEASURE_NAMES)
    assert resolve_measure("QRI") == InequalitySpec("QRI", 100)
    spec = resolve_measure("G2", J=50)
    want = InequalitySpec("G2", 50)
    assert spec == want
    assert np.array_equal(spec._grid, want._grid)
    x = np.random.default_rng(8).lognormal(size=200)
    # float reprs round-trip, so equal reprs mean the same bits
    assert repr(q_test_one(x, spec)) == repr(q_test_one(x, want))
    with pytest.raises(ValueError, match="takes no tail parameter"):
        resolve_measure("QRI", 0.2)


def test_quantile_ratio_pattern():
    qr = resolve_measure("qr9010")
    assert qr.u == (0.9,) and qr.coef == (1.0,)
    assert qr.u2 == (0.1,) and qr.coef2 == (1.0,)
    qr2 = resolve_measure("qr7525")
    assert qr2.u == (0.75,) and qr2.u2 == (0.25,)


def test_quantile_ratio_pattern_errors():
    for bad in ("qr", "qr90", "qr901", "qr90100", "qrab10", "qr0010", "qr9000"):
        with pytest.raises(ValueError):
            resolve_measure(bad)


def test_unknown_names_rejected_listing_valid():
    with pytest.raises(ValueError, match="median"):
        resolve_measure("nosuchmeasure")
    with pytest.raises(ValueError):
        resolve_measure("Median")  # case-sensitive


# ---------------------------------------------------------------------------
# point estimation oracles


def test_symmetric_sample_bowley_zero():
    assert estimate_measure([-2.0, -1.0, 0.0, 1.0, 2.0],
                            resolve_measure("bowley")) == pytest.approx(0.0,
                                                                        abs=1e-15)


def test_iqr_1_to_100_pinned():
    x = np.arange(1.0, 101.0)
    got = estimate_measure(x, resolve_measure("iqr"))
    assert got == pytest.approx(50.0 + 1.0 / 6.0, abs=1e-12)


def test_constant_sample_ratio_is_one():
    x = np.full(37, 4.2)
    assert estimate_measure(x, resolve_measure("qr9010")) == 1.0


def test_moors_normal_population_value():
    rng = np.random.default_rng(2024)
    x = rng.normal(size=100_000)
    z = ndtri([1 / 8, 2 / 8, 3 / 8, 5 / 8, 6 / 8, 7 / 8])
    population = (z[5] - z[3] + z[2] - z[0]) / (z[4] - z[1])
    assert population == pytest.approx(1.23309, abs=1e-5)
    got = estimate_measure(x, resolve_measure("moors"))
    assert got == pytest.approx(population, abs=0.05)


def test_zero_denominator_errors():
    spec = MeasureSpec.from_arrays([0.75], coef2=[1.0], u2=[0.5])
    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])  # median exactly 0
    with pytest.raises(ValueError, match="zero denominator"):
        estimate_measure(x, spec)


# ---------------------------------------------------------------------------
# invariance properties


def test_location_invariance_of_contrasts():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.lognormal(size=int(rng.integers(10, 200)))
        c = float(rng.normal() * 100.0)
        for name in ("bowley", "kelly", "groenR", "groenL", "moors", "lqw", "rqw"):
            spec = resolve_measure(name)
            a = estimate_measure(x, spec)
            b = estimate_measure(x + c, spec)
            assert b == pytest.approx(a, abs=1e-9), name


def test_scale_invariance_of_ratio_measures():
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.lognormal(size=int(rng.integers(10, 200)))
        a = float(rng.uniform(0.01, 50.0))
        for name in ("rCViqr", "bowley", "kelly", "moors", "lqw", "rqw",
                     "groenR", "groenL", "qr9010"):
            spec = resolve_measure(name)
            v1 = estimate_measure(x, spec)
            v2 = estimate_measure(a * x, spec)
            assert v2 == pytest.approx(v1, rel=1e-9, abs=1e-12), name


def test_bowley_sign_flip_under_negation():
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.lognormal(size=int(rng.integers(10, 100)))
        b = estimate_measure(x, resolve_measure("bowley"))
        nb = estimate_measure(-x, resolve_measure("bowley"))
        assert nb == pytest.approx(-b, rel=1e-9, abs=1e-12)


def test_lqw_rqw_mirror_under_negation():
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = rng.lognormal(size=int(rng.integers(10, 100)))
        p = float(rng.uniform(0.05, 0.45))
        left = estimate_measure(x, resolve_measure("lqw", p))
        right = estimate_measure(-x, resolve_measure("rqw", 1.0 - p))
        assert right == pytest.approx(-left, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# construction forms


def test_from_arrays_matrix_form():
    m = MeasureSpec.from_arrays([0.25, 0.5, 0.75],
                                np.array([[-0.75, 0.0, 0.75], [0.0, 1.0, 0.0]]))
    assert m.is_ratio
    assert m.u == m.u2 == (0.25, 0.5, 0.75)
    assert m.coef == (-0.75, 0.0, 0.75)
    assert m.coef2 == (0.0, 1.0, 0.0)


def test_from_arrays_defaults_and_reuse():
    m = MeasureSpec.from_arrays([0.9], coef2=[1.0])
    assert m.u2 == (0.9,)  # denominator reuses u
    ones = MeasureSpec.from_arrays([0.1, 0.9])
    assert ones.coef == (1.0, 1.0)


def test_from_arrays_errors():
    with pytest.raises(ValueError):
        MeasureSpec.from_arrays([0.25, 0.75], np.ones((2, 3)))
    with pytest.raises(ValueError):
        MeasureSpec.from_arrays([0.25], np.ones((2, 1)), u2=[0.5])
    with pytest.raises(ValueError):
        MeasureSpec(u=(0.5,), coef=(1.0, 2.0))
    with pytest.raises(ValueError):
        MeasureSpec(u=(0.5,), coef=(1.0,), u2=(0.25,), coef2=None)
    with pytest.raises(ValueError):
        MeasureSpec(u=(0.5,), coef=(1.0,), u2=(0.25,), coef2=(0.0,))
    with pytest.raises(ValueError):
        MeasureSpec(u=(1.5,), coef=(1.0,))
    with pytest.raises(ValueError):
        MeasureSpec(u=(), coef=())


def test_a_numerator_that_cancels_on_the_grid_is_rejected():
    builds = [
        lambda: MeasureSpec(u=(0.5, 0.5), coef=(1.0, -1.0)),
        lambda: MeasureSpec(u=(0.5, 0.5), coef=(1.0, -1.0), u2=(0.25, 0.75), coef2=(-1.0, 1.0)),
        lambda: MeasureSpec.from_arrays([0.5, 0.5], [[2.0, -2.0], [1.0, 1.0]]),
        lambda: MeasureSpec(u=(0.5,), coef=(0.0,)),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="^numerator coefficients are identically zero$"):
            build()


def test_a_denominator_that_cancels_on_the_grid_is_rejected():
    # the denominator's two coefficients at 0.5 add up to zero
    builds = [
        lambda: MeasureSpec(u=(0.25, 0.75), coef=(-1.0, 1.0), u2=(0.5, 0.5), coef2=(1.0, -1.0)),
        lambda: MeasureSpec.from_arrays([0.25, 0.75], [-1.0, 1.0], [0.5, 0.5], [1.0, -1.0]),
        lambda: MeasureSpec.from_arrays([0.5, 0.5], [[1.0, 1.0], [2.0, -2.0]]),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="^denominator coefficients are identically zero$"):
            build()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coefficients_must_be_finite(bad):
    # a NaN coefficient once raised "zero denominator", an infinite one blamed
    # the quantile density for a variance that is not finite
    builds = [
        lambda: MeasureSpec(u=(0.5,), coef=(bad,)),
        lambda: MeasureSpec(u=(0.5,), coef=(1.0,), u2=(0.25,), coef2=(bad,)),
        lambda: MeasureSpec.from_arrays([0.5], [bad]),
        lambda: MeasureSpec.from_arrays([0.5], [1.0], [0.25], [bad]),
        lambda: MeasureSpec.from_arrays([0.25, 0.75], [[1.0, 1.0], [bad, 1.0]]),
        lambda: MeasureSpec.from_arrays([0.25, 0.75], [[bad, 1.0], [1.0, 1.0]]),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            build()


def test_labels():
    assert resolve_measure("median").label == "median"
    assert resolve_measure("rCViqr").plural == "Robust CVs"
    single = MeasureSpec.from_arrays([0.75])
    assert "0.75" in single.label
    qr = MeasureSpec.from_arrays([0.9], coef2=[1.0], u2=[0.1])
    assert "0.9" in qr.label and "0.1" in qr.label

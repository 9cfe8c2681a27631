"""Named quantile measures, user-defined combinations and inequality indices.

A measure is a linear combination of quantiles, optionally divided by a
second linear combination:

    theta = b1' Q(u)            or      theta = b1' Q(u) / b2' Q(u2).

A spec holds both combinations on one sorted grid of its probabilities.
Its _at_quantiles gives theta and the gradient of theta in the grid
quantiles from quantiles at the grid, for every row of a stack: b1 for a
linear combination and (b1 - theta b2)/(b2' Q) for a ratio.  That is the
one value step: the tests and the bootstrap feed it sample quantiles
(through _estimate, which gathers them from sorted samples), and the
population oracle verify.population_measure_value feeds it the
population quantile function at the grid.

The registry is one table, _MEASURES, of location, spread, relative
spread, skewness, kurtosis and tail-weight measures built from quantiles;
resolve_measure adds two-quantile ratios such as qr9010 (the 90/10 ratio)
and the inequality indices below.  Everything else can be expressed by
passing probabilities and coefficients directly.

The inequality indices summarize inequality through ratios of symmetric
quantiles Q(p/2)/Q(1-p/2) of a positive variable, averaged over the
midpoint grid p_i = (i - 1/2)/J:

    QRI = (1/J) sum_i [1 - Q(p_i/2)/Q(1-p_i/2)]
    G2  = (2/J) sum_i p_i [1 - Q(p_i/2)/Q(1-p_i/2)]

QRI weights all ratios equally; G2 weights them toward the extremes,
mirroring the Gini index's emphasis.  Both are 0 for constant data
(perfect equality, exactly 0 on the midpoint grid) and approach 1 under
extreme inequality.  An InequalitySpec holds the 2J probabilities p_i/2
and 1 - p_i/2 as one sorted grid, and its _estimate gives the index and
its gradient in the grid quantiles, -w_i/(J u_i) at the lower quantile
l_i and w_i l_i/(J u_i^2) at the upper one u_i (w_i is 1 for QRI and
2 p_i for G2).  resolve_measure names them QRI and G2.

Each spec holds _z, the standard normal quantile at every point of its
grid, computed once: the lognormal QOR bandwidths of every test read it.

Each spec class carries _null, the one-sample reference value a test
uses when none is given: None (no reference, so a test takes "no
effect") for a MeasureSpec and an index of 0.5 for an InequalitySpec.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from ._normal import ndtri
from .quantiles import _check_type, _quantiles_sorted, _sorted_one

__all__ = ["MeasureSpec", "InequalitySpec", "resolve_measure", "estimate_measure",
           "qri_estimate", "g2_estimate", "MEASURE_NAMES"]


@dataclass(frozen=True)
class MeasureSpec:
    """Probabilities and coefficients defining a quantile measure.

    u/coef give the numerator combination; u2/coef2, when present, give
    the denominator.  name is the registry name; label/plural feed report
    rendering.  tail_p records the tail parameter of parameterized
    measures.

    _grid is the sorted set of all the probabilities, _z the standard
    normal quantiles at it, and _b1/_b2 the coefficients of the two
    combinations on it (_b2 None without a denominator).
    """

    u: tuple
    coef: tuple
    u2: tuple | None = None
    coef2: tuple | None = None
    name: str = ""
    label: str = ""
    plural: str = ""
    tail_p: float | None = None

    def __post_init__(self):
        if (self.u2 is None) != (self.coef2 is None):
            raise ValueError("u2 and coef2 must be supplied together")
        object.__setattr__(self, "u", tuple(map(float, self.u)))
        object.__setattr__(self, "coef", tuple(map(float, self.coef)))
        if self.u2 is not None:
            object.__setattr__(self, "u2", tuple(map(float, self.u2)))
            object.__setattr__(self, "coef2", tuple(map(float, self.coef2)))
        if not all(map(math.isfinite, self.coef + (self.coef2 or ()))):
            raise ValueError("coefficients must be finite")
        if len(self.u) == 0:
            raise ValueError("numerator needs at least one probability")
        if len(self.coef) != len(self.u):
            raise ValueError("coef length must match u")
        if any(not 0.0 < p < 1.0 for p in self.u):
            raise ValueError("probabilities must lie strictly inside (0, 1)")
        if self.u2 is not None:
            if len(self.coef2) != len(self.u2):
                raise ValueError("coef2 length must match u2")
            if any(not 0.0 < p < 1.0 for p in self.u2):
                raise ValueError("probabilities must lie strictly inside (0, 1)")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())
        if not self.plural:
            object.__setattr__(self, "plural", self.label)
        # sorted(), not np.unique: on NumPy 2.4 np.unique imports numpy.ma,
        # about 1.4 MB of resident memory
        points = sorted(set(self.u + (self.u2 or ())))
        grid = np.array(points)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_z", _normal_quantiles(grid))
        object.__setattr__(self, "_b1", _on_grid(points, self.u, self.coef))
        object.__setattr__(self, "_b2",
                           _on_grid(points, self.u2, self.coef2) if self.is_ratio else None)
        # coefficients at a repeated probability add up, and may cancel
        if not np.count_nonzero(self._b1):
            raise ValueError("numerator coefficients are identically zero")
        if self.is_ratio and not np.count_nonzero(self._b2):
            raise ValueError("denominator coefficients are identically zero")
        grid.setflags(write=False)

    @property
    def is_ratio(self) -> bool:
        return self.u2 is not None

    _nan_message = "zero denominator"
    _null = None

    def _estimate(self, rows, quantile_type: int, gradient: bool = True):
        """The estimate and its gradient over _grid, for each row of a stack.

        rows is a stack of sorted samples; it needs only a shape and
        indexing along its last axis, as in _quantiles_sorted.
        """
        return self._at_quantiles(_quantiles_sorted(rows, self._grid, quantile_type), gradient)

    def _at_quantiles(self, xq, gradient: bool = True):
        """The estimate and its gradient from quantiles at _grid (the last axis of xq).

        Rows whose denominator is zero give NaN, and only those.  Each
        combination is a product summed along the row, not a BLAS product,
        so a row of a stack gives the same number as the row alone.  A
        combination that overflows gives an infinite estimate, also where
        its terms overflow with opposite signs and sum to NaN, without a
        warning; the caller states the failure.  With gradient False the
        gradient is None.
        """
        # np.fmin(v, inf) is v, and inf where v is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            num = np.add.reduce(xq * self._b1, axis=-1)
            if not self.is_ratio:
                return np.fmin(num, np.inf), (self._b1 if gradient else None)
            den = np.add.reduce(xq * self._b2, axis=-1)
            zero = den == 0.0
            den = np.where(zero, 1.0, den)
            ratio = np.where(zero, np.nan, np.fmin(num / den, np.inf))
            if not gradient:
                return ratio, None
            # d(num/den)/dQ = (b1 - ratio b2)/den
            return ratio, (self._b1 - ratio[..., None] * self._b2) / den[..., None]

    def _default_label(self) -> str:
        if not self.is_ratio and len(self.u) == 1 and self.coef == (1.0,):
            return f"quantile (p = {self.u[0]:g})"
        if self.is_ratio:
            if len(self.u) == 1 and len(self.u2) == 1 and self.coef == (1.0,) and self.coef2 == (1.0,):
                return f"quantile ratio ({self.u[0]:g}/{self.u2[0]:g})"
            return "ratio of linear combinations of quantiles"
        return "linear combination of quantiles"

    @classmethod
    def from_arrays(cls, u, coef=None, u2=None, coef2=None, **meta) -> "MeasureSpec":
        """Build a spec from raw vectors.

        coef may be a 2 x d matrix sharing the probabilities in u: the
        first row is the numerator, the second the denominator.  A
        missing coef defaults to all ones.  coef2 without u2 reuses u
        for the denominator probabilities.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if coef is None:
            coef = np.ones(u.size)
        coef = np.asarray(coef, dtype=float)
        if coef.ndim == 2:
            if u2 is not None or coef2 is not None:
                raise ValueError("matrix coefficients already define the denominator")
            if coef.shape != (2, u.size):
                raise ValueError("coefficient matrix must be 2 x len(u)")
            return cls(u=tuple(u), coef=tuple(coef[0]), u2=tuple(u),
                       coef2=tuple(coef[1]), **meta)
        if coef2 is not None and u2 is None:
            u2 = u
        if u2 is not None:
            u2 = np.atleast_1d(np.asarray(u2, dtype=float))
            if coef2 is None:
                coef2 = np.ones(u2.size)
            coef2 = np.atleast_1d(np.asarray(coef2, dtype=float))
            return cls(u=tuple(u), coef=tuple(coef), u2=tuple(u2),
                       coef2=tuple(coef2), **meta)
        return cls(u=tuple(u), coef=tuple(coef), **meta)


def _normal_quantiles(grid: np.ndarray) -> np.ndarray:
    """ndtri at every grid point, held by a spec for the QOR bandwidths."""
    z = ndtri(grid)
    z.setflags(write=False)
    return z


def _on_grid(points: list, u: tuple, coef: tuple) -> np.ndarray:
    """The coefficients of a combination over the sorted grid points.

    Repeated probabilities add up, from 0.0 and in u's order.
    """
    sums = dict.fromkeys(points, 0.0)
    for p, c in zip(u, coef):
        sums[p] += c
    b = np.array(list(sums.values()))
    b.setflags(write=False)
    return b


@dataclass(frozen=True)
class InequalitySpec:
    """Index choice and grid size of a quantile-ratio inequality index.

    The test options (null value, alternative, confidence level, quantile
    type, variance method) are a TestOptions.
    """

    kind: str = "QRI"
    J: int = 100

    is_ratio = False
    _null = 0.5

    def __post_init__(self):
        if self.kind not in ("QRI", "G2"):
            raise ValueError("kind must be 'QRI' or 'G2'")
        try:
            operator.index(self.J)  # Python and NumPy integers, not floats
        except TypeError:
            raise ValueError("J must be an integer") from None
        if self.J < 2:
            raise ValueError("J must be at least 2")
        p = (np.arange(1, self.J + 1) - 0.5) / self.J
        # p/2 ascends below 1/2 and 1 - p/2 descends above it, so the grid
        # with the upper half reversed is sorted
        grid = np.concatenate([p / 2.0, 1.0 - p[::-1] / 2.0])
        weight = np.ones(self.J) if self.kind == "QRI" else 2.0 * p
        grid.setflags(write=False)
        weight.setflags(write=False)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_z", _normal_quantiles(grid))
        object.__setattr__(self, "_weight", weight)

    # reports name the index alone: "One sample test of the QRI",
    # "difference in QRI"
    @property
    def label(self) -> str:
        return self.kind

    plural = label

    @property
    def _nan_message(self) -> str:
        return f"{self.kind} requires positive data"

    def _estimate(self, rows, quantile_type: int, gradient: bool = True):
        """The index and its gradient over _grid, for each row of a stack.

        rows is a stack of sorted samples; it needs only a shape and
        indexing along its last axis, as in _quantiles_sorted.  Rows with a
        nonpositive value give NaN.  With gradient False the gradient is
        None.
        """
        J, w = self.J, self._weight
        xq = _quantiles_sorted(rows, self._grid, quantile_type)
        lower, upper = xq[..., :J], xq[..., J:][..., ::-1]
        grad = None
        # a row with a nonpositive value may divide by zero; it gives NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            index = np.add.reduce(w * (1.0 - lower / upper), axis=-1) / J
            if gradient:
                grad = np.concatenate([-w / (J * upper), (w * lower / (J * upper**2))[..., ::-1]],
                                      axis=-1)
        return np.where(rows[..., 0] > 0.0, index, np.nan), grad


def _skew(a: float, m: float, b: float, d0: float, d1: float) -> dict:
    """(Q(a) - 2 Q(m) + Q(b)) / (Q(d1) - Q(d0)): the skew and tail-weight measures."""
    return dict(u=(a, m, b), coef=(1.0, -2.0, 1.0), u2=(d0, d1), coef2=(-1.0, 1.0))


_LOW_TAIL = (0.25, 0.0, 0.5)

# The named measures, in order: name -> (fields, tail, label, plural).
# fields are the spec's u, coef, u2 and coef2.  A tailed measure gives
# them as a function of its tail parameter p, and tail holds the default
# of p and the open interval (lo, hi) that p must lie in; the others have
# tail None.
_MEASURES = {
    "median": (dict(u=(0.5,), coef=(1.0,)), None, "median", "medians"),
    "iqr": (dict(u=(0.25, 0.75), coef=(-1.0, 1.0)), None, "IQR", "IQRs"),
    "rCViqr": (dict(u=(0.25, 0.75), coef=(-0.75, 0.75), u2=(0.5,), coef2=(1.0,)), None,
               "Robust CV", "Robust CVs"),
    "bowley": (lambda p: _skew(p, 0.5, 1.0 - p, p, 1.0 - p), _LOW_TAIL, "Bowley's skew", ""),
    "kelly": (dict(_skew(0.1, 0.5, 0.9, 0.1, 0.9), tail_p=0.1), None, "Kelly's skew", ""),
    "groenR": (lambda p: _skew(p, 0.5, 1.0 - p, p, 0.5), _LOW_TAIL,
               "Groeneveld-Meeden right skew", ""),
    "groenL": (lambda p: _skew(p, 0.5, 1.0 - p, 0.5, 1.0 - p), _LOW_TAIL,
               "Groeneveld-Meeden left skew", ""),
    "moors": (dict(u=(1 / 8, 3 / 8, 5 / 8, 7 / 8), coef=(-1.0, 1.0, -1.0, 1.0),
                   u2=(2 / 8, 6 / 8), coef2=(-1.0, 1.0)), None, "Moors kurtosis", ""),
    "lqw": (lambda p: _skew(p / 2, 0.25, (1.0 - p) / 2, p / 2, (1.0 - p) / 2), _LOW_TAIL,
            "left quantile weight", ""),
    "rqw": (lambda p: _skew(1.0 - p / 2, 0.75, (1.0 + p) / 2, 1.0 - p / 2, (1.0 + p) / 2),
            (0.75, 0.5, 1.0), "right quantile weight", ""),
}
_QR_PATTERN = re.compile(r"^qr(\d{2})(\d{2})$")

MEASURE_NAMES = (*_MEASURES, "qrXXYY", "QRI", "G2")


def resolve_measure(name: str, p: float | None = None, J: int = 100):
    """Look up a named measure, applying the tail parameter where allowed.

    Defaults: p = 0.25 in (0, 0.5) for bowley/groenR/groenL/lqw and
    p = 0.75 in (0.5, 1) for rqw.  kelly is Bowley's measure with the tail
    fixed at 0.1 and takes no parameter.  Names are case-sensitive.  qrXXYY
    parses two percent fields, e.g. qr9010 for the 90th/10th percentile
    ratio.  QRI and G2 give an InequalitySpec on a grid of J ratios; no
    other measure reads J.
    """
    fields, tail, label, plural = _MEASURES.get(name, (None, None, "", ""))
    if tail is not None:
        default, lo, hi = tail
        tail_p = default if p is None else float(p)
        if not lo < tail_p < hi:
            raise ValueError(f"p for {name} must lie in ({lo:g}, {hi:g})")
        fields = dict(fields(tail_p), tail_p=tail_p)
    elif p is not None:
        raise ValueError(f"measure {name!r} takes no tail parameter")
    if fields is not None:
        return MeasureSpec(**fields, name=name, label=label, plural=plural)
    if name in ("QRI", "G2"):
        return InequalitySpec(name, J)
    m = _QR_PATTERN.match(name)
    if m:
        xx, yy = int(m.group(1)), int(m.group(2))
        if xx == 0 or yy == 0:
            raise ValueError(f"malformed quantile-ratio name {name!r}: zero percent field")
        return MeasureSpec(u=(xx / 100.0,), coef=(1.0,), u2=(yy / 100.0,), coef2=(1.0,),
                           name=name, label=f"quantile ratio ({xx}/{yy})")
    if name.startswith("qr"):
        raise ValueError(f"malformed quantile-ratio name {name!r}: expected qrXXYY with four digits")
    raise ValueError(f"unknown measure {name!r}; valid names: {', '.join(MEASURE_NAMES)}")


def estimate_measure(x, spec: MeasureSpec, quantile_type: int = 8) -> float:
    """Point estimate: plug sample quantiles into the measure's combinations.

    spec may also be an InequalitySpec; the error for a sample without an
    estimate is the spec's.
    """
    xs = _sorted_one(x)
    _check_type(quantile_type)
    est = float(spec._estimate(xs, quantile_type, gradient=False)[0][0])
    if math.isnan(est):
        raise ValueError(spec._nan_message)
    return est


def qri_estimate(s, J: int = 100, quantile_type: int = 8) -> float:
    """Quantile ratio index on the midpoint grid."""
    return estimate_measure(s, InequalitySpec("QRI", J), quantile_type)


def g2_estimate(s, J: int = 100, quantile_type: int = 8) -> float:
    """Gini-weighted quantile ratio index on the midpoint grid.

    Implemented as (2/J) sum p_i (1 - ratio_i), which equals
    1 - (2/J) sum p_i ratio_i because the midpoint weights sum to J/2;
    this form returns exactly 0 for constant data.
    """
    return estimate_measure(s, InequalitySpec("G2", J), quantile_type)

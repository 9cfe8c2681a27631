"""Named quantile measures and user-defined combinations.

A measure is a linear combination of quantiles, optionally divided by a
second linear combination:

    theta = b1' Q(u)            or      theta = b1' Q(u) / b2' Q(u2).

A spec holds both combinations on one sorted grid of its probabilities,
and its _estimate gives theta and the gradient of theta in the grid
quantiles for every row of a stack of sorted samples: b1 for a linear
combination and (b1 - theta b2)/(b2' Q) for a ratio.  The tests and the
bootstrap use that one function.

The registry covers location, spread, relative spread, skewness, kurtosis
and tail-weight measures built from quantiles, plus two-quantile ratios
such as qr9010 (the 90/10 ratio); resolve_measure also names the
inequality indices QRI and G2.  Everything else can be expressed by
passing probabilities and coefficients directly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .quantiles import _check_type, _padded_one, _quantiles_sorted

__all__ = ["MeasureSpec", "resolve_measure", "estimate_measure", "MEASURE_NAMES"]


@dataclass(frozen=True)
class MeasureSpec:
    """Probabilities and coefficients defining a quantile measure.

    u/coef give the numerator combination; u2/coef2, when present, give
    the denominator.  name is the registry name; label/plural feed report
    rendering.  tail_p records the tail parameter of parameterized
    measures.

    _grid is the sorted set of all the probabilities, and _b1/_b2 the
    coefficients of the two combinations on it (_b2 None without a
    denominator).
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
        object.__setattr__(self, "u", tuple(float(p) for p in self.u))
        object.__setattr__(self, "coef", tuple(float(c) for c in self.coef))
        if self.u2 is not None:
            object.__setattr__(self, "u2", tuple(float(p) for p in self.u2))
            object.__setattr__(self, "coef2", tuple(float(c) for c in self.coef2))
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
            if all(c == 0.0 for c in self.coef2):
                raise ValueError("denominator coefficients are identically zero")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())
        if not self.plural:
            object.__setattr__(self, "plural", self.label)
        # sorted(), not np.unique: on NumPy 2.4 np.unique imports numpy.ma,
        # about 1.4 MB of resident memory
        grid = np.array(sorted(set(self.u + (self.u2 or ()))))
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_b1", _on_grid(grid, self.u, self.coef))
        object.__setattr__(self, "_b2",
                           _on_grid(grid, self.u2, self.coef2) if self.is_ratio else None)
        grid.setflags(write=False)

    @property
    def is_ratio(self) -> bool:
        return self.u2 is not None

    _nan_message = "zero denominator"

    def _estimate(self, rows, quantile_type: int, gradient: bool = True):
        """The estimate and its gradient over _grid, for each row of a stack.

        rows is a stack of sorted samples; it needs only a shape and
        indexing along its last axis, as in _quantiles_sorted.  Rows whose
        denominator is zero give NaN.  Each combination is a product summed
        along the row, not a BLAS product, so a row of a stack gives the
        same number as the row alone.  With gradient False the gradient is
        None.
        """
        xq = _quantiles_sorted(rows, self._grid, quantile_type)
        num = np.add.reduce(xq * self._b1, axis=-1)
        if not self.is_ratio:
            return num, (self._b1 if gradient else None)
        den = np.add.reduce(xq * self._b2, axis=-1)
        zero = den == 0.0
        den = np.where(zero, 1.0, den)
        ratio = np.where(zero, np.nan, num / den)
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


def _on_grid(grid: np.ndarray, u: tuple, coef: tuple) -> np.ndarray:
    """The coefficients of a combination over grid; repeated probabilities add up."""
    b = np.zeros(grid.size)
    np.add.at(b, np.searchsorted(grid, u), coef)
    b.setflags(write=False)
    return b


def _median() -> MeasureSpec:
    return MeasureSpec(u=(0.5,), coef=(1.0,), name="median",
                       label="median", plural="medians")


def _iqr() -> MeasureSpec:
    return MeasureSpec(u=(0.25, 0.75), coef=(-1.0, 1.0), name="iqr",
                       label="IQR", plural="IQRs")


def _rcviqr() -> MeasureSpec:
    return MeasureSpec(u=(0.25, 0.75), coef=(-0.75, 0.75), u2=(0.5,), coef2=(1.0,),
                       name="rCViqr", label="Robust CV", plural="Robust CVs")


def _bowley_family(p: float, name: str, label: str) -> MeasureSpec:
    return MeasureSpec(u=(p, 0.5, 1.0 - p), coef=(1.0, -2.0, 1.0),
                       u2=(p, 1.0 - p), coef2=(-1.0, 1.0),
                       name=name, label=label, tail_p=p)


def _groen_right(p: float) -> MeasureSpec:
    return MeasureSpec(u=(p, 0.5, 1.0 - p), coef=(1.0, -2.0, 1.0),
                       u2=(p, 0.5), coef2=(-1.0, 1.0),
                       name="groenR", label="Groeneveld-Meeden right skew", tail_p=p)


def _groen_left(p: float) -> MeasureSpec:
    return MeasureSpec(u=(p, 0.5, 1.0 - p), coef=(1.0, -2.0, 1.0),
                       u2=(0.5, 1.0 - p), coef2=(-1.0, 1.0),
                       name="groenL", label="Groeneveld-Meeden left skew", tail_p=p)


def _moors() -> MeasureSpec:
    return MeasureSpec(u=(1 / 8, 3 / 8, 5 / 8, 7 / 8), coef=(-1.0, 1.0, -1.0, 1.0),
                       u2=(2 / 8, 6 / 8), coef2=(-1.0, 1.0),
                       name="moors", label="Moors kurtosis")


def _lqw(p: float) -> MeasureSpec:
    return MeasureSpec(u=(p / 2, 0.25, (1.0 - p) / 2), coef=(1.0, -2.0, 1.0),
                       u2=(p / 2, (1.0 - p) / 2), coef2=(-1.0, 1.0),
                       name="lqw", label="left quantile weight", tail_p=p)


def _rqw(p: float) -> MeasureSpec:
    return MeasureSpec(u=(1.0 - p / 2, 0.75, (1.0 + p) / 2), coef=(1.0, -2.0, 1.0),
                       u2=(1.0 - p / 2, (1.0 + p) / 2), coef2=(-1.0, 1.0),
                       name="rqw", label="right quantile weight", tail_p=p)


# measures taking a tail parameter p in (0, 0.5); rqw instead uses (0.5, 1)
_LOWER_TAIL = {"bowley", "groenR", "groenL", "lqw"}
_QR_PATTERN = re.compile(r"^qr(\d{2})(\d{2})$")

MEASURE_NAMES = ("median", "iqr", "rCViqr", "bowley", "kelly", "groenR",
                 "groenL", "moors", "lqw", "rqw", "qrXXYY", "QRI", "G2")


def resolve_measure(name: str, p: float | None = None, J: int = 100):
    """Look up a named measure, applying the tail parameter where allowed.

    Defaults: p = 0.25 for bowley/groenR/groenL/lqw and p = 0.75 for rqw.
    kelly is Bowley's measure with the tail fixed at 0.1 and takes no
    parameter.  Names are case-sensitive.  qrXXYY parses two percent
    fields, e.g. qr9010 for the 90th/10th percentile ratio.  QRI and G2
    give an InequalitySpec on a grid of J ratios; no other measure reads J.
    """
    if name in _LOWER_TAIL:
        tail = 0.25 if p is None else float(p)
        if not 0.0 < tail < 0.5:
            raise ValueError(f"p for {name} must lie in (0, 0.5)")
        if name == "bowley":
            return _bowley_family(tail, "bowley", "Bowley's skew")
        if name == "groenR":
            return _groen_right(tail)
        if name == "groenL":
            return _groen_left(tail)
        return _lqw(tail)
    if name == "rqw":
        tail = 0.75 if p is None else float(p)
        if not 0.5 < tail < 1.0:
            raise ValueError("p for rqw must lie in (0.5, 1)")
        return _rqw(tail)
    if p is not None:
        raise ValueError(f"measure {name!r} takes no tail parameter")
    if name in ("QRI", "G2"):
        from .inequality import InequalitySpec  # inequality imports this module

        return InequalitySpec(name, J)
    if name == "median":
        return _median()
    if name == "iqr":
        return _iqr()
    if name == "rCViqr":
        return _rcviqr()
    if name == "kelly":
        return _bowley_family(0.1, "kelly", "Kelly's skew")
    if name == "moors":
        return _moors()
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
    xp = _padded_one(x)
    _check_type(quantile_type)
    est = float(spec._estimate(xp[:, 1:-1], quantile_type, gradient=False)[0][0])
    if math.isnan(est):
        raise ValueError(spec._nan_message)
    return est

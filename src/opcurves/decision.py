"""Threshold-space evaluation: net benefit and decision curves.

Net benefit at threshold t weighs true positives against false positives,
NB(t) = u_P(t) * pi_P * TPR - u_N(t) * pi_N * FPR, where the weighting
scheme decides what one unit of each is worth. Two schemes are built in,
both indexed by the threshold:

- dca: u_P = 1, u_N = t / (1 - t). The threshold doubles as the odds at
  which a user is indifferent between treating and not treating, so the
  curve reads as benefit per person in treated-true-positive units.
- brier_scaled: u_P = 2(1 - t), u_N = 2t. The same ranking at fixed t,
  rescaled so the curve is directly comparable to Brier-style losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Union

import numpy as np

from .dataset import Dataset, Priors
from .roc import _TOL, RocCurve, _envelope_vertices, _require_hull, threshold_rates

# regular_values refuses to build more points than this, so a tiny step
# fails at once instead of exhausting memory
MAX_GRID_POINTS = 10**6

ArrayLike = Union[float, np.ndarray]


def _unwrap(out: np.ndarray) -> ArrayLike:
    return float(out) if out.ndim == 0 else out


def regular_values(start: float, stop: float, step: float) -> np.ndarray:
    """Arithmetic sequence from start by step; stop is included when it is
    within 1e-12 of a whole number of steps, else the sequence ends at the
    last value below it. A non-finite start, stop or step, and more than
    MAX_GRID_POINTS values, are refused with ValueError before anything is
    allocated."""
    if not (isfinite(start) and isfinite(stop) and isfinite(step)):
        raise ValueError("start, stop and step must be finite numbers")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if stop <= start:
        raise ValueError("stop must exceed start")
    ratio = (stop - start) / step
    if not ratio < MAX_GRID_POINTS - 0.5:  # a span that overflows to inf fails too
        raise ValueError(f"grid would have more than {MAX_GRID_POINTS} points; "
                         "use a larger step")
    count = int(round(ratio))
    values = start + step * np.arange(count + 1)
    if count >= 1 and abs(values[-1] - stop) <= _TOL:
        values[-1] = stop
    else:
        count = int(np.floor(ratio + _TOL))
        values = start + step * np.arange(count + 1)
        values = values[values <= stop + _TOL]
    return values


@dataclass(frozen=True, eq=False)
class ThresholdGrid:
    """Strictly increasing evaluation grid inside [0, 1].

    The same container serves the threshold axis of decision curves and
    the cost-proportion axis of cost-space curves. Grids that touch 1.0
    are legal here; evaluating the dca weighting at 1.0 is what fails.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("grid must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)) or arr[0] < 0.0 or arr[-1] > 1.0:
            raise ValueError("grid values must be finite and lie in [0, 1]")
        if np.any(np.diff(arr) <= 0.0):
            raise ValueError("grid values must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def regular(cls, start: float, stop: float, step: float) -> ThresholdGrid:
        """The grid of regular_values(start, stop, step)."""
        return cls(values=regular_values(start, stop, step))

    @classmethod
    def decision_default(cls) -> ThresholdGrid:
        return cls.regular(0.0, 0.99, 0.005)

    @classmethod
    def cost_default(cls) -> ThresholdGrid:
        return cls.regular(0.0, 1.0, 0.005)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class Curve:
    """Vertices (xs[i], ys[i]) with a series label, drawn in order. A
    sampled curve has strictly increasing xs; an ROC staircase repeats
    them. It unpacks as (xs, ys, series). Labels in use: model, treat_all,
    treat_none, upper_envelope, brier, lower_envelope, all_positive,
    all_negative, positive_component, negative_component, points, hull,
    chance.

    A curve holds read-only float64 copies of the xs and ys it is given, so
    no array of the caller's, or view of one, can move a vertex."""

    xs: np.ndarray
    ys: np.ndarray
    series: str

    def __post_init__(self) -> None:
        self._hold(np.array(self.xs, dtype=np.float64), np.array(self.ys, dtype=np.float64))

    @classmethod
    def _adopt(cls, xs, ys, series: str) -> Curve:
        """The curve over arrays the package built for it, or holds read-only
        and never writes (a grid's values, a RocCurve's rates, another
        curve's arrays), taken without a copy; so the curves on a grid share
        its values."""
        curve = cls.__new__(cls)
        object.__setattr__(curve, "series", series)
        curve._hold(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))
        return curve

    def _hold(self, xs: np.ndarray, ys: np.ndarray) -> None:
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size == 0:
            raise ValueError("xs and ys must be equal-length non-empty 1-d arrays")
        if not self.series:
            raise ValueError("series label must be non-empty")
        xs.flags.writeable = ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __iter__(self):
        return iter((self.xs, self.ys, self.series))


def net_benefit(tpr: ArrayLike, fpr: ArrayLike, priors: Priors,
                t: ArrayLike, scheme: str = "dca") -> ArrayLike:
    """NB = u_P(t) * pi_P * TPR - u_N(t) * pi_N * FPR.

    Broadcasts over rates and thresholds. scheme names the weights:
    "dca" (u_P = 1, u_N = t / (1 - t), undefined at t = 1) or
    "brier_scaled" (u_P = 2(1 - t), u_N = 2t).
    """
    t = np.asarray(t, dtype=np.float64)
    if t.size and (not np.all(np.isfinite(t)) or t.min() < 0.0 or t.max() > 1.0):
        raise ValueError("thresholds must be finite and lie in [0, 1]")
    if scheme == "dca":
        if t.size and t.max() == 1.0:
            raise ValueError("dca weighting t/(1-t) is undefined at t = 1")
        u_p, u_n = 1.0, t / (1.0 - t)
    elif scheme == "brier_scaled":
        u_p, u_n = 2.0 * (1.0 - t), 2.0 * t
    else:
        raise ValueError(f"unknown scheme {scheme!r}; use 'dca' or 'brier_scaled'")
    return _unwrap(np.asarray(u_p * priors.pi_p * tpr - u_n * priors.pi_n * fpr))


def decision_curve(data: Dataset, grid: ThresholdGrid, scheme: str = "dca") -> Curve:
    """The model's net benefit across the grid (series "model")."""
    tpr, fpr = threshold_rates(data, grid.values)
    ys = net_benefit(tpr, fpr, data.priors, grid.values, scheme)
    return Curve._adopt(grid.values, ys, "model")


def baseline_decision_curves(priors: Priors, grid: ThresholdGrid,
                             scheme: str = "dca") -> tuple[Curve, Curve]:
    """(treat_all, treat_none) reference curves, generated analytically.

    treat_all is the policy TPR = FPR = 1; under the dca scheme it crosses
    zero exactly at t = pi_P. treat_none is identically zero.
    """
    ts = grid.values
    all_ys = net_benefit(1.0, 1.0, priors, ts, scheme)
    none_ys = net_benefit(0.0, 0.0, priors, ts, scheme)
    return Curve._adopt(ts, all_ys, "treat_all"), Curve._adopt(ts, none_ys, "treat_none")


def upper_envelope_decision_curve(hull: RocCurve, priors: Priors,
                                  grid: ThresholdGrid, scheme: str = "dca") -> Curve:
    """Best attainable net benefit at each threshold (series "upper_envelope").

    The maximizer of NB over all operating points is always a hull vertex
    because NB is linear in (fpr, tpr). NB at t is a positive multiple of
    2(1 - t) pi_P minus the loss at c = t, so the max runs over the lower
    envelope's three candidate vertices; tests check this against an
    exhaustive all-points oracle.
    """
    _require_hull(hull)
    idx = _envelope_vertices(hull, priors, grid.values)
    nb = net_benefit(hull.tprs[idx], hull.fprs[idx], priors, grid.values, scheme)
    return Curve._adopt(grid.values, np.max(nb, axis=0), "upper_envelope")


def standardized_net_benefit(curve_or_value: Curve | ArrayLike,
                             pi_p: float) -> Curve | ArrayLike:
    """Net benefit divided by prevalence, so 1.0 is the perfect model."""
    if pi_p <= 0.0:
        raise ValueError("prevalence must be positive")
    if isinstance(curve_or_value, Curve):
        c = curve_or_value
        return Curve._adopt(c.xs, c.ys / pi_p, c.series)
    return _unwrap(np.asarray(curve_or_value) / pi_p)

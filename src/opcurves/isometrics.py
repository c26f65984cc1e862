"""Metric isometrics: straight lines of constant value in ROC space.

Accuracy, net benefit and Brier loss are all affine in (FPR, TPR) once the
priors (and, for the threshold metrics, t) are fixed, so each level set is
a line TPR = gradient * FPR + intercept. Net benefit and Brier loss share
the same gradient at a given t, which is why optimizing either at a fixed
threshold selects the same operating points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import METRICS
from .dataset import Priors
from .decision import ArrayLike, _unwrap


@dataclass(frozen=True)
class RocLine:
    """A line TPR = gradient * FPR + intercept tagged with its meaning.

    t is None for accuracy, which does not depend on a threshold.
    Coefficients are returned unclipped; the line may leave the unit square.
    """

    gradient: float
    intercept: float
    metric: str
    level: float
    t: float | None = None

    def tpr_at(self, fpr: ArrayLike) -> ArrayLike:
        return _unwrap(np.asarray(self.gradient * np.asarray(fpr, dtype=np.float64)
                                  + self.intercept))


def isometric_gradient(t: float, priors: Priors) -> float:
    """Shared ROC-space gradient of net benefit and Brier loss isometrics,
    pi_N t / (pi_P (1 - t)). Equals 1 exactly at t = pi_P, where both
    metrics weigh the two error types evenly."""
    if not 0.0 < t < 1.0:
        raise ValueError("threshold metrics need t strictly inside (0, 1)")
    return priors.pi_n * t / (priors.pi_p * (1.0 - t))


def isometric_line(metric: str, level: float, priors: Priors,
                   t: float | None = None) -> RocLine:
    """The ROC-space line along which `metric` equals `level`.

    accuracy takes no threshold (pass t=None); net_benefit and brier_loss
    need t strictly inside (0, 1). The level must be attainable for the
    metric at the given priors and threshold.
    """
    if metric == "accuracy":
        if t is not None:
            raise ValueError("accuracy isometrics take no threshold")
        if not 0.0 <= level <= 1.0:
            raise ValueError("accuracy level must lie in [0, 1]")
        gradient = priors.pi_n / priors.pi_p
        intercept = (level - priors.pi_n) / priors.pi_p
        return RocLine(gradient=gradient, intercept=intercept,
                       metric=metric, level=level)
    if metric in ("net_benefit", "brier_loss") and t is None:
        raise ValueError(f"{metric} isometrics need a threshold t")
    if metric == "net_benefit":
        gradient = isometric_gradient(t, priors)
        if not -(t / (1.0 - t)) * priors.pi_n <= level <= priors.pi_p:
            raise ValueError("net benefit level outside its range at this t")
        return RocLine(gradient=gradient, intercept=level / priors.pi_p,
                       metric=metric, level=level, t=t)
    if metric == "brier_loss":
        gradient = isometric_gradient(t, priors)
        if not 0.0 <= level <= 2.0 * ((1.0 - t) * priors.pi_p + t * priors.pi_n):
            raise ValueError("brier loss level outside its range at this t")
        intercept = 1.0 - level / (2.0 * (1.0 - t) * priors.pi_p)
        return RocLine(gradient=gradient, intercept=intercept,
                       metric=metric, level=level, t=t)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def isometric_lines(metric: str, levels: np.ndarray, priors: Priors,
                    t: float | None = None) -> tuple[float, np.ndarray]:
    """isometric_line's gradient, the same at every level, and its intercept
    at each of a 1-d float array of levels, bit for bit; raises as
    isometric_line does for any level it refuses."""
    # each metric takes an interval of levels, so its ends stand for all of them
    gradient = isometric_line(metric, float(levels.min()), priors, t).gradient
    isometric_line(metric, float(levels.max()), priors, t)
    if metric == "accuracy":
        return gradient, (levels - priors.pi_n) / priors.pi_p
    if metric == "net_benefit":
        return gradient, levels / priors.pi_p
    return gradient, 1.0 - levels / (2.0 * (1.0 - t) * priors.pi_p)

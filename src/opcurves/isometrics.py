"""Metric isometrics: straight lines of constant value in ROC space.

Accuracy, net benefit and Brier loss are all affine in (FPR, TPR) once the
priors (and, for the threshold metrics, t) are fixed, so each level set is
a line TPR = gradient * FPR + intercept. Net benefit and Brier loss share
the same gradient at a given t, which is why optimizing either at a fixed
threshold selects the same operating points.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import METRICS
from .dataset import Priors


def isometric_gradient(t: float, priors: Priors) -> float:
    """Shared ROC-space gradient of net benefit and Brier loss isometrics,
    pi_N t / (pi_P (1 - t)). Equals 1 exactly at t = pi_P, where both
    metrics weigh the two error types evenly."""
    if not 0.0 < t < 1.0:
        raise ValueError("threshold metrics need t strictly inside (0, 1)")
    return priors.pi_n * t / (priors.pi_p * (1.0 - t))


def isometric_lines(metric: str, levels: Sequence[float] | np.ndarray, priors: Priors,
                    t: float | None = None) -> tuple[float, np.ndarray]:
    """The gradient of the ROC-space lines along which `metric` equals each
    of a 1-d sequence or array of levels, the same for every level, and the
    intercept of each.

    accuracy takes no threshold (pass t=None); net_benefit and brier_loss
    need t strictly inside (0, 1). Every level must be attainable for the
    metric at the given priors and threshold.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    levels = np.asarray(levels, dtype=np.float64)
    if levels.ndim != 1 or levels.size == 0:
        raise ValueError(f"levels must be a non-empty 1-d array, got shape {levels.shape}")
    # each metric takes an interval of levels, so its ends stand for all of
    # them; a NaN level fails every comparison
    low, high = float(levels.min()), float(levels.max())
    if metric == "accuracy":
        if t is not None:
            raise ValueError("accuracy isometrics take no threshold")
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError("accuracy level must lie in [0, 1]")
        return priors.pi_n / priors.pi_p, (levels - priors.pi_n) / priors.pi_p
    if t is None:
        raise ValueError(f"{metric} isometrics need a threshold t")
    gradient = isometric_gradient(t, priors)
    if metric == "net_benefit":
        if not -(t / (1.0 - t)) * priors.pi_n <= low <= high <= priors.pi_p:
            raise ValueError("net benefit level outside its range at this t")
        return gradient, levels / priors.pi_p
    if not 0.0 <= low <= high <= 2.0 * ((1.0 - t) * priors.pi_p + t * priors.pi_n):
        raise ValueError("brier loss level outside its range at this t")
    return gradient, 1.0 - levels / (2.0 * (1.0 - t) * priors.pi_p)

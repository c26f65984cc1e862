"""Cross-space identities and model comparison.

At a common threshold t, net benefit under the dca weighting and the Brier
curve value are two views of the same quantity:

    NB(t) = pi_P - BC(t) / (2 (1 - t)).

The map is affine and decreasing in BC at fixed t, so the two spaces rank
any pair of models identically at each threshold, and the within-space
envelopes are images of each other. Differences BETWEEN thresholds are
weighed differently by the two spaces, which is what compare_models makes
visible. Its ComparisonReport holds the computed arrays; the compare
command writes them as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import brier_curve
from .dataset import Dataset, DatasetError, Priors
from .decision import ArrayLike, ThresholdGrid, _unwrap, decision_curve
from .roc import _TOL


class PriorMismatchError(DatasetError):
    """Two datasets under comparison have different class priors."""


def nb_from_brier_loss(bc: ArrayLike, t: ArrayLike, pi_p: float) -> ArrayLike:
    """Recover dca net benefit from the Brier curve value at the same t."""
    t = np.asarray(t, dtype=np.float64)
    if t.size and (t.min() < 0.0 or t.max() >= 1.0):
        raise ValueError("the identity needs t in [0, 1)")
    return _unwrap(np.asarray(pi_p - np.asarray(bc) / (2.0 * (1.0 - t))))


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Model A versus model B at every grid threshold, in both spaces.

    agree[i] is True when sign(delta_nb) == -sign(delta_bc) at grid point
    i, with magnitudes below 1e-12 treated as zero so float noise on a
    mathematically tied comparison cannot flip a sign.
    """

    grid: ThresholdGrid
    priors: Priors
    nb_a: np.ndarray
    nb_b: np.ndarray
    bc_a: np.ndarray
    bc_b: np.ndarray
    delta_nb: np.ndarray
    delta_bc: np.ndarray
    agree: np.ndarray

    @property
    def agree_at_all_t(self) -> bool:
        return bool(np.all(self.agree))


def _soft_sign(x: np.ndarray) -> np.ndarray:
    return (x > _TOL).astype(np.int8) - (x < -_TOL).astype(np.int8)


def compare_models(data_a: Dataset, data_b: Dataset,
                   grid: ThresholdGrid) -> ComparisonReport:
    """Score two models over the same population at every grid threshold.

    The datasets must have identical priors (the comparison is otherwise
    ill-posed); their sizes may differ. Grid values must stay below 1
    because the dca weighting is undefined there.
    """
    return _report(grid, _curves(data_a, grid), _curves(data_b, grid))


def _curves(data: Dataset, grid: ThresholdGrid) -> tuple:
    """The model's class counts (n_p, n), priors, and net benefit and Brier
    curve values on the grid: all _report reads of it."""
    return ((data.n_p, data.n), data.priors, decision_curve(data, grid).ys,
            brier_curve(data, grid).ys)


def _report(grid: ThresholdGrid, a: tuple, b: tuple) -> ComparisonReport:
    """The report on the _curves of models a and b, or PriorMismatchError."""
    ((a_p, a_n), priors, nb_a, bc_a), ((b_p, b_n), _, nb_b, bc_b) = a, b
    if a_p * b_n != b_p * a_n:
        raise PriorMismatchError(f"class priors differ: {a_p}/{a_n} vs {b_p}/{b_n}")
    delta_nb = nb_a - nb_b
    delta_bc = bc_a - bc_b
    agree = _soft_sign(delta_nb) == -_soft_sign(delta_bc)
    for arr in (delta_nb, delta_bc, agree):  # nb_* and bc_* are curves', read-only already
        arr.flags.writeable = False
    return ComparisonReport(grid=grid, priors=priors, nb_a=nb_a, nb_b=nb_b,
                            bc_a=bc_a, bc_b=bc_b, delta_nb=delta_nb,
                            delta_bc=delta_bc, agree=agree)

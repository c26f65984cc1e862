"""Cross-space identities and model comparison.

At a common threshold t, net benefit under the dca weighting and the Brier
curve value are two views of the same quantity:

    NB(t) = pi_P - BC(t) / (2 (1 - t)).

The map is affine and decreasing in BC at fixed t, so the two spaces rank
any pair of models identically at each threshold, and the within-space
envelopes are images of each other. Differences BETWEEN thresholds are
weighed differently by the two spaces, which is what compare_models makes
visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import brier_curve
from .dataset import Dataset, Priors
from .decision import ArrayLike, ThresholdGrid, _unwrap, decision_curve
from .output import Records, json_text
from .roc import _TOL


class PriorMismatchError(ValueError):
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

    def json_document(self) -> dict:
        """The report for json_text: the priors, the grid as an array, per_t
        as Records of the columns (one JSON object per grid point, written
        without a dict a row) and agree_at_all_t."""
        per_t = Records({"t": self.grid.values, "nb_a": self.nb_a, "nb_b": self.nb_b,
                         "bc_a": self.bc_a, "bc_b": self.bc_b, "delta_nb": self.delta_nb,
                         "delta_bc": self.delta_bc, "agree": self.agree})
        return {
            "priors": {"pi_p": self.priors.pi_p, "pi_n": self.priors.pi_n},
            "grid": self.grid.values,
            "per_t": per_t,
            "agree_at_all_t": self.agree_at_all_t,
        }

    def to_json(self) -> str:
        """json_document() as JSON text with indent 2, as json.dumps writes it."""
        return json_text(self.json_document())


def _soft_sign(x: np.ndarray) -> np.ndarray:
    return (x > _TOL).astype(np.int8) - (x < -_TOL).astype(np.int8)


def compare_models(data_a: Dataset, data_b: Dataset,
                   grid: ThresholdGrid) -> ComparisonReport:
    """Score two models over the same population at every grid threshold.

    The datasets must have identical priors (the comparison is otherwise
    ill-posed); their sizes may differ. Grid values must stay below 1
    because the dca weighting is undefined there.
    """
    if data_a.n_p * data_b.n != data_b.n_p * data_a.n:
        raise PriorMismatchError(
            f"class priors differ: {data_a.n_p}/{data_a.n} vs {data_b.n_p}/{data_b.n}")
    priors = data_a.priors
    nb_a = decision_curve(data_a, grid).ys
    nb_b = decision_curve(data_b, grid).ys
    bc_a = brier_curve(data_a, grid).ys
    bc_b = brier_curve(data_b, grid).ys
    delta_nb = nb_a - nb_b
    delta_bc = bc_a - bc_b
    agree = _soft_sign(delta_nb) == -_soft_sign(delta_bc)
    return ComparisonReport(grid=grid, priors=priors, nb_a=nb_a, nb_b=nb_b,
                            bc_a=bc_a, bc_b=bc_b, delta_nb=delta_nb,
                            delta_bc=delta_bc, agree=agree)

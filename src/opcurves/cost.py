"""Cost-space evaluation: cost lines, Brier curves and loss decomposition.

Expected loss at an operating point under per-error costs C_P (missing a
positive) and C_N (flagging a negative) is

    loss = C_P * pi_P * (1 - TPR) + C_N * pi_N * FPR.

Normalizing C_P + C_N = 2 collapses the pair into one cost proportion
c = C_N / (C_N + C_P), and each operating point becomes a line in c.
Thresholding a probabilistic scorer at t = c and charging costs (2(1-c),
2c) yields the Brier curve; its area over c in [0, 1] is exactly the
Brier score, which is what ties threshold space and cost space together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, Priors
from .decision import ArrayLike, Curve, ThresholdGrid, _unwrap
from .roc import (_TOL, OperatingPoint, RocCurve, _envelope_vertices, _line, _require_hull,
                  _switch_points, convex_hull, operating_points, threshold_rates)


@dataclass(frozen=True)
class CostLine:
    """Dual of one ROC point: normalized expected loss as a line in c."""

    slope: float
    intercept: float
    source: OperatingPoint

    def value_at(self, c: ArrayLike) -> ArrayLike:
        # identical float arrangement to loss_cp, so the duality is bitwise
        return _unwrap(np.asarray(self.intercept + np.asarray(c, dtype=np.float64) * self.slope))


def loss_cp(tpr: ArrayLike, fpr: ArrayLike, priors: Priors, c: ArrayLike) -> ArrayLike:
    """Expected loss at cost proportion c with costs normalized to sum 2.

    Computed as intercept + c * slope with the exact arrangement used by
    CostLine, so evaluating a point's line reproduces this bit for bit.
    """
    slope, intercept = _line(np.asarray(tpr, dtype=np.float64),
                             np.asarray(fpr, dtype=np.float64), priors)
    return _unwrap(np.asarray(intercept + np.asarray(c, dtype=np.float64) * slope))


def cost_line(point: OperatingPoint, priors: Priors) -> CostLine:
    """The point's loss as a function of cost proportion.

    gradient 2(pi_N FPR - pi_P(1 - TPR)), intercept 2 pi_P (1 - TPR); the
    line is horizontal exactly when pi_N FPR = pi_P (1 - TPR).
    """
    slope, intercept = _line(point.tpr, point.fpr, priors)
    return CostLine(slope=slope, intercept=intercept, source=point)


def baseline_cost_lines(priors: Priors) -> tuple[CostLine, CostLine]:
    """(all_positive, all_negative) reference lines.

    They are the duals of ROC points (1, 1) and (0, 0): y = 2 pi_N c and
    y = 2 pi_P (1 - c), intersecting at c = pi_P with value 2 pi_P pi_N.
    """
    return (cost_line(OperatingPoint(fpr=1.0, tpr=1.0), priors),
            cost_line(OperatingPoint(fpr=0.0, tpr=0.0), priors))


def lower_envelope(hull: RocCurve, priors: Priors, grid: ThresholdGrid) -> Curve:
    """Pointwise minimum of the hull vertices' cost lines (series
    "lower_envelope"): the best loss any attainable classifier reaches at
    each cost proportion."""
    _require_hull(hull)
    slopes, intercepts = _line(hull.tprs, hull.fprs, priors)
    idx = _envelope_vertices(hull, priors, grid.values)
    vals = intercepts[idx] + grid.values * slopes[idx]
    return Curve(xs=grid.values, ys=np.min(vals, axis=0), series="lower_envelope")


def _brier_terms(tpr: np.ndarray, fpr: np.ndarray, priors: Priors,
                 t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class halves of the Brier curve; their sum is the curve."""
    pos = 2.0 * (1.0 - t) * priors.pi_p * (1.0 - tpr)
    neg = 2.0 * t * priors.pi_n * fpr
    return pos, neg


def brier_curve(data: Dataset, grid: ThresholdGrid) -> Curve:
    """Loss of thresholding at t, charged at cost proportion c = t:

        BC(t) = 2[(1 - t) pi_P (1 - TPR_t) + t pi_N FPR_t]

    (series "brier"). BC(0) = 0 because everything is called positive and
    false positives are free there; BC(1) = 0 likewise when no score
    reaches 1.
    """
    tpr, fpr = threshold_rates(data, grid.values)
    pos, neg = _brier_terms(tpr, fpr, data.priors, grid.values)
    return Curve(xs=grid.values, ys=pos + neg, series="brier")


def per_class_components(data: Dataset, grid: ThresholdGrid) -> tuple[Curve, Curve]:
    """Positive and negative halves of the Brier curve (series
    "positive_component" and "negative_component"); they sum to it
    bit-for-bit because all three share the same subexpressions."""
    tpr, fpr = threshold_rates(data, grid.values)
    pos, neg = _brier_terms(tpr, fpr, data.priors, grid.values)
    return (Curve(xs=grid.values, ys=pos, series="positive_component"),
            Curve(xs=grid.values, ys=neg, series="negative_component"))


# segments per block of brier_score's integral, so its temporaries stay small
_BLOCK = 1 << 14


def brier_score(data: Dataset, *, points: RocCurve | None = None) -> float:
    """Area under the Brier curve over c in [0, 1], integrated exactly.

    The curve is piecewise linear in t between breakpoints at 0, each
    distinct score, and 1, so the trapezoid rule on those segments is
    exact. The result equals the mean squared error (1/n) sum (s - y)^2;
    ties among scores do not disturb the identity because a threshold
    coinciding with a score only changes the curve at isolated points.

    The segments' counts are those of the operating points: on the open
    segment (lo, hi) the rule s >= t classifies {s >= hi} positive, so
    the false negatives and false positives are n_p - tp and fp of hi's
    point, or of the (0, 0) anchor for hi = 1 when no score is 1. points,
    when given, must be operating_points(data), which then is not built
    again.
    """
    if points is None:
        points = operating_points(data)
    elif (points.n_p, points.n_n) != (data.n_p, data.n_n) or points.is_hull:
        raise ValueError("points must be operating_points(data)")
    scores = points.thresholds[:0:-1]
    lead, tail = int(scores[0] > 0.0), int(scores[-1] < 1.0)
    bounds = np.empty(scores.size + lead + tail)
    bounds[0], bounds[-1] = 0.0, 1.0
    bounds[lead:bounds.size - tail] = scores
    at = slice(1 - lead, points.tp.size - 1 + tail)
    tps, fps = points.tp[::-1][at], points.fp[::-1][at]
    seg = np.empty(bounds.size - 1)
    for i in range(0, seg.size, _BLOCK):
        j = min(i + _BLOCK, seg.size)
        lo, hi = bounds[i:j], bounds[i + 1:j + 1]
        fn, fp = points.n_p - tps[i:j], fps[i:j]
        # trapezoid of (2/n)[(1-t) fn + t fp] over [lo, hi]
        mid_fn = ((1.0 - lo) + (1.0 - hi)) / 2.0
        mid_fp = (lo + hi) / 2.0
        seg[i:j] = (hi - lo) * (mid_fn * fn + mid_fp * fp)
    return float(2.0 * seg.sum() / data.n)


def refinement_loss(hull: RocCurve, priors: Priors) -> float:
    """Area under the lower envelope over c in [0, 1], integrated exactly.

    The envelope is concave piecewise linear; walking the hull vertices in
    reverse ROC order gives the active lines in order of increasing c, with
    switch points where consecutive vertices' lines intersect.
    """
    _require_hull(hull)
    slopes, intercepts = _line(hull.tprs, hull.fprs, priors)
    bounds = np.concatenate([[0.0], _switch_points(slopes, intercepts), [1.0]])
    lo, hi = bounds[:-1], bounds[1:]
    a, b = slopes[::-1], intercepts[::-1]
    v_lo = b + a * lo
    v_hi = b + a * hi
    return float(np.sum((hi - lo) * (v_lo + v_hi) / 2.0))


@dataclass(frozen=True)
class LossDecomposition:
    """brier_score = refinement + calibration.

    refinement is the loss an optimally recalibrated version of the scorer
    would still pay (area under the lower envelope); calibration is the
    surplus the actual scores pay on top. brier_curve and lower_envelope
    are the two curves sampled on the grid, and gap_curve is their
    pointwise gap.
    """

    brier_score: float
    refinement: float
    calibration: float
    brier_curve: Curve
    lower_envelope: Curve
    gap_curve: Curve


def loss_decomposition(data: Dataset, grid: ThresholdGrid) -> LossDecomposition:
    """Split the Brier score into refinement and calibration parts.

    Both areas are integrated exactly, so calibration is non-negative up
    to float rounding; negatives within 1e-12 of zero are clamped to 0.
    A perfectly calibrated scorer has calibration 0 and a gap curve that
    is zero everywhere.
    """
    points = operating_points(data)
    hull = convex_hull(points)
    priors = data.priors
    bs = brier_score(data, points=points)
    refinement = refinement_loss(hull, priors)
    calibration = bs - refinement
    if -_TOL < calibration < 0.0:
        calibration = 0.0
    bc = brier_curve(data, grid)
    env = lower_envelope(hull, priors, grid)
    gap = bc.ys - env.ys
    gap = np.where((gap < 0.0) & (gap > -_TOL), 0.0, gap)
    return LossDecomposition(
        brier_score=bs, refinement=refinement, calibration=calibration,
        brier_curve=bc, lower_envelope=env,
        gap_curve=Curve(xs=grid.values, ys=gap, series="calibration_gap"))

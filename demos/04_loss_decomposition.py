"""The Brier score splits into calibration loss plus refinement loss.

The area under the Brier curve is the Brier score (the mean squared
error of the scores). The area under the lower envelope is the
refinement loss: what the score ORDERING costs even after perfect
recalibration. The difference is the calibration loss. A model whose
scores already match observed frequencies has zero calibration loss
and its Brier curve hugs the envelope everywhere.
"""

from pathlib import Path

import numpy as np

from opcurves import (Curve, Dataset, ThresholdGrid, brier_curve, convex_hull,
                      loss_decomposition, lower_envelope, operating_points,
                      per_class_components, write_svg)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)
grid = ThresholdGrid.cost_default()


def report(name, data):
    dec = loss_decomposition(data, grid)
    print(f"{name}: brier={dec.brier_score:.4f}  "
          f"refinement={dec.refinement:.4f}  calibration={dec.calibration:.4f}")
    return dec


# same ranking twice: calibrated scores, then the same scores squashed
# toward 1, which preserves order but wrecks calibration
cal_scores = np.array([0.2] * 5 + [0.5] * 2 + [0.8] * 5)
labels = np.array([1, 0, 0, 0, 0] + [1, 0] + [1, 1, 1, 1, 0])
calibrated = Dataset(cal_scores, labels)
squashed = Dataset(np.sqrt(cal_scores), labels)

dec_cal = report("calibrated", calibrated)
dec_sq = report("squashed  ", squashed)
assert dec_cal.calibration < 1e-12
assert abs(dec_cal.refinement - dec_sq.refinement) < 1e-12

print("\nsame refinement loss (same ranking), calibration loss only for "
      "the distorted scores")

pos, neg = per_class_components(squashed, grid)
print(f"at c=0.5 the squashed model's loss is {pos.ys[100] + neg.ys[100]:.4f}, "
      f"of which {neg.ys[100]:.4f} comes from false alarms")

env = lower_envelope(convex_hull(operating_points(squashed)),
                     squashed.priors, grid)


def labelled(curve, label):
    """The curve under another legend label."""
    return Curve(xs=curve.xs, ys=curve.ys, series=label)


write_svg(
    title="Miscalibration as a visible gap",
    x_label="cost proportion c",
    y_label="normalized expected loss",
    series=[
        (labelled(brier_curve(squashed, grid), "squashed scores"), {"width": 2.0}),
        (labelled(brier_curve(calibrated, grid), "calibrated scores"), {"width": 2.0}),
        (labelled(env, "lower envelope"), {"dash": "5,3"}),
    ],
    x_range=(0.0, 1.0),
    y_range=(0.0, 0.8),
    path=str(OUT / "decomposition.svg"),
)
print(f"wrote {OUT / 'decomposition.svg'}")

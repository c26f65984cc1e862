"""From scored samples to an ROC curve and its convex hull.

Every distinct score is a threshold the model could operate at, so a
finite dataset yields a finite set of operating points. The convex hull
marks the operating points that are best for SOME tradeoff between the
two error types; everything under the hull is dominated.
"""

from pathlib import Path

import numpy as np

from opcurves import (Curve, Dataset, PlotSeries, PlotSpec, SeriesStyle, convex_hull,
                      dominance, operating_points, write_svg)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

scores = np.array([0.03, 0.05, 0.10, 0.20, 0.70, 0.70, 0.90, 0.90, 0.95])
labels = np.array([0, 0, 0, 1, 0, 0, 1, 0, 1])
data = Dataset(scores, labels)

curve = operating_points(data)
hull = convex_hull(curve)

print(f"{data.n} samples, prevalence {data.pi_p:.3f}")
print(f"{len(curve.points)} operating points (one per distinct score, "
      "plus the predict-nothing anchor):")
for p in curve.points:
    t = "    -" if p.threshold is None else f"{p.threshold:.2f}"
    print(f"  t >= {t}   fpr={p.fpr:.3f}  tpr={p.tpr:.3f}")

print(f"\nhull keeps {len(hull.points)} of them; area under the points "
      f"{curve.auc():.4f}, under the hull {hull.auc():.4f}")

# a second scorer that ranks the same samples differently
rival = Dataset(np.array([0.5, 0.5, 0.5, 0.95, 0.5, 0.5, 0.95, 0.5, 0.05]),
                labels)
verdict = dominance(curve, operating_points(rival))
print(f"model vs rival: {verdict}")

spec = PlotSpec(
    title="Operating points and convex hull",
    x_label="false positive rate",
    y_label="true positive rate",
    series=(
        # the raw staircases: tied false positive rates draw vertical steps
        PlotSeries(data=Curve(xs=curve.fprs, ys=curve.tprs, series="points")),
        PlotSeries(data=Curve(xs=hull.fprs, ys=hull.tprs, series="hull"),
                   style=SeriesStyle(width=2.4)),
    ),
    x_range=(-0.02, 1.02),
    y_range=(-0.02, 1.02),
)
write_svg(spec, str(OUT / "roc_hull.svg"))
print(f"\nwrote {OUT / 'roc_hull.svg'}")

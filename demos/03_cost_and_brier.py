"""Cost space: each operating point becomes a straight line.

Plot expected loss against the cost proportion c = C_N/(C_P + C_N) and
an ROC point turns into a line; the pointwise minimum over the hull's
lines (the lower envelope) is the best loss the ranking can offer at
each c. The Brier curve is what the model actually delivers when it is
thresholded at t = c, so the vertical gap to the envelope is the price
of miscalibration.
"""

from pathlib import Path

import numpy as np

from opcurves import (Curve, ThresholdGrid, baseline_cost_curves, brier_curve, convex_hull,
                      cost_lines, loss_cp, lower_envelope, operating_points,
                      simulate_gaussian, write_svg)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

data = simulate_gaussian(n=10_000, pi_p=0.2, mu_n=0.4, sigma_n=0.12, mu_p=0.6,
                         sigma_p=0.12, seed=7)
grid = ThresholdGrid.cost_default()
priors = data.priors

hull = convex_hull(operating_points(data))
envelope = lower_envelope(hull, priors, grid)
brier = brier_curve(data, grid)
all_pos, all_neg = baseline_cost_curves(priors, grid)

print(f"hull has {hull.tp.size} operating points, so the envelope "
      f"has at most {hull.tp.size} linear pieces")
worst = int(np.argmax(envelope.ys))
print(f"envelope peaks at c={envelope.xs[worst]:.3f} "
      f"with loss {envelope.ys[worst]:.4f}")
print(f"trivial baselines cross at c={priors.pi_p:.2f} "
      f"with loss {loss_cp(1.0, 1.0, priors, priors.pi_p):.4f}")

gap = brier.ys - envelope.ys
print(f"Brier curve sits {gap.max():.4f} above the envelope at worst "
      f"(c={brier.xs[int(np.argmax(gap))]:.3f})")


# one legend row for all the hull's lines: each is drawn alike under one label
hull_lines = [(Curve(xs=line.xs, ys=line.ys, series="hull point cost lines"),
               {"color": "#c9c9c9", "width": 0.9})
              for line in cost_lines(hull, priors)]

write_svg(
    title="Cost lines, lower envelope and Brier curve",
    x_label="cost proportion c",
    y_label="normalized expected loss",
    series=hull_lines + [
        (envelope, {"width": 2.4}),
        (brier, {"width": 2.0}),
        (all_pos, {"dash": "6,3"}),
        (all_neg, {"dash": "2,3"}),
    ],
    x_range=(0.0, 1.0),
    y_range=(0.0, 0.45),
    path=str(OUT / "cost_brier.svg"),
)
print(f"wrote {OUT / 'cost_brier.svg'}")

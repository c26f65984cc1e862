"""Decision curves: net benefit across the decision threshold.

Net benefit weighs true positives against false positives at the odds
implied by the threshold itself, so a single curve shows how useful the
model is to decision makers with different tolerance for false alarms.
The treat-all and treat-none policies give the two default baselines,
and the convex hull gives the best net benefit any recalibration of the
same ranking could reach.
"""

from pathlib import Path

import numpy as np

from opcurves import (ThresholdGrid, baseline_decision_curves, convex_hull,
                      decision_curve, operating_points, simulate_gaussian,
                      standardized_net_benefit, upper_envelope_decision_curve,
                      write_svg)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

data = simulate_gaussian(n=10_000, pi_p=0.2, mu_n=0.4, sigma_n=0.12, mu_p=0.6,
                         sigma_p=0.12, seed=7)
grid = ThresholdGrid.decision_default()

model = decision_curve(data, grid)
treat_all, treat_none = baseline_decision_curves(data.priors, grid)
hull = convex_hull(operating_points(data))
envelope = upper_envelope_decision_curve(hull, data.priors, grid)

# where does the model actually beat doing something trivial?
best_trivial = np.maximum(treat_all.ys, treat_none.ys)
useful = model.ys > best_trivial
print(f"prevalence {data.pi_p:.2f}; model beats both baselines at "
      f"{np.count_nonzero(useful)} of {len(grid)} thresholds")

edge = int(np.argmax(model.ys - best_trivial))
print(f"largest advantage over the baselines at t={model.xs[edge]:.3f}: "
      f"net benefit {model.ys[edge]:.4f} vs {best_trivial[edge]:.4f}")

gap = envelope.ys - model.ys
print(f"largest recalibration headroom {gap.max():.4f} "
      f"at t={model.xs[int(np.argmax(gap))]:.3f}")

std = standardized_net_benefit(model, data.pi_p)
print(f"standardized net benefit at t={model.xs[edge]:.3f}: "
      f"{std.ys[edge]:.3f} (1.0 would be a perfect classifier)")

write_path = OUT / "decision_curves.svg"
write_svg(
    title="Decision curves",
    x_label="threshold t",
    y_label="net benefit",
    series=[
        (model, {}),
        (treat_all, {"dash": "6,3"}),
        (treat_none, {"dash": "2,3"}),
        (envelope, {"width": 2.2}),
    ],
    x_range=(0.0, 0.99),
    y_range=(-0.05, 0.24),
    path=str(write_path),
)
print(f"wrote {write_path}")

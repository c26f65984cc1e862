"""Decision space and cost space are the same information, reoriented.

Three identities tie the two views together:

  1. pointwise: NB(t) = pi_P - BC(t) / (2(1 - t))
  2. envelopes: the decision-space upper envelope is the transformed
     cost-space lower envelope
  3. rankings: whichever model has higher net benefit at t has lower
     Brier loss at c = t, at every threshold

This script checks all three numerically on simulated data and shows
why net benefit differences are not comparable across thresholds while
Brier loss differences are.
"""

import numpy as np

from opcurves import (Priors, SimulationSpec, ThresholdGrid, brier_curve, compare_models,
                      convex_hull, decision_curve, loss_cp, lower_envelope,
                      nb_from_brier_loss, net_benefit, operating_points,
                      simulate_gaussian, upper_envelope_decision_curve)

grid = ThresholdGrid.decision_default()
base = dict(n=4000, mu_n=0.4, sigma_n=0.12, mu_p=0.6, sigma_p=0.12)
a = simulate_gaussian(SimulationSpec(pi_p=0.2, seed=1, **base))
b = simulate_gaussian(SimulationSpec(pi_p=0.2, seed=2, **base))

# identity 1: the curves transform into each other pointwise
nb = decision_curve(a, grid).ys
bc = brier_curve(a, grid).ys
gap = np.max(np.abs(nb - nb_from_brier_loss(bc, grid.values, a.pi_p)))
print(f"pointwise identity: max gap {gap:.2e}")

# identity 2: so do the attainable-optimum envelopes
hull = convex_hull(operating_points(a))
upper = upper_envelope_decision_curve(hull, a.priors, grid).ys
lower = lower_envelope(hull, a.priors, grid).ys
gap = np.max(np.abs(upper - nb_from_brier_loss(lower, grid.values, a.pi_p)))
print(f"envelope duality:   max gap {gap:.2e}")

# identity 3: both spaces always prefer the same model
report = compare_models(a, b, grid)
print(f"ranking agreement at every threshold: {report.agree_at_all_t}")

# across thresholds the two spaces scale differently: an equal-merit
# improvement (10 extra correct per 100, either class) shows up as the
# same Brier gap but wildly different net benefit gaps
priors = Priors(pi_p=0.5, pi_n=0.5)
pairs = {0.1: ((0.8, 0.8), (1.0, 0.8)), 0.9: ((0.2, 0.2), (0.2, 0.0))}
print("\n t    dNB      dBC      dNB(rescaled)")
for t, (worse, better) in pairs.items():
    d_nb = (net_benefit(better[0], better[1], priors, t)
            - net_benefit(worse[0], worse[1], priors, t))
    d_bc = (loss_cp(worse[0], worse[1], priors, t)
            - loss_cp(better[0], better[1], priors, t))
    d_bs = (net_benefit(better[0], better[1], priors, t, "brier_scaled")
            - net_benefit(worse[0], worse[1], priors, t, "brier_scaled"))
    print(f"{t:.1f}  {d_nb:.4f}   {d_bc:.4f}   {d_bs:.4f}")
print("same Brier delta at both thresholds; net benefit only agrees "
      "after rescaling by 2(1 - t)")

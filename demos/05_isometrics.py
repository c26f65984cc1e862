"""Isometric lines: where in ROC space a metric is constant.

Accuracy, net benefit and Brier loss are all linear in (FPR, TPR), so
each level set is a straight line. Accuracy's slope depends only on the
class balance; net benefit and Brier loss share a slope that depends on
the threshold too. Laying a fan of isometrics over an ROC plot shows at
a glance which operating points reach a given metric level.
"""

from pathlib import Path

import numpy as np

from opcurves import Curve, Priors, isometric_gradient, isometric_lines, write_svg

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

priors = Priors(pi_p=0.25, pi_n=0.75)

print(f"priors: {priors.pi_p:.2f} positive")
print(f"accuracy isometric slope: {priors.pi_n / priors.pi_p:.2f} "
      "(steep: false alarms are plentiful, so accuracy punishes them)")
for t in (0.1, 0.25, 0.5):
    print(f"net-benefit/Brier slope at t={t}: "
          f"{isometric_gradient(t, priors):.3f}")
print("the slope is 1 exactly at t = prevalence, where both error "
      "types trade off evenly")


def drawn(metric, level, t=None):
    """The isometric across the plot's fpr range, as a two-vertex Curve."""
    gradient, intercepts = isometric_lines(metric, np.array([level]), priors, t)
    fprs = np.array([0.0, 1.0])
    label = f"{metric}={level:g}" + ("" if t is None else f" t={t:g}")
    return Curve(xs=fprs, ys=gradient * fprs + intercepts[0], series=label)


acc_lines = [(drawn("accuracy", level), {"color": "#888888", "dash": "4,3"})
             for level in (0.7, 0.8, 0.9)]
nb_lines = [(drawn("net_benefit", level, t=0.25), {}) for level in (0.0, 0.1, 0.2)]

write_svg(
    title="Metric isometrics in ROC space",
    x_label="false positive rate",
    y_label="true positive rate",
    series=acc_lines + nb_lines,
    x_range=(0.0, 1.0),
    y_range=(0.0, 1.0),
    path=str(OUT / "isometrics.svg"),
)
print(f"wrote {OUT / 'isometrics.svg'}")

# the brier_loss isometric through a point reports that point's loss
gradient, intercepts = isometric_lines("brier_loss", np.array([0.2]), priors, t=0.25)
fpr = 0.3
print(f"\nbrier_loss=0.2 isometric at t=0.25 passes through "
      f"(fpr={fpr}, tpr={gradient * fpr + intercepts[0]:.3f})")

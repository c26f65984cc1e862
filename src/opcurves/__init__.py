"""Classifier evaluation across operating conditions.

Scored binary classifiers rarely run under the conditions they were
trained for: misclassification costs and class prevalences shift after
deployment. This package evaluates a scorer across the whole range of
operating conditions instead of at a single point, in two equivalent
views:

* decision space: net benefit against the decision threshold, with
  treat-all and treat-none baselines and the best-attainable upper
  envelope over the ROC convex hull;
* cost space: normalized expected loss against the cost proportion,
  where each ROC point is a straight line, the hull's lower envelope
  is the best attainable loss, and the Brier curve traces the loss of
  thresholding at the cost proportion itself.

The two views are linked pointwise, and the area under the Brier curve
is the Brier score, which splits into calibration and refinement parts.
"""

from .cost import (LossDecomposition, baseline_cost_curves, brier_curve, brier_score,
                   cost_lines, loss_cp, loss_decomposition, lower_envelope,
                   per_class_components, refinement_loss)
from .dataset import (NEGATIVE, POSITIVE, Dataset, DatasetError, DegenerateClassError,
                      EmptyInputError, ParseError, Priors, SimulationSpec,
                      SimulationSpecError, from_csv, parse_dataset, read_csv,
                      simulate_gaussian, to_csv, write_csv)
from .decision import (Curve, ThresholdGrid, baseline_decision_curves, decision_curve,
                       net_benefit, standardized_net_benefit, upper_envelope_decision_curve)
from .isometrics import METRICS, RocLine, isometric_gradient, isometric_line
from .relations import (ComparisonReport, PriorMismatchError, compare_models,
                        nb_from_brier_loss)
from .render import (PALETTE, PlotSeries, PlotSpec, RenderError, SeriesStyle, render_svg,
                     write_svg)
from .roc import (OperatingPoint, RocCurve, convex_hull, dominance, operating_points,
                  threshold_rates)

__version__ = "0.1.0"

__all__ = [
    "NEGATIVE", "POSITIVE", "Dataset", "DatasetError", "DegenerateClassError",
    "EmptyInputError", "ParseError", "Priors", "SimulationSpec",
    "SimulationSpecError", "from_csv", "parse_dataset", "read_csv",
    "simulate_gaussian", "to_csv", "write_csv",
    "OperatingPoint", "RocCurve", "convex_hull", "dominance", "operating_points",
    "threshold_rates",
    "Curve", "ThresholdGrid", "baseline_decision_curves",
    "decision_curve", "net_benefit", "standardized_net_benefit",
    "upper_envelope_decision_curve",
    "LossDecomposition", "baseline_cost_curves", "brier_curve",
    "brier_score", "cost_lines", "loss_cp", "loss_decomposition", "lower_envelope",
    "per_class_components", "refinement_loss",
    "METRICS", "RocLine", "isometric_gradient", "isometric_line",
    "ComparisonReport", "PriorMismatchError", "compare_models", "nb_from_brier_loss",
    "PALETTE", "PlotSeries", "PlotSpec", "RenderError", "SeriesStyle",
    "render_svg", "write_svg",
    "__version__",
]

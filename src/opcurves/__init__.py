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

Importing the package runs none of its modules: each submodule is in
sys.modules from the start and runs on first attribute access
(importlib.util.LazyLoader), and a public name is looked up in its module
when it is first read (PEP 562). So a command loads only the modules it
uses, and `opcurves --help` loads no numpy.
"""

import importlib.util
import sys

# the names isometric lines are built for; here, so that the command line
# parser can offer them without loading numpy
METRICS = ("accuracy", "net_benefit", "brier_loss")

_EXPORTS = {
    "dataset": ("NEGATIVE", "POSITIVE", "Dataset", "DatasetError", "DegenerateClassError",
                "EmptyInputError", "ParseError", "Priors", "SimulationSpecError", "read_csv",
                "simulate_gaussian", "write_csv"),
    "roc": ("RocCurve", "convex_hull", "dominance", "operating_points", "threshold_rates"),
    "decision": ("Curve", "ThresholdGrid", "baseline_decision_curves", "decision_curve",
                 "net_benefit", "standardized_net_benefit", "upper_envelope_decision_curve"),
    "cost": ("LossDecomposition", "baseline_cost_curves", "brier_curve", "brier_score",
             "cost_lines", "loss_cp", "loss_decomposition", "lower_envelope",
             "per_class_components", "refinement_loss"),
    "isometrics": ("isometric_gradient", "isometric_lines"),
    "relations": ("ComparisonReport", "PriorMismatchError", "compare_models",
                  "nb_from_brier_loss"),
    "render": ("RenderError", "render_svg", "write_svg"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_OWNERS, "METRICS", "__version__"]


def _lazy(name: str):
    """Put the submodule name in sys.modules and the package namespace,
    to run on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in ("_exact", "output", "dataset", "roc", "decision", "cost", "isometrics",
              "relations", "render", "cli"):
    _lazy(_name)


def __getattr__(name: str):
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_OWNERS[name]], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Run one opcurves CLI command in-process with its layers traced.

    python3 bench/tracer.py SPANS.json COMMAND [ARGS...]

Every public layer function listed in LAYERS is replaced by a timing
wrapper in each `opcurves.*` namespace that binds it, so calls made from
inside the package (cli -> read_csv, loss_decomposition -> convex_hull)
are recorded with their caller as parent. `Dataset.__init__` is wrapped on
the class. The command runs through `opcurves.cli.main` exactly as
`python -m opcurves` would run it; the spans are kept in memory and written
to SPANS.json when it returns. The exit code is the command's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def _grid_points(curve) -> dict:
    # grids are decision's ThresholdGrid, whichever layer evaluates them
    return {"decision.grid_points": len(curve.xs)}


def _svg_counts(text: str) -> dict:
    paths = [d.partition('"')[0] for d in text.split('<path d="')[1:]]
    vertices = sum(p.count("M ") + p.count("L ") for p in paths)
    return {"render.svg_bytes": len(text.encode("utf-8")), "render.svg_vertices": vertices}


# span name, module, function, counts taken from the return value;
# Dataset.__init__ is traced as "dataset.Dataset" and cli.main as "cli.<command>"
LAYERS = (
    ("dataset.read_csv", "dataset", "read_csv", lambda d: {"dataset.rows": d.n}),
    ("dataset.write_csv", "dataset", "write_csv", None),
    ("roc.operating_points", "roc", "operating_points",
     lambda c: {"roc.distinct_scores": len(c.points) - 1}),
    ("roc.convex_hull", "roc", "convex_hull", lambda h: {"roc.hull_vertices": len(h.points)}),
    ("cost.brier_curve", "cost", "brier_curve", _grid_points),
    ("cost.lower_envelope", "cost", "lower_envelope", _grid_points),
    ("cost.brier_score", "cost", "brier_score", None),
    ("cost.refinement_loss", "cost", "refinement_loss", None),
    ("cost.loss_decomposition", "cost", "loss_decomposition", None),
    ("decision.decision_curve", "decision", "decision_curve", _grid_points),
    ("decision.upper_envelope", "decision", "upper_envelope_decision_curve", _grid_points),
    ("relations.compare_models", "relations", "compare_models", None),
    ("render.render_svg", "render", "render_svg", _svg_counts),
)
COUNTS = ("dataset.rows", "roc.distinct_scores", "roc.hull_vertices", "decision.grid_points",
          "render.svg_vertices", "render.svg_bytes")


class Tracer:
    """Spans as [name, start, end, parent index, counts], in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counts=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else None, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if counts is not None:
                span[4] = counts(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "opcurves" or key.startswith("opcurves.")]
        for name, module, attr, counts in LAYERS:
            original = getattr(sys.modules[f"opcurves.{module}"], attr)
            wrapper = self.wrap(name, original, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        dataset_cls = sys.modules["opcurves.dataset"].Dataset
        dataset_cls.__init__ = self.wrap("dataset.Dataset", dataset_cls.__init__)


def main(argv: list[str]) -> int:
    out_path, command = argv[0], argv[1:]
    start = time.perf_counter()
    importlib.import_module("opcurves")
    cli = importlib.import_module("opcurves.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap(f"cli.{command[0]}", cli.main)(command)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Command line front end.

Exit codes: 0 on success, 1 for usage problems (bad flags, bad grid
specs), 2 for data problems (unreadable or malformed input, degenerate
datasets). Curve exports are CSV with header x,y,series; JSON outputs
carry the priors and grid they were computed under, so they are
self-describing. Identical invocations write identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys

import numpy as np

from .cost import baseline_cost_lines, cost_line, loss_decomposition, lower_envelope
from .dataset import (Dataset, DatasetError, Priors, SimulationSpec,
                      SimulationSpecError, read_csv, write_csv, simulate_gaussian)
from .decision import (Curve, ThresholdGrid, baseline_decision_curves, decision_curve,
                       regular_values, upper_envelope_decision_curve)
from .isometrics import METRICS, isometric_line
from .output import Outputs, _json_chunks, json_text, replaces, xy_csv
from .relations import PriorMismatchError, compare_models
from .render import PlotSeries, PlotSpec, SeriesStyle, render_svg
from .roc import convex_hull, operating_points

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_DCA_GRID = "0:0.99:0.005"
_COST_GRID = "0:1:0.005"


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); remap to 1
        raise UsageError(message)


def _parse_range(text: str, what: str, build):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{what} must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"{what} fields must be numbers, got {text!r}") from None
    try:
        return build(start, stop, step)
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}: {exc}") from None


def _parse_grid(text: str) -> ThresholdGrid:
    return _parse_range(text, "grid", ThresholdGrid.regular)


def _threshold_grid(text: str) -> ThresholdGrid:
    grid = _parse_grid(text)
    if grid.values[-1] >= 1.0:
        raise UsageError("net benefit is undefined at t = 1; use a grid with stop < 1")
    return grid


def _parse_levels(text: str) -> tuple[float, ...]:
    # a level range is not a grid: brier_loss levels exceed 1, net benefit
    # levels go below 0, and the metric checks each level itself
    if ":" in text:
        return tuple(_parse_range(text, "level range", regular_values).tolist())
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"levels must be numbers or start:stop:step, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="opcurves",
                     description="Evaluate binary classifiers across operating conditions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="score,label CSV file")

    def add_outputs(p, *, csv=True, svg=True, js=False):
        if csv:
            p.add_argument("--csv", dest="csv_path", help="write curves as x,y,series CSV")
        if svg:
            p.add_argument("--svg", dest="svg_path", help="write an SVG plot")
        if js:
            p.add_argument("--json", dest="json_path", help="write a JSON report")

    p = sub.add_parser("dca", help="decision curves with baselines")
    add_input(p)
    p.add_argument("--grid", default=_DCA_GRID, help=f"threshold grid (default {_DCA_GRID})")
    p.add_argument("--scheme", choices=["dca", "brier_scaled"], default="dca")
    p.add_argument("--upper-envelope", action="store_true",
                   help="include the best-attainable envelope")
    add_outputs(p, js=True)

    p = sub.add_parser("cost", help="cost lines and their lower envelope")
    add_input(p)
    p.add_argument("--grid", default=_COST_GRID, help=f"cost proportion grid (default {_COST_GRID})")
    add_outputs(p)

    p = sub.add_parser("brier", help="Brier curve, envelope and loss decomposition")
    add_input(p)
    p.add_argument("--grid", default=_COST_GRID, help=f"threshold grid (default {_COST_GRID})")
    add_outputs(p, js=True)

    p = sub.add_parser("roc", help="operating points and convex hull")
    add_input(p)
    add_outputs(p)

    p = sub.add_parser("score", help="Brier score and its decomposition as JSON")
    add_input(p)
    add_outputs(p, csv=False, svg=False, js=True)

    p = sub.add_parser("compare", help="two models at every threshold, both spaces")
    p.add_argument("--input-a", required=True, dest="input")
    p.add_argument("--input-b", required=True, dest="input_b")
    p.add_argument("--grid", default=_DCA_GRID, help=f"threshold grid (default {_DCA_GRID})")
    add_outputs(p, csv=False, svg=False, js=True)

    p = sub.add_parser("isometrics", help="constant-metric line coefficients")
    p.add_argument("--metric", required=True, choices=list(METRICS))
    p.add_argument("--levels", required=True, help="comma list or start:stop:step")
    p.add_argument("--t", type=float, help="threshold for net_benefit/brier_loss")
    p.add_argument("--pi-p", type=float, dest="pi_p", help="positive prevalence")
    p.add_argument("--input", help="derive the prevalence from this CSV instead")
    p.add_argument("--csv", dest="csv_path", help="write coefficients CSV")

    p = sub.add_parser("simulate", help="draw a two-Gaussian dataset")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--pi-p", type=float, default=0.2, dest="pi_p")
    p.add_argument("--mu-n", type=float, default=0.4, dest="mu_n")
    p.add_argument("--sd-n", type=float, default=0.12, dest="sd_n")
    p.add_argument("--mu-p", type=float, default=0.6, dest="mu_p")
    p.add_argument("--sd-p", type=float, default=0.12, dest="sd_p")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, dest="out_path", help="output CSV path")

    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The argparse namespace, with the grid and levels parsed."""
    args = _build_parser().parse_args(argv)
    if args.command in ("dca", "compare"):
        args.grid = _threshold_grid(args.grid)
    elif args.command in ("cost", "brier"):
        args.grid = _parse_grid(args.grid)
    if args.command == "isometrics":
        args.levels = _parse_levels(args.levels)
    return args


_OUTPUT_FLAGS = {"csv_path": "--csv", "svg_path": "--svg", "json_path": "--json",
                 "out_path": "--out"}


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse output paths that cannot be written before computing anything.

    An empty path, or two outputs with one real path (the later file would
    replace the earlier), is a usage error. A path write_text replaces
    needs a writable directory; an existing path it writes through (a
    device, a FIFO, a symlink) needs to be writable.
    """
    given = {flag: getattr(args, name) for name, flag in _OUTPUT_FLAGS.items()
             if getattr(args, name, None) is not None}
    seen: dict[str, str] = {}
    for flag, path in given.items():
        if not path:
            raise UsageError(f"{flag} needs a file path, got an empty one")
        real = os.path.realpath(path)
        if real in seen:
            raise UsageError(f"{seen[real]} and {flag} name the same file {real}")
        seen[real] = flag
    for path in given.values():
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")
        if os.path.exists(path) and not replaces(path):
            if not os.access(path, os.W_OK):
                raise OSError(f"cannot write {path}: it is not writable")
            continue
        target = os.path.realpath(path) if os.path.islink(path) else path
        folder = os.path.dirname(target) or "."
        if not os.path.isdir(folder):
            raise OSError(f"cannot write {path}: no directory {folder}")
        if not os.access(folder, os.W_OK | os.X_OK):
            raise OSError(f"cannot write {path}: directory {folder} is not writable")


@contextlib.contextmanager
def _outputs():
    """An Outputs for the files of one run, each reported once all of them
    are in place."""
    with Outputs() as out:
        yield out
    for path in out.paths:
        print(f"wrote {path}")


def _json_report(report: dict):
    """The report's JSON text and a final newline, in chunks for Outputs.add."""
    return itertools.chain(_json_chunks(report), ["\n"])


def _curves_csv(curves: list[Curve]):
    return xy_csv([(c.xs, c.ys, c.series) for c in curves])


def _series_json(curves: list[Curve]) -> list[dict]:
    return [{"series": c.series, "x": c.xs, "y": c.ys} for c in curves]


def _report_scaffold(args: argparse.Namespace, data: Dataset) -> dict:
    return {"command": args.command,
            "input": args.input,
            "priors": {"pi_p": data.pi_p, "pi_n": data.pi_n},
            "grid": args.grid.values}


def _baseline_cost_curves(priors: Priors, grid: ThresholdGrid) -> list[Curve]:
    """The all_positive and all_negative cost lines sampled on the grid."""
    return [Curve(xs=grid.values, ys=line.value_at(grid.values), series=series)
            for line, series in zip(baseline_cost_lines(priors), ("all_positive", "all_negative"))]


def _plot(out: Outputs, path: str, title: str, x_label: str, y_label: str,
          entries: list[PlotSeries], x_range, y_range) -> None:
    out.add(path, render_svg(PlotSpec(title=title, x_label=x_label, y_label=y_label,
                                      series=tuple(entries), x_range=x_range,
                                      y_range=y_range)))


def _run_dca(args: argparse.Namespace) -> int:
    data = read_csv(args.input)
    curves = [decision_curve(data, args.grid, args.scheme)]
    curves.extend(baseline_decision_curves(data.priors, args.grid, args.scheme))
    if args.upper_envelope:
        hull = convex_hull(operating_points(data))
        curves.append(upper_envelope_decision_curve(hull, data.priors, args.grid, args.scheme))
    model = curves[0]
    peak = int(np.argmax(model.ys))
    print(f"model net benefit peaks at t={float(model.xs[peak]):.6g} "
          f"with value {float(model.ys[peak]):.6g}")
    with _outputs() as out:
        if args.csv_path:
            out.add(args.csv_path, _curves_csv(curves))
        if args.svg_path:
            ymax = max(float(np.max(c.ys)) for c in curves)
            y_range = (-0.15 * max(ymax, 1e-9), 1.08 * max(ymax, 1e-9))
            styles = {"model": SeriesStyle(), "treat_all": SeriesStyle(dash="6,3"),
                      "treat_none": SeriesStyle(dash="2,3"),
                      "upper_envelope": SeriesStyle(width=2.2)}
            entries = [PlotSeries(data=c, style=styles.get(c.series, SeriesStyle()))
                       for c in curves]
            _plot(out, args.svg_path, "Decision curves", "threshold t", "net benefit",
                  entries, (float(args.grid.values[0]), float(args.grid.values[-1])), y_range)
        if args.json_path:
            report = _report_scaffold(args, data)
            report["scheme"] = args.scheme
            report["series"] = _series_json(curves)
            out.add(args.json_path, _json_report(report))
    return EXIT_OK


def _run_cost(args: argparse.Namespace) -> int:
    data = read_csv(args.input)
    hull = convex_hull(operating_points(data))
    priors = data.priors
    env = lower_envelope(hull, priors, args.grid)
    curves = [env, *_baseline_cost_curves(priors, args.grid)]
    print(f"lower envelope peaks at {float(np.max(env.ys)):.6g} "
          f"over {len(hull.points)} hull points")
    with _outputs() as out:
        if args.csv_path:
            out.add(args.csv_path, _curves_csv(curves))
        if args.svg_path:
            entries = [PlotSeries(data=env, style=SeriesStyle(width=2.4))]
            entries.append(PlotSeries(data=curves[1], style=SeriesStyle(dash="6,3")))
            entries.append(PlotSeries(data=curves[2], style=SeriesStyle(dash="2,3")))
            grey = SeriesStyle(color="#b0b0b0", width=1.0)
            lines = [cost_line(p, priors) for p in hull.points]
            entries.extend(PlotSeries(data=line, style=grey) for line in lines)
            ymax = max(max(float(np.max(c.ys)) for c in curves),
                       max(line.value_at(1.0) for line in lines))
            _plot(out, args.svg_path, "Cost curves", "cost proportion c",
                  "normalized expected loss", entries, (0.0, 1.0),
                  (0.0, 1.06 * max(ymax, 1e-9)))
    return EXIT_OK


def _run_brier(args: argparse.Namespace) -> int:
    data = read_csv(args.input)
    dec = loss_decomposition(data, args.grid)
    curves = [dec.brier_curve, dec.lower_envelope,
              *_baseline_cost_curves(data.priors, args.grid)]
    print(f"brier_score={dec.brier_score:.6f} refinement={dec.refinement:.6f} "
          f"calibration={dec.calibration:.6f}")
    with _outputs() as out:
        if args.csv_path:
            out.add(args.csv_path, _curves_csv(curves))
        if args.svg_path:
            styles = {"brier": SeriesStyle(width=2.0), "lower_envelope": SeriesStyle(width=2.0),
                      "all_positive": SeriesStyle(dash="6,3"),
                      "all_negative": SeriesStyle(dash="2,3")}
            entries = [PlotSeries(data=c, style=styles[c.series]) for c in curves]
            ymax = max(float(np.max(c.ys)) for c in curves)
            _plot(out, args.svg_path, "Brier curve", "cost proportion c = t",
                  "normalized expected loss", entries,
                  (float(args.grid.values[0]), float(args.grid.values[-1])),
                  (0.0, 1.06 * max(ymax, 1e-9)))
        if args.json_path:
            report = _report_scaffold(args, data)
            report.update({"brier_score": dec.brier_score, "refinement_loss": dec.refinement,
                           "calibration_loss": dec.calibration,
                           "series": _series_json(curves)})
            out.add(args.json_path, _json_report(report))
    return EXIT_OK


def _run_roc(args: argparse.Namespace) -> int:
    data = read_csv(args.input)
    curve = operating_points(data)
    hull = convex_hull(curve)
    print(f"{len(curve.points)} operating points, {len(hull.points)} on the hull, "
          f"hull area {hull.auc():.6f}")
    with _outputs() as out:
        if args.csv_path:
            out.add(args.csv_path, xy_csv([(curve.fprs, curve.tprs, "points"),
                                           (hull.fprs, hull.tprs, "hull")]))
        if args.svg_path:
            chance = Curve(xs=[0.0, 1.0], ys=[0.0, 1.0], series="chance")
            entries = [PlotSeries(data=Curve(xs=curve.fprs, ys=curve.tprs, series="points")),
                       PlotSeries(data=Curve(xs=hull.fprs, ys=hull.tprs, series="hull"),
                                  style=SeriesStyle(width=2.2)),
                       PlotSeries(data=chance, style=SeriesStyle(color="#999999", dash="4,4"))]
            _plot(out, args.svg_path, "ROC", "false positive rate", "true positive rate",
                  entries, (-0.02, 1.02), (-0.02, 1.02))
    return EXIT_OK


def _run_score(args: argparse.Namespace) -> int:
    data = read_csv(args.input)
    dec = loss_decomposition(data, ThresholdGrid.cost_default())
    report = {"command": "score", "input": args.input, "n": data.n,
              "priors": {"pi_p": data.pi_p, "pi_n": data.pi_n},
              "brier_score": dec.brier_score,
              "refinement_loss": dec.refinement,
              "calibration_loss": dec.calibration}
    text = json_text(report)
    print(text)
    if args.json_path:
        with _outputs() as out:
            out.add(args.json_path, text + "\n")
    return EXIT_OK


def _run_compare(args: argparse.Namespace) -> int:
    data_a = read_csv(args.input)
    data_b = read_csv(args.input_b)
    report = compare_models(data_a, data_b, args.grid)
    chunks = _json_report(report.json_document())
    if args.json_path:
        with _outputs() as out:
            out.add(args.json_path, chunks)
        print(f"agree_at_all_t={str(report.agree_at_all_t).lower()}")
    else:
        sys.stdout.writelines(chunks)
    return EXIT_OK


def _run_isometrics(args: argparse.Namespace) -> int:
    if args.input is not None and args.pi_p is not None:
        raise UsageError("pass either --input or --pi-p, not both")
    if args.input is not None:
        priors = read_csv(args.input).priors
    elif args.pi_p is not None:
        if not 0.0 < args.pi_p < 1.0:
            raise UsageError("--pi-p must lie strictly inside (0, 1)")
        priors = Priors(pi_p=args.pi_p, pi_n=1.0 - args.pi_p)
    else:
        raise UsageError("isometrics needs --pi-p or --input for the prevalence")
    if args.metric == "accuracy" and args.t is not None:
        raise UsageError("accuracy isometrics take no --t")
    if args.metric != "accuracy" and args.t is None:
        raise UsageError(f"{args.metric} isometrics need --t")
    lines = ["metric,level,t,gradient,intercept"]
    for level in args.levels:
        ln = isometric_line(args.metric, float(level), priors, args.t)
        t_txt = "" if ln.t is None else repr(float(ln.t))
        lines.append(f"{ln.metric},{float(ln.level)!r},{t_txt},"
                     f"{float(ln.gradient)!r},{float(ln.intercept)!r}")
    text = "\n".join(lines) + "\n"
    if args.csv_path:
        with _outputs() as out:
            out.add(args.csv_path, text)
    else:
        print(text, end="")
    return EXIT_OK


def _run_simulate(args: argparse.Namespace) -> int:
    spec = SimulationSpec(n=args.n, pi_p=args.pi_p, mu_n=args.mu_n, sigma_n=args.sd_n,
                          mu_p=args.mu_p, sigma_p=args.sd_p, seed=args.seed)
    data = simulate_gaussian(spec)
    write_csv(data, args.out_path)
    print(f"wrote {args.out_path} ({data.n} samples, {data.n_p} positive, seed {args.seed})")
    return EXIT_OK


_HANDLERS = {
    "dca": _run_dca,
    "cost": _run_cost,
    "brier": _run_brier,
    "roc": _run_roc,
    "score": _run_score,
    "compare": _run_compare,
    "isometrics": _run_isometrics,
    "simulate": _run_simulate,
}


def run(args: argparse.Namespace) -> int:
    """Check the output paths, then run the command of a parsed namespace."""
    _check_outputs(args)
    return _HANDLERS[args.command](args)


# first match wins: SimulationSpecError subclasses DatasetError and every
# DatasetError and PriorMismatchError is a ValueError
_EXIT_CODES = (
    (UsageError, EXIT_USAGE),
    (SimulationSpecError, EXIT_USAGE),
    (DatasetError, EXIT_DATA),
    (PriorMismatchError, EXIT_DATA),
    (OSError, EXIT_DATA),
    (ValueError, EXIT_USAGE),
)


def main(argv: list[str] | None = None) -> int:
    """Parse argv and run; returns the exit code instead of exiting."""
    try:
        return run(_parse_args(argv))
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))

"""Command line front end.

Exit codes: 0 on success, 1 for usage problems (bad flags, bad grid
specs), 2 for data problems (unreadable or malformed input, degenerate
datasets) and for running out of memory (one line names the command),
141 (128 + SIGPIPE), with no message, when the reader of a pipe it writes
to goes away, as in `opcurves ... | head -1`. Curve exports are CSV with
header x,y,series; JSON outputs carry the priors and grid they were
computed under, so they are self-describing. Identical invocations write
identical bytes.

The library's modules are bound here as the package's lazy submodules,
each of which runs only when one of its names is first read, so a command
loads only the modules it runs, and `--help` and the usage errors that
the flags show load no numpy, up to the grid or level range: numpy
builds those, and the isometrics flags are checked after them.

The four curve commands (dca, cost, brier, roc) compute their curves,
print a summary line and describe their plot; one writer, _write_curves,
writes the CSV, SVG and JSON of all four. It builds the plot only for
--svg, so render, and what only the plot draws, load only then. Every
JSON report (dca, brier, score, compare) is put together here from what
the library computes, and compare and isometrics write theirs to the file
their flag names, or else to stdout, through _write_or_print.

entry, which `python -m opcurves` and the console script run, owns the
process. It turns the cyclic garbage collector off while the flags are
parsed and numpy loads, then freezes the heap and turns the collector back
on right before the command runs, so the objects loading made are never
walked again and the command's own cyclic garbage is still collected.
Once main returns it runs the atexit handlers, flushes stdout and stderr
and ends the process with os._exit, skipping the interpreter's teardown.
Under a tracer, a profiler or a debugger, or when something other than the
interpreter runs it, it exits as any program does. main, which tests and
library callers run, leaves gc as it finds it.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import itertools
import os
import sys
from collections.abc import Callable

from . import METRICS, cost, dataset, decision, isometrics, output, relations, render, roc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PIPE = 141

_DCA_GRID = "0:0.99:0.005"
_COST_GRID = "0:1:0.005"


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Exit(Exception):
    """argparse is done, as after --help; main returns the status, args[0]."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); remap to 1
        raise UsageError(message)

    def exit(self, status: int = 0, message: str | None = None):  # argparse would sys.exit
        if message:
            self._print_message(message, sys.stderr)
        raise _Exit(status)


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


def _parse_grid(text: str):
    return _parse_range(text, "grid", decision.ThresholdGrid.regular)


def _threshold_grid(text: str):
    grid = _parse_grid(text)
    if grid.values[-1] >= 1.0:
        raise UsageError("net benefit is undefined at t = 1; use a grid with stop < 1")
    return grid


def _parse_levels(text: str) -> tuple[float, ...]:
    # a level range is not a grid: brier_loss levels exceed 1, net benefit
    # levels go below 0, and the metric checks each level itself
    if ":" in text:
        return tuple(_parse_range(text, "level range", decision.regular_values).tolist())
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
    p.add_argument("--grid", default=_COST_GRID,
                   help=f"cost proportion grid (default {_COST_GRID})")
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
    """The argparse namespace, with every usage error that the flags show
    refused: the output paths first, then the grid or the levels (a range
    of them is built in numpy) and the isometrics flags."""
    args = _build_parser().parse_args(argv)
    _check_output_names(args)
    if args.command in ("dca", "compare"):
        args.grid = _threshold_grid(args.grid)
    elif args.command in ("cost", "brier"):
        args.grid = _parse_grid(args.grid)
    # dca and brier plot over the grid's range, which one point does not span
    if args.command in ("dca", "brier") and args.svg_path is not None and len(args.grid) < 2:
        raise UsageError("--svg plots over the grid's range and needs a grid of at "
                         f"least two points, got only {float(args.grid.values[0])!r}")
    if args.command == "isometrics":
        args.levels = _parse_levels(args.levels)
        _check_isometrics_flags(args)
    return args


def _check_isometrics_flags(args: argparse.Namespace) -> None:
    """Refuse a prevalence given twice or not at all, or out of (0, 1) (or
    so close to 0 that 1 - pi_p, the negative prevalence, rounds to 1), and
    a --t the metric does not take or lacks."""
    if args.input is not None and args.pi_p is not None:
        raise UsageError("pass either --input or --pi-p, not both")
    if args.input is None and args.pi_p is None:
        raise UsageError("isometrics needs --pi-p or --input for the prevalence")
    if args.input is None and not 0.0 < args.pi_p < 1.0:
        raise UsageError("--pi-p must lie strictly inside (0, 1)")
    if args.input is None and 1.0 - args.pi_p == 1.0:
        raise UsageError(f"--pi-p {args.pi_p!r} is so small that 1 - pi_p rounds to 1")
    if args.metric == "accuracy" and args.t is not None:
        raise UsageError("accuracy isometrics take no --t")
    if args.metric != "accuracy" and args.t is None:
        raise UsageError(f"{args.metric} isometrics need --t")


_OUTPUT_FLAGS = {"csv_path": "--csv", "svg_path": "--svg", "json_path": "--json",
                 "out_path": "--out"}


def _given_outputs(args: argparse.Namespace) -> dict[str, str]:
    return {flag: getattr(args, name) for name, flag in _OUTPUT_FLAGS.items()
            if getattr(args, name, None) is not None}


def _given_inputs(args: argparse.Namespace) -> dict[str, str]:
    first = "--input-a" if args.command == "compare" else "--input"
    inputs = {first: getattr(args, "input", None), "--input-b": getattr(args, "input_b", None)}
    return {flag: path for flag, path in inputs.items() if path}


def _check_output_names(args: argparse.Namespace) -> None:
    """Refuse an empty output path, or an output that is an input file or
    another output's file (it would replace what the run reads, or the
    earlier file): one real path, or for paths that exist one device and
    inode (hard links). Each is a usage error; two inputs may be one file."""
    seen: dict[object, str] = {}
    inputs = _given_inputs(args)
    for flag, path in [*inputs.items(), *_given_outputs(args).items()]:
        if not path:
            raise UsageError(f"{flag} needs a file path, got an empty one")
        real = os.path.realpath(path)
        keys: list[object] = [real]
        with contextlib.suppress(OSError):
            st = os.stat(path)
            keys.append((st.st_dev, st.st_ino))
        for key in keys:
            if key in seen and flag not in inputs:
                raise UsageError(f"{seen[key]} and {flag} name the same file {real}")
            seen.setdefault(key, flag)


def _check_writable(args: argparse.Namespace) -> None:
    """Refuse output paths that cannot be written before computing anything.

    A path write_text replaces needs a writable directory; an existing path
    it writes through (a device, a FIFO, a symlink) needs to be writable.
    """
    for path in _given_outputs(args).values():
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")
        if os.path.exists(path) and not output.replaces(path):
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
    with output.Outputs() as out:
        yield out
    for path in out.paths:
        print(f"wrote {path}")


def _json_report(report: dict):
    """The report's JSON text and a final newline, in chunks for Outputs.add."""
    return itertools.chain(output._json_chunks(report), ["\n"])


def _write_or_print(path: str | None, chunks, summary: str | None = None) -> None:
    """Write chunks to the file at path and report it, then print summary;
    with no path, print the chunks instead."""
    if path:
        with _outputs() as out:
            out.add(path, chunks)
        if summary is not None:
            print(summary)
    else:
        sys.stdout.writelines(chunks)


def _write_curves(args: argparse.Namespace, data, curves: list, plot,
                  report: dict | None = None) -> None:
    """Write the files a curve command's flags name; curves are Curves.

    --csv writes the curves as x,y,series rows. --svg draws what plot()
    returns, (title, x_label, y_label, drawn, x_range, y_span): drawn pairs
    each Curve to draw with its style, in legend order, and the y range is
    y_span times the highest point drawn. --json writes the command, input,
    priors and grid, then report's keys, then the curves.
    """
    with _outputs() as out:
        if args.csv_path:
            out.add(args.csv_path, output.xy_csv(curves))
        if args.svg_path:
            title, x_label, y_label, drawn, x_range, (low, high) = plot()
            top = max(max(float(c.ys.max()) for c, _ in drawn), 1e-9)
            out.add(args.svg_path, render.render_svg(title, x_label, y_label, drawn, x_range,
                                                     (low * top, high * top)))
        if report is not None and args.json_path:
            out.add(args.json_path, _json_report({
                "command": args.command, "input": args.input,
                "priors": {"pi_p": data.pi_p, "pi_n": data.pi_n}, "grid": args.grid.values,
                **report, "series": [{"series": s, "x": x, "y": y} for x, y, s in curves]}))


def _run_dca(args: argparse.Namespace) -> None:
    data = dataset.read_csv(args.input)
    curves = [decision.decision_curve(data, args.grid, args.scheme)]
    curves.extend(decision.baseline_decision_curves(data.priors, args.grid, args.scheme))
    if args.upper_envelope:
        hull = roc.convex_hull(roc.operating_points(data))
        curves.append(decision.upper_envelope_decision_curve(hull, data.priors, args.grid,
                                                             args.scheme))
    model = curves[0]
    peak = int(model.ys.argmax())
    print(f"model net benefit peaks at t={float(model.xs[peak]):.6g} "
          f"with value {float(model.ys[peak]):.6g}")
    styles = {"treat_all": {"dash": "6,3"}, "treat_none": {"dash": "2,3"},
              "upper_envelope": {"width": 2.2}}
    _write_curves(args, data, curves, lambda: (
        "Decision curves", "threshold t", "net benefit",
        [(c, styles.get(c.series, {})) for c in curves],
        (float(args.grid.values[0]), float(args.grid.values[-1])), (-0.15, 1.08)),
        {"scheme": args.scheme})


def _run_cost(args: argparse.Namespace) -> None:
    data = dataset.read_csv(args.input)
    hull = roc.convex_hull(roc.operating_points(data))
    env = cost.lower_envelope(hull, data.priors, args.grid)
    all_positive, all_negative = cost.baseline_cost_curves(data.priors, args.grid)
    print(f"lower envelope peaks at {float(env.ys.max()):.6g} "
          f"over {hull.tp.size} hull points")
    grey = {"color": "#b0b0b0", "width": 1.0}
    _write_curves(args, data, [env, all_positive, all_negative], lambda: (
        "Cost curves", "cost proportion c", "normalized expected loss",
        [(env, {"width": 2.4}), (all_positive, {"dash": "6,3"}), (all_negative, {"dash": "2,3"}),
         *((decision.Curve._adopt(line.xs, line.ys, "hull point cost lines"), grey)
           for line in cost.cost_lines(hull, data.priors))],
        (0.0, 1.0), (0.0, 1.06)))


def _run_brier(args: argparse.Namespace) -> None:
    data = dataset.read_csv(args.input)
    dec = cost.loss_decomposition(data, args.grid)
    curves = [dec.brier_curve, dec.lower_envelope,
              *cost.baseline_cost_curves(data.priors, args.grid)]
    print(f"brier_score={dec.brier_score:.6f} refinement={dec.refinement:.6f} "
          f"calibration={dec.calibration:.6f}")
    styles = {"brier": {"width": 2.0}, "lower_envelope": {"width": 2.0},
              "all_positive": {"dash": "6,3"}, "all_negative": {"dash": "2,3"}}
    _write_curves(args, data, curves, lambda: (
        "Brier curve", "cost proportion c = t", "normalized expected loss",
        [(c, styles[c.series]) for c in curves],
        (float(args.grid.values[0]), float(args.grid.values[-1])), (0.0, 1.06)),
        {"brier_score": dec.brier_score, "refinement_loss": dec.refinement,
         "calibration_loss": dec.calibration})


def _run_roc(args: argparse.Namespace) -> None:
    data = dataset.read_csv(args.input)
    curve = roc.operating_points(data)
    hull = roc.convex_hull(curve)
    print(f"{curve.tp.size} operating points, {hull.tp.size} on the hull, "
          f"hull area {hull.auc():.6f}")
    points = decision.Curve._adopt(curve.fprs, curve.tprs, "points")
    edge = decision.Curve._adopt(hull.fprs, hull.tprs, "hull")
    # every ROC curve ends at (1, 1), so y_span is the y range itself
    _write_curves(args, data, [points, edge], lambda: (
        "ROC", "false positive rate", "true positive rate",
        [(points, {}), (edge, {"width": 2.2}),
         (decision.Curve._adopt([0.0, 1.0], [0.0, 1.0], "chance"),
          {"color": "#999999", "dash": "4,4"})],
        (-0.02, 1.02), (-0.02, 1.02)))


def _run_score(args: argparse.Namespace) -> None:
    data = dataset.read_csv(args.input)
    dec = cost.loss_decomposition(data, decision.ThresholdGrid.cost_default())
    report = {"command": "score", "input": args.input, "n": data.n,
              "priors": {"pi_p": data.pi_p, "pi_n": data.pi_n},
              "brier_score": dec.brier_score,
              "refinement_loss": dec.refinement,
              "calibration_loss": dec.calibration}
    text = "".join(_json_report(report))
    sys.stdout.write(text)
    if args.json_path:
        with _outputs() as out:
            out.add(args.json_path, text)


def _run_compare(args: argparse.Namespace) -> None:
    # one file at a time, so one count table is held: compare_models would hold both
    first = relations._curves(dataset.read_csv(args.input), args.grid)
    report = relations._report(args.grid, first,
                               relations._curves(dataset.read_csv(args.input_b), args.grid))
    # per_t as columns: one JSON object a grid point, written without a dict a row
    per_t = output.Records({"t": args.grid.values, "nb_a": report.nb_a, "nb_b": report.nb_b,
                            "bc_a": report.bc_a, "bc_b": report.bc_b,
                            "delta_nb": report.delta_nb, "delta_bc": report.delta_bc,
                            "agree": report.agree})
    _write_or_print(args.json_path, _json_report({
        "priors": {"pi_p": report.priors.pi_p, "pi_n": report.priors.pi_n},
        "grid": args.grid.values, "per_t": per_t, "agree_at_all_t": report.agree_at_all_t}),
        f"agree_at_all_t={str(report.agree_at_all_t).lower()}")


def _run_isometrics(args: argparse.Namespace) -> None:
    import numpy as np

    if args.input is not None:
        priors = dataset.read_csv(args.input).priors
    else:
        priors = dataset.Priors(pi_p=args.pi_p, pi_n=1.0 - args.pi_p)
    levels = np.array(args.levels, dtype=np.float64)
    gradient, intercepts = isometrics.isometric_lines(args.metric, levels, priors, args.t)
    t_text = "" if args.t is None else repr(float(args.t))
    table = output.rows([levels, np.full(levels.size, gradient), intercepts],
                        [args.metric + ",", "," + t_text + ",", ",", "\n"])
    _write_or_print(args.csv_path, itertools.chain(["metric,level,t,gradient,intercept\n"], table))


def _run_simulate(args: argparse.Namespace) -> None:
    data = dataset.simulate_gaussian(n=args.n, pi_p=args.pi_p, mu_n=args.mu_n, sigma_n=args.sd_n,
                                     mu_p=args.mu_p, sigma_p=args.sd_p, seed=args.seed)
    dataset.write_csv(data, args.out_path)
    print(f"wrote {args.out_path} ({data.n} samples, {data.n_p} positive, seed {args.seed})")


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
    """Check that the output paths can be written, then run the command of
    a namespace from _parse_args."""
    _check_writable(args)
    _HANDLERS[args.command](args)
    return EXIT_OK


def _exit_code(exc: Exception) -> int:
    # OSError and MemoryError (numpy's allocation error too) are mapped before
    # dataset is read, so an unwritable output loads no numpy
    if isinstance(exc, UsageError):
        return EXIT_USAGE
    if isinstance(exc, (OSError, MemoryError)):
        return EXIT_DATA
    if isinstance(exc, dataset.SimulationSpecError):
        return EXIT_USAGE
    if isinstance(exc, dataset.DatasetError):
        return EXIT_DATA
    return EXIT_USAGE


def main(argv: list[str] | None = None, ready: Callable[[], object] = lambda: None) -> int:
    """Parse argv and run; returns the exit code instead of exiting. ready()
    runs once the flags are checked, right before run."""
    args = None
    try:
        try:
            args = _parse_args(argv)
            ready()
            code = run(args)
        except _Exit as exc:
            code = exc.args[0]
        sys.stdout.flush()  # so a closed pipe shows here and not at exit
        return code
    except BrokenPipeError:
        # the Python docs' recipe: stdout goes to devnull, so the flush at
        # exit of what is still buffered for it stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (UsageError, ValueError, OSError, MemoryError) as exc:
        message = str(exc)
        if isinstance(exc, MemoryError):  # numpy's names the allocation, Python's is empty
            command = getattr(args, "command", "opcurves")
            message = f"{command} ran out of memory" + (f": {message}" if message else "")
        print(f"error: {message}", file=sys.stderr)
        return _exit_code(exc)


def _owns_process() -> bool:
    """Whether entry runs as the program and may end the process itself:
    called from the top level of what the interpreter runs (through runpy
    for -m), with no tracer, profiler or sys.monitoring tool set and no
    interactive session to follow (-i). A profiler or a debugger reports,
    or restarts the program, only once entry's SystemExit reaches it."""
    frame = sys._getframe(2).f_back  # above entry's caller
    while frame is not None and frame.f_globals.get("__name__") == "runpy":
        frame = frame.f_back
    # sys.monitoring (3.12 on) has six tool ids, 0 to 5
    monitored = hasattr(sys, "monitoring") and any(map(sys.monitoring.get_tool, range(6)))
    return (frame is None and sys.gettrace() is None and sys.getprofile() is None
            and not monitored and not sys.flags.inspect)


def _collect_from_here() -> None:
    """Load numpy, as every command that gets to run does, then freeze the
    heap and turn the collector on."""
    import numpy  # noqa: F401

    gc.freeze()
    gc.enable()


def entry() -> None:
    """Run main on the process's argv and end the process with its code.

    The collector is off while the flags are parsed and numpy loads: main
    calls _collect_from_here once the flags are checked, and it turns the
    collector back on with the loaded heap frozen. --help and usage
    errors keep it off until main returns. Then every atexit handler runs
    once, with the collector on, stdout and stderr are flushed, and
    os._exit ends the process without the interpreter's teardown. If a
    flush fails, or entry does not own the process (_owns_process),
    SystemExit takes the interpreter's own exit, as before.
    """
    gc.disable()
    try:
        code = main(sys.argv[1:], _collect_from_here)
    finally:
        gc.enable()
    if _owns_process():
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (OSError, ValueError):
            pass  # the interpreter's exit reports it
        else:
            os._exit(code)
    raise SystemExit(code)

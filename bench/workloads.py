"""The benchmark's workloads: seeded inputs, the CLI commands each one runs,
and the checks its outputs must pass.

Every input is drawn with numpy from the workload seed and written once,
before any timing, as a `score,label` CSV; the program sees only the files.
The class model is the one `opcurves simulate` uses by default: two clipped
Gaussians with pi_p = 0.2, negatives N(0.4, 0.12), positives N(0.6, 0.12).

The expected values the outputs are checked against come from `reference`,
a numpy computation that shares no code with the package: the Brier score
as a plain mean squared error, and the refinement loss as the Brier score
of the pool-adjacent-violators recalibration, whose blocks are the segments
of the ROC convex hull, so refinement = (1/n) sum dtp * dfp / (dtp + dfp).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PI_P = 0.2
MU_N, SD_N = 0.4, 0.12
MU_P, SD_P = 0.6, 0.12
MU_P_B = 0.65  # model B of finegrid-1e4: same labels, better positives

FINE_THRESHOLDS = "0:0.9999:0.0001"  # net benefit is undefined at t = 1
FINE_COSTS = "0:1:0.0001"
FINE_LEVELS = "0:1:0.0001"
DEFAULT_GRIDS = {"dca": "0:0.99:0.005", "compare": "0:0.99:0.005",
                 "cost": "0:1:0.005", "brier": "0:1:0.005"}

TOL = 1e-12


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    make_inputs: Callable[[np.random.Generator, int], dict[str, tuple[np.ndarray, np.ndarray]]]
    commands: Callable[[int, int], list[Command]]


def _labels(rng: np.random.Generator, n: int) -> np.ndarray:
    n_p = round(n * PI_P)
    return rng.permutation(np.repeat([0, 1], [n - n_p, n_p]))


def _scores(rng: np.random.Generator, labels: np.ndarray, mu_p: float = MU_P) -> np.ndarray:
    mu = np.where(labels == 1, mu_p, MU_N)
    sd = np.where(labels == 1, SD_P, SD_N)
    return np.clip(rng.normal(mu, sd), 0.0, 1.0)


def _distinct_inputs(rng, n):
    labels = _labels(rng, n)
    return {"input.csv": (_scores(rng, labels), labels)}


def _tied_inputs(rng, n):
    labels = _labels(rng, n)
    return {"input.csv": (np.round(_scores(rng, labels), 3), labels)}


def _finegrid_inputs(rng, n):
    labels = _labels(rng, n)
    return {"a.csv": (_scores(rng, labels), labels),
            "b.csv": (_scores(rng, labels, MU_P_B), labels)}


def _cmd(name: str, *args: str, outputs: tuple[str, ...] = ()) -> Command:
    return Command(name, (name, *args), outputs)


def _distinct_commands(rows: int, seed: int) -> list[Command]:
    return [
        _cmd("simulate", "--n", str(rows), "--seed", str(seed), "--out", "sim.csv",
             outputs=("sim.csv",)),
        _cmd("score", "--input", "input.csv", "--json", "score.json", outputs=("score.json",)),
        _cmd("roc", "--input", "input.csv", "--csv", "roc.csv", "--svg", "roc.svg",
             outputs=("roc.csv", "roc.svg")),
    ]


def _tied_commands(rows: int, seed: int) -> list[Command]:
    return [
        _cmd("score", "--input", "input.csv", "--json", "score.json", outputs=("score.json",)),
        _cmd("brier", "--input", "input.csv", "--csv", "brier.csv", "--json", "brier.json",
             outputs=("brier.csv", "brier.json")),
        _cmd("dca", "--input", "input.csv", "--upper-envelope", "--csv", "dca.csv",
             "--json", "dca.json", outputs=("dca.csv", "dca.json")),
        _cmd("cost", "--input", "input.csv", "--csv", "cost.csv", "--svg", "cost.svg",
             outputs=("cost.csv", "cost.svg")),
    ]


def _finegrid_commands(rows: int, seed: int) -> list[Command]:
    return [
        _cmd("dca", "--input", "a.csv", "--grid", FINE_THRESHOLDS, "--upper-envelope",
             "--csv", "dca.csv", "--json", "dca.json", "--svg", "dca.svg",
             outputs=("dca.csv", "dca.json", "dca.svg")),
        _cmd("brier", "--input", "a.csv", "--grid", FINE_COSTS, "--csv", "brier.csv",
             "--json", "brier.json", "--svg", "brier.svg",
             outputs=("brier.csv", "brier.json", "brier.svg")),
        _cmd("cost", "--input", "a.csv", "--grid", FINE_COSTS, "--csv", "cost.csv",
             "--svg", "cost.svg", outputs=("cost.csv", "cost.svg")),
        _cmd("compare", "--input-a", "a.csv", "--input-b", "b.csv", "--grid", FINE_THRESHOLDS,
             "--json", "compare.json", outputs=("compare.json",)),
        _cmd("isometrics", "--input", "a.csv", "--metric", "accuracy", "--levels", FINE_LEVELS,
             "--csv", "isometrics.csv", outputs=("isometrics.csv",)),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("distinct-2e5", 2 * 10**5, _distinct_inputs, _distinct_commands),
    Workload("tied-5e5", 5 * 10**5, _tied_inputs, _tied_commands),
    Workload("finegrid-1e4", 10**4, _finegrid_inputs, _finegrid_commands),
)}


def write_score_csv(path: Path, scores: np.ndarray, labels: np.ndarray) -> None:
    """Write with repr so each score parses back to the identical float."""
    body = "".join(f"{s!r},{y}\n" for s, y in zip(scores.tolist(), labels.tolist()))
    path.write_text("score,label\n" + body, encoding="utf-8")


def reference(scores: np.ndarray, labels: np.ndarray) -> dict:
    """Expected n, priors, distinct scores, hull vertices, Brier score and
    refinement loss, from numpy and exact integer hull geometry."""
    uniq, inv = np.unique(scores, return_inverse=True)
    total = np.bincount(inv, minlength=uniq.size)[::-1]
    pos = np.bincount(inv, weights=labels, minlength=uniq.size).astype(np.int64)[::-1]
    neg = total - pos
    tp = np.concatenate([[0], np.cumsum(pos)])
    fp = np.concatenate([[0], np.cumsum(neg)])
    # only points entered by a TP step and left by an FP step can be upper
    # hull vertices, so the Python-level monotone chain sees few candidates
    last = tp.size - 1
    k = np.arange(1, last)
    keep = np.concatenate([[0], k[(pos[k - 1] > 0) & (neg[k] > 0)], [last]])
    hull: list[tuple[int, int]] = []
    for x, y in zip(fp[keep].tolist(), tp[keep].tolist()):
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) < 0:
                break
            hull.pop()
        hull.append((x, y))
    blocks = [(b[1] - a[1], b[0] - a[0]) for a, b in zip(hull, hull[1:])]
    n = int(scores.size)
    n_p = int(labels.sum())
    return {
        "n": n,
        "n_p": n_p,
        "pi_p": n_p / n,
        "distinct_scores": int(uniq.size),
        "hull_vertices": len(hull),
        "brier_score": float(np.mean((scores - labels) ** 2)),
        "refinement": math.fsum(dtp * dfp / (dtp + dfp) for dtp, dfp in blocks) / n,
    }


def _grid_size(spec: str) -> int:
    start, stop, step = (float(v) for v in spec.split(":"))
    return int(round((stop - start) / step)) + 1


def _check_loss_split(report: dict, ref: dict, where: str) -> list[str]:
    errors = []
    bs, rl, cl = (report["brier_score"], report["refinement_loss"],
                  report["calibration_loss"])
    if report["priors"]["pi_p"] != ref["pi_p"]:
        errors.append(f"{where}: pi_p {report['priors']['pi_p']!r} != {ref['pi_p']!r}")
    if abs(bs - ref["brier_score"]) > TOL:
        errors.append(f"{where}: brier_score {bs!r} != mean squared error {ref['brier_score']!r}")
    if abs(rl - ref["refinement"]) > TOL:
        errors.append(f"{where}: refinement_loss {rl!r} != PAV refinement {ref['refinement']!r}")
    if abs(rl + cl - bs) > TOL:
        errors.append(f"{where}: refinement + calibration != brier_score")
    if cl < 0.0:
        errors.append(f"{where}: calibration_loss {cl!r} < 0")
    return errors


def _series(report: dict) -> dict[str, np.ndarray]:
    return {s["series"]: np.array(s["y"]) for s in report["series"]}


def _csv_rows(path: Path) -> list[bytes]:
    return path.read_bytes().splitlines()[1:]


def check_outputs(cmd: Command, run_dir: Path, refs: dict[str, dict]) -> list[str]:
    """Semantic checks of one command's outputs; returns the failures."""
    ref = refs.get(cmd.argv[cmd.argv.index("--input") + 1]) if "--input" in cmd.argv else None
    grid = None
    if cmd.name in DEFAULT_GRIDS:
        spec = (cmd.argv[cmd.argv.index("--grid") + 1] if "--grid" in cmd.argv
                else DEFAULT_GRIDS[cmd.name])
        grid = _grid_size(spec)
    errors: list[str] = []
    for name in cmd.outputs:
        path = run_dir / name
        if name.endswith(".svg"):
            text = path.read_text(encoding="utf-8")
            if not (text.startswith("<svg") and text.endswith("</svg>\n")):
                errors.append(f"{name}: not a complete SVG document")
        elif name.endswith(".json"):
            report = json.loads(path.read_text(encoding="utf-8"))
            if cmd.name in ("score", "brier"):
                errors += _check_loss_split(report, ref, name)
            if cmd.name == "score" and report["n"] != ref["n"]:
                errors.append(f"{name}: n {report['n']} != {ref['n']}")
            if cmd.name == "brier":
                ys = _series(report)
                if np.any(ys["lower_envelope"] > ys["brier"] + TOL):
                    errors.append(f"{name}: lower envelope above the Brier curve")
            if cmd.name == "dca":
                ys = _series(report)
                if np.any(ys["upper_envelope"] < ys["model"] - TOL):
                    errors.append(f"{name}: upper envelope below the model curve")
            if cmd.name == "compare":
                if not report["agree_at_all_t"]:
                    errors.append(f"{name}: the two spaces disagree at some t")
                if len(report["per_t"]) != grid:
                    errors.append(f"{name}: {len(report['per_t'])} thresholds, expected {grid}")
            if "grid" in report and len(report["grid"]) != grid:
                errors.append(f"{name}: {len(report['grid'])} grid points, expected {grid}")
        elif cmd.name == "roc":
            rows = _csv_rows(path)
            points = sum(1 for r in rows if r.endswith(b",points"))
            hull = sum(1 for r in rows if r.endswith(b",hull"))
            if points != ref["distinct_scores"] + 1 or hull != ref["hull_vertices"]:
                errors.append(f"{name}: {points} points and {hull} hull vertices, expected "
                              f"{ref['distinct_scores'] + 1} and {ref['hull_vertices']}")
        elif cmd.name == "simulate":
            n = int(cmd.argv[cmd.argv.index("--n") + 1])
            if len(_csv_rows(path)) != n:
                errors.append(f"{name}: expected {n} rows")
        elif cmd.name == "isometrics":
            levels = _grid_size(cmd.argv[cmd.argv.index("--levels") + 1])
            if len(_csv_rows(path)) != levels:
                errors.append(f"{name}: expected {levels} isometric lines")
        elif cmd.name == "cost" and len(_csv_rows(path)) != 3 * grid:
            errors.append(f"{name}: expected three curves over the grid")
    return errors

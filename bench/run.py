"""The opcurves benchmark: seeded inputs through the real CLI.

    python3 bench/run.py --workload distinct-2e5 --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --seed 7            # every workload in turn
    python3 bench/run.py --smoke [--workload NAME]

Each workload's commands run as `python -m opcurves ...` child processes,
one at a time (a closed loop with one client). The sequence (a pass)
repeats until --seconds have passed, except that no pass starts that would
end past 1.25 times that; every reported time is a median over the passes. Peak RSS
is read per child from os.wait4, because getrusage(RUSAGE_CHILDREN) keeps
the maximum over all children reaped so far. `setup_s` is the median of
runs of `python -m opcurves --help` (interpreter start, package import
and parser build, which every command pays), SETUP_SAMPLES of them before
the first pass and one before each pass.

Every child's time is corrected for the host's speed drift (see Clock):
bench/calibrate.py, a fixed job with no opcurves code, runs between each
two children, and a child's time is scaled by CAL_REF_S over the mean of
the calibrations on either side. The raw times (`raw_wall_s`,
`raw_setup_s`) and every calibration are printed and kept in the results.

With --trace 1 each command also runs, right after its untraced run,
through bench/tracer.py, which times every public layer function
in-process. The per-layer metrics are self times (span minus the spans
nested in it) and work counts summed over a pass, as medians over the
traced passes; traced minus untraced time is reported per command as the
tracing overhead. End-to-end numbers only come from untraced runs.

Correctness gate: every command must exit 0; every output's SHA-256 must
be the same in every pass, traced or not; and the outputs must agree with
an independent numpy reference (see workloads.py). The last line of stdout
is a JSON object with `correct`, `attempted`, `failed` and `metrics`; the
metric names and units are those BENCHMARK.json lists for the mode. The
full record, with every output hash, input hash and the machine, is
written to bench/_work/results/. The exit code is 1 if any check failed.

Inputs are cached by (workload, seed, rows) under bench/_work/inputs/.
DEFAULT_SEED is the seed to develop against; HELDOUT_SEED is kept for
re-checking a claimed change on a seed it was not written against.

--smoke runs every workload (or the one named) once at 10^3 rows in both
modes and checks the result schema, the metric names and the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracer import COUNTS, LAYERS
from workloads import WORKLOADS, check_outputs, reference, write_score_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
TRACER = BENCH / "tracer.py"
CALIBRATE = BENCH / "calibrate.py"

DEFAULT_SEED = 7
HELDOUT_SEED = 1009
SMOKE_ROWS = 1000
SETUP_SAMPLES = 5  # before the first pass; one more is taken before each pass
CACHE_KEEP = 6  # cached input sets kept per workload
CAL_REF_S = 0.25  # bench/calibrate.py's time at the reference speed (see Clock)

# opcurves makes no BLAS call, but numpy's BLAS starts a worker thread per
# core at import, which spins for about 0.1 s on the other vCPU of a
# 2-vCPU host and slows the measured process; one BLAS thread starts none
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
                 OMP_NUM_THREADS="1")

E2E_UNITS = {"peak_rss_mb": "MB", "error_rate": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, int, float]:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code,
    CPU seconds)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=CHILD_ENV, stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, usage.ru_utime + usage.ru_stime


class Clock:
    """Runs children with a calibration run between each two, and corrects
    each child's time for the host's speed drift.

    On a shared 2-vCPU VM the host's speed drifts by up to 1.7x, over
    seconds as well as hours, in CPU time as well as wall time, so neither
    a median over passes nor a longer run removes it. bench/calibrate.py
    is a fixed job with the make-up of a command (interpreter start, numpy
    import, text parsing, a scalar loop, sorts) and no opcurves code. It
    runs right before and right after every child, and the child's time is
    scaled by CAL_REF_S over the mean of the two: wall_s = raw_wall_s *
    CAL_REF_S / cal_s. A change to opcurves moves raw_wall_s and not cal_s,
    so it shows in full. The calibrations on either side track a drift
    only as well as they bracket it, which is why no command in a workload
    runs for longer than about 4 s.
    The correction is not exact: between two periods on that VM the
    calibration slowed by 1.49x and the finegrid-1e4 commands by 1.25x to
    1.52x. The raw times and the calibrations are kept in the results."""

    def __init__(self) -> None:
        self.cal_s = [self._calibrate()]

    @staticmethod
    def _calibrate() -> float:
        wall, _, code, _ = spawn([sys.executable, str(CALIBRATE)], WORK, WORK / "calibrate.log")
        if code != 0:
            raise BenchError(f"calibration failed: {(WORK / 'calibrate.log').read_text()[-400:]}")
        return wall

    def run(self, argv: list[str], cwd: Path, log: Path) -> tuple[dict, int]:
        """Run one child: its times, peak RSS in MB and exit code."""
        wall, rss, code, cpu = spawn(argv, cwd, log)
        self.cal_s.append(self._calibrate())
        cal = (self.cal_s[-2] + self.cal_s[-1]) / 2
        return {"wall_s": wall * CAL_REF_S / cal, "raw_wall_s": wall, "cal_s": cal,
                "cpu_s": cpu, "peak_rss_mb": rss}, code


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, check=True)
        return int(out.stdout.strip())
    except (OSError, subprocess.CalledProcessError, ValueError):
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def machine_record(input_bytes: int, rows: int) -> dict:
    l3 = _getconf("LEVEL3_CACHE_SIZE")
    # text plus the float64 scores, int64 labels and sorted per-class copies
    working_set = input_bytes + 24 * rows
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "array_working_set_bytes": working_set,
        "array_working_set_fits_l3": None if l3 is None else working_set < l3,
        "note": ("when the input text and numpy arrays fit in L3 the runs measure compute "
                 "and interpreter cost rather than memory bandwidth; per-score Python "
                 "objects can still push peak RSS past L3, which peak_rss_mb shows"),
    }


def _evict(workload: str, keep: Path) -> None:
    entries = sorted((p for p in (WORK / "inputs").glob(f"{workload}-seed*") if p != keep),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for old in entries[CACHE_KEEP - 1:]:
        shutil.rmtree(old, ignore_errors=True)


def ensure_inputs(wl, seed: int, rows: int) -> tuple[Path, dict]:
    """The workload's input files and their metadata, generated on first use."""
    cache = WORK / "inputs" / f"{wl.name}-seed{seed}-n{rows}"
    meta_path = cache / "meta.json"
    if not meta_path.exists():
        tmp = cache.with_name(cache.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        files = {}
        for name, (scores, labels) in wl.make_inputs(np.random.default_rng(seed), rows).items():
            write_score_csv(tmp / name, scores, labels)
            files[name] = {"sha256": sha256(tmp / name), "rows": int(scores.size),
                           "bytes": (tmp / name).stat().st_size,
                           "reference": reference(scores, labels)}
        meta = {"workload": wl.name, "seed": seed, "rows": rows, "files": files}
        (tmp / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
        shutil.rmtree(cache, ignore_errors=True)
        os.replace(tmp, cache)
    os.utime(cache)
    _evict(wl.name, cache)
    return cache, json.loads(meta_path.read_text(encoding="utf-8"))


def _fresh_dir(path: Path, inputs: Path, names) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    for name in names:
        try:
            os.link(inputs / name, path / name)
        except OSError:
            shutil.copyfile(inputs / name, path / name)
    return path


def run_command(clock: Clock, cmd, run_dir: Path, traced: bool) -> dict:
    """Run one command; record its time, RSS, exit code, output hashes and spans."""
    for name in cmd.outputs:
        (run_dir / name).unlink(missing_ok=True)
    spans = run_dir / f"{cmd.name}.spans.json"
    spans.unlink(missing_ok=True)
    prefix = [str(TRACER), str(spans)] if traced else ["-m", "opcurves"]
    times, code = clock.run([sys.executable, *prefix, *cmd.argv], run_dir,
                            run_dir / f"{cmd.name}.log")
    outputs = {}
    for name in cmd.outputs:
        path = run_dir / name
        if path.exists():
            outputs[name] = {"sha256": sha256(path), "bytes": path.stat().st_size}
    result = {"command": cmd.name, **times, "exit_code": code, "outputs": outputs}
    if traced and spans.exists():
        result["trace"] = json.loads(spans.read_text(encoding="utf-8"))
    return result


class Gate:
    """Counts command attempts and the ones that failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self._failed: set[tuple[int, int]] = set()
        self.hashes: dict[str, str] = {}

    @property
    def failed(self) -> int:
        return len(self._failed)

    def fail(self, attempt: tuple[int, int], message: str) -> None:
        self._failed.add(attempt)
        self.errors.append(message)

    def check_pass(self, pass_no: int, commands, results, run_dir: Path, refs,
                   semantic: bool, traced: bool = False) -> None:
        for i, (cmd, res) in enumerate(zip(commands, results)):
            self.attempted += 1
            attempt = (pass_no, i)
            where = f"pass {pass_no} {cmd.name}"
            if res["exit_code"] != 0:
                log = (run_dir / f"{cmd.name}.log").read_text(errors="replace")[-400:]
                self.fail(attempt, f"{where}: exit code {res['exit_code']}: {log}")
                continue
            if traced and "trace" not in res:
                self.fail(attempt, f"{where}: the tracer wrote no spans")
                continue
            if traced:
                for message in check_nesting(res["trace"]["spans"]):
                    self.fail(attempt, f"{where}: {message}")
            missing = [n for n in cmd.outputs if n not in res["outputs"]]
            if missing:
                self.fail(attempt, f"{where}: did not write {missing}")
                continue
            for name, out in res["outputs"].items():
                first = self.hashes.setdefault(name, out["sha256"])
                if out["sha256"] != first:
                    self.fail(attempt, f"{where}: {name} differs from the first pass")
            if semantic:
                try:
                    problems = check_outputs(cmd, run_dir, refs)
                except (KeyError, TypeError, ValueError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                for message in problems:
                    self.fail(attempt, f"{where}: {message}")


def check_nesting(spans: list) -> list[str]:
    errors = []
    for name, start, end, parent, _ in spans:
        if parent is not None:
            p_name, p_start, p_end = spans[parent][:3]
            if start < p_start or end > p_end:
                errors.append(f"span {name} is not inside its parent {p_name}")
    return errors


def pass_layer_metrics(results: list[dict]) -> dict[str, float]:
    """Self time per layer span, cli time per command, and work counts for one pass."""
    out: dict[str, float] = defaultdict(float)
    span_names = ("dataset.Dataset", *(layer[0] for layer in LAYERS))
    for name in (*(f"{s}_s" for s in span_names), *COUNTS, "cli.main_s", "cli.self_s"):
        out[name] = 0.0
    for res in results:
        spans = res["trace"]["spans"]
        nested = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                nested[parent] += end - start
        for i, (name, start, end, _, counts) in enumerate(spans):
            own = end - start - nested[i]
            if name.startswith("cli."):
                out[f"{name}_s"] += end - start
                out[f"{name}.self_s"] += own
                out["cli.main_s"] += end - start
                out["cli.self_s"] += own
            else:
                out[f"{name}_s"] += own
                out[f"{name}.calls"] += 1
            for key, value in (counts or {}).items():
                out[key] += value
    out["roc.hull_yield"] = out["roc.hull_vertices"] / max(out["roc.distinct_scores"], 1)
    out["cli.import_s"] = statistics.median(r["trace"]["import_s"] for r in results)
    return dict(out)


def _medians(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _pass_e2e(results: list[dict]) -> dict[str, float]:
    out = {"wall_s": sum(r["wall_s"] for r in results),
           "raw_wall_s": sum(r["raw_wall_s"] for r in results),
           "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
           "svg_bytes": sum(o["bytes"] for r in results
                            for n, o in r["outputs"].items() if n.endswith(".svg"))}
    for r in results:
        out[f"{r['command']}_s"] = out.get(f"{r['command']}_s", 0.0) + r["wall_s"]
    return out


def _passes(seconds: float, step) -> None:
    """Call step() until `seconds` have passed, at least once, but start no
    pass that the last one's length says would end past 1.25 * seconds."""
    start = time.perf_counter()
    count = 0
    last = 0.0
    while count == 0 or (time.perf_counter() - start < seconds
                         and time.perf_counter() - start + last <= 1.25 * seconds):
        began = time.perf_counter()
        step(count)
        last = time.perf_counter() - began
        count += 1


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 rows: int | None = None) -> dict:
    wl = WORKLOADS[name]
    rows = rows or wl.rows
    inputs, meta = ensure_inputs(wl, seed, rows)
    refs = {n: f["reference"] for n, f in meta["files"].items()}
    commands = wl.commands(rows, seed)
    run_root = WORK / "runs" / name
    untraced = _fresh_dir(run_root / "untraced", inputs, meta["files"])
    gate = Gate()
    record = {"workload": name, "seed": seed, "rows": rows, "trace": int(trace),
              "seconds": seconds,
              "machine": machine_record(sum(f["bytes"] for f in meta["files"].values()), rows),
              "inputs": {n: {k: f[k] for k in ("sha256", "rows", "bytes")}
                         for n, f in meta["files"].items()},
              "commands": [" ".join(c.argv) for c in commands]}

    help_log = run_root / "help.log"
    warm = spawn([sys.executable, "-m", "opcurves", "--help"], run_root, help_log)
    if warm[2] != 0:
        raise BenchError(f"python -m opcurves --help failed: {help_log.read_text()[-400:]}")

    untraced_passes: list[list[dict]] = []
    traced_passes: list[list[dict]] = []
    traced_dir = _fresh_dir(run_root / "traced", inputs, meta["files"]) if trace else None

    clock = Clock()
    setup: list[dict] = []

    def setup_sample() -> None:
        setup.append(clock.run([sys.executable, "-m", "opcurves", "--help"], run_root,
                               help_log)[0])

    if not trace:
        for _ in range(SETUP_SAMPLES):
            setup_sample()

    def one_pass(i: int) -> None:
        # with tracing, each command runs untraced and then traced, so the
        # overhead is a difference of two runs made seconds apart; without,
        # setup samples are spread over the run as the machine's speed drifts
        if not trace:
            setup_sample()
        plain, traced = [], []
        for cmd in commands:
            plain.append(run_command(clock, cmd, untraced, traced=False))
            if trace:
                traced.append(run_command(clock, cmd, traced_dir, traced=True))
        gate.check_pass(2 * i, commands, plain, untraced, refs, semantic=i == 0)
        untraced_passes.append(plain)
        if trace:
            gate.check_pass(2 * i + 1, commands, traced, traced_dir, refs, semantic=False,
                            traced=True)
            traced_passes.append(traced)

    _passes(seconds, one_pass)
    if not trace:
        metrics = _medians([_pass_e2e(r) for r in untraced_passes])
        metrics["setup_s"] = statistics.median(s["wall_s"] for s in setup)
        metrics["raw_setup_s"] = statistics.median(s["raw_wall_s"] for s in setup)
        metrics["cal_s"] = statistics.median(clock.cal_s)
        metrics["error_rate"] = gate.failed / gate.attempted
        record.update(setup_samples=setup, metrics=metrics)
    else:
        complete = [p for p in traced_passes if all("trace" in r for r in p)]
        if complete:
            record["per_layer"] = _medians([pass_layer_metrics(p) for p in complete])
        record["tracing_overhead_s"] = _medians(
            [{t["command"]: t["wall_s"] - u["wall_s"] for u, t in zip(up, tp)}
             for up, tp in zip(untraced_passes, traced_passes)])
        record["traced_passes"] = traced_passes
    record["calibrations_s"] = clock.cal_s
    record["untraced_passes"] = untraced_passes
    record["output_sha256"] = gate.hashes
    record.update(attempted=gate.attempted, failed=gate.failed, errors=gate.errors,
                  correct=gate.failed == 0)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{name}-seed{seed}-n{rows}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    record["results_path"] = str(out.relative_to(ROOT))
    return record


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summary_line(record: dict, trace: bool) -> dict:
    values = record.get("per_layer" if trace else "metrics", {})
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics(trace).items() if name in values}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "ratio" if name.endswith("yield") else "count"


def report(record: dict, trace: bool) -> None:
    print(f"{record['workload']} seed={record['seed']} rows={record['rows']} "
          f"passes={len(record['untraced_passes'])}" + (" traced and untraced" if trace else ""))
    for message in record["errors"]:
        print(f"FAILED {message}")
    values = record.get("per_layer" if trace else "metrics", {})
    for name in sorted(values):
        print(f"  {name} = {values[name]:.6g} {_unit(name)}")
    for cmd, over in record.get("tracing_overhead_s", {}).items():
        print(f"  tracing overhead {cmd} = {over:+.4f} s")
    print(f"  results: {record['results_path']}")


def smoke(names: list[str]) -> bool:
    ok = True
    for name in names:
        for trace in (False, True):
            record = run_workload(name, DEFAULT_SEED, 0, trace, rows=SMOKE_ROWS)
            line = summary_line(record, trace)
            problems = list(record["errors"])
            declared = declared_metrics(trace)
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(line)}")
            if set(line["metrics"]) != set(declared):
                problems.append(f"missing metrics {sorted(set(declared) - set(line['metrics']))}")
            for metric, value in line["metrics"].items():
                v = value["value"]
                if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                    problems.append(f"{metric} = {v!r}")
            if not line["correct"] or line["attempted"] < 1:
                problems.append("correctness gate did not pass")
            status = "ok" if not problems else "FAILED " + "; ".join(problems)
            print(f"smoke {name} trace={int(trace)}: {status}")
            ok = ok and not problems
    return ok


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)  # so spawn() can stop its child
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held out: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "opcurves" / "__init__.py").is_file():
        print(f"error: no opcurves sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    try:
        if args.smoke:
            return 0 if smoke([args.workload] if args.workload else list(WORKLOADS)) else 1
        trace = bool(args.trace)
        correct = True
        for name in [args.workload] if args.workload else list(WORKLOADS):
            record = run_workload(name, args.seed, args.seconds, trace)
            report(record, trace)
            print(json.dumps(summary_line(record, trace)))
            correct = correct and record["correct"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

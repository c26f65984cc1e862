import errno
import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from opcurves import (Dataset, DatasetError, ParseError, PriorMismatchError,
                      SimulationSpecError, ThresholdGrid, compare_models, operating_points,
                      to_csv)
from opcurves import cli
from opcurves.cli import UsageError, main
from helpers import assert_decimated, make_random, make_toy, path_data_oracle


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(to_csv(make_toy()), encoding="utf-8")
    return str(path)


def _peak_kb(argv):
    """VmHWM, the peak resident set in kB, of a child that runs main(argv)."""
    child = ("import sys; from opcurves.cli import main; code = main(sys.argv[1:]); "
             "print([l.split()[1] for l in open('/proc/self/status') "
             "if l.startswith('VmHWM:')][0]); sys.exit(code)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    done = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return int(done.stdout.split()[-1])


def _read_series(path):
    rows = path.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "x,y,series"
    out = {}
    for row in rows[1:]:
        x, y, series = row.split(",")
        out.setdefault(series, []).append((float(x), float(y)))
    return out


class TestSimulate:
    def test_writes_deterministic_csv(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        args = ["simulate", "--n", "300", "--pi-p", "0.2", "--seed", "5",
                "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        assert "300 samples" in capsys.readouterr().out

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--n", "1", "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag, field", [("--mu-n", "mu_n"), ("--sd-n", "sigma_n"),
                                             ("--mu-p", "mu_p"), ("--sd-p", "sigma_p")])
    def test_non_finite_means_and_sds_are_usage_errors(self, tmp_path, capsys, flag, field,
                                                       value):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--n", "300", f"{flag}={value}", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {field} must be finite, got {float(value)!r}\n"
        assert not out.exists()

    def test_n_above_the_cap_is_usage_error(self, tmp_path, capsys):
        # refused before numpy is asked for the arrays
        out = tmp_path / "big.csv"
        assert main(["simulate", "--n", "1000000000000000", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: n must be at most 100000000\n"
        assert os.listdir(tmp_path) == []


class TestDca:
    def test_csv_has_expected_series(self, toy_csv, tmp_path):
        out = tmp_path / "dca.csv"
        assert main(["dca", "--input", toy_csv, "--upper-envelope",
                     "--csv", str(out)]) == 0
        series = _read_series(out)
        assert set(series) == {"model", "treat_all", "treat_none", "upper_envelope"}
        assert len(series["model"]) == 199

    def test_json_is_self_describing(self, toy_csv, tmp_path):
        out = tmp_path / "dca.json"
        assert main(["dca", "--input", toy_csv, "--json", str(out)]) == 0
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert obj["priors"]["pi_p"] == pytest.approx(1 / 3, abs=1e-15)
        assert obj["scheme"] == "dca"
        assert len(obj["grid"]) == 199
        assert {s["series"] for s in obj["series"]} == {
            "model", "treat_all", "treat_none"}

    def test_svg_written(self, toy_csv, tmp_path):
        out = tmp_path / "dca.svg"
        assert main(["dca", "--input", toy_csv, "--svg", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("<svg")

    def test_grid_reaching_one_is_usage_error(self, toy_csv, capsys):
        code = main(["dca", "--input", toy_csv, "--grid", "0:1.0:0.01"])
        assert code == 1
        assert "undefined at t = 1" in capsys.readouterr().err

    def test_malformed_grid_is_usage_error(self, toy_csv, capsys):
        assert main(["dca", "--input", toy_csv, "--grid", "0-1-2"]) == 1
        assert main(["dca", "--input", toy_csv, "--grid", "0:0.9:oops"]) == 1

    def test_oversized_grid_is_usage_error(self, toy_csv, capsys):
        assert main(["dca", "--input", toy_csv, "--grid", "0:0.99:1e-15"]) == 1
        assert "more than 1000000 points" in capsys.readouterr().err

    def test_parse_error_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\n\n0.5,1\n0.2,x\n", encoding="utf-8")
        assert main(["dca", "--input", str(path)]) == 2
        assert "row 2 (line 4): unknown label 'x'" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["dca", "--input", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_single_class_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("score,label\n0.5,1\n0.6,1\n", encoding="utf-8")
        assert main(["dca", "--input", str(path)]) == 2

    def test_brier_scaled_scheme(self, toy_csv, tmp_path):
        out = tmp_path / "dca.csv"
        assert main(["dca", "--input", toy_csv, "--scheme", "brier_scaled",
                     "--csv", str(out)]) == 0
        series = _read_series(out)
        # at t=0.2 the model is at (fpr 1/2, tpr 1): 2(1-t) * 0.25
        xs = np.array([x for x, _ in series["model"]])
        i = int(np.argmin(np.abs(xs - 0.2)))
        assert series["model"][i][1] == pytest.approx(0.4, abs=1e-12)


class TestCost:
    def test_csv_series(self, toy_csv, tmp_path):
        out = tmp_path / "cost.csv"
        assert main(["cost", "--input", toy_csv, "--csv", str(out)]) == 0
        series = _read_series(out)
        assert set(series) == {"lower_envelope", "all_positive", "all_negative"}
        assert len(series["lower_envelope"]) == 201

    def test_svg_written(self, toy_csv, tmp_path):
        out = tmp_path / "cost.svg"
        assert main(["cost", "--input", toy_csv, "--svg", str(out)]) == 0
        assert "<svg" in out.read_text(encoding="utf-8")


class TestBrier:
    def test_csv_series(self, toy_csv, tmp_path):
        out = tmp_path / "brier.csv"
        assert main(["brier", "--input", toy_csv, "--csv", str(out)]) == 0
        series = _read_series(out)
        assert set(series) == {"brier", "lower_envelope",
                               "all_positive", "all_negative"}

    def test_summary_and_json(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "brier.json"
        assert main(["brier", "--input", toy_csv, "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "brier_score=" in text
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert obj["brier_score"] == pytest.approx(2.4559 / 9, abs=1e-9)
        assert obj["refinement_loss"] == pytest.approx(7 / 54, abs=1e-9)
        assert obj["calibration_loss"] == pytest.approx(
            2.4559 / 9 - 7 / 54, abs=1e-9)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_json_on_a_million_point_grid_streams(self, toy_csv, tmp_path):
        # the JSON report is written in chunks, so its peak RSS stays near
        # the CSV export's instead of holding the whole 200 MB text
        peak = {}
        for flag in ("--csv", "--json"):
            peak[flag] = _peak_kb(["brier", "--input", toy_csv, "--grid", "0:0.999999:0.000001",
                                   flag, str(tmp_path / f"brier.{flag[2:]}")])
        assert peak["--json"] <= 1.5 * peak["--csv"]


class TestRoc:
    def test_csv_lists_points_and_hull(self, toy_csv, tmp_path):
        out = tmp_path / "roc.csv"
        assert main(["roc", "--input", toy_csv, "--csv", str(out)]) == 0
        series = _read_series(out)
        assert len(series["points"]) == 8
        assert len(series["hull"]) == 5
        assert (0.0, 0.0) in series["hull"]
        assert (1.0, 1.0) in series["hull"]

    def test_svg_written(self, toy_csv, tmp_path):
        out = tmp_path / "roc.svg"
        assert main(["roc", "--input", toy_csv, "--svg", str(out)]) == 0
        assert "<svg" in out.read_text(encoding="utf-8")

    def test_svg_draws_tied_fprs_as_the_raw_staircase(self, tmp_path):
        # scores rounded to 0.01 tie, so one fpr carries several tprs: the
        # points series is the raw polyline, with vertical steps, decimated
        data = make_random(4, n=300, pi_p=0.4)
        data = Dataset(np.round(data.scores, 2), data.labels)
        curve = operating_points(data)
        assert np.any(np.diff(curve.fprs) == 0.0)
        (tmp_path / "tied.csv").write_text(to_csv(data), encoding="utf-8")
        out = tmp_path / "roc.svg"
        assert main(["roc", "--input", str(tmp_path / "tied.csv"), "--svg", str(out)]) == 0
        points = re.search(r'<path d="([^"]*)"', out.read_text(encoding="utf-8")).group(1)

        def px(x):
            return 58 + (x + 0.02) / 1.04 * 494

        def py(y):
            return 42 + (1.02 - y) / 1.04 * 386

        full = path_data_oracle(curve.fprs, curve.tprs, (-0.02, 1.02, -0.02, 1.02), px, py)
        assert_decimated(points, full)
        xs = points.split()[1::3]
        assert any(a == b for a, b in zip(xs, xs[1:]))  # a vertical step


class TestScore:
    def test_json_to_stdout(self, toy_csv, capsys):
        assert main(["score", "--input", toy_csv]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["n"] == 9
        assert obj["brier_score"] == pytest.approx(0.27288, abs=1e-4)
        assert obj["refinement_loss"] + obj["calibration_loss"] == pytest.approx(
            obj["brier_score"], abs=1e-12)

    def test_json_to_file_matches_stdout(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "score.json"
        assert main(["score", "--input", toy_csv, "--json", str(out)]) == 0
        stdout_obj = json.loads(capsys.readouterr().out.split("wrote")[0])
        file_obj = json.loads(out.read_text(encoding="utf-8"))
        assert stdout_obj == file_obj

    def test_header_after_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + to_csv(make_toy()), encoding="utf-8")
        assert main(["score", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 9

    def test_input_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"score,label\r\n0.5,1\r\n0.2,\xff\n0.8,1\n")
        assert main(["score", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 3: not UTF-8 text (byte 0xff)\n"


class TestCompare:
    def test_same_model_agrees_everywhere(self, toy_csv, tmp_path):
        out = tmp_path / "cmp.json"
        assert main(["compare", "--input-a", toy_csv, "--input-b", toy_csv,
                     "--json", str(out)]) == 0
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert obj["agree_at_all_t"] is True
        assert all(row["agree"] for row in obj["per_t"])

    def test_stdout_and_file_carry_the_report(self, toy_csv, tmp_path, capsys):
        grid = ThresholdGrid.regular(0.0, 0.99, 0.005)
        want = compare_models(make_toy(), make_toy(), grid).to_json() + "\n"
        assert main(["compare", "--input-a", toy_csv, "--input-b", toy_csv]) == 0
        assert capsys.readouterr().out == want
        out = tmp_path / "cmp.json"
        assert main(["compare", "--input-a", toy_csv, "--input-b", toy_csv,
                     "--json", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == want

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_json_on_a_hundred_thousand_point_grid_streams(self, tmp_path):
        # holding the report's text once would take its size in memory; it
        # is written in chunks, so the peak grows by less than that over a
        # 100-point grid's
        inputs = []
        for seed in (1, 2):
            inputs.append(str(tmp_path / f"{seed}.csv"))
            assert main(["simulate", "--n", "2000", "--seed", str(seed),
                         "--out", inputs[-1]]) == 0
        out = tmp_path / "cmp.json"
        peak = {}
        for grid in ("0:0.99:0.01", "0:0.99999:0.00001"):
            peak[grid] = _peak_kb(["compare", "--input-a", inputs[0], "--input-b", inputs[1],
                                   "--grid", grid, "--json", str(out)])
        report_kb = out.stat().st_size / 1024
        assert report_kb > 25_000
        assert peak["0:0.99999:0.00001"] - peak["0:0.99:0.01"] < report_kb

    def test_prior_mismatch_is_data_error(self, toy_csv, tmp_path, capsys):
        other = tmp_path / "other.csv"
        other.write_text("score,label\n0.1,0\n0.9,1\n", encoding="utf-8")
        code = main(["compare", "--input-a", toy_csv, "--input-b", str(other)])
        assert code == 2
        assert "prior" in capsys.readouterr().err


class TestIsometrics:
    def test_coefficients_csv(self, tmp_path):
        out = tmp_path / "iso.csv"
        assert main(["isometrics", "--metric", "net_benefit", "--levels",
                     "0,0.05,0.1", "--t", "0.25", "--pi-p", "0.25",
                     "--csv", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "metric,level,t,gradient,intercept"
        assert len(rows) == 4
        level0 = rows[1].split(",")
        assert float(level0[4]) == pytest.approx(0.0, abs=1e-15)

    def test_accuracy_without_t(self, capsys):
        assert main(["isometrics", "--metric", "accuracy", "--levels",
                     "0.7:0.9:0.1", "--pi-p", "0.25"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 4
        assert rows[1].split(",")[2] == ""  # no threshold column value

    def test_missing_prevalence_is_usage_error(self, capsys):
        assert main(["isometrics", "--metric", "accuracy",
                     "--levels", "0.8"]) == 1

    def test_oversized_level_range_is_usage_error(self, capsys):
        assert main(["isometrics", "--metric", "accuracy", "--levels", "0:1:1e-15",
                     "--pi-p", "0.25"]) == 1
        assert "more than 1000000 points" in capsys.readouterr().err

    def test_brier_loss_level_range_above_one(self, capsys):
        assert main(["isometrics", "--metric", "brier_loss", "--t", "0.9", "--pi-p", "0.2",
                     "--levels", "0:1.4:0.7"]) == 0
        range_rows = capsys.readouterr().out
        assert main(["isometrics", "--metric", "brier_loss", "--t", "0.9", "--pi-p", "0.2",
                     "--levels", "0,0.7,1.4"]) == 0
        assert range_rows == capsys.readouterr().out
        assert len(range_rows.splitlines()) == 4

    def test_negative_net_benefit_level_range(self, capsys):
        assert main(["isometrics", "--metric", "net_benefit", "--t", "0.3", "--pi-p", "0.25",
                     "--levels=-0.1:0.1:0.1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == pytest.approx([-0.1, 0.0, 0.1])

    def test_level_range_is_the_grid_arithmetic(self):
        levels = cli._parse_levels("0:1:0.0001")
        assert levels == tuple(ThresholdGrid.regular(0.0, 1.0, 0.0001).values.tolist())

    def test_level_out_of_the_metric_range_is_usage_error(self, capsys):
        assert main(["isometrics", "--metric", "brier_loss", "--t", "0.9", "--pi-p", "0.2",
                     "--levels", "0:2:0.5"]) == 1
        assert "brier loss level outside its range" in capsys.readouterr().err

    def test_threshold_metric_needs_t(self, capsys):
        assert main(["isometrics", "--metric", "brier_loss", "--levels", "0.1",
                     "--pi-p", "0.3"]) == 1

    def test_prevalence_from_input(self, toy_csv, capsys):
        assert main(["isometrics", "--metric", "accuracy", "--levels", "0.8",
                     "--input", toy_csv]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(2.0, abs=1e-12)  # pi_n / pi_p


class TestOutputs:
    def test_bad_output_directory_writes_nothing(self, toy_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        code = main(["dca", "--input", toy_csv, "--csv", "part.csv",
                     "--svg", str(tmp_path / "nonexistent" / "x.svg")])
        assert code == 2
        assert "nonexistent" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("argv, flag", [
        (["dca", "--input", "missing.csv", "--csv", ""], "--csv"),
        (["dca", "--input", "missing.csv", "--csv", "a.csv", "--json", ""], "--json"),
        (["roc", "--input", "missing.csv", "--svg", ""], "--svg"),
        (["simulate", "--out", ""], "--out")])
    def test_empty_output_path_is_usage_error(self, tmp_path, monkeypatch, capsys, argv, flag):
        # refused before the input is read: a missing input would exit 2
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {flag} needs a file path, got an empty one\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("first, second", [("x", "x"), ("x", "./x"), ("x", "sub/../x")])
    def test_two_outputs_to_one_file_are_usage_error(self, tmp_path, monkeypatch, capsys,
                                                     first, second):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(["dca", "--input", "missing.csv", "--csv", first, "--json", second]) == 1
        real = os.path.realpath(tmp_path / "x")
        assert capsys.readouterr().err == f"error: --csv and --json name the same file {real}\n"
        assert sorted(os.listdir(tmp_path)) == ["sub"]

    def test_symlink_to_another_output_is_usage_error(self, toy_csv, tmp_path, capsys):
        target, link = tmp_path / "plot.svg", tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["roc", "--input", toy_csv, "--csv", str(link), "--svg", str(target)]) == 1
        assert capsys.readouterr().err == (
            f"error: --csv and --svg name the same file {os.path.realpath(target)}\n")
        assert not target.exists() and link.is_symlink()

    def test_output_path_that_is_a_directory(self, toy_csv, tmp_path, capsys):
        assert main(["roc", "--input", toy_csv, "--csv", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_outputs_replace_old_files_and_leave_no_temp(self, toy_csv, tmp_path):
        out = tmp_path / "dca.json"
        out.write_text("stale", encoding="utf-8")
        assert main(["dca", "--input", toy_csv, "--json", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["command"] == "dca"
        assert sorted(os.listdir(tmp_path)) == ["dca.json", "toy.csv"]


    def test_failed_simulate_write_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        def fail(src, dst):
            raise OSError(28, "No space left on device", src)

        monkeypatch.setattr(os, "replace", fail)
        code = main(["simulate", "--n", "300", "--out", str(tmp_path / "sim.csv")])
        assert code == 2
        assert "sim.csv" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_symlinked_output_is_written_through(self, toy_csv, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        link.symlink_to(target)
        assert main(["score", "--input", toy_csv, "--json", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text(encoding="utf-8"))["command"] == "score"

    def test_failed_second_output_leaves_every_target_as_it_was(self, toy_csv, tmp_path,
                                                                monkeypatch, capsys):
        csv_out, svg_out = tmp_path / "roc.csv", tmp_path / "roc.svg"
        csv_out.write_text("old csv", encoding="utf-8")
        svg_out.write_text("old svg", encoding="utf-8")

        def full_disk(spec):
            yield "<svg"
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "render_svg", full_disk)
        code = main(["roc", "--input", toy_csv, "--csv", str(csv_out), "--svg", str(svg_out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "No space left on device" in captured.err
        assert "wrote" not in captured.out
        assert csv_out.read_text(encoding="utf-8") == "old csv"
        assert svg_out.read_text(encoding="utf-8") == "old svg"
        assert sorted(os.listdir(tmp_path)) == ["roc.csv", "roc.svg", "toy.csv"]

    def test_failed_last_output_writes_none_of_three(self, toy_csv, tmp_path, monkeypatch):
        def failing(report):
            yield "{"
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(cli, "_json_report", failing)
        paths = [str(tmp_path / name) for name in ("dca.csv", "dca.svg", "dca.json")]
        code = main(["dca", "--input", toy_csv, "--csv", paths[0], "--svg", paths[1],
                     "--json", paths[2]])
        assert code == 2
        assert os.listdir(tmp_path) == ["toy.csv"]

    def test_several_outputs_are_reported_once_all_are_written(self, toy_csv, tmp_path,
                                                               capsys):
        paths = [str(tmp_path / name) for name in ("b.csv", "b.svg", "b.json")]
        assert main(["brier", "--input", toy_csv, "--csv", paths[0], "--svg", paths[1],
                     "--json", paths[2]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == [f"wrote {p}" for p in paths]
        assert all(os.path.getsize(p) > 0 for p in paths)

    def test_fifo_output_is_written_through(self, toy_csv, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text(encoding="utf-8")),
                                  daemon=True)
        reader.start()
        assert main(["roc", "--input", toy_csv, "--csv", str(fifo)]) == 0
        reader.join(timeout=10)
        assert got and got[0].startswith("x,y,series\n")
        assert sorted(os.listdir(tmp_path)) == ["pipe", "toy.csv"]


def test_no_command_imports_numpy_ma(toy_csv, tmp_path):
    # numpy.ma costs 15-18 ms to import (np.unique is what used to load it);
    # decimal or fractions would add to every command's start as well. The
    # repr input has 17-digit scores, which take the refined decode.
    repr_csv = str(tmp_path / "repr.csv")
    assert main(["simulate", "--n", "500", "--seed", "3", "--out", repr_csv]) == 0
    runs = [["simulate", "--n", "100", "--seed", "1", "--out", str(tmp_path / "s.csv")]]
    for path in (toy_csv, repr_csv):
        runs += [["score", "--input", path],
                 ["brier", "--input", path],
                 ["dca", "--input", path, "--upper-envelope"],
                 ["cost", "--input", path, "--svg", str(tmp_path / "c.svg")],
                 ["roc", "--input", path],
                 ["compare", "--input-a", path, "--input-b", path],
                 ["isometrics", "--input", path, "--metric", "accuracy", "--levels", "0:1:0.5"]]
    child = ("import json, sys; from opcurves.cli import main\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    assert main(argv) == 0\n"
             "    print(argv[0], *(m in sys.modules for m in ('numpy.ma', 'decimal', 'fractions')),"
             " file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    done = subprocess.run([sys.executable, "-c", child, json.dumps(runs)], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stderr.splitlines() == [f"{argv[0]} False False False" for argv in runs]


class TestUsage:
    def test_python_m_opcurves_exit_codes(self, tmp_path):
        # the console entry point: the process exit code is main's
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "opcurves", *argv], env=env,
                                  cwd=tmp_path, capture_output=True, text=True, timeout=60)

        good = run("simulate", "--n", "200", "--seed", "1", "--out", "sim.csv")
        assert (good.returncode, good.stderr) == (0, "")
        assert good.stdout.startswith("wrote sim.csv (200 samples")
        assert run("score", "--input", "sim.csv").returncode == 0
        bad_flag = run("score", "--input", "sim.csv", "--bogus")
        assert bad_flag.returncode == 1
        assert bad_flag.stderr.startswith("error: unrecognized arguments: --bogus")
        missing = run("score", "--input", "missing.csv")
        assert missing.returncode == 2
        assert missing.stderr.startswith("error: ") and "missing.csv" in missing.stderr

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_idempotent_outputs(self, toy_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["dca", "--input", toy_csv, "--csv", str(a)]) == 0
        assert main(["dca", "--input", toy_csv, "--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("exc, code", [
    (UsageError("boom"), 1),
    (SimulationSpecError("boom"), 1),  # a DatasetError, but a usage problem
    (DatasetError("boom"), 2),
    (ParseError("boom"), 2),
    (PriorMismatchError("boom"), 2),
    (OSError("boom"), 2),
    (ValueError("boom"), 1),
])
def test_exit_code_table(monkeypatch, capsys, exc, code):
    def fail(cfg):
        raise exc

    monkeypatch.setattr(cli, "run", fail)
    assert main(["score", "--input", "unused.csv"]) == code
    assert capsys.readouterr().err == "error: boom\n"

import ast
import errno
import gc
import json
import os
import re
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from opcurves import (Dataset, DatasetError, ParseError, Priors, PriorMismatchError,
                      SimulationSpecError, ThresholdGrid, compare_models, isometric_lines,
                      operating_points)
from opcurves import cli, dataset, output, render
from opcurves.cli import UsageError, main
from helpers import (assert_decimated, comparison_dict, from_csv_bytes, make_random, make_toy,
                     path_data_oracle, to_csv)


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

    def test_a_run_encodes_each_array_once(self, tmp_path):
        # the grid is the x of every series and the JSON grid, and each y
        # goes to the CSV and the JSON: 5 arrays, written 17 times
        data = tmp_path / "in.csv"
        data.write_text(to_csv(make_random(4, n=2000)), encoding="utf-8")
        csv_out, json_out = tmp_path / "dca.csv", tmp_path / "dca.json"
        with mock.patch.object(output, "_float_words", wraps=output._float_words) as enc:
            assert main(["dca", "--input", str(data), "--grid", "0:0.9999:0.0001",
                         "--upper-envelope", "--csv", str(csv_out), "--json", str(json_out)]) == 0
        assert enc.call_count == 5
        report = json.loads(json_out.read_text(encoding="utf-8"))
        series = _read_series(csv_out)
        assert len(report["grid"]) == 10**4
        assert [s["series"] for s in report["series"]] == list(series)
        for s in report["series"]:
            assert s["x"] == report["grid"]
            assert list(zip(s["x"], s["y"])) == series[s["series"]]

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

    def test_every_line_fits_the_plot(self, tmp_path):
        # with pi_P > pi_N the (0, 0) vertex's line reaches 2 pi_P = 1.4 at
        # c = 0, left of a grid that starts at 0.1, and above every curve
        sim, out = tmp_path / "sim.csv", tmp_path / "cost.svg"
        assert main(["simulate", "--n", "2000", "--pi-p", "0.7", "--seed", "3",
                     "--out", str(sim)]) == 0
        assert main(["cost", "--input", str(sim), "--grid", "0.1:0.9:0.1",
                     "--svg", str(out)]) == 0
        paths = [(e.get("d"), e.get("stroke")) for e in ET.parse(out).getroot().iter()
                 if e.tag.endswith("path")]
        left, right = render._MARGIN_LEFT, render._WIDTH - render._MARGIN_RIGHT
        top, bottom = render._MARGIN_TOP, render._HEIGHT - render._MARGIN_BOTTOM
        for d, _ in paths:
            nums = [float(v) for v in re.findall(r"-?\d+\.\d+", d)]
            assert all(left <= x <= right for x in nums[0::2])
            # a vertex on the top edge would be where the clip cut a line off
            assert all(top < y <= bottom for y in nums[1::2])
        lines = [d.split() for d, stroke in paths if stroke == "#b0b0b0"]
        assert len(lines) > 2
        # each cost line is drawn whole, from c = 0 to c = 1
        assert all(d[:2] == ["M", f"{left:.2f}"] and d[3:5] == ["L", f"{right:.2f}"]
                   and len(d) == 6 for d in lines)

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_legend_fits_the_canvas(self, tmp_path, n):
        # the hull points' grey lines share one legend row; a row each put 12
        # of 34 rows below the 480 px canvas at n = 2000, and 65 rows at 20000
        sim, out = tmp_path / "sim.csv", tmp_path / "cost.svg"
        assert main(["simulate", "--n", str(n), "--seed", "3", "--out", str(sim)]) == 0
        assert main(["cost", "--input", str(sim), "--svg", str(out)]) == 0
        right = render._WIDTH - render._MARGIN_RIGHT
        rows = [(e.text, float(e.get("y"))) for e in ET.parse(out).getroot().iter()
                if e.tag.endswith("text") and float(e.get("x")) > right]
        assert [label for label, _ in rows] == ["lower_envelope", "all_positive",
                                                "all_negative", "hull point cost lines"]
        assert all(render._MARGIN_TOP < y < render._HEIGHT for _, y in rows)


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


@pytest.mark.parametrize("argv", [["roc", "--csv", "out"], ["score", "--json", "out"]])
def test_signed_zero_scores_write_the_bytes_of_their_quoted_copy(tmp_path, monkeypatch, argv):
    # the byte decoder reads -0.0 by float() and the row parser reads the
    # quoted copy; a zero threshold is +0.0 either way, so both write the
    # bytes of the file with each -0.0 written as 0.0
    rows = ["-0.0,0", "0.0,1", "1.0,1", "0.5,0", "-0.0,1", "1.0,0", "0.0,0"]
    copies = {"plain": rows, "quoted": ['"{}",{}'.format(*row.split(",")) for row in rows],
              "unsigned": [row.lstrip("-") for row in rows]}
    written = []
    for name, lines in copies.items():
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        text = "score,label\n" + "\n".join(lines) + "\n"
        Path("in.csv").write_text(text, encoding="utf-8")
        assert (from_csv_bytes(text.encode()) is None) == (name == "quoted")
        assert main([argv[0], "--input", "in.csv", *argv[1:]]) == 0
        written.append(Path("out").read_bytes())
    assert written[0] == written[1] == written[2]


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
        report = compare_models(make_toy(), make_toy(), grid)
        want = json.dumps(comparison_dict(report), indent=2) + "\n"
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

    def test_the_first_dataset_is_freed_before_the_second_is_read(self, tmp_path, monkeypatch,
                                                                   capsys):
        # so the first model's count table is gone before the second's is built
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(to_csv(make_random(1, n=200)), encoding="utf-8")
        b.write_text(to_csv(make_random(2, n=200)), encoding="utf-8")
        read, held = dataset.read_csv, []

        def read_csv(path):
            # held and getrefcount's argument are all that hold an earlier one
            assert [sys.getrefcount(held[i]) for i in range(len(held))] == [2] * len(held)
            held.append(read(path))
            return held[-1]

        monkeypatch.setattr(dataset, "read_csv", read_csv)
        grid = ThresholdGrid.decision_default()
        want = comparison_dict(compare_models(read(str(a)), read(str(b)), grid))
        assert main(["compare", "--input-a", str(a), "--input-b", str(b)]) == 0
        assert len(held) == 2 and json.loads(capsys.readouterr().out) == want

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

    def test_prevalence_whose_complement_rounds_to_one_is_usage_error(self, capsys):
        # 1e-300 lies inside (0, 1), but 1 - 1e-300 is 1.0, which no Priors takes
        assert main(["isometrics", "--metric", "accuracy", "--levels", "0.5",
                     "--pi-p", "1e-300"]) == 1
        assert capsys.readouterr().err.startswith("error: --pi-p 1e-300 ")

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

    @pytest.mark.parametrize("metric, t, levels", [
        ("accuracy", None, "0:1:0.0001"), ("net_benefit", 0.3, "-0.3:0.25:0.0005"),
        ("brier_loss", 0.9, "0:0.5:0.0003"), ("net_benefit", 0.25, "0.1,-0.05,0,0.2")])
    def test_rows_are_those_of_each_level_line(self, tmp_path, metric, t, levels):
        out = tmp_path / "iso.csv"
        argv = ["isometrics", "--metric", metric, f"--levels={levels}", "--pi-p", "0.25",
                "--csv", str(out)]
        assert main(argv + ([] if t is None else ["--t", str(t)])) == 0
        priors = Priors(pi_p=0.25, pi_n=0.75)
        want = ["metric,level,t,gradient,intercept"]
        t_text = "" if t is None else repr(float(t))
        for level in cli._parse_levels(levels):
            gradient, intercepts = isometric_lines(metric, np.array([float(level)]), priors, t)
            want.append(f"{metric},{float(level)!r},{t_text},"
                        f"{float(gradient)!r},{float(intercepts[0])!r}")
        assert out.read_text(encoding="utf-8") == "\n".join(want) + "\n"

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

    def test_hard_links_to_one_file_are_usage_error(self, toy_csv, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.json"
        first.write_text("old", encoding="utf-8")
        os.link(first, second)
        assert main(["dca", "--input", toy_csv, "--csv", str(first), "--json", str(second)]) == 1
        assert capsys.readouterr().err == (
            f"error: --csv and --json name the same file {os.path.realpath(second)}\n")
        assert first.read_text(encoding="utf-8") == "old"
        assert os.stat(first).st_ino == os.stat(second).st_ino

    @pytest.mark.parametrize("argv, flags", [
        (["score", "--input", "{a}", "--json", "{a}"], ("--input", "--json")),
        (["dca", "--input", "{a}", "--csv", "{a}"], ("--input", "--csv")),
        (["compare", "--input-a", "{a}", "--input-b", "{b}", "--json", "{b}"],
         ("--input-b", "--json")),
        (["compare", "--input-a", "{a}", "--input-b", "{a}", "--json", "{a}"],
         ("--input-a", "--json")),
        (["isometrics", "--input", "{a}", "--metric", "accuracy", "--levels", "0.5",
          "--csv", "{a}"], ("--input", "--csv")),
        (["roc", "--input", "{a}", "--svg", "{link}"], ("--input", "--svg")),
    ], ids=["score", "dca", "compare-b", "compare-a", "isometrics", "hard-link"])
    def test_an_output_that_is_an_input_is_usage_error(self, toy_csv, tmp_path, capsys,
                                                      argv, flags):
        b, link = tmp_path / "b.csv", tmp_path / "link.svg"
        b.write_bytes(Path(toy_csv).read_bytes())
        os.link(toy_csv, link)
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        argv = [arg.format(a=toy_csv, b=b, link=link) for arg in argv]
        assert main(argv) == 1
        real = os.path.realpath(argv[-1])
        assert capsys.readouterr() == (
            "", f"error: {flags[0]} and {flags[1]} name the same file {real}\n")
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_an_output_that_is_an_input_is_refused_before_numpy_loads(self, toy_csv):
        child = ("import sys; from opcurves.cli import main\n"
                 "assert main(sys.argv[1:]) == 1 and 'numpy' not in sys.modules")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        subprocess.run([sys.executable, "-c", child, "score", "--input", toy_csv,
                        "--json", toy_csv], env=env, capture_output=True, check=True, timeout=60)

    def test_an_output_in_a_missing_directory_is_refused_before_numpy_loads(self, toy_csv,
                                                                            tmp_path):
        # an OSError maps to its exit code before the dataset module is read
        child = ("import sys; from opcurves.cli import main\n"
                 "assert main(sys.argv[1:]) == 2 and 'numpy' not in sys.modules")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        subprocess.run([sys.executable, "-c", child, "score", "--input", toy_csv,
                        "--json", str(tmp_path / "missing" / "s.json")], env=env,
                       capture_output=True, check=True, timeout=60)

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

        def full_disk(*args):
            yield "<svg"
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(render, "render_svg", full_disk)
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


# the modules of the package each command runs (and so loads), besides cli
_SIM = {"dataset", "output", "_exact"}
_READ = {"dataset", "output", "_exact", "roc"}
_LOADED = [
    (["--help"], 0, set()),
    (["dca", "--grid", "0:0.5:0.1"], 1, set()),  # --input missing
    (["score", "--input", "{csv}", "--json", ""], 1, set()),
    (["isometrics", "--metric", "auc", "--levels", "0.5", "--pi-p", "0.5"], 1, set()),
    (["isometrics", "--metric", "accuracy", "--levels", "0.5", "--pi-p", "0.5", "--t", "0.2"],
     1, set()),
    (["isometrics", "--metric", "accuracy", "--levels", "0.5", "--pi-p", "1e-300"], 1, set()),
    (["simulate", "--n", "100", "--out", "{tmp}/s.csv"], 0, _SIM),
    (["score", "--input", "{csv}"], 0, _READ | {"decision", "cost"}),
    (["brier", "--input", "{csv}", "--json", "{tmp}/b.json"], 0, _READ | {"decision", "cost"}),
    (["dca", "--input", "{csv}", "--upper-envelope", "--csv", "{tmp}/d.csv"], 0,
     _READ | {"decision"}),
    (["dca", "--input", "{csv}", "--svg", "{tmp}/d.svg"], 0, _READ | {"decision", "render"}),
    (["cost", "--input", "{csv}", "--svg", "{tmp}/c.svg"], 0,
     _READ | {"decision", "cost", "render"}),
    # roc writes its CSV from the Curves it also plots
    (["roc", "--input", "{csv}", "--csv", "{tmp}/r.csv"], 0, _READ | {"decision"}),
    (["compare", "--input-a", "{csv}", "--input-b", "{csv}"], 0,
     _READ | {"decision", "cost", "relations"}),
    (["isometrics", "--metric", "accuracy", "--levels", "0:1:0.5", "--input", "{csv}"], 0,
     _READ | {"decision", "isometrics"}),
]


@pytest.mark.parametrize("argv, code, modules", _LOADED,
                         ids=[" ".join(argv[:2]) + f" -> {code}" for argv, code, _ in _LOADED])
def test_each_command_loads_only_the_modules_it_runs(toy_csv, tmp_path, argv, code, modules):
    # in a fresh interpreter, the way python -m opcurves runs a command: --help
    # and usage errors load no numpy, only compare loads relations, and no
    # command without --svg loads render
    argv = [a.format(csv=toy_csv, tmp=tmp_path) for a in argv]
    child = ("import json, sys, types\n"
             "from opcurves.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "ran = [n for n, m in sys.modules.items() if type(m) is types.ModuleType\n"
             "       and (n == 'numpy' or n.startswith('opcurves.'))]\n"
             "print(json.dumps([code, sorted(ran)]), file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    done = subprocess.run([sys.executable, "-c", child, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    got_code, ran = json.loads(done.stderr.splitlines()[-1])
    assert got_code == code
    want = sorted({f"opcurves.{m}" for m in modules | {"cli"}} | ({"numpy"} if modules else set()))
    assert ran == want


def test_no_function_imports_a_module_of_the_package():
    # cli reads the library through the package's lazy submodules, bound once
    # at its top; a function may import numpy, which is not one of them
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    imports = [n for fn in functions for n in ast.walk(fn)
               if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = [alias.name if isinstance(node, ast.Import) else "." * node.level + (node.module or "")
             for node in imports for alias in node.names]
    assert names and all(name.split(".")[0] == "numpy" for name in names), names


def test_import_registers_every_module_the_tracer_wraps():
    # bench/tracer.py reads sys.modules["opcurves.<module>"] for each layer
    # right after importing opcurves and opcurves.cli, before any command runs
    bench = Path(__file__).resolve().parent.parent / "bench"
    child = ("import sys\n"
             f"sys.path.insert(0, {str(bench)!r})\n"
             "import opcurves, opcurves.cli\n"
             "from tracer import LAYERS\n"
             "missing = [m for _, m, _, _ in LAYERS if f'opcurves.{m}' not in sys.modules]\n"
             "assert not missing and 'numpy' not in sys.modules, missing")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    subprocess.run([sys.executable, "-c", child], env=env, check=True, timeout=60)


@pytest.mark.parametrize("argv, default", [
    (["dca", "--input", "a.csv"], ThresholdGrid.decision_default),
    (["compare", "--input-a", "a.csv", "--input-b", "b.csv"], ThresholdGrid.decision_default),
    (["cost", "--input", "a.csv"], ThresholdGrid.cost_default),
    (["brier", "--input", "a.csv"], ThresholdGrid.cost_default),
], ids=["dca", "compare", "cost", "brier"])
def test_default_grids_are_the_library_defaults(argv, default):
    # the CLI writes its default grids as text, so that --help loads no numpy
    got, want = cli._parse_args(argv).grid.values, default().values
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


_ENTRY_RUNS = [
    (["roc", "--input", "{csv}", "--csv", "{tmp}/r.csv", "--svg", "{tmp}/r.svg"], 0, True),
    (["score", "--input", "{csv}", "--bogus"], 1, False),
    (["--help"], 0, False),
]


def _child_env(**extra):
    """The environment of a child that runs this checkout's package, with
    extra's variables set, or unset where their value is None."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__)), **extra}
    return {k: v for k, v in env.items() if v is not None}


@pytest.mark.parametrize("argv, code, ran", _ENTRY_RUNS, ids=["roc", "usage error", "help"])
def test_entry_exits_with_a_frozen_heap(toy_csv, tmp_path, argv, code, ran):
    # entry owns the process: a command runs with numpy loaded, the heap
    # frozen and the collector on; --help and usage errors load no numpy and
    # freeze nothing. The atexit handlers run with the collector on
    argv = [a.format(csv=toy_csv, tmp=tmp_path) for a in argv]
    child = ("import atexit, gc, sys\n"
             "from opcurves import cli\n"
             "def run(args, run=cli.run):\n"
             "    print('run', gc.isenabled(), gc.get_freeze_count() > 0, 'numpy' in sys.modules,\n"
             "          file=sys.stderr)\n"
             "    return run(args)\n"
             "cli.run = run\n"
             "atexit.register(lambda: print('atexit', gc.isenabled(), gc.get_freeze_count() > 0,\n"
             "                              file=sys.stderr))\n"
             "cli.entry()")
    done = subprocess.run([sys.executable, "-c", child, *argv], env=_child_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code
    lines = done.stderr.splitlines()
    assert lines[-1] == f"atexit True {ran}"
    assert [line for line in lines if line.startswith("run ")] == ["run True True True"] * ran


def test_entry_runs_each_atexit_handler_once_then_ends_the_process(toy_csv, tmp_path):
    # handlers registered before entry and during the command each run once,
    # with the collector on; then os._exit ends the process, block-buffered
    # stdout included
    child = ("import atexit, gc, os, sys\n"
             "from opcurves import cli\n"
             "def say(what):\n"
             "    print(what, gc.isenabled(), flush=True)\n"
             "atexit.register(say, 'before')\n"
             "def run(args, run=cli.run):\n"
             "    atexit.register(say, 'during')\n"
             "    return run(args)\n"
             "cli.run = run\n"
             "def end(code, end=os._exit):\n"
             "    say(f'os._exit({code})')\n"
             "    end(code)\n"
             "os._exit = end\n"
             "cli.entry()")
    for argv, code in [(["score", "--input", toy_csv], 0), (["score", "--input", "no.csv"], 2)]:
        done = subprocess.run([sys.executable, "-c", child, *argv], cwd=tmp_path, timeout=60,
                              env=_child_env(PYTHONUNBUFFERED=None), capture_output=True,
                              text=True)
        assert done.returncode == code
        assert done.stdout.splitlines()[-3:] == ["during True", "before True",
                                                 f"os._exit({code}) True"]


@pytest.mark.parametrize("sink", ["file", "pipe"])
def test_a_report_on_stdout_is_complete_at_exit(toy_csv, tmp_path, sink):
    # block-buffered stdout, as without PYTHONUNBUFFERED: the report printed
    # is byte for byte the one --json writes
    argv = [sys.executable, "-m", "opcurves", "compare", "--input-a", toy_csv,
            "--input-b", toy_csv, "--grid", "0:0.99:0.0001"]
    env = _child_env(PYTHONUNBUFFERED=None)
    subprocess.run([*argv, "--json", "want.json"], env=env, cwd=tmp_path, check=True,
                   capture_output=True, timeout=60)
    want = (tmp_path / "want.json").read_bytes()
    assert len(want) > 1 << 20
    if sink == "file":
        with open(tmp_path / "got.json", "wb") as out:
            subprocess.run(argv, env=env, cwd=tmp_path, check=True, stdout=out, timeout=60)
        got = (tmp_path / "got.json").read_bytes()
    else:
        got = subprocess.run(argv, env=env, cwd=tmp_path, check=True, capture_output=True,
                             timeout=60).stdout
    assert got == want


@pytest.mark.parametrize("runner, stdin, report", [
    (["-m", "cProfile"], "", "function calls"),
    (["-m", "pdb"], "c\nq\n", "The program exited via sys.exit(). Exit status: 0"),
], ids=["cProfile", "pdb"])
def test_a_profiled_or_debugged_run_keeps_its_report(toy_csv, tmp_path, runner, stdin, report):
    # the profiler and the debugger report once the program's SystemExit
    # reaches them, so entry takes the interpreter's exit under them
    done = subprocess.run([sys.executable, *runner, "-m", "opcurves", "score", "--input", toy_csv],
                          env=_child_env(), cwd=tmp_path, input=stdin, capture_output=True,
                          text=True, timeout=60)
    assert '"command": "score"' in done.stdout
    assert report in done.stdout


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmSize")
def test_running_out_of_memory_is_a_data_error(toy_csv, tmp_path):
    # the child limits its address space once numpy is loaded (below about
    # 90 MB, import numpy itself fails) to 48 MB more than it holds; brier
    # on a 10^6-point grid needs more than that
    child = ("import resource, sys\n"
             "import numpy\n"
             "from opcurves.cli import entry\n"
             "held = [int(l.split()[1]) << 10 for l in open('/proc/self/status')\n"
             "        if l.startswith('VmSize:')][0]\n"
             "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
             "resource.setrlimit(resource.RLIMIT_AS, (held + (48 << 20), hard))\n"
             "try:\n"
             "    bytearray(64 << 20)\n"
             "except MemoryError:\n"
             "    entry()\n"
             "sys.exit(99)\n")
    argv = ["brier", "--input", toy_csv, "--grid", "0:0.999999:0.000001",
            "--csv", "b.csv", "--json", "b.json"]
    done = subprocess.run([sys.executable, "-c", child, *argv], env=_child_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    if done.returncode == 99:
        pytest.skip("RLIMIT_AS is not enforced here")
    assert done.returncode == cli.EXIT_DATA == 2
    assert done.stderr.startswith("error: brier ran out of memory")
    assert len(done.stderr.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["toy.csv"]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_main_leaves_the_collector_as_it_finds_it(toy_csv, tmp_path, capsys, enabled):
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["roc", "--input", toy_csv, "--csv", str(tmp_path / "r.csv")]) == 0
        assert main(["score", "--input", toy_csv, "--bogus"]) == 1
        assert main(["--help"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


def test_a_run_without_the_collector_leaves_no_array_in_a_cycle(tmp_path, capsys):
    # a command leaves no array in a reference cycle, so none waits for the
    # collector, whether a caller runs it with the collector off or freezes
    # the heap after it; arrays are not tracked by gc, so look at what the
    # unreachable objects hold as well
    sim = str(tmp_path / "sim.csv")
    assert main(["simulate", "--n", "200000", "--seed", "7", "--out", sim]) == 0
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(["roc", "--input", sim, "--csv", str(tmp_path / "r.csv"),
                     "--svg", str(tmp_path / "r.svg")]) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        held = [o for o in gc.garbage + gc.get_referents(*gc.garbage)
                if isinstance(o, np.ndarray)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was:
            gc.enable()
    assert held == []


# the commands as the invalid-choice message lists them: some Python releases'
# argparse writes each choice with repr(), others with str()
_CHOICES = ", ".join(f"'?{name}'?" for name in cli._HANDLERS)
_TOP_HELP = """\
usage: opcurves [-h]
                {dca,cost,brier,roc,score,compare,isometrics,simulate} ...

Evaluate binary classifiers across operating conditions.

positional arguments:
  {dca,cost,brier,roc,score,compare,isometrics,simulate}
    dca                 decision curves with baselines
    cost                cost lines and their lower envelope
    brier               Brier curve, envelope and loss decomposition
    roc                 operating points and convex hull
    score               Brier score and its decomposition as JSON
    compare             two models at every threshold, both spaces
    isometrics          constant-metric line coefficients
    simulate            draw a two-Gaussian dataset

options:
  -h, --help            show this help message and exit
"""
_DCA_HELP = """\
usage: opcurves dca [-h] --input INPUT [--grid GRID]
                    [--scheme {dca,brier_scaled}] [--upper-envelope]
                    [--csv CSV_PATH] [--svg SVG_PATH] [--json JSON_PATH]

options:
  -h, --help            show this help message and exit
  --input INPUT         score,label CSV file
  --grid GRID           threshold grid (default 0:0.99:0.005)
  --scheme {dca,brier_scaled}
  --upper-envelope      include the best-attainable envelope
  --csv CSV_PATH        write curves as x,y,series CSV
  --svg SVG_PATH        write an SVG plot
  --json JSON_PATH      write a JSON report
"""
_ISOMETRICS_HELP = """\
usage: opcurves isometrics [-h] --metric {accuracy,net_benefit,brier_loss}
                           --levels LEVELS [--t T] [--pi-p PI_P]
                           [--input INPUT] [--csv CSV_PATH]

options:
  -h, --help            show this help message and exit
  --metric {accuracy,net_benefit,brier_loss}
  --levels LEVELS       comma list or start:stop:step
  --t T                 threshold for net_benefit/brier_loss
  --pi-p PI_P           positive prevalence
  --input INPUT         derive the prevalence from this CSV instead
  --csv CSV_PATH        write coefficients CSV
"""


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

    @pytest.mark.parametrize("argv", [
        ["isometrics", "--pi-p", "0.3", "--metric", "accuracy", "--levels", "0:1:0.00001"],
        ["compare", "--input-a", "toy.csv", "--input-b", "toy.csv", "--grid", "0:0.99:0.0001"],
    ], ids=["isometrics", "compare"])
    def test_closed_stdout_exits_141_without_a_message(self, tmp_path, argv):
        # far more output than a pipe holds, so a write meets the closed pipe
        (tmp_path / "toy.csv").write_text(to_csv(make_toy()), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        proc = subprocess.Popen([sys.executable, "-m", "opcurves", *argv], env=env,
                                cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
        assert first and err == b""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["cost", "--grid", "nan:0.5:0.1", "--csv", "o.csv"],
                     "bad grid 'nan:0.5:0.1': start, stop and step must be finite numbers",
                     id="nan-start"),
        pytest.param(["cost", "--grid", "0:0.5:nan", "--csv", "o.csv"],
                     "bad grid '0:0.5:nan': start, stop and step must be finite numbers",
                     id="nan-step"),
        pytest.param(["cost", "--grid", "0:nan:0.1", "--svg", "o.svg"],
                     "bad grid '0:nan:0.1': start, stop and step must be finite numbers",
                     id="nan-stop"),
        pytest.param(["cost", "--grid=-inf:0.5:0.1", "--svg", "o.svg"],
                     "bad grid '-inf:0.5:0.1': start, stop and step must be finite numbers",
                     id="minus-inf-start"),
        pytest.param(["brier", "--grid", "0:0.5:inf", "--json", "o.json"],
                     "bad grid '0:0.5:inf': start, stop and step must be finite numbers",
                     id="inf-step"),
        pytest.param(["isometrics", "--pi-p", "0.3", "--metric", "accuracy",
                      "--levels", "nan:1:0.1", "--csv", "o.csv"],
                     "bad level range 'nan:1:0.1': start, stop and step must be finite numbers",
                     id="nan-level-start"),
        pytest.param(["dca", "--grid", "0:0.5:0.6", "--svg", "o.svg"],
                     "--svg plots over the grid's range and needs a grid of at least two "
                     "points, got only 0.0", id="dca-one-point-svg"),
        pytest.param(["brier", "--grid", "0.5:0.6:0.2", "--svg", "o.svg", "--csv", "o.csv"],
                     "--svg plots over the grid's range and needs a grid of at least two "
                     "points, got only 0.5", id="brier-one-point-svg"),
    ])
    def test_grid_refused_before_the_input_is_read(self, tmp_path, monkeypatch, capsys,
                                                   argv, message):
        # the input does not exist: reading it would be a data error, exit 2
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--input", "missing.csv"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert os.listdir(tmp_path) == []

    def test_one_point_grid_plots_where_the_x_range_is_fixed(self, toy_csv, tmp_path):
        # the cost plot spans c in [0, 1] whatever the grid
        out = tmp_path / "cost.svg"
        assert main(["cost", "--input", toy_csv, "--grid", "0.5:0.6:0.2",
                     "--svg", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("<svg")

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("argv, code, out, err", [
        (["--help"], 0, _TOP_HELP, ""),
        (["dca", "--help"], 0, _DCA_HELP, ""),
        (["bogus"], 1, "", re.compile(r"error: argument command: invalid choice: 'bogus' "
                                      r"\(choose from " + _CHOICES + r"\)\n")),
        (["dca"], 1, "", "error: the following arguments are required: --input\n"),
        ([], 1, "", "error: the following arguments are required: command\n"),
        (["--help", "dca"], 0, _TOP_HELP, ""),
        (["isometrics", "--help"], 0, _ISOMETRICS_HELP, ""),
        (["simulate", "--out"], 1, "", "error: argument --out: expected one argument\n"),
        (["-x", "score"], 1, "", "error: the following arguments are required: --input\n"),
    ], ids=[f"argv{i}" for i in range(9)])
    def test_help_and_usage_errors_read_as_with_every_argument_built(self, monkeypatch, capsys,
                                                                     argv, code, out, err):
        # every command's arguments are built on every run, so this pins --help and the
        # parser's own messages
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        got = main(argv), *capsys.readouterr()
        if isinstance(err, re.Pattern):
            assert err.fullmatch(got[2]), got[2]
            err = got[2]
        assert got == (code, out, err)

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

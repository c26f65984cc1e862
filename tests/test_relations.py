import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from opcurves import (PriorMismatchError, ThresholdGrid, brier_curve, compare_models,
                      convex_hull, decision_curve, lower_envelope, nb_from_brier_loss,
                      net_benefit, operating_points, upper_envelope_decision_curve)
from opcurves.cli import main
from helpers import comparison_dict, envelope_oracle, make_random, to_csv


def compare_output(data_a, data_b, grid: str, tmp_path, capsys) -> str:
    """What the compare command prints for two datasets over the grid
    start:stop:step, once checked to be what it writes with --json too."""
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    for path, data in zip(paths, (data_a, data_b)):
        Path(path).write_text(to_csv(data), encoding="utf-8")
    argv = ["compare", "--input-a", paths[0], "--input-b", paths[1], "--grid", grid]
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main([*argv, "--json", str(tmp_path / "report.json")]) == 0
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == printed
    return printed


class TestPointIdentity:
    def test_round_trip(self, toy):
        grid = ThresholdGrid.decision_default()
        nb = decision_curve(toy, grid)
        bc = brier_curve(toy, grid)
        back = nb_from_brier_loss(bc.ys, grid.values, toy.pi_p)
        np.testing.assert_allclose(back, nb.ys, rtol=0, atol=1e-12)

    def test_rejects_t_one(self):
        with pytest.raises(ValueError):
            nb_from_brier_loss(0.1, 1.0, 0.3)

    def test_scalar(self, toy):
        bc = 2 / 15
        assert nb_from_brier_loss(bc, 0.2, toy.pi_p) == pytest.approx(
            0.25, abs=1e-12)


class TestEnvelopeDuality:
    def test_upper_equals_transformed_lower(self, toy):
        grid = ThresholdGrid.decision_default()
        hull = convex_hull(operating_points(toy))
        upper = upper_envelope_decision_curve(hull, toy.priors, grid)
        lower = lower_envelope(hull, toy.priors, grid)
        transformed = nb_from_brier_loss(lower.ys, grid.values, toy.pi_p)
        np.testing.assert_allclose(upper.ys, transformed, rtol=0, atol=1e-12)

    def test_hull_envelope_matches_exhaustive_oracle(self):
        grid = ThresholdGrid.decision_default()
        for seed in range(3):
            data = make_random(seed, n=150, pi_p=0.3)
            curve = operating_points(data)
            hull = convex_hull(curve)
            fast = upper_envelope_decision_curve(hull, data.priors, grid)
            slow = envelope_oracle(curve, data.priors, grid, "upper_decision")
            np.testing.assert_allclose(fast.ys, slow.ys, rtol=0, atol=1e-12)

    def test_lower_envelope_matches_exhaustive_oracle(self):
        grid = ThresholdGrid.cost_default()
        for seed in range(3):
            data = make_random(seed, n=150, pi_p=0.3)
            curve = operating_points(data)
            hull = convex_hull(curve)
            fast = lower_envelope(hull, data.priors, grid)
            slow = envelope_oracle(curve, data.priors, grid, "lower_cost")
            np.testing.assert_allclose(fast.ys, slow.ys, rtol=0, atol=1e-12)

    def test_oracle_rejects_unknown_space(self, toy):
        with pytest.raises(ValueError):
            envelope_oracle(operating_points(toy), toy.priors,
                            ThresholdGrid.cost_default(), "sideways")


class TestCompareModels:
    def test_sign_flip_identity(self):
        grid = ThresholdGrid.decision_default()
        for seed in range(6):
            a = make_random(seed, n=200, pi_p=0.3)
            b = make_random(seed + 1000, n=200, pi_p=0.3)
            report = compare_models(a, b, grid)
            assert report.agree_at_all_t
            assert bool(np.all(report.agree))

    def test_deltas_match_curves(self, toy):
        grid = ThresholdGrid.decision_default()
        other = make_random(9, n=9, pi_p=1 / 3)
        report = compare_models(toy, other, grid)
        nb_a = decision_curve(toy, grid)
        np.testing.assert_allclose(report.nb_a, nb_a.ys, rtol=0, atol=0)
        np.testing.assert_allclose(report.delta_nb, report.nb_a - report.nb_b,
                                   rtol=0, atol=0)

    def test_every_array_of_a_report_refuses_a_write(self, toy):
        report = compare_models(toy, make_random(9, n=9, pi_p=1 / 3),
                                ThresholdGrid.decision_default())
        arrays = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
                  if isinstance(getattr(report, f.name), np.ndarray)}
        assert sorted(arrays) == sorted(["nb_a", "nb_b", "bc_a", "bc_b", "delta_nb",
                                         "delta_bc", "agree"])
        arrays["grid.values"] = report.grid.values
        for arr in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                arr[:] = arr[0]

    def test_prior_mismatch_raises(self, toy):
        other = make_random(2, n=10, pi_p=0.5)
        with pytest.raises(PriorMismatchError):
            compare_models(toy, other, ThresholdGrid.decision_default())

    def test_json_round_trip(self, toy, tmp_path, capsys):
        grid = ThresholdGrid.regular(0.0, 0.9, 0.1)
        other = make_random(9, n=9, pi_p=1 / 3)
        obj = json.loads(compare_output(toy, other, "0:0.9:0.1", tmp_path, capsys))
        assert obj["priors"]["pi_p"] == pytest.approx(toy.pi_p, abs=0)
        assert obj["grid"] == [pytest.approx(v, abs=0) for v in grid.values]
        assert len(obj["per_t"]) == len(grid)
        row = obj["per_t"][0]
        assert set(row) >= {"t", "nb_a", "nb_b", "bc_a", "bc_b",
                            "delta_nb", "delta_bc", "agree"}

    def test_json_is_json_dumps_of_the_dict(self, tmp_path, capsys):
        grid = ThresholdGrid.regular(0.0, 0.98, 0.0007)
        a, b = make_random(3, n=400, pi_p=0.25), make_random(4, n=400, pi_p=0.25)
        report = compare_models(a, b, grid)
        assert compare_output(a, b, "0:0.98:0.0007", tmp_path, capsys) == (
            json.dumps(comparison_dict(report), indent=2) + "\n")

    def test_records_align_with_arrays(self, toy, tmp_path, capsys):
        grid = ThresholdGrid.regular(0.0, 0.9, 0.1)
        other = make_random(9, n=9, pi_p=1 / 3)
        report = compare_models(toy, other, grid)
        rows = json.loads(compare_output(toy, other, "0:0.9:0.1", tmp_path, capsys))["per_t"]
        assert len(rows) == len(grid)
        assert rows[3]["delta_nb"] == pytest.approx(
            float(report.delta_nb[3]), abs=0)
        assert [row["agree"] for row in rows] == report.agree.tolist()


class TestBounds:
    def test_net_benefit_bounds_hold_exactly(self):
        grid = ThresholdGrid.decision_default()
        for seed in range(10):
            data = make_random(seed, n=200, pi_p=0.25)
            nb = decision_curve(data, grid).ys
            assert np.all(nb <= data.pi_p)
            # treat every negative and no positive: -u_N(t) pi_N
            assert np.all(nb >= net_benefit(0.0, 1.0, data.priors, grid.values))

    def test_brier_curve_bounds_hold_exactly(self):
        grid = ThresholdGrid.cost_default()
        t = grid.values
        for seed in range(10):
            data = make_random(seed, n=200, pi_p=0.25)
            bc = brier_curve(data, grid).ys
            ub = 2.0 * (1.0 - t) * data.pi_p + 2.0 * t * data.pi_n
            assert np.all(bc >= 0.0)
            assert np.all(bc <= ub)


class TestClassSwap:
    def test_swapped_curve_mirrors(self):
        from opcurves import Dataset
        for seed in range(5):
            data = make_random(seed, n=150, pi_p=0.4, tie_free=True)
            swapped = Dataset(1.0 - data.scores, 1 - data.labels)
            base = ThresholdGrid.cost_default().values
            keep = np.ones(len(base), dtype=bool)
            for s in data.scores:
                keep &= np.abs(base - s) > 1e-6
                keep &= np.abs(base - (1.0 - s)) > 1e-6
            ts = base[keep]
            bc = brier_curve(data, ThresholdGrid(values=ts)).ys
            mirror_ts = np.sort(1.0 - ts)
            bc_swapped = brier_curve(swapped, ThresholdGrid(values=mirror_ts)).ys
            np.testing.assert_allclose(bc_swapped[::-1], bc, rtol=0, atol=1e-9)

import numpy as np
import pytest

from opcurves import (Curve, Priors, ThresholdGrid, baseline_decision_curves, convex_hull,
                      decision_curve, net_benefit, operating_points, standardized_net_benefit,
                      upper_envelope_decision_curve)
from opcurves.decision import MAX_GRID_POINTS, regular_values
from helpers import envelope_support, make_random, point_view

THIRD = 1 / 3


class TestUtilityScheme:
    # a scheme is the name of a pair of weights; NB at (tpr, fpr) = (1, 0)
    # is u_P * pi_P and at (0, 1) it is -u_N * pi_N
    PRIORS = Priors(pi_p=0.25, pi_n=0.75)

    def test_dca_weights(self):
        p = self.PRIORS
        for t in (0.0, 0.3, 0.9):
            assert net_benefit(1.0, 0.0, p, t) == 0.25
            assert net_benefit(1.0, 0.0, p, t, "dca") == 0.25
        assert net_benefit(0.0, 1.0, p, 0.2, "dca") == pytest.approx(-0.25 * 0.75)
        assert net_benefit(0.0, 1.0, p, 0.5, "dca") == -0.75
        assert net_benefit(0.0, 1.0, p, 0.0, "dca") == 0.0

    def test_dca_undefined_at_one(self):
        with pytest.raises(ValueError, match="t = 1"):
            net_benefit(0.5, 0.5, self.PRIORS, 1.0)
        with pytest.raises(ValueError, match="t = 1"):
            net_benefit(0.5, 0.5, self.PRIORS, np.array([0.5, 1.0]), "dca")

    def test_brier_scaled_weights(self):
        p = self.PRIORS
        assert net_benefit(1.0, 0.0, p, 0.2, "brier_scaled") == pytest.approx(1.6 * 0.25)
        assert net_benefit(0.0, 1.0, p, 0.2, "brier_scaled") == pytest.approx(-0.4 * 0.75)
        # defined on the whole unit interval, including t = 1
        assert net_benefit(1.0, 0.0, p, 1.0, "brier_scaled") == 0.0
        assert net_benefit(0.0, 1.0, p, 1.0, "brier_scaled") == -1.5
        ts = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(net_benefit(1.0, 1.0, p, ts, "brier_scaled"),
                                      2.0 * (1.0 - ts) * 0.25 - 2.0 * ts * 0.75)

    def test_unknown_kind_is_refused(self):
        # every scheme is indexed by the threshold; constant weights are not one
        for name in ("explicit", "DCA", "", None):
            with pytest.raises(ValueError, match="unknown scheme"):
                net_benefit(0.5, 0.5, self.PRIORS, 0.2, name)


class TestThresholdGrid:
    def test_regular_includes_reachable_stop(self):
        g = ThresholdGrid.regular(0.0, 0.99, 0.005)
        assert len(g) == 199
        assert g.values[0] == 0.0
        assert g.values[-1] == 0.99

    def test_regular_stops_short_when_unreachable(self):
        g = ThresholdGrid.regular(0.0, 0.99, 0.4)
        assert g.values.tolist() == pytest.approx([0.0, 0.4, 0.8])

    def test_defaults(self):
        assert len(ThresholdGrid.decision_default()) == 199
        g = ThresholdGrid.cost_default()
        assert len(g) == 201
        assert g.values[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdGrid(values=np.array([0.2, 0.2]))
        with pytest.raises(ValueError):
            ThresholdGrid(values=np.array([0.5, 0.1]))
        with pytest.raises(ValueError):
            ThresholdGrid(values=np.array([-0.1, 0.5]))
        with pytest.raises(ValueError):
            ThresholdGrid.regular(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            ThresholdGrid.regular(0.5, 0.5, 0.1)

    def test_regular_caps_the_point_count_before_allocating(self):
        # a regression allocates 10^15 points and fails with MemoryError at once
        for step in (1e-15, 1e-6):
            with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
                ThresholdGrid.regular(0.0, 1.0, step)
        # finite ends whose span overflows to inf are refused by the count
        with pytest.raises(ValueError, match="more than"):
            regular_values(-1e308, 1e308, 0.1)
        for start, stop, step in ((0.0, float("inf"), 0.1), (float("nan"), 1.0, 0.1),
                                  (0.0, 1.0, float("nan")), (float("-inf"), 1.0, 0.1)):
            with pytest.raises(ValueError, match="start, stop and step must be finite"):
                ThresholdGrid.regular(start, stop, step)
        assert len(ThresholdGrid.regular(0.0, 1.0, 1.0 / (MAX_GRID_POINTS - 1))) == MAX_GRID_POINTS

    def test_values_read_only(self):
        g = ThresholdGrid.decision_default()
        with pytest.raises(ValueError):
            g.values[0] = 0.5

    def test_grids_compare_and_hash_by_identity(self):
        # comparing the values array by value would raise, as numpy gives no
        # single truth value for an array of them
        a, b = ThresholdGrid.regular(0, 1, 0.5), ThresholdGrid.regular(0, 1, 0.5)
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and hash(a) != hash(b)
        assert a in {a} and b not in {a}


class TestNetBenefit:
    def test_point_values_dca(self, toy):
        # at t = 0.2 the model sits at tpr 1, fpr 1/2
        nb = net_benefit(1.0, 0.5, toy.priors, 0.2)
        assert nb == pytest.approx(0.25, abs=1e-12)

    def test_point_values_brier_scaled(self, toy):
        nb = net_benefit(1.0, 0.5, toy.priors, 0.2, "brier_scaled")
        assert nb == pytest.approx(0.40, abs=1e-12)

    def test_scheme_relation(self, toy):
        # brier_scaled is the dca value rescaled by 2(1 - t)
        grid = ThresholdGrid.decision_default()
        a = decision_curve(toy, grid)
        b = decision_curve(toy, grid, "brier_scaled")
        np.testing.assert_allclose(b.ys, 2.0 * (1.0 - grid.values) * a.ys,
                                   rtol=0, atol=1e-12)

    def test_vectorized_matches_scalar(self, toy):
        grid = ThresholdGrid.regular(0.0, 0.9, 0.1)
        curve = decision_curve(toy, grid)
        from opcurves import threshold_rates
        tpr, fpr = threshold_rates(toy, grid.values)
        for i, t in enumerate(grid.values):
            assert curve.ys[i] == net_benefit(float(tpr[i]), float(fpr[i]),
                                              toy.priors, float(t))

    def test_at_zero_threshold_equals_prevalence(self, toy):
        # t = 0 predicts everyone positive at zero fp weight
        curve = decision_curve(toy, ThresholdGrid(values=np.array([0.0, 0.5])))
        assert curve.ys[0] == toy.pi_p


class TestBaselines:
    def test_treat_none_is_zero(self, toy):
        grid = ThresholdGrid.decision_default()
        _, none = baseline_decision_curves(toy.priors, grid)
        assert none.series == "treat_none"
        assert np.all(none.ys == 0.0)

    def test_treat_all_formula(self, toy):
        grid = ThresholdGrid.decision_default()
        all_, _ = baseline_decision_curves(toy.priors, grid)
        assert all_.series == "treat_all"
        t = grid.values
        want = toy.pi_p - t / (1.0 - t) * toy.pi_n
        np.testing.assert_allclose(all_.ys, want, rtol=0, atol=1e-12)

    def test_treat_all_zero_at_prevalence(self):
        from opcurves import Priors
        priors = Priors(pi_p=0.2, pi_n=0.8)
        assert net_benefit(1.0, 1.0, priors, 0.2) == 0.0


class TestUpperEnvelope:
    def test_toy_value_at_third(self, toy):
        hull = convex_hull(operating_points(toy))
        grid = ThresholdGrid(values=np.array([THIRD]))
        env = upper_envelope_decision_curve(hull, toy.priors, grid)
        assert env.series == "upper_envelope"
        assert env.ys[0] == pytest.approx(1 / 6, abs=1e-12)

    def test_dominates_model_curve(self, toy):
        grid = ThresholdGrid.decision_default()
        hull = convex_hull(operating_points(toy))
        env = upper_envelope_decision_curve(hull, toy.priors, grid)
        model = decision_curve(toy, grid)
        assert np.all(env.ys >= model.ys)

    def test_dominates_baselines_bitwise(self, toy):
        # treat-all and treat-none are hull points, so no tolerance at all
        grid = ThresholdGrid.decision_default()
        hull = convex_hull(operating_points(toy))
        env = upper_envelope_decision_curve(hull, toy.priors, grid)
        for base in baseline_decision_curves(toy.priors, grid):
            assert np.all(env.ys >= base.ys)

    def test_support_reports_tie(self, toy):
        hull = convex_hull(operating_points(toy))
        support = envelope_support(hull, toy.priors, THIRD)
        got = {(round(p.fpr, 6), round(p.tpr, 6)) for p in support}
        assert got == {(round(1 / 6, 6), round(2 / 3, 6)), (0.5, 1.0)}
        # both tied points reach the upper envelope of net benefit at t = 1/3
        env = upper_envelope_decision_curve(hull, toy.priors,
                                            ThresholdGrid(values=np.array([THIRD])))
        for p in support:
            assert net_benefit(p.tpr, p.fpr, toy.priors, THIRD) == pytest.approx(
                env.ys[0], abs=1e-12)

    def test_requires_hull(self, toy):
        curve = operating_points(toy)
        with pytest.raises(ValueError, match="hull"):
            upper_envelope_decision_curve(curve, toy.priors,
                                          ThresholdGrid.decision_default())


class TestStandardized:
    def test_scales_curve(self, toy):
        grid = ThresholdGrid.decision_default()
        curve = decision_curve(toy, grid)
        std = standardized_net_benefit(curve, toy.pi_p)
        np.testing.assert_allclose(std.ys, curve.ys / toy.pi_p, rtol=0, atol=0)
        # a perfect classifier pins the standardized value at 1
        assert standardized_net_benefit(net_benefit(1.0, 0.0, toy.priors, 0.5),
                                        toy.pi_p) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_prevalence(self):
        with pytest.raises(ValueError):
            standardized_net_benefit(0.5, 0.0)


class TestCurveContainer:
    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            Curve(xs=np.array([0.1, 0.2]), ys=np.array([1.0]), series="model")
        with pytest.raises(ValueError):
            Curve(xs=[], ys=[], series="model")

    def test_validates_series(self):
        with pytest.raises(ValueError):
            Curve(xs=np.array([0.1]), ys=np.array([1.0]), series="")


def test_envelope_on_random_data_majorizes_every_point():
    for seed in range(4):
        data = make_random(seed, n=80, pi_p=0.3)
        grid = ThresholdGrid.regular(0.0, 0.95, 0.05)
        hull = convex_hull(operating_points(data))
        env = upper_envelope_decision_curve(hull, data.priors, grid)
        for p in point_view(operating_points(data)):
            nb = net_benefit(p.tpr, p.fpr, data.priors, grid.values)
            assert np.all(env.ys - nb >= -1e-12)


def test_curves_on_a_grid_share_its_values():
    # so the writers format the grid once for every curve on it
    grid = ThresholdGrid.regular(0.0, 0.9, 0.1)
    data = make_random(1)
    assert decision_curve(data, grid).xs is grid.values
    assert all(c.xs is grid.values for c in baseline_decision_curves(data.priors, grid))
    xs = np.linspace(0.0, 1.0, 5)
    curve = Curve(xs=xs, ys=xs, series="model")
    xs[0] = -1.0  # a writable array is copied
    assert curve.xs[0] == 0.0
    assert not curve.xs.flags.writeable and not curve.ys.flags.writeable


def test_a_curve_holds_a_copy_of_a_read_only_array():
    # a view taken before the array was made read-only can still write it
    xs = np.array([0.0, 0.5, 1.0])
    view = xs[:]
    xs.flags.writeable = False
    curve = Curve(xs=xs, ys=np.array([0.0, 0.2, 0.3]), series="model")
    view[1] = 0.9
    assert curve.xs is not xs and curve.xs.tolist() == [0.0, 0.5, 1.0]
    assert not curve.xs.flags.writeable

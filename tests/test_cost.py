import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from opcurves import (Dataset, OperatingPoint, ThresholdGrid, baseline_cost_lines,
                      brier_curve, brier_score, convex_hull, cost_line, decision_curve,
                      loss_cp, loss_decomposition, lower_envelope, operating_points,
                      per_class_components, refinement_loss, upper_envelope_decision_curve)
from helpers import (THOUSANDTHS, UNIT_FLOATS, brier_score_oracle, datasets, envelope_gaps,
                     envelope_support, make_calibrated, make_random, switch_grid)

THIRD = 1 / 3

# toy oracle values, worked out by hand from the counts
TOY_BRIER_SCORE = 2.4559 / 9
TOY_REFINEMENT = 7 / 54


class TestExpectedLoss:
    def test_formula(self, toy):
        # loss = C_P pi_P fnr + C_N pi_N fpr, here with C_P = 1.6, C_N = 0.4 (c = 0.2)
        val = loss_cp(2 / 3, 1 / 6, toy.priors, 0.2)
        want = 1.6 * THIRD * THIRD + 0.4 * (2 / 3) * (1 / 6)
        assert val == pytest.approx(want, abs=1e-15)

    def test_loss_cp_matches_normalized(self, toy):
        # loss = C_P pi_P fnr + C_N pi_N fpr with C_P = 2(1 - c), C_N = 2c
        for c in (0.0, 0.2, 0.5, 0.9, 1.0):
            a = loss_cp(2 / 3, 1 / 6, toy.priors, c)
            b = 2 * (1 - c) * toy.pi_p * THIRD + 2 * c * toy.pi_n * (1 / 6)
            assert a == pytest.approx(b, abs=1e-12)


class TestCostLine:
    def test_endpoints(self, toy):
        line = cost_line(OperatingPoint(fpr=1 / 6, tpr=2 / 3), toy.priors)
        # at c=0 only misses cost; at c=1 only false alarms
        assert line.value_at(0.0) == pytest.approx(2 * THIRD * THIRD, abs=1e-12)
        assert line.value_at(1.0) == pytest.approx(2 * (2 / 3) * (1 / 6), abs=1e-12)

    def test_matches_loss_cp_bitwise(self, toy):
        cs = np.linspace(0.0, 1.0, 101)
        for p in operating_points(toy).points:
            line = cost_line(p, toy.priors)
            direct = loss_cp(p.tpr, p.fpr, toy.priors, cs)
            assert np.all(line.value_at(cs) == direct)

    def test_horizontal_condition(self, toy):
        # slope vanishes iff pi_N fpr == pi_P fnr
        line = cost_line(OperatingPoint(fpr=toy.pi_p / 2, tpr=1 - toy.pi_n / 2),
                         toy.priors)
        assert line.slope == pytest.approx(0.0, abs=1e-15)

    def test_baselines_cross_at_prevalence(self):
        from opcurves import Priors
        priors = Priors(pi_p=0.2, pi_n=0.8)
        all_pos, all_neg = baseline_cost_lines(priors)
        assert all_pos.value_at(0.2) == pytest.approx(0.32, abs=1e-12)
        assert all_neg.value_at(0.2) == pytest.approx(0.32, abs=1e-12)
        assert all_pos.value_at(0.0) == 0.0
        assert all_neg.value_at(1.0) == 0.0


class TestLowerEnvelope:
    def test_toy_tie_at_third(self, toy):
        hull = convex_hull(operating_points(toy))
        grid = ThresholdGrid(values=np.array([THIRD]))
        env = lower_envelope(hull, toy.priors, grid)
        assert env.ys[0] == pytest.approx(2 / 9, abs=1e-12)
        support = envelope_support(hull, toy.priors, THIRD)
        got = {(round(p.fpr, 6), round(p.tpr, 6)) for p in support}
        assert got == {(round(1 / 6, 6), round(2 / 3, 6)), (0.5, 1.0)}

    def test_below_every_hull_line(self, toy):
        hull = convex_hull(operating_points(toy))
        grid = ThresholdGrid.cost_default()
        env = lower_envelope(hull, toy.priors, grid)
        for p in hull.points:
            line = cost_line(p, toy.priors)
            assert np.all(env.ys <= line.value_at(grid.values))

    def test_zero_at_extremes(self, toy):
        # the all-negative line pins c=0, the all-positive line pins c=1
        hull = convex_hull(operating_points(toy))
        grid = ThresholdGrid(values=np.array([0.0, 1.0]))
        env = lower_envelope(hull, toy.priors, grid)
        assert env.ys[0] == 0.0
        assert env.ys[1] == 0.0

    def test_requires_hull(self, toy):
        with pytest.raises(ValueError, match="hull"):
            lower_envelope(operating_points(toy), toy.priors,
                           ThresholdGrid.cost_default())


class TestBrierCurve:
    def test_toy_point_value(self, toy):
        grid = ThresholdGrid(values=np.array([0.2]))
        bc = brier_curve(toy, grid)
        assert bc.series == "brier"
        assert bc.ys[0] == pytest.approx(2 / 15, abs=1e-12)

    def test_components_sum_bitwise(self, toy):
        grid = ThresholdGrid.cost_default()
        bc = brier_curve(toy, grid)
        pos, neg = per_class_components(toy, grid)
        assert pos.series == "positive_component"
        assert neg.series == "negative_component"
        assert np.all(pos.ys + neg.ys == bc.ys)
        assert np.all(pos.ys >= 0.0)
        assert np.all(neg.ys >= 0.0)

    def test_endpoints(self, toy):
        grid = ThresholdGrid(values=np.array([0.0, 1.0]))
        bc = brier_curve(toy, grid)
        # t=0 predicts all positive: no fn, fp weight 0; t=1 the reverse
        assert bc.ys[0] == 0.0
        # at t=1 every score below 1 is negative, so fn cost only
        assert bc.ys[1] == 0.0


class TestBrierScore:
    def test_toy_equals_mse(self, toy):
        assert brier_score(toy) == pytest.approx(TOY_BRIER_SCORE, abs=1e-12)
        mse = float(np.mean((toy.scores - toy.labels) ** 2))
        assert brier_score(toy) == pytest.approx(mse, abs=1e-12)

    def test_equals_mse_on_random_data(self):
        for seed in range(10):
            data = make_random(seed, n=157, pi_p=0.3)
            mse = float(np.mean((data.scores - data.labels) ** 2))
            assert brier_score(data) == pytest.approx(mse, abs=1e-9)

    def test_ties_do_not_break_identity(self):
        # repeated scores only pinch the curve at isolated points, so the
        # area still equals the mean squared error
        rng = np.random.default_rng(5)
        scores = np.round(rng.random(300), 1)
        labels = (rng.random(300) < scores).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        from opcurves import Dataset
        data = Dataset(scores, labels)
        mse = float(np.mean((data.scores - data.labels) ** 2))
        assert brier_score(data) == pytest.approx(mse, abs=1e-9)


# brier_score integrates from the operating points; the oracle, the code it
# replaced, integrates from all n scores. The two must agree bit for bit.

def assert_brier_matches_oracle(data):
    got = np.float64(brier_score(data)).view(np.int64)
    assert got == np.float64(brier_score_oracle(data)).view(np.int64)


@given(datasets())
def test_brier_score_matches_oracle(data):
    assert_brier_matches_oracle(data)


def test_brier_score_takes_the_points_it_is_given(toy):
    points = operating_points(toy)
    assert brier_score(toy, points=points) == brier_score(toy)
    with pytest.raises(ValueError, match="operating_points"):
        brier_score(toy, points=convex_hull(points))
    with pytest.raises(ValueError, match="operating_points"):
        brier_score(toy, points=operating_points(make_random(0, n=50)))


@given(datasets(st.sampled_from([0.2, 0.4, 0.6])))
def test_brier_score_on_tied_scores_matches_oracle(data):
    assert_brier_matches_oracle(data)


@given(UNIT_FLOATS, UNIT_FLOATS)
def test_brier_score_of_two_samples_matches_oracle(pos, neg):
    assert_brier_matches_oracle(Dataset(np.array([pos, neg]), np.array([1, 0])))


@given(UNIT_FLOATS, st.integers(1, 30), st.integers(1, 30))
@example(0.0, 1, 1)
@example(1.0, 1, 1)
def test_brier_score_of_one_distinct_score_matches_oracle(score, n_p, n_n):
    assert_brier_matches_oracle(
        Dataset(np.full(n_p + n_n, score), np.array([1] * n_p + [0] * n_n)))


# 0 and 1 each drop a segment of zero width, at the bottom and at the top
@given(datasets(st.sampled_from([0.0, 0.5, 1.0])))
def test_brier_score_with_scores_at_zero_and_one_matches_oracle(data):
    assert_brier_matches_oracle(data)


@given(datasets(THOUSANDTHS))
def test_brier_score_after_class_swap_matches_oracle(data):
    assert_brier_matches_oracle(data)
    assert_brier_matches_oracle(Dataset(1.0 - data.scores, 1 - data.labels))


# positives only at or below 0.5, negatives only at or above it: every
# other score belongs to one class
@given(st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]), min_size=1, max_size=30),
       st.lists(st.sampled_from([0.5, 0.75, 0.875, 1.0]), min_size=1, max_size=30))
def test_brier_score_with_scores_of_one_class_matches_oracle(pos, neg):
    assert_brier_matches_oracle(
        Dataset(np.array(pos + neg), np.array([1] * len(pos) + [0] * len(neg))))


@settings(max_examples=5, phases=(Phase.explicit, Phase.generate))
@given(st.integers(0, 2**32 - 1), st.integers(0, 19_999), st.booleans())
def test_brier_score_of_one_positive_in_twenty_thousand_matches_oracle(seed, pos_index, tied):
    scores = np.random.default_rng(seed).random(20_000)
    if tied:
        scores = np.round(scores, 3)
    labels = np.zeros(20_000, dtype=int)
    labels[pos_index] = 1
    assert_brier_matches_oracle(Dataset(scores, labels))


class TestRefinement:
    def test_toy_value(self, toy):
        hull = convex_hull(operating_points(toy))
        assert refinement_loss(hull, toy.priors) == pytest.approx(
            TOY_REFINEMENT, abs=1e-12)

    def test_matches_numeric_integration(self):
        for seed in range(5):
            data = make_random(seed, n=90, pi_p=0.4)
            hull = convex_hull(operating_points(data))
            grid = ThresholdGrid.regular(0.0, 1.0, 1e-4)
            env = lower_envelope(hull, data.priors, grid)
            numeric = float(np.trapezoid(env.ys, grid.values))
            assert refinement_loss(hull, data.priors) == pytest.approx(
                numeric, abs=1e-6)


class TestDecomposition:
    def test_toy_parts(self, toy):
        dec = loss_decomposition(toy, ThresholdGrid.cost_default())
        assert dec.brier_score == pytest.approx(TOY_BRIER_SCORE, abs=1e-12)
        assert dec.refinement == pytest.approx(TOY_REFINEMENT, abs=1e-12)
        assert dec.calibration == pytest.approx(
            TOY_BRIER_SCORE - TOY_REFINEMENT, abs=1e-12)
        assert dec.calibration >= 0.0

    def test_gap_curve_is_nonnegative(self, toy):
        dec = loss_decomposition(toy, ThresholdGrid.cost_default())
        assert dec.gap_curve.series == "calibration_gap"
        assert np.all(dec.gap_curve.ys >= 0.0)

    def test_calibrated_model_collapses(self):
        data = make_calibrated()
        grid = ThresholdGrid.cost_default()
        dec = loss_decomposition(data, grid)
        assert dec.calibration == pytest.approx(0.0, abs=1e-12)
        bc = brier_curve(data, grid)
        hull = convex_hull(operating_points(data))
        env = lower_envelope(hull, data.priors, grid)
        np.testing.assert_allclose(bc.ys, env.ys, rtol=0, atol=1e-12)

    def test_carries_the_curves_it_compares(self, toy):
        grid = ThresholdGrid.cost_default()
        dec = loss_decomposition(toy, grid)
        env = lower_envelope(convex_hull(operating_points(toy)), toy.priors, grid)
        assert np.array_equal(dec.brier_curve.ys, brier_curve(toy, grid).ys)
        assert np.array_equal(dec.lower_envelope.ys, env.ys)

    def test_nonnegative_on_random_data(self):
        grid = ThresholdGrid.cost_default()
        for seed in range(10):
            data = make_random(seed, n=120, pi_p=0.25)
            dec = loss_decomposition(data, grid)
            assert dec.calibration >= 0.0
            assert dec.refinement >= 0.0
            assert dec.brier_score == pytest.approx(
                dec.refinement + dec.calibration, abs=1e-12)


# Property tests of the Brier score, its split and the envelopes, on the
# edge cases of the ROC property tests; 1e-12 is the package's tolerance.

def assert_brier_properties(data):
    s, y = data.scores, data.labels
    bs = brier_score(data)
    assert bs == pytest.approx(float(np.mean((s - y) ** 2)), abs=1e-12)
    dec = loss_decomposition(data, ThresholdGrid.cost_default())
    assert dec.brier_score == bs
    assert dec.refinement + dec.calibration == pytest.approx(bs, abs=1e-12)
    assert dec.calibration >= 0.0
    assert np.all(dec.lower_envelope.ys <= dec.brier_curve.ys + 1e-12)
    hull = convex_hull(operating_points(data))
    grid = ThresholdGrid.decision_default()
    for scheme in ("dca", "brier_scaled"):
        upper = upper_envelope_decision_curve(hull, data.priors, grid, scheme)
        assert np.all(upper.ys >= decision_curve(data, grid, scheme).ys - 1e-12)
    # the three-vertex envelopes are the hull x grid ones bit for bit, also
    # on both sides of every switch point
    grids = (ThresholdGrid.cost_default(), switch_grid(hull))
    assert envelope_gaps(hull, data.priors, grids) == [0.0] * 6


def assert_class_swap_invariance(data):
    # s -> 1 - s, y -> 1 - y leaves every squared error, and so the Brier
    # score and the refinement loss, unchanged; the strategies that call
    # this keep 1 - s exact enough that no two scores merge
    swapped = Dataset(1.0 - data.scores, 1 - data.labels)
    assert brier_score(swapped) == pytest.approx(brier_score(data), abs=1e-12)
    grid = ThresholdGrid.cost_default()
    assert loss_decomposition(swapped, grid).refinement == pytest.approx(
        loss_decomposition(data, grid).refinement, abs=1e-12)
    # the swap maps a point's cost line at c to its swapped line at 1 - c,
    # so it mirrors the lower envelope; the brier_scaled net benefit is
    # 2(1 - t) pi_P minus the loss, so the upper envelope mirrors with it
    hull = convex_hull(operating_points(data))
    swapped_hull = convex_hull(operating_points(swapped))
    mirror = ThresholdGrid(values=np.sort(1.0 - grid.values))
    env = lower_envelope(hull, data.priors, grid).ys
    swapped_env = lower_envelope(swapped_hull, swapped.priors, mirror).ys[::-1]
    assert np.max(np.abs(swapped_env - env)) <= 1e-12
    upper = upper_envelope_decision_curve(swapped_hull, swapped.priors, mirror,
                                          "brier_scaled").ys[::-1]
    t = mirror.values[::-1]  # 1 - t is grid.values, up to rounding
    assert np.max(np.abs(upper - (2.0 * (1.0 - t) * data.pi_n - env))) <= 1e-12
    # the same holds for the model's own curves, NB_swapped(t) = 2(1 - t) pi_N
    # - BC(1 - t), away from the thresholds where a score or 1 - s ties
    # (criterion 12's mirrored grid; odd multiples of 0.0025 miss the 0.001
    # lattice of the tied examples)
    ts = _away_from_scores(data, ThresholdGrid.regular(0.0, 1.0, 0.0025).values)
    mirror = ThresholdGrid(values=np.sort(1.0 - ts))
    nb = decision_curve(swapped, mirror, "brier_scaled").ys[::-1]
    t = mirror.values[::-1]
    bc = brier_curve(data, ThresholdGrid(values=ts)).ys
    assert np.max(np.abs(nb - (2.0 * (1.0 - t) * data.pi_n - bc))) <= 1e-12


def _away_from_scores(data, values):
    """The values more than 1e-9 from every score s and every 1 - s."""
    ends = np.sort(np.concatenate([data.scores, 1.0 - data.scores]))
    at = np.clip(np.searchsorted(ends, values), 1, ends.size - 1)
    gap = np.minimum(np.abs(values - ends[at - 1]), np.abs(values - ends[at]))
    return values[gap > 1e-9]


@given(datasets())
def test_brier_properties(data):
    assert_brier_properties(data)


@given(datasets(st.sampled_from([0.2, 0.4, 0.6])))
def test_brier_properties_tied_scores(data):
    assert_brier_properties(data)
    assert_class_swap_invariance(data)


@given(UNIT_FLOATS, UNIT_FLOATS)
def test_brier_properties_two_samples(pos, neg):
    assert_brier_properties(Dataset(np.array([pos, neg]), np.array([1, 0])))


@given(UNIT_FLOATS, st.integers(1, 30), st.integers(1, 30))
def test_brier_properties_one_distinct_score(score, n_p, n_n):
    data = Dataset(np.full(n_p + n_n, score), np.array([1] * n_p + [0] * n_n))
    assert_brier_properties(data)
    # one score leaves nothing to recalibrate but the level
    assert loss_decomposition(data, ThresholdGrid.cost_default()).refinement == pytest.approx(
        data.pi_p * data.pi_n, abs=1e-12)


@given(datasets(st.sampled_from([0.0, 1.0])))
def test_brier_properties_scores_at_zero_and_one(data):
    assert_brier_properties(data)
    assert_class_swap_invariance(data)


@given(datasets(THOUSANDTHS))
def test_brier_class_swap(data):
    assert_brier_properties(data)
    assert_class_swap_invariance(data)


# the two explicit examples add one positive in 10^6, distinct and tied
@settings(max_examples=5, phases=(Phase.explicit, Phase.generate))
@example(seed=7, pos_index=999_999, tied=False, n=10**6)
@example(seed=8, pos_index=0, tied=True, n=10**6)
@given(st.integers(0, 2**32 - 1), st.integers(0, 19_999), st.booleans(), st.just(20_000))
def test_brier_properties_one_positive_in_twenty_thousand(seed, pos_index, tied, n):
    scores = np.random.default_rng(seed).random(n)
    if tied:
        scores = np.round(scores, 3)
    labels = np.zeros(n, dtype=int)
    labels[pos_index] = 1
    data = Dataset(scores, labels)  # no two of these scores merge under s -> 1 - s
    assert_brier_properties(data)
    assert_class_swap_invariance(data)

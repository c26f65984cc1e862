from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from opcurves import (Dataset, OperatingPoint, RocCurve, convex_hull, dominance,
                      operating_points, threshold_rates)
from opcurves import roc
from helpers import (THOUSANDTHS, UNIT_FLOATS, convex_hull_oracle, datasets, make_random,
                     operating_points_oracle)

TOY_POINTS = [(0.0, 0.0), (0.0, 1 / 3), (1 / 6, 2 / 3), (1 / 2, 2 / 3),
              (1 / 2, 1.0), (2 / 3, 1.0), (5 / 6, 1.0), (1.0, 1.0)]
TOY_HULL_INTERIOR = [(0.0, 1 / 3), (1 / 6, 2 / 3), (1 / 2, 1.0)]


def test_operating_points_toy(toy):
    curve = operating_points(toy)
    got = [(p.fpr, p.tpr) for p in curve.points]
    assert got == pytest.approx([xy for xy in TOY_POINTS], abs=1e-12)
    # one point per distinct score plus the all-negative anchor
    assert len(curve.points) == 8
    assert curve.points[0].threshold is None
    assert [p.threshold for p in curve.points[1:]] == [
        0.95, 0.90, 0.70, 0.20, 0.10, 0.05, 0.03]


def test_operating_points_carry_counts(toy):
    curve = operating_points(toy)
    assert (curve.tp[2], curve.fp[2]) == (2, 1)
    assert (curve.n_p, curve.n_n) == (3, 6)


def test_threshold_rates_half_open(toy):
    # scores >= t are positive, so t exactly at a score includes it
    tpr, fpr = threshold_rates(toy, np.array([0.70]))
    assert tpr[0] == pytest.approx(2 / 3, abs=0)
    assert fpr[0] == pytest.approx(3 / 6, abs=0)
    tpr, fpr = threshold_rates(toy, np.array([0.71]))
    assert tpr[0] == pytest.approx(2 / 3, abs=0)
    assert fpr[0] == pytest.approx(1 / 6, abs=0)


def test_hull_toy_interior_exact(toy):
    hull = convex_hull(operating_points(toy))
    interior = [(p.fpr, p.tpr) for p in hull.points[1:-1]]
    assert len(interior) == len(TOY_HULL_INTERIOR)
    for got, want in zip(interior, TOY_HULL_INTERIOR):
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)
    assert hull.is_hull


def test_hull_contains_all_points(toy):
    curve = operating_points(toy)
    hull = convex_hull(curve)
    xs = np.array([p.fpr for p in hull.points])
    ys = np.array([p.tpr for p in hull.points])
    for p in curve.points:
        assert p.tpr <= np.interp(p.fpr, xs, ys) + 1e-12


def test_hull_idempotent(toy):
    hull = convex_hull(operating_points(toy))
    again = convex_hull(hull)
    assert [(p.fpr, p.tpr) for p in again.points] == [
        (p.fpr, p.tpr) for p in hull.points]


def test_hull_random_matches_brute_force():
    # a hull vertex is a point no convex combination of others dominates;
    # check by maximizing tpr - m * fpr over a fan of slopes
    for seed in range(5):
        data = make_random(seed, n=60, pi_p=0.4)
        curve = operating_points(data)
        hull = convex_hull(curve)
        for m in np.linspace(0.0, 20.0, 200):
            best = max(p.tpr - m * p.fpr for p in curve.points)
            best_hull = max(p.tpr - m * p.fpr for p in hull.points)
            assert best_hull == pytest.approx(best, abs=1e-12)


def test_auc_toy(toy):
    curve = operating_points(toy)
    assert curve.auc() == pytest.approx(29 / 36, abs=1e-12)
    assert convex_hull(curve).auc() == pytest.approx(31 / 36, abs=1e-12)


def curve_of(counts, is_hull=False):
    """The curve through the (tp, fp) counts over 10 positives and 10
    negatives, with placeholder thresholds."""
    tp, fp = zip(*counts) if counts else ((), ())
    return RocCurve(np.full(len(tp), np.nan), tp, fp, 10, 10, is_hull)


def test_curve_validation():
    for too_short in ((), ((0, 0),)):
        with pytest.raises(ValueError, match="anchors"):
            curve_of(too_short)
    with pytest.raises(ValueError, match="start"):
        curve_of([(1, 1), (10, 10)])
    with pytest.raises(ValueError, match="end"):
        curve_of([(0, 0), (9, 10)])
    for backwards in ([(0, 0), (5, 5), (4, 5), (10, 10)], [(0, 0), (5, 5), (5, 5), (10, 10)],
                      [(0, 0), (5, 5), (4, 4), (10, 10)]):
        with pytest.raises(ValueError, match="strictly increase"):
            curve_of(backwards)
    assert curve_of([(0, 0), (5, 2), (5, 5), (10, 10)]).fprs.tolist() == [0.0, 0.2, 0.5, 1.0]


def test_hull_validation_refuses_points_not_in_strictly_convex_position():
    hull = [(0, 0), (6, 2), (10, 10)]
    assert curve_of(hull, is_hull=True).is_hull
    # a point on the chord of its neighbours (tp, fp) = (6, 2) and (10, 10),
    # and one below it
    for inner in ((8, 6), (7, 6)):
        with pytest.raises(ValueError, match="strictly convex"):
            curve_of([(0, 0), (6, 2), inner, (10, 10)], is_hull=True)
        assert not curve_of([(0, 0), (6, 2), inner, (10, 10)]).is_hull


def test_operating_point_validation():
    with pytest.raises(ValueError):
        OperatingPoint(fpr=-0.1, tpr=0.5)
    with pytest.raises(ValueError):
        OperatingPoint(fpr=0.1, tpr=1.5)


def test_dominance_strict():
    a = Dataset(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1]))
    b = Dataset(np.array([0.8, 0.9, 0.1, 0.2]), np.array([0, 0, 1, 1]))
    assert dominance(operating_points(a), operating_points(b)) == "first"
    assert dominance(operating_points(b), operating_points(a)) == "second"
    assert dominance(operating_points(a), operating_points(a)) == "equal"


def test_dominance_neither(toy):
    # better start (tpr 2/3 at fpr 0) but flat afterwards: curves cross
    other = Dataset(np.array([0.5, 0.5, 0.5, 0.95, 0.5, 0.5, 0.95, 0.5, 0.05]),
                    np.array(list(toy.labels)))
    d = dominance(operating_points(toy), operating_points(other))
    assert d == "neither"


def test_dominance_requires_same_priors(toy):
    other = make_random(3, n=10, pi_p=0.5)
    with pytest.raises(ValueError, match="prior"):
        dominance(operating_points(toy), operating_points(other))


def test_rate_arrays_read_only(toy):
    curve = operating_points(toy)
    with pytest.raises(ValueError):
        curve.fprs[0] = 0.5


# Differential and property tests: the array-backed points and hull must
# equal the object-at-a-time oracles in thresholds and integer counts.


def _oracle_arrays(records):
    return tuple(map(list, zip(*records)))


def _arrays(curve):
    return ([None if np.isnan(t) else float(t) for t in curve.thresholds],
            curve.tp.tolist(), curve.fp.tolist())


def assert_matches_oracle(data):
    curve = operating_points(data)
    points = operating_points_oracle(data)
    assert _arrays(curve) == _oracle_arrays(points)
    # the thresholds bit for bit, signed zeros included
    want = np.array([t for t, _, _ in points[1:]], dtype=np.float64)
    assert curve.thresholds[1:].view(np.int64).tolist() == want.view(np.int64).tolist()
    assert _arrays(convex_hull(curve)) == _oracle_arrays(convex_hull_oracle(points))


@given(datasets())
def test_points_and_hull_match_oracle(data):
    assert_matches_oracle(data)


@given(datasets(st.sampled_from([0.2, 0.4, 0.6])))
def test_tied_scores_match_oracle(data):
    assert_matches_oracle(data)


@given(UNIT_FLOATS, UNIT_FLOATS)
def test_two_samples_match_oracle(pos, neg):
    assert_matches_oracle(Dataset(np.array([pos, neg]), np.array([1, 0])))


@given(UNIT_FLOATS, st.integers(1, 30), st.integers(1, 30))
def test_one_distinct_score(score, n_p, n_n):
    data = Dataset(np.full(n_p + n_n, score), np.array([1] * n_p + [0] * n_n))
    assert_matches_oracle(data)
    hull = convex_hull(operating_points(data))
    assert (hull.fp.tolist(), hull.tp.tolist()) == ([0, n_n], [0, n_p])


@given(datasets(st.sampled_from([0.0, 1.0])))
def test_scores_at_zero_and_one_match_oracle(data):
    assert_matches_oracle(data)


# no shrinking: each example runs the oracle over 2·10^4 points
@settings(max_examples=5, phases=(Phase.explicit, Phase.generate))
@given(st.integers(0, 2**32 - 1), st.integers(0, 19_999), st.booleans())
def test_one_positive_in_twenty_thousand(seed, pos_index, tied):
    scores = np.random.default_rng(seed).random(20_000)
    if tied:
        scores = np.round(scores, 3)
    labels = np.zeros(20_000, dtype=int)
    labels[pos_index] = 1
    assert_matches_oracle(Dataset(scores, labels))


@given(datasets(THOUSANDTHS))
def test_class_swap_reflects_points_and_hull(data):
    # swapping classes and scores s -> 1 - s maps the count (fp, tp) to
    # (n_p - tp, n_n - fp), a reflection that keeps the hull a hull
    swapped = Dataset(1.0 - data.scores, 1 - data.labels)
    for build in (operating_points, lambda d: convex_hull(operating_points(d))):
        a, b = build(data), build(swapped)
        assert b.fp.tolist() == (data.n_p - a.tp[::-1]).tolist()
        assert b.tp.tolist() == (data.n_n - a.fp[::-1]).tolist()


@given(st.lists(st.tuples(THOUSANDTHS, THOUSANDTHS, st.booleans()), min_size=2, max_size=40)
       .filter(lambda rows: 0 < sum(r[2] for r in rows) < len(rows)))
def test_hull_of_two_models_matches_oracle(rows):
    # the pooled points of two scorers do not form a staircase: tpr can
    # fall from one point to the next
    labels = np.array([int(r[2]) for r in rows])
    a = Dataset(np.array([r[0] for r in rows]), labels)
    b = Dataset(np.array([r[1] for r in rows]), labels)
    pooled = {(fp, tp): (t, tp, fp)
              for t, tp, fp in operating_points_oracle(a) + operating_points_oracle(b)}
    records = [pooled[k] for k in sorted(pooled)]
    thresholds, tp, fp = zip(*records)
    want = convex_hull_oracle(records)
    got = convex_hull(RocCurve([np.nan if t is None else t for t in thresholds], tp, fp,
                               a.n_p, a.n_n))
    assert list(zip(got.fp.tolist(), got.tp.tolist())) == [(fp, tp) for _, tp, fp in want]


# The hull's vectorised pre-pass: whatever number of rounds runs before the
# monotone chain, the hull is the oracle's.

@pytest.mark.parametrize("rounds", [0, 1, 2])
@given(data=datasets())
def test_hull_after_any_number_of_prepass_rounds_matches_oracle(rounds, data):
    with mock.patch.object(roc, "_HULL_ROUNDS", rounds):
        assert_matches_oracle(data)


@settings(max_examples=5, phases=(Phase.explicit, Phase.generate))
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_hull_of_twenty_thousand_gaussian_scores_matches_oracle(seed, tied):
    rng = np.random.default_rng(seed)
    labels = (rng.random(20_000) < 0.2).astype(int)
    scores = np.clip(rng.normal(0.4 + 0.2 * labels, 0.12), 0.0, 1.0)
    assert_matches_oracle(Dataset(np.round(scores, 3) if tied else scores, labels))


def test_point_count_builds_no_points(monkeypatch):
    curve = operating_points(make_random(0, n=500))

    def refuse(self, i):
        raise AssertionError("built a point")

    monkeypatch.setattr(RocCurve, "_point", refuse)
    assert len(curve.points) == 501


def test_points_view_indexes_like_a_tuple(toy):
    curve = operating_points(toy)
    as_tuple = tuple(OperatingPoint(fpr=fp / toy.n_n, tpr=tp / toy.n_p, threshold=t)
                     for t, tp, fp in operating_points_oracle(toy))
    assert tuple(curve.points) == as_tuple
    assert curve.points[-1] == as_tuple[-1]
    assert curve.points[2:5] == as_tuple[2:5]
    with pytest.raises(IndexError):
        curve.points[len(as_tuple)]


def test_points_need_counts_on_all_or_none():
    # every point has a threshold, a tp and an fp count
    for thresholds, tp, fp in (([np.nan], [0, 10], [0, 10]), ([np.nan, 0.5], [0], [0, 10]),
                               ([np.nan, 0.5], [0, 10], [0, 5, 10])):
        with pytest.raises(ValueError, match="one threshold, tp and fp a point"):
            RocCurve(thresholds, tp, fp, 10, 10)


def test_count_arrays_read_only(toy):
    curve = operating_points(toy)
    for arr in (curve.tp, curve.fp, curve.thresholds):
        with pytest.raises(ValueError):
            arr[0] = 1

import copy
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from opcurves import (Dataset, RocCurve, ThresholdGrid, convex_hull, decision_curve, dominance,
                      operating_points, threshold_rates)
from opcurves import roc
from opcurves.cost import brier_score, loss_decomposition
from helpers import (THOUSANDTHS, UNIT_FLOATS, OperatingPoint, check_rates_oracle,
                     convex_hull_oracle, datasets, make_random, operating_points_oracle,
                     point_view)

TOY_POINTS = [(0.0, 0.0), (0.0, 1 / 3), (1 / 6, 2 / 3), (1 / 2, 2 / 3),
              (1 / 2, 1.0), (2 / 3, 1.0), (5 / 6, 1.0), (1.0, 1.0)]
TOY_HULL_INTERIOR = [(0.0, 1 / 3), (1 / 6, 2 / 3), (1 / 2, 1.0)]


def test_operating_points_toy(toy):
    points = point_view(operating_points(toy))
    got = [(p.fpr, p.tpr) for p in points]
    assert got == pytest.approx([xy for xy in TOY_POINTS], abs=1e-12)
    # one point per distinct score plus the all-negative anchor
    assert len(points) == 8
    assert points[0].threshold is None
    assert [p.threshold for p in points[1:]] == [
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
    interior = [(p.fpr, p.tpr) for p in point_view(hull)[1:-1]]
    assert len(interior) == len(TOY_HULL_INTERIOR)
    for got, want in zip(interior, TOY_HULL_INTERIOR):
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)
    assert hull.is_hull


def test_hull_contains_all_points(toy):
    curve = operating_points(toy)
    hull = convex_hull(curve)
    xs = np.array([p.fpr for p in point_view(hull)])
    ys = np.array([p.tpr for p in point_view(hull)])
    for p in point_view(curve):
        assert p.tpr <= np.interp(p.fpr, xs, ys) + 1e-12


def test_hull_idempotent(toy):
    hull = convex_hull(operating_points(toy))
    again = convex_hull(hull)
    assert [(p.fpr, p.tpr) for p in point_view(again)] == [
        (p.fpr, p.tpr) for p in point_view(hull)]


def test_hull_random_matches_brute_force():
    # a hull vertex is a point no convex combination of others dominates;
    # check by maximizing tpr - m * fpr over a fan of slopes
    for seed in range(5):
        data = make_random(seed, n=60, pi_p=0.4)
        curve = operating_points(data)
        hull = convex_hull(curve)
        for m in np.linspace(0.0, 20.0, 200):
            best = max(p.tpr - m * p.fpr for p in point_view(curve))
            best_hull = max(p.tpr - m * p.fpr for p in point_view(hull))
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


def test_a_curve_needs_both_classes():
    for n_p, n_n in ((0, 10), (10, 0), (-10, 10)):
        with pytest.raises(ValueError, match="each class"):
            RocCurve([np.nan, 0.5], [0, n_p], [0, n_n], n_p, n_n)


@st.composite
def curve_arrays(draw):
    """Class totals of at least 1 and count arrays around [0, total]: some
    staircases from (0, 0) to the totals, some of them convex, and some
    arrays of any counts."""
    n_p, n_n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        steps = draw(st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), max_size=6))
        fp, tp = (np.cumsum([0, *col]).tolist() for col in zip(*steps)) if steps else ([0], [0])
        dx, dy = draw(st.sampled_from([(0, 0)] * 4 + [(1, 0), (0, -1)]))  # the end, or near it
        fp, tp = fp + [n_n + dx], tp + [n_p + dy]
    else:
        pairs = draw(st.lists(st.tuples(st.integers(-1, n_n + 1), st.integers(-1, n_p + 1)),
                              max_size=7))
        fp, tp = ([a for a, _ in pairs], [b for _, b in pairs])
    size = len(fp) + draw(st.sampled_from([0] * 8 + [-1, 1]))
    thresholds = np.linspace(1.0, 0.0, max(size, 0))
    return thresholds, tp, fp, n_p, n_n, draw(st.booleans())


def _refusal(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@given(curve_arrays())
def test_the_count_checks_refuse_what_the_rate_checks_refuse(args):
    assert _refusal(RocCurve, *args) == _refusal(check_rates_oracle, *args)


def test_counts_that_step_back_by_more_than_an_int64_holds_are_refused():
    # fp goes 0, 1.5 * 2**62, -1.5 * 2**62, 5: the step back is below
    # -2**63, where a difference would wrap to a positive step
    big = 3 << 61
    with pytest.raises(ValueError, match="strictly increase"):
        RocCurve([np.nan, 0.9, 0.5, 0.1], [0, 0, 0, 1], [0, big, -big, 5], 1, 5)


def test_rates_are_derived_from_the_counts_on_each_read(toy, monkeypatch):
    curve = operating_points(toy)
    fprs, tprs = curve.fprs, curve.tprs
    assert fprs.view(np.int64).tolist() == (curve.fp / curve.n_n).view(np.int64).tolist()
    assert tprs.view(np.int64).tolist() == (curve.tp / curve.n_p).view(np.int64).tolist()
    assert not fprs.flags.writeable and not tprs.flags.writeable

    # the Brier score and the hull read only the counts
    def refuse(self):
        raise AssertionError("read a rate")

    monkeypatch.setattr(RocCurve, "fprs", property(refuse))
    monkeypatch.setattr(RocCurve, "tprs", property(refuse))
    brier_score(toy)
    convex_hull(curve)


def test_points_are_the_rate_rows(toy):
    for curve in (operating_points(toy), convex_hull(operating_points(toy))):
        points = curve.points
        want = np.column_stack((curve.fprs, curve.tprs))
        assert points.shape == want.shape and points.dtype == want.dtype
        assert points.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert not points.flags.writeable
        assert len(points) == curve.tp.size


def test_a_curve_is_read_only(toy):
    curve = operating_points(toy)
    for name in ("tp", "fp", "thresholds", "n_p", "is_hull", "fprs"):
        with pytest.raises(AttributeError):
            setattr(curve, name, None)
        with pytest.raises(AttributeError):
            delattr(curve, name)
    assert curve.tp.tolist() == operating_points(toy).tp.tolist()


@pytest.mark.parametrize("copy_of", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy,
                                     copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_a_curve_survives_pickle_and_copy(toy, copy_of):
    for curve in (operating_points(toy), convex_hull(operating_points(toy))):
        curve.fprs  # a derived rate is rebuilt, not carried
        got = copy_of(curve)
        assert type(got) is RocCurve and got.is_hull == curve.is_hull
        for name in ("thresholds", "tp", "fp", "fprs", "tprs"):
            assert np.array_equal(getattr(got, name), getattr(curve, name), equal_nan=True)
            assert not getattr(got, name).flags.writeable
        assert (got.n_p, got.n_n) == (curve.n_p, curve.n_n)
        with pytest.raises(AttributeError):
            got.tp = None


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


def test_points_view_indexes_like_a_tuple(toy):
    as_tuple = tuple(OperatingPoint(fpr=fp / toy.n_n, tpr=tp / toy.n_p, threshold=t)
                     for t, tp, fp in operating_points_oracle(toy))
    assert point_view(operating_points(toy)) == as_tuple


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


def test_curve_built_from_views_keeps_its_points():
    # making a view read-only leaves the array it views writable, so a curve
    # copies what it is handed: a later write to that array moves no count,
    # rate or threshold of the curve
    counts = np.array([0, 5, 10, 99], dtype=np.int64)
    cuts = np.array([np.nan, 0.5, 0.0, 9.0], dtype=np.float64)
    curve = RocCurve(cuts[:3], counts[:3], np.array([0, 5, 10], dtype=np.int64), 10, 10)
    counts[1], cuts[1] = 7, 0.25
    assert curve.tp.tolist() == [0, 5, 10]
    assert curve.tprs.tolist() == [0.0, 0.5, 1.0]
    assert curve.thresholds[1] == 0.5


def test_curve_leaves_the_callers_arrays_alone():
    # a curve holds copies: the array it was handed stays writable, and a
    # write through a view of it taken before the call moves no point
    base = np.array([0, 5, 10])
    view = base[:]
    curve = RocCurve(np.array([np.nan, 0.7, 0.2]), base, np.array([0, 4, 10]), 10, 10)
    assert base.flags.writeable
    view[1] = 7
    assert base.tolist() == [0, 7, 10]
    assert curve.tp.tolist() == [0, 5, 10]
    assert curve.tprs.tolist() == [0.0, 0.5, 1.0]


def test_points_and_hull_hold_the_arrays_they_build(monkeypatch):
    # the dataset holds its operating points and convex_hull builds its
    # arrays for the hull: neither goes through the copying constructor
    def copy(self, *args, **kwargs):
        raise AssertionError("copied")

    monkeypatch.setattr(RocCurve, "__init__", copy)
    data = make_random(3, n=500)
    curve = operating_points(data)
    assert operating_points(data) is curve
    assert not curve.tp.flags.writeable and not curve.thresholds.flags.writeable
    assert convex_hull(curve).is_hull


def test_a_datasets_points_are_checked_once(monkeypatch):
    # every reader of the points takes the curve the dataset holds; only a
    # hull is checked again, as the new curve it is
    checked = []
    validate = RocCurve._validate

    def counted(self):
        checked.append(self.is_hull)
        validate(self)

    monkeypatch.setattr(RocCurve, "_validate", counted)
    data = make_random(4, n=500)
    grid = ThresholdGrid.cost_default()
    threshold_rates(data, grid.values)
    operating_points(data)
    operating_points(data)
    brier_score(data)
    decision_curve(data, ThresholdGrid.decision_default())
    loss_decomposition(data, grid)
    assert checked == [False, True]

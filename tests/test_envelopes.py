"""The envelopes read their active hull vertex from the switch points.

They are checked bit for bit against the hull x grid matrices they
replaced (on the property-test datasets in test_cost.py, here on large
and adversarial hulls), against the recalibrated data whose curves they
are, and for memory that does not grow with the hull.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from opcurves import (Dataset, Priors, ThresholdGrid, brier_curve, brier_score,
                      convex_hull, decision_curve, lower_envelope, operating_points,
                      refinement_loss, upper_envelope_decision_curve)
from helpers import (THOUSANDTHS, datasets, envelope_gaps, farey_hull, hull_of_edges,
                     make_random, recalibrate_oracle, switch_grid)

SCHEMES = ("dca", "brier_scaled")


def test_envelopes_bitwise_on_random_data_and_fine_grid():
    fine = ThresholdGrid.regular(0.0, 1.0, 1e-4)
    for seed, n in enumerate((2, 50, 500, 5000)):
        untied = make_random(seed, n=n, pi_p=0.3)
        for data in (untied, Dataset(np.round(untied.scores, 2), untied.labels)):
            hull = convex_hull(operating_points(data))
            grids = (fine, switch_grid(hull))
            assert envelope_gaps(hull, data.priors, grids) == [0.0] * 6


def _farey_gaps(order: int, terms: int) -> list[float]:
    hull = farey_hull(order, terms)
    priors = Priors.from_counts(hull.n_p, hull.n_n)
    return envelope_gaps(hull, priors, (ThresholdGrid.cost_default(), switch_grid(hull)))


@pytest.mark.parametrize("order", [10**3, 10**5, 10**6])
def test_envelopes_bitwise_on_farey_hulls(order):
    # class totals up to about 10^7, with switch points a few ulps apart
    assert _farey_gaps(order, 8) == [0.0] * 6


def test_envelopes_within_tolerance_on_farey_hull_of_10_to_the_9():
    assert max(_farey_gaps(10**8, 8)) <= 1e-12


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _arc_hull(vertices: int):
    # edges (k, vertices - k): slopes strictly decreasing, so every point is a vertex
    k = np.arange(1, vertices)
    return hull_of_edges(k, vertices - k)


@pytest.mark.parametrize("which", ["lower", "upper"])
def test_envelope_memory_does_not_grow_with_the_hull(which):
    grid = ThresholdGrid.regular(0.0, 0.999999, 1e-6)
    assert len(grid) == 10**6
    peaks = []
    for vertices in (10, 1000):
        hull = _arc_hull(vertices)
        priors = Priors.from_counts(hull.n_p, hull.n_n)
        if which == "lower":
            peaks.append(_peak_bytes(lambda: lower_envelope(hull, priors, grid)))
        else:
            peaks.append(_peak_bytes(lambda: upper_envelope_decision_curve(hull, priors, grid)))
    assert max(peaks) < 200 * 2**20
    assert peaks[1] < 1.1 * peaks[0]


# The upper envelope is the gain through recalibration alone: the PAV-
# recalibrated scores trace both envelopes, and their Brier score is the
# refinement loss.

def assert_recalibration_identities(data: Dataset) -> None:
    recal = recalibrate_oracle(data)
    hull = convex_hull(operating_points(data))
    cost_grid = ThresholdGrid.cost_default()
    env = lower_envelope(hull, data.priors, cost_grid).ys
    assert np.max(np.abs(brier_curve(recal, cost_grid).ys - env)) <= 1e-12
    grid = ThresholdGrid.decision_default()
    for scheme in SCHEMES:
        upper = upper_envelope_decision_curve(hull, data.priors, grid, scheme).ys
        assert np.max(np.abs(decision_curve(recal, grid, scheme).ys - upper)) <= 1e-12
    assert brier_score(recal) == pytest.approx(refinement_loss(hull, data.priors), abs=1e-12)


@given(datasets())
def test_recalibration_identities(data):
    assert_recalibration_identities(data)


@given(datasets(THOUSANDTHS))
def test_recalibration_identities_tied_scores(data):
    assert_recalibration_identities(data)


def test_recalibration_identities_on_random_data():
    for seed in range(5):
        assert_recalibration_identities(make_random(seed, n=2000, pi_p=0.2))

"""End-to-end acceptance checks.

Each test prints one line, "PASS criterion N: ..." or "FAIL criterion
N: ...", so the whole gate can be read off a `pytest -s` run at a
glance. Criteria with a runtime budget report the measured time.
"""

import functools
import time

import numpy as np

from opcurves import (Dataset, Priors, SimulationSpec, ThresholdGrid, baseline_cost_lines,
                      baseline_decision_curves, brier_curve, brier_score, compare_models,
                      convex_hull, decision_curve,
                      loss_cp, loss_decomposition, lower_envelope, net_benefit,
                      nb_from_brier_loss, operating_points, simulate_gaussian,
                      upper_envelope_decision_curve)
from helpers import envelope_oracle, envelope_support, make_calibrated, make_random, make_toy

THIRD = 1 / 3
PI_CYCLE = (0.1, 0.33, 0.5)


def criterion(num: int, text: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException:
                print(f"FAIL criterion {num:2d}: {text}")
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"PASS criterion {num:2d}: {text}{suffix}")
        return wrapper
    return deco


def _best_of(fn, repeats: int = 20) -> float:
    fn()  # warmup
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@criterion(1, "toy hull interior is {(0,1/3), (1/6,2/3), (1/2,1)} exactly")
def test_criterion_01_toy_hull():
    curve = operating_points(make_toy())
    hull = convex_hull(curve)
    interior = [(p.fpr, p.tpr) for p in hull.points[1:-1]]
    want = [(0.0, 1 / 3), (1 / 6, 2 / 3), (1 / 2, 1.0)]
    assert len(interior) == len(want)
    for got, expect in zip(interior, want):
        assert abs(got[0] - expect[0]) <= 1e-12
        assert abs(got[1] - expect[1]) <= 1e-12
    elapsed = _best_of(lambda: convex_hull(curve))
    assert elapsed < 1e-3
    return f"{elapsed * 1e6:.0f} us"


@criterion(2, "toy lower envelope at c=1/3 is 2/9, tied between two hull points")
def test_criterion_02_envelope_tie():
    data = make_toy()
    hull = convex_hull(operating_points(data))
    env = lower_envelope(hull, data.priors, ThresholdGrid(values=np.array([THIRD])))
    assert abs(env.ys[0] - 2 / 9) <= 1e-12
    support = {(round(p.fpr, 9), round(p.tpr, 9))
               for p in envelope_support(hull, data.priors, THIRD)}
    assert support == {(round(1 / 6, 9), round(2 / 3, 9)), (0.5, 1.0)}


@criterion(3, "net benefit equals pi_p - BC/(2(1-t)) on 100 random datasets")
def test_criterion_03_point_identity():
    grid = ThresholdGrid.decision_default()
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        data = make_random(seed, n=200, pi_p=PI_CYCLE[seed % 3])
        nb = decision_curve(data, grid).ys
        bc = brier_curve(data, grid).ys
        back = nb_from_brier_loss(bc, grid.values, data.pi_p)
        worst = max(worst, float(np.max(np.abs(nb - back))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    return f"max gap {worst:.2e}, {elapsed:.2f} s"


@criterion(4, "NB and BC deltas pick the same model at every threshold, 100 pairs")
def test_criterion_04_argmax_agreement():
    grid = ThresholdGrid.decision_default()
    violations = 0
    for seed in range(100):
        pi = PI_CYCLE[seed % 3]
        a = make_random(seed, n=200, pi_p=pi)
        b = make_random(10_000 + seed, n=200, pi_p=pi)
        report = compare_models(a, b, grid)
        violations += int(np.size(report.agree) - np.count_nonzero(report.agree))
    assert violations == 0
    return "0 violations"


@criterion(5, "area under the Brier curve equals the mean squared error")
def test_criterion_05_area_is_brier_score():
    toy = make_toy()
    assert abs(brier_score(toy) - 2.4559 / 9) <= 1e-9
    for seed in range(20):
        data = make_random(seed, n=331, pi_p=0.3, tie_free=True)
        mse = float(np.mean((data.scores - data.labels) ** 2))
        assert abs(brier_score(data) - mse) <= 1e-9
    # ties only pinch the curve at isolated points, so the same bound holds
    rng = np.random.default_rng(0)
    scores = np.round(rng.random(500), 1)
    labels = (rng.random(500) < scores).astype(int)
    labels[0] = 1 - labels[0] if labels.min() == labels.max() else labels[0]
    tied = Dataset(scores, labels)
    mse = float(np.mean((tied.scores - tied.labels) ** 2))
    assert abs(brier_score(tied) - mse) <= 1e-9
    big = simulate_gaussian(SimulationSpec(n=10_000, pi_p=0.2, mu_n=0.4,
                                           sigma_n=0.12, mu_p=0.6, sigma_p=0.12,
                                           seed=1))
    start = time.perf_counter()
    val = brier_score(big)
    elapsed = time.perf_counter() - start
    assert abs(val - float(np.mean((big.scores - big.labels) ** 2))) <= 1e-9
    assert elapsed < 1.0
    return f"n=10000 in {elapsed * 1e3:.1f} ms"


@criterion(6, "calibration loss is nonnegative and vanishes for calibrated scores")
def test_criterion_06_decomposition():
    grid = ThresholdGrid.cost_default()
    for seed in range(25):
        data = make_random(seed, n=160, pi_p=PI_CYCLE[seed % 3])
        dec = loss_decomposition(data, grid)
        assert dec.calibration >= 0.0
    cal = make_calibrated()
    dec = loss_decomposition(cal, grid)
    assert dec.calibration < 1e-9
    bc = brier_curve(cal, grid).ys
    env = lower_envelope(convex_hull(operating_points(cal)), cal.priors, grid).ys
    assert float(np.max(np.abs(bc - env))) < 1e-9


@criterion(7, "hull upper envelope matches the exhaustive oracle and the "
              "transformed lower envelope")
def test_criterion_07_envelope_duality():
    grid = ThresholdGrid.decision_default()
    datasets = [make_toy()] + [make_random(seed, n=150, pi_p=0.3)
                               for seed in range(4)]
    for data in datasets:
        curve = operating_points(data)
        hull = convex_hull(curve)
        fast = upper_envelope_decision_curve(hull, data.priors, grid).ys
        slow = envelope_oracle(curve, data.priors, grid, "upper_decision").ys
        assert float(np.max(np.abs(fast - slow))) < 1e-12
        lower = lower_envelope(hull, data.priors, grid).ys
        dual = nb_from_brier_loss(lower, grid.values, data.pi_p)
        assert float(np.max(np.abs(fast - dual))) < 1e-12


@criterion(8, "treat-all crosses zero at t=pi_p; cost baselines meet at "
              "(pi_p, 2 pi_p pi_n)")
def test_criterion_08_baselines():
    priors = Priors(pi_p=0.2, pi_n=0.8)
    grid = ThresholdGrid.decision_default()
    treat_all, treat_none = baseline_decision_curves(priors, grid)
    assert np.all(treat_none.ys == 0.0)
    signs = np.sign(treat_all.ys)
    flip = np.flatnonzero(np.diff(signs) != 0)
    assert flip.size >= 1
    step = float(grid.values[1] - grid.values[0])
    lo, hi = float(grid.values[flip[0]]), float(grid.values[flip[0] + 1])
    assert lo - step <= priors.pi_p <= hi + step
    assert abs(net_benefit(1.0, 1.0, priors, 0.2)) <= 1e-12
    all_pos, all_neg = baseline_cost_lines(priors)
    assert abs(all_pos.value_at(0.2) - 0.32) <= 1e-12
    assert abs(all_neg.value_at(0.2) - 0.32) <= 1e-12
    assert abs(all_pos.value_at(0.2) - all_neg.value_at(0.2)) <= 1e-12


@criterion(9, "equal-merit deltas: BC gap 0.18 at t=0.1 and 0.9, NB gap 0.1 "
              "and 0.9, rescaled NB gap 0.18 at both")
def test_criterion_09_cross_threshold_deltas():
    priors = Priors(pi_p=0.5, pi_n=0.5)
    # (tpr, fpr) for models A and B at thresholds 0.1 and 0.9
    a_01, a_09 = (0.8, 0.8), (0.2, 0.2)
    b_01, b_09 = (1.0, 0.8), (0.2, 0.0)

    def deltas(t, a, b):
        d_nb = net_benefit(b[0], b[1], priors, t) - net_benefit(a[0], a[1], priors, t)
        d_bc = loss_cp(a[0], a[1], priors, t) - loss_cp(b[0], b[1], priors, t)
        d_bs = (net_benefit(b[0], b[1], priors, t, "brier_scaled")
                - net_benefit(a[0], a[1], priors, t, "brier_scaled"))
        return d_nb, d_bc, d_bs

    d_nb, d_bc, d_bs = deltas(0.1, a_01, b_01)
    assert abs(d_bc - 0.18) <= 1e-12
    assert abs(d_nb - 0.1) <= 1e-12
    assert abs(d_bs - 0.18) <= 1e-12
    d_nb, d_bc, d_bs = deltas(0.9, a_09, b_09)
    assert abs(d_bc - 0.18) <= 1e-12
    assert abs(d_nb - 0.9) <= 1e-12
    assert abs(d_bs - 0.18) <= 1e-12


def _contiguous_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) != 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [idx.size - 1]])
    return [(int(idx[s]), int(idx[e])) for s, e in zip(starts, ends)]


@criterion(10, "simulated two-Gaussian model beats both baselines on a "
               "contiguous interior band, same band in both spaces")
def test_criterion_10_simulated_band():
    start = time.perf_counter()
    spec = SimulationSpec(n=10_000, pi_p=0.2, mu_n=0.4, sigma_n=0.12,
                          mu_p=0.6, sigma_p=0.12, seed=7)
    data = simulate_gaussian(spec)
    grid = ThresholdGrid.decision_default()
    model = decision_curve(data, grid).ys
    treat_all, treat_none = (c.ys for c in baseline_decision_curves(data.priors, grid))
    dec_mask = (model > treat_all) & (model > treat_none)
    bc = brier_curve(data, grid).ys
    all_pos, all_neg = baseline_cost_lines(data.priors)
    cost_mask = ((bc < all_pos.value_at(grid.values))
                 & (bc < all_neg.value_at(grid.values)))
    dec_runs = _contiguous_runs(dec_mask)
    cost_runs = _contiguous_runs(cost_mask)
    # both spaces carve the threshold axis into the same bands
    assert len(dec_runs) == len(cost_runs) >= 1
    for (a0, a1), (b0, b1) in zip(dec_runs, cost_runs):
        assert abs(a0 - b0) <= 1
        assert abs(a1 - b1) <= 1
    # the leading band is wide, contiguous and strictly interior
    lo, hi = dec_runs[0]
    assert hi - lo >= 10
    assert lo > 0
    assert hi < len(dec_mask) - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    band = (float(grid.values[lo]), float(grid.values[hi]))
    return f"band t in [{band[0]:.3f}, {band[1]:.3f}], {elapsed:.2f} s"


@criterion(11, "NB and BC stay inside their closed-form bounds, zero violations")
def test_criterion_11_bounds():
    dec_grid = ThresholdGrid.decision_default()
    cost_grid = ThresholdGrid.cost_default()
    tc = cost_grid.values
    for seed in range(50):
        data = make_random(seed, n=200, pi_p=PI_CYCLE[seed % 3])
        nb = decision_curve(data, dec_grid).ys
        assert np.all(nb <= data.pi_p)
        # the floor -u_N(t) pi_N, NB of treating every negative and no positive
        assert np.all(nb >= net_benefit(0.0, 1.0, data.priors, dec_grid.values, "dca"))
        bc = brier_curve(data, cost_grid).ys
        assert np.all(bc >= 0.0)
        assert np.all(bc <= 2.0 * (1.0 - tc) * data.pi_p + 2.0 * tc * data.pi_n)
    return "0 violations"


@criterion(12, "swapping classes and reversing scores mirrors the Brier curve")
def test_criterion_12_class_swap():
    base = ThresholdGrid.cost_default().values
    for seed in range(10):
        data = make_random(seed, n=150, pi_p=0.4, tie_free=True)
        swapped = Dataset(1.0 - data.scores, 1 - data.labels)
        keep = np.ones(len(base), dtype=bool)
        for s in data.scores:
            keep &= np.abs(base - s) > 1e-6
            keep &= np.abs(base - (1.0 - s)) > 1e-6
        ts = base[keep]
        bc = brier_curve(data, ThresholdGrid(values=ts)).ys
        mirrored = brier_curve(swapped, ThresholdGrid(values=np.sort(1.0 - ts))).ys
        assert float(np.max(np.abs(mirrored[::-1] - bc))) < 1e-9

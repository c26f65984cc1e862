"""Dataset builders and reference implementations shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from opcurves import (Curve, Dataset, OperatingPoint, Priors, RocCurve, ThresholdGrid,
                      loss_cp, lower_envelope, net_benefit, upper_envelope_decision_curve)
from opcurves.roc import _line

# Nine samples with a tie at 0.70 and a miscalibrated top score; small
# enough that every curve value has a hand-checkable closed form.
TOY_SCORES = (0.03, 0.05, 0.10, 0.20, 0.70, 0.70, 0.90, 0.90, 0.95)
TOY_LABELS = (0, 0, 0, 1, 0, 0, 1, 0, 1)


def make_toy() -> Dataset:
    return Dataset(np.array(TOY_SCORES), np.array(TOY_LABELS))


def make_calibrated() -> Dataset:
    """Scores that equal the empirical positive fraction of their group:
    0.2 (1 of 5), 0.5 (1 of 2), 0.8 (4 of 5)."""
    scores = [0.2] * 5 + [0.5] * 2 + [0.8] * 5
    labels = [1, 0, 0, 0, 0] + [1, 0] + [1, 1, 1, 1, 0]
    return Dataset(np.array(scores, dtype=float), np.array(labels))


def make_random(seed: int, n: int = 200, pi_p: float = 0.5,
                tie_free: bool = False) -> Dataset:
    """Uniform random scores with exactly round(n * pi_p) positives."""
    rng = np.random.default_rng(seed)
    n_p = int(round(n * pi_p))
    scores = rng.random(n)
    if tie_free:
        assert len(np.unique(scores)) == n
    labels = np.concatenate([np.ones(n_p, dtype=int), np.zeros(n - n_p, dtype=int)])
    return Dataset(scores, labels)


# Hypothesis strategies for the property tests.

THOUSANDTHS = st.integers(0, 1000).map(lambda k: k / 1000)  # ties, 0 and 1
UNIT_FLOATS = st.floats(0.0, 1.0)


@st.composite
def datasets(draw, values=st.one_of(THOUSANDTHS, UNIT_FLOATS), max_size=40):
    pos = draw(st.lists(values, min_size=1, max_size=max_size))
    neg = draw(st.lists(values, min_size=1, max_size=max_size))
    return Dataset(np.array(pos + neg), np.array([1] * len(pos) + [0] * len(neg)))


# Reference implementations. The library's array-backed versions are
# checked against these object-at-a-time originals.

def operating_points_oracle(data: Dataset) -> tuple[tuple, ...]:
    """One (threshold, tp, fp) record per distinct score, with Python int
    counts, after the (0, 0) anchor's (None, 0, 0)."""
    distinct = np.unique(data.scores)[::-1]
    tp = data.n_p - np.searchsorted(data.positive_scores, distinct, side="left")
    fp = data.n_n - np.searchsorted(data.negative_scores, distinct, side="left")
    return ((None, 0, 0),) + tuple((float(t), int(tpk), int(fpk))
                                   for t, tpk, fpk in zip(distinct, tp, fp))


def brier_score_oracle(data: Dataset) -> float:
    """The Brier curve's area from all n scores: np.unique over the scores
    and both bounds, then two searchsorted calls for each segment's counts."""
    b = np.unique(np.concatenate([[0.0], data.scores, [1.0]]))
    lo, hi = b[:-1], b[1:]
    # on the open segment (lo, hi) the rule s >= t classifies {s > lo}
    # positive, so the false-negative and false-positive counts are
    fn = np.searchsorted(data.positive_scores, lo, side="right")
    fp = data.n_n - np.searchsorted(data.negative_scores, lo, side="right")
    # trapezoid of (2/n)[(1-t) fn + t fp] over [lo, hi]
    mid_fn = ((1.0 - lo) + (1.0 - hi)) / 2.0
    mid_fp = (lo + hi) / 2.0
    seg = (hi - lo) * (mid_fn * fn + mid_fp * fp)
    return float(2.0 * seg.sum() / data.n)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_oracle(records) -> tuple[tuple, ...]:
    """Monotone chain over every (threshold, tp, fp) record, on its integer
    counts; of records with equal counts the first is kept."""
    keyed: dict[tuple, tuple] = {}
    for record in records:
        keyed.setdefault((record[2], record[1]), record)
    hull: list[tuple[tuple, tuple]] = []
    for key, record in sorted(keyed.items()):
        while len(hull) >= 2 and _cross(hull[-2][0], hull[-1][0], key) >= 0:
            hull.pop()
        hull.append((key, record))
    return tuple(record for _, record in hull)


_CHUNK = 8192


def envelope_oracle(points, priors: Priors, grid: ThresholdGrid, which: str,
                    scheme: str = "dca") -> Curve:
    """Brute-force envelope over EVERY operating point, not just the hull.

    which is "upper_decision" (max net benefit per grid t) or "lower_cost"
    (min normalized loss per grid c). This is an independent check of the
    hull-based envelopes; it never looks at convexity.
    """
    pts = list(points.points) if isinstance(points, RocCurve) else list(points)
    if not pts:
        raise ValueError("oracle needs at least one operating point")
    if which not in ("upper_decision", "lower_cost"):
        raise ValueError(f"unknown envelope kind {which!r}")
    tprs = np.array([p.tpr for p in pts])
    fprs = np.array([p.fpr for p in pts])
    xs = grid.values
    best = np.full(xs.size, np.inf if which == "lower_cost" else -np.inf)
    for start in range(0, tprs.size, _CHUNK):
        tp = tprs[start:start + _CHUNK, None]
        fp = fprs[start:start + _CHUNK, None]
        if which == "upper_decision":
            vals = net_benefit(tp, fp, priors, xs, scheme)
            best = np.maximum(best, np.max(vals, axis=0))
        else:
            vals = loss_cp(tp, fp, priors, xs)
            best = np.minimum(best, np.min(vals, axis=0))
    series = "upper_envelope" if which == "upper_decision" else "lower_envelope"
    return Curve(xs=xs, ys=best, series=series)


def envelope_support(hull: RocCurve, priors: Priors, c: float) -> tuple[OperatingPoint, ...]:
    """The hull points whose cost lines attain the lower envelope at c,
    within 1e-12: a scan of every vertex's line. At t = c under the dca
    weighting the same points attain the upper envelope of net benefit."""
    slopes, intercepts = _line(hull.tprs, hull.fprs, priors)
    vals = intercepts + float(c) * slopes
    return tuple(hull.points[i] for i in np.flatnonzero(vals <= vals.min() + 1e-12))


def lower_envelope_oracle(hull: RocCurve, priors: Priors, grid: ThresholdGrid) -> np.ndarray:
    """Every hull vertex's cost line at every grid point, then the minimum:
    the hull x grid matrix lower_envelope evaluated before it read the
    active vertex from the switch points."""
    slopes, intercepts = _line(hull.tprs, hull.fprs, priors)
    vals = intercepts[:, None] + grid.values[None, :] * slopes[:, None]
    return np.min(vals, axis=0)


def upper_envelope_oracle(hull: RocCurve, priors: Priors, grid: ThresholdGrid,
                          scheme: str) -> np.ndarray:
    """Every hull vertex's net benefit at every grid point, then the
    maximum: the hull x grid matrix upper_envelope_decision_curve
    evaluated before it read the active vertex from the switch points."""
    nb = net_benefit(hull.tprs[:, None], hull.fprs[:, None], priors,
                     grid.values, scheme)
    return np.max(nb, axis=0)


def envelope_gaps(hull: RocCurve, priors: Priors, grids) -> list[float]:
    """Both envelopes (the upper one for the dca and brier_scaled schemes,
    on the grid's points below 1) against their oracles on each grid: 0.0
    where they agree bit for bit, else their largest absolute difference."""
    gaps = []
    for grid in grids:
        pairs = [(lower_envelope(hull, priors, grid).ys,
                  lower_envelope_oracle(hull, priors, grid))]
        below_one = ThresholdGrid(values=grid.values[grid.values < 1.0])
        for scheme in ("dca", "brier_scaled"):
            pairs.append((upper_envelope_decision_curve(hull, priors, below_one, scheme).ys,
                          upper_envelope_oracle(hull, priors, below_one, scheme)))
        for got, want in pairs:
            same = np.array_equal(got.view(np.int64), want.view(np.int64))
            gaps.append(0.0 if same else max(float(np.max(np.abs(got - want))), 5e-324))
    return gaps


def hull_of_edges(dfp, dtp) -> RocCurve:
    """The hull from (0, 0) along the integer edge vectors (dfp, dtp),
    which must turn clockwise; its thresholds are placeholders."""
    fp = np.concatenate(([0], np.cumsum(dfp)))
    tp = np.concatenate(([0], np.cumsum(dtp)))
    thresholds = np.concatenate(([np.nan], np.linspace(1.0, 0.0, fp.size - 1)))
    return RocCurve(thresholds, tp, fp, int(tp[-1]), int(fp[-1]), is_hull=True)


def farey_hull(order: int, terms: int) -> RocCurve:
    """The hull whose edges (q, p) run over `terms` consecutive fractions
    p/q of the Farey sequence of the given order, from 1/2 up, steepest
    first. Consecutive edges are Farey neighbours (their cross product is
    1), the closest two edge slopes of that size can be, so the switch
    points crowd together as tightly as integer counts allow; the class
    total is about 1.5 * order * terms.

    The three-vertex envelopes match the hull x grid oracles bit for bit
    up to a class total of about 10^7 (in a scan of 4 to 64 terms, up to
    3 * 10^8; the first last-bit differences came at 4.5 * 10^8), and
    within 1e-12 at about 10^9.
    """
    a, b = 1, 2
    c = (order + 1) // 2
    d = 2 * c - 1
    fractions = [(a, b), (c, d)]
    while len(fractions) < terms:
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        fractions.append((c, d))
    fractions.reverse()
    return hull_of_edges([q for _, q in fractions], [p for p, _ in fractions])


def switch_grid(hull: RocCurve) -> ThresholdGrid:
    """Each switch point dtp / (dtp + dfp) of the hull's edges, rounded
    once from the integer counts, with its two float neighbours."""
    dtp, dfp = np.diff(hull.tp).tolist(), np.diff(hull.fp).tolist()
    switches = np.array([p / (p + q) for p, q in zip(dtp, dfp)])
    values = np.concatenate([switches, np.nextafter(switches, 0.0),
                             np.nextafter(switches, 1.0)])
    return ThresholdGrid(values=np.unique(values))


def recalibrate_oracle(data: Dataset) -> Dataset:
    """The data with each score replaced by dtp / (dtp + dfp) of the hull
    segment its operating point lies on: the pool-adjacent-violators
    (isotonic) recalibration of the scores (Fawcett & Niculescu-Mizil
    2007). Built from the object-at-a-time hull, apart from the switch
    points."""
    hull = convex_hull_oracle(operating_points_oracle(data))
    edges = zip(hull[:-1], hull[1:])
    levels = [(tp_b - tp_a) / (tp_b - tp_a + fp_b - fp_a)
              for (_, tp_a, fp_a), (_, tp_b, fp_b) in edges]
    # the segment into vertex j holds the scores in [threshold_j, threshold_{j-1})
    thresholds = np.array([t for t, _, _ in hull[1:]])
    segment = np.searchsorted(-thresholds, -data.scores, side="left")
    return Dataset(np.array(levels)[segment], data.labels)


def _clip_segment(x1: float, y1: float, x2: float, y2: float,
                  box: tuple[float, float, float, float]):
    """Liang-Barsky clip of one segment to the box; None when fully outside."""
    xmin, xmax, ymin, ymax = box
    dx, dy = x2 - x1, y2 - y1
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, x1 - xmin), (dx, xmax - x1),
                 (-dy, y1 - ymin), (dy, ymax - y1)):
        if p == 0.0:
            if q < 0.0:
                return None
        else:
            r = q / p
            if p < 0.0:
                t0 = max(t0, r)
            else:
                t1 = min(t1, r)
    if t0 > t1:
        return None
    return (x1 + t0 * dx, y1 + t0 * dy, x1 + t1 * dx, y1 + t1 * dy)


def path_data_oracle(xs, ys, box, px, py) -> str:
    """The SVG path data of the polyline, one segment at a time."""
    parts: list[str] = []
    prev_end = None
    for i in range(xs.size - 1):
        seg = _clip_segment(float(xs[i]), float(ys[i]),
                            float(xs[i + 1]), float(ys[i + 1]), box)
        if seg is None:
            prev_end = None
            continue
        ax, ay, bx, by = seg
        if prev_end == (ax, ay):
            parts.append(f"L {px(bx):.2f} {py(by):.2f}")
        else:
            parts.append(f"M {px(ax):.2f} {py(ay):.2f} L {px(bx):.2f} {py(by):.2f}")
        prev_end = (bx, by)
    return " ".join(parts)


def _centi(text: str) -> int:
    return int(text.replace(".", ""))


def assert_decimated(got: str, full: str) -> None:
    """got is the path data full with vertices left out at the 0.01 px grid.

    got keeps a subsequence of full's vertices with the same text, every
    "M" among them and each subpath's last point. Each vertex it leaves
    out lies on the printed segment that got draws over it, exactly on the
    integer grid of the printed coordinates (so within 0.01 px of the kept
    path). No vertex got keeps inside a subpath repeats the one before it
    or lies on the segment between its neighbours.
    """
    tokens, kept_tokens = full.split(), got.split()
    verts = [tuple(tokens[i:i + 3]) for i in range(0, len(tokens), 3)]
    kept = [tuple(kept_tokens[i:i + 3]) for i in range(0, len(kept_tokens), 3)]
    grid = [(_centi(x), _centi(y)) for _, x, y in kept]
    j = 0
    for k, v in enumerate(verts):
        if j < len(kept) and kept[j] == v:
            j += 1
            continue
        assert v[0] == "L" and j > 0, f"vertex {k} {v} opens a subpath and was left out"
        if v[1:] == kept[j - 1][1:]:
            continue  # it repeats the point drawn before it
        assert j < len(kept) and kept[j][0] == "L", f"vertex {k} {v} ends a subpath"
        assert _on_segment(grid[j - 1], (_centi(v[1]), _centi(v[2])), grid[j]), \
            f"vertex {k} {v} is off the kept segment {kept[j - 1]} {kept[j]}"
    assert j == len(kept), "got holds vertices that full does not"
    for j in range(1, len(kept) - 1):
        if kept[j][0] == "L" and kept[j + 1][0] == "L":
            assert not _on_segment(grid[j - 1], grid[j], grid[j + 1]), f"kept {j} adds nothing"


def _on_segment(a, b, c) -> bool:
    """b lies on the closed segment from a to c (integer points)."""
    ab, bc = (b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1])
    return ab[0] * bc[1] == ab[1] * bc[0] and ab[0] * bc[0] + ab[1] * bc[1] >= 0

"""Dataset builders and reference implementations shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from opcurves import (Curve, Dataset, OperatingPoint, Priors, RocCurve, ThresholdGrid,
                      UtilityScheme, loss_cp, net_benefit)

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

def operating_points_oracle(data: Dataset) -> tuple[OperatingPoint, ...]:
    """One OperatingPoint per distinct score, after the (0, 0) anchor."""
    distinct = np.unique(data.scores)[::-1]
    tp = data.n_p - np.searchsorted(data.positive_scores, distinct, side="left")
    fp = data.n_n - np.searchsorted(data.negative_scores, distinct, side="left")
    pts = [OperatingPoint.from_counts(None, 0, 0, data.n_p, data.n_n)]
    pts.extend(
        OperatingPoint.from_counts(float(t), int(tpk), int(fpk), data.n_p, data.n_n)
        for t, tpk, fpk in zip(distinct, tp, fp))
    return tuple(pts)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_oracle(points) -> tuple[OperatingPoint, ...]:
    """Monotone chain over every point, on its integer counts."""
    keyed: dict[tuple, OperatingPoint] = {}
    for p in sorted(points, key=lambda q: (q.fpr, q.tpr)):
        keyed.setdefault((p.counts.fp, p.counts.tp), p)
    items = sorted(keyed.items(), key=lambda kv: kv[0])
    hull: list[tuple[tuple, OperatingPoint]] = []
    for key, p in items:
        while len(hull) >= 2 and _cross(hull[-2][0], hull[-1][0], key) >= 0:
            hull.pop()
        hull.append((key, p))
    return tuple(p for _, p in hull)


_CHUNK = 8192


def envelope_oracle(points, priors: Priors, grid: ThresholdGrid, which: str,
                    scheme: UtilityScheme | None = None) -> Curve:
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
    return Curve(xs=xs, ys=best, series=series, priors=priors)


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

"""ROC-space machinery: operating points, convex hulls, dominance.

Classification rule throughout: a sample is called positive when its score
is greater than or equal to the threshold. Each distinct score therefore
induces one operating point, and a synthetic (0, 0) point stands for any
threshold above the top score.

Curves are held as arrays of thresholds and integer counts; OperatingPoint
objects are built only when a caller reads RocCurve.points.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dataset import Dataset, Priors

Dominance = Literal["first", "second", "equal", "neither"]

# the one tolerance for float comparisons across the package
_TOL = 1e-12


@dataclass(frozen=True)
class OperatingPoint:
    """One point in ROC space.

    threshold is None for the synthetic (0, 0) anchor, which corresponds to
    a threshold above every score and so has no single value in [0, 1],
    and for points that carry rates only (for example the duals of the
    fixed baseline lines, which have no backing dataset).
    """

    fpr: float
    tpr: float
    threshold: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.fpr <= 1.0 and 0.0 <= self.tpr <= 1.0):
            raise ValueError("rates must lie in [0, 1]")
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


def _frozen(values, dtype) -> np.ndarray:
    """values as a read-only array, taken without a copy when it is one
    already of that dtype."""
    arr = np.asarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False, init=False, repr=False)
class RocCurve:
    """Operating points ordered by increasing (fpr, tpr), anchored at
    (0, 0) and (1, 1). is_hull marks curves in strictly convex position.

    Every field is a read-only array over the points, or a scalar.
    thresholds is NaN where a point has none (the (0, 0) anchor). The
    points carry integer tp and fp counts over the class totals n_p and
    n_n, and their rates are fprs = fp / n_n and tprs = tp / n_p. `points`
    builds an OperatingPoint only for the entries a caller reads.
    """

    thresholds: np.ndarray
    fprs: np.ndarray
    tprs: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    n_p: int
    n_n: int
    is_hull: bool

    def __init__(self, thresholds, tp, fp, n_p: int, n_n: int, is_hull: bool = False) -> None:
        """The curve through the points of the given thresholds (NaN for
        none) and integer counts, the rates from the counts. thresholds, tp
        and fp are taken without a copy where they are float64 and int64
        arrays already, and made read-only."""
        tp, fp = _frozen(tp, np.int64), _frozen(fp, np.int64)
        fields = {"thresholds": _frozen(thresholds, np.float64),
                  "fprs": _frozen(fp / n_n, np.float64), "tprs": _frozen(tp / n_p, np.float64),
                  "tp": tp, "fp": fp, "n_p": n_p, "n_n": n_n, "is_hull": bool(is_hull)}
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        self._validate()

    def _take(self, idx: np.ndarray, is_hull: bool) -> RocCurve:
        """The curve through the points at the given indices."""
        return RocCurve(self.thresholds[idx], self.tp[idx], self.fp[idx],
                        self.n_p, self.n_n, is_hull)

    def _validate(self) -> None:
        x, y = self.fprs, self.tprs
        if not 2 <= x.size == y.size == self.thresholds.size:
            raise ValueError("a curve needs one threshold, tp and fp a point, and "
                             "at least the (0, 0) and (1, 1) anchors")
        if (x[0], y[0]) != (0.0, 0.0):
            raise ValueError("curve must start at (0, 0)")
        if (x[-1], y[-1]) != (1.0, 1.0):
            raise ValueError("curve must end at (1, 1)")
        dx, dy = np.diff(x), np.diff(y)
        if not np.all((dx > 0.0) | ((dx == 0.0) & (dy > 0.0))):
            raise ValueError("points must strictly increase in (fpr, tpr) order")
        if self.is_hull:
            kx, ky = self.fp, self.tp
            ox, oy, ax, ay, bx, by = kx[:-2], ky[:-2], kx[1:-1], ky[1:-1], kx[2:], ky[2:]
            if np.any((ax - ox) * (by - oy) - (ay - oy) * (bx - ox) >= 0):
                raise ValueError("hull points must be in strictly convex position")

    def _point(self, i: int) -> OperatingPoint:
        t = float(self.thresholds[i])
        return OperatingPoint(fpr=int(self.fp[i]) / self.n_n, tpr=int(self.tp[i]) / self.n_p,
                              threshold=None if math.isnan(t) else t)

    @property
    def points(self) -> Sequence[OperatingPoint]:
        """The points as OperatingPoint objects, built as they are read;
        len() is O(1) and builds none."""
        return _Points(self)

    def auc(self) -> float:
        return float(np.trapezoid(self.tprs, self.fprs))

    def __repr__(self) -> str:
        return f"RocCurve({self.thresholds.size} points, is_hull={self.is_hull})"


class _Points(Sequence):
    """Read-only sequence view of a curve's points."""

    __slots__ = ("_curve",)

    def __init__(self, curve: RocCurve) -> None:
        self._curve = curve

    def __len__(self) -> int:
        return self._curve.thresholds.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._curve._point, range(len(self))[index]))
        return self._curve._point(range(len(self))[index])

    def __iter__(self):
        return map(self._curve._point, range(len(self)))


def _require_hull(hull: RocCurve) -> None:
    if not hull.is_hull:
        raise ValueError("expected a convex hull; pass convex_hull(operating_points(data))")


def threshold_rates(data: Dataset, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tpr, fpr) arrays for the rule score >= threshold, vectorized."""
    ts = np.asarray(thresholds, dtype=np.float64)
    tp = data.n_p - np.searchsorted(data.positive_scores, ts, side="left")
    fp = data.n_n - np.searchsorted(data.negative_scores, ts, side="left")
    return tp / data.n_p, fp / data.n_n


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values in a sorted array begins."""
    new = np.empty(a.size, dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


def _anchored(anchor, values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """anchor, then values[idx]."""
    out = np.empty(idx.size + 1, dtype=values.dtype)
    out[0] = anchor
    # idx is in range; any mode but "raise" lets take write out unbuffered
    np.take(values, idx, out=out[1:], mode="clip")
    return out


def _count_table(data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The operating points' thresholds (NaN for the (0, 0) anchor, then
    the distinct scores descending) and their integer tp and fp counts.

    Each sorted class array is cut into runs of equal scores; one stable
    sort merges the two run lists (each sorted already, so timsort merges
    them in linear time), and the run lengths summed down the merged order
    count the samples at or above each entry. The last entry of each score
    carries its point's counts.
    """
    pos, neg = data.positive_scores, data.negative_scores
    starts_p, starts_n = _run_starts(pos), _run_starts(neg)
    values = np.concatenate((pos[starts_p], neg[starts_n]))
    lengths = np.concatenate((np.diff(starts_p, append=pos.size),
                              np.diff(starts_n, append=neg.size)))
    pos_runs = starts_p.size
    del starts_p, starts_n
    # scores descending; a score of both classes has two adjacent entries
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    last = np.append(_run_starts(values)[1:], values.size) - 1
    thresholds = _anchored(np.nan, values, last)
    del values
    lengths = lengths[order]
    below = np.cumsum(lengths)  # samples scored at or above each entry
    np.multiply(lengths, order < pos_runs, out=lengths)
    del order
    tp = np.cumsum(lengths, out=lengths)
    fp = np.subtract(below, tp, out=below)
    return thresholds, _anchored(0, tp, last), _anchored(0, fp, last)


def operating_points(data: Dataset) -> RocCurve:
    """All attainable operating points, one per distinct score.

    Points come out ordered by increasing (fpr, tpr), i.e. thresholds
    descending, starting from the synthetic (0, 0) anchor and ending at
    (1, 1) (the threshold at the minimum score classifies everything
    positive). Tied scores collapse into a single point.
    """
    return RocCurve(*_count_table(data), data.n_p, data.n_n)


def convex_hull(curve: RocCurve) -> RocCurve:
    """Upper convex hull of the curve's points, (0, 0) and (1, 1) included.

    Runs a monotone chain over the points sorted by (fpr, tpr). The turn
    test runs on the integer counts, so hull membership is exact rational
    arithmetic rather than float luck. Collinear interior points are
    dropped; among points tied in fpr only the one with maximal tpr can
    survive.

    The chain sees only the staircase's top-left corners:
    interior points that lie strictly above their predecessor and strictly
    left of their successor. No other point can be a hull vertex, because
    the curve ends at (1, 1) and so every supporting line of a vertex has
    non-negative slope (the ROC convex hull of Provost & Fawcett 2001).
    Vectorised rounds first drop the corners that make no strict clockwise
    turn with their neighbours (see _inner_corners_dropped).
    """
    x, y = curve.fp, curve.tp
    corner = np.ones(x.size, dtype=bool)
    corner[1:-1] = (y[1:-1] > y[:-2]) & (x[2:] > x[1:-1])
    idx = np.flatnonzero(corner)
    if max(curve.n_p, curve.n_n) < 1 << 31:
        idx = _inner_corners_dropped(x, y, idx)
    # Python ints from tolist(), so the turn tests cannot overflow
    xs, ys = x[idx].tolist(), y[idx].tolist()
    hull: list[int] = []
    for j, (bx, by) in enumerate(zip(xs, ys)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            ox, oy = xs[o], ys[o]
            # keep a while o -> a -> b turns clockwise (cross product < 0)
            if (xs[a] - ox) * (by - oy) < (ys[a] - oy) * (bx - ox):
                break
            hull.pop()
        hull.append(j)
    return curve._take(idx[hull], is_hull=True)


# rounds of the hull pre-pass: it costs O(n * rounds) on any input, and on
# simulated scores a few rounds leave little more than the hull itself
_HULL_ROUNDS = 16


def _inner_corners_dropped(x: np.ndarray, y: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """idx without the points that lie on or below the chord of their
    neighbours in idx, in up to _HULL_ROUNDS rounds. Such a point is no hull
    vertex, so the chain over what is left finds the same hull. The int64
    cross products are exact while the counts stay below 2**31."""
    for _ in range(_HULL_ROUNDS):
        px, py = x[idx], y[idx]
        ox, oy = px[:-2], py[:-2]
        turns = (px[1:-1] - ox) * (py[2:] - oy) < (py[1:-1] - oy) * (px[2:] - ox)
        if turns.all():
            break
        idx = idx[np.concatenate(([True], turns, [True]))]
    return idx


def _line(tpr, fpr, priors: Priors):
    """(slope, intercept) of the cost line of rates (tpr, fpr), floats or
    arrays; the one place their float operations are written."""
    slope = 2.0 * (priors.pi_n * fpr - priors.pi_p * (1.0 - tpr))
    intercept = 2.0 * priors.pi_p * (1.0 - tpr)
    return slope, intercept


def _switch_points(slopes: np.ndarray, intercepts: np.ndarray) -> np.ndarray:
    """Where consecutive hull vertices' cost lines cross, in increasing c
    (made monotone and clipped to [0, 1] against last-ulp wobble); past k of
    them the line of vertex H - 1 - k is lowest."""
    switches = (intercepts[:-1] - intercepts[1:]) / (slopes[1:] - slopes[:-1])
    return np.clip(np.maximum.accumulate(switches[::-1]), 0.0, 1.0)


def _envelope_vertices(hull: RocCurve, priors: Priors, xs: np.ndarray) -> np.ndarray:
    """(3, len(xs)) hull indices: at each x the vertex the switch points make
    active and its neighbours, so the envelopes take O(H + G) memory; the best
    of the three is the optimum unless rounding moves a switch past the next."""
    slopes, intercepts = _line(hull.tprs, hull.fprs, priors)
    last = slopes.size - 1
    active = last - np.searchsorted(_switch_points(slopes, intercepts), xs)
    return np.clip((active - 1, active, active + 1), 0, last)


def _upper_boundary(curve: RocCurve, at: np.ndarray) -> np.ndarray:
    """Piecewise-linear height of the curve at the given fpr values,
    taking the top of any vertical segment."""
    x = curve.fprs
    # points are sorted by (fpr, tpr), so the last of each fpr run is its top
    top = np.append(x[1:] != x[:-1], True)
    return np.interp(at, x[top], curve.tprs[top])


def dominance(a: RocCurve, b: RocCurve) -> Dominance:
    """Compare two curves' piecewise-linear boundaries over all of [0, 1].

    Returns "first" when a is at least b everywhere and strictly above
    somewhere (tolerance 1e-12), "second" for the mirror case, "equal"
    when they coincide within tolerance, "neither" when they cross.
    Curves are compared as given; pass hulls to compare hulls. Their class
    priors must match.
    """
    if a.n_p * (b.n_p + b.n_n) != b.n_p * (a.n_p + a.n_n):
        raise ValueError("curves are over different class priors")
    pooled = np.sort(np.concatenate([a.fprs, b.fprs]))
    grid = pooled[_run_starts(pooled)]
    diff = _upper_boundary(a, grid) - _upper_boundary(b, grid)
    a_ge = bool(np.all(diff >= -_TOL))
    b_ge = bool(np.all(diff <= _TOL))
    if a_ge and b_ge:
        return "equal"
    if a_ge:
        return "first"
    if b_ge:
        return "second"
    return "neither"

"""ROC-space machinery: operating points, convex hulls, dominance.

Classification rule throughout: a sample is called positive when its score
is greater than or equal to the threshold. Each distinct score therefore
induces one operating point, and a synthetic (0, 0) point stands for any
threshold above the top score.

Curves are held as arrays of thresholds and integer counts, and their
rates are derived from the counts on each read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dataset import Dataset, Priors

Dominance = Literal["first", "second", "equal", "neither"]

# the one tolerance for float comparisons across the package
_TOL = 1e-12


@dataclass(frozen=True, eq=False, init=False, repr=False)
class RocCurve:
    """Operating points ordered by increasing (fpr, tpr), anchored at
    (0, 0) and (1, 1). is_hull marks curves in strictly convex position.

    Every field is a read-only array over the points, or a scalar.
    thresholds is NaN where a point has none (the (0, 0) anchor). The
    points carry integer tp and fp counts over the class totals n_p and
    n_n, and their rates fprs = fp / n_n and tprs = tp / n_p are derived
    on each read. tp.size counts the points.
    """

    thresholds: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    n_p: int
    n_n: int
    is_hull: bool

    def __init__(self, thresholds, tp, fp, n_p: int, n_n: int, is_hull: bool = False) -> None:
        """The curve through the points of the given thresholds (NaN for
        none) and integer counts. The curve holds read-only copies of
        thresholds, tp and fp, so no array of the caller's, or view of one,
        can move a point after the checks."""
        self._hold(np.array(thresholds, dtype=np.float64), np.array(tp, dtype=np.int64),
                   np.array(fp, dtype=np.int64), n_p, n_n, is_hull)

    @classmethod
    def _adopt(cls, thresholds: np.ndarray, tp: np.ndarray, fp: np.ndarray, n_p: int, n_n: int,
               is_hull: bool = False) -> RocCurve:
        """The curve over float64 thresholds and int64 counts that were built
        for it, taken without a copy."""
        curve = cls.__new__(cls)
        curve._hold(thresholds, tp, fp, n_p, n_n, is_hull)
        return curve

    def _hold(self, thresholds, tp, fp, n_p, n_n, is_hull) -> None:
        fields = {"thresholds": thresholds, "tp": tp, "fp": fp, "n_p": n_p, "n_n": n_n,
                  "is_hull": bool(is_hull)}
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        self._validate()

    def __reduce__(self):
        # rebuilt through the checks, so the copy's arrays are read-only too
        return RocCurve, (self.thresholds, self.tp, self.fp, self.n_p, self.n_n, self.is_hull)

    @property
    def fprs(self) -> np.ndarray:
        return _read_only(self.fp / self.n_n)

    @property
    def tprs(self) -> np.ndarray:
        return _read_only(self.tp / self.n_p)

    @property
    def points(self) -> np.ndarray:
        """The read-only (n, 2) array of (fpr, tpr) rows, built on each read.
        Kept only because bench/tracer.py counts its rows; tp.size counts
        the points without building it."""
        return _read_only(np.column_stack((self.fprs, self.tprs)))

    def _take(self, idx: np.ndarray, is_hull: bool) -> RocCurve:
        """The curve through the points at the given indices."""
        return RocCurve._adopt(self.thresholds[idx], self.tp[idx], self.fp[idx],
                               self.n_p, self.n_n, is_hull)

    def _validate(self) -> None:
        """The checks on the integer counts. Over class totals below 2**52
        they refuse what the same checks on the rates would refuse, with the
        same messages: dividing by a positive total keeps the order of the
        counts, and distinct counts in [0, total] stay distinct rates."""
        x, y = self.fp, self.tp
        if self.n_p < 1 or self.n_n < 1:
            raise ValueError("a curve needs at least one sample of each class")
        if not 2 <= x.size == y.size == self.thresholds.size:
            raise ValueError("a curve needs one threshold, tp and fp a point, and "
                             "at least the (0, 0) and (1, 1) anchors")
        if x[0] != 0 or y[0] != 0:
            raise ValueError("curve must start at (0, 0)")
        if x[-1] != self.n_n or y[-1] != self.n_p:
            raise ValueError("curve must end at (1, 1)")
        # compared, not differenced: no int64 temporaries, and nothing to wrap
        if not np.all((x[1:] > x[:-1]) | ((x[1:] == x[:-1]) & (y[1:] > y[:-1]))):
            raise ValueError("points must strictly increase in (fpr, tpr) order")
        if self.is_hull:
            ox, oy, ax, ay, bx, by = x[:-2], y[:-2], x[1:-1], y[1:-1], x[2:], y[2:]
            if np.any((ax - ox) * (by - oy) - (ay - oy) * (bx - ox) >= 0):
                raise ValueError("hull points must be in strictly convex position")

    def auc(self) -> float:
        return float(np.trapezoid(self.tprs, self.fprs))

    def __repr__(self) -> str:
        return f"RocCurve({self.thresholds.size} points, is_hull={self.is_hull})"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _require_hull(hull: RocCurve) -> None:
    if not hull.is_hull:
        raise ValueError("expected a convex hull; pass convex_hull(operating_points(data))")


def _points(data: Dataset) -> RocCurve:
    """The data's operating points: built from _tally's table and checked on
    the first read, then held by the dataset, so every later read of the
    data's curves takes the same RocCurve."""
    if data._points is None:
        data._points = RocCurve._adopt(*_tally(data.scores, data.labels), data.n_p, data.n_n)
    return data._points


def _tally(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The count table: the operating points' thresholds (NaN for the (0, 0)
    anchor, then each distinct score descending, a zero as +0.0) and their
    integer tp and fp counts, from one sort of an int64 key a row, the
    score's bits then its label bit: + 0.0 turns -0.0 into 0.0, a
    non-negative double orders as its bits, and a score of at most 1.0 keeps
    the key below 2**63, so the keys negated sort ascending as the keys
    descending. Down them a run of equal key >> 1 is one score; the label
    bits summed count the positives at or above each row, index + 1 - tp
    the negatives, and a run's last row has its point's counts."""
    key = np.add(scores, 0.0).view(np.int64)
    key <<= 1
    key |= labels
    np.negative(key, out=key)
    key.sort()
    bits = np.empty(key.size, dtype=np.int8)
    np.bitwise_and(key, 1, out=bits, casting="unsafe")  # -k and k have one parity
    np.negative(key, out=key)
    key >>= 1
    last = np.empty(key.size, dtype=bool)
    last[-1] = True
    np.not_equal(key[:-1], key[1:], out=last[:-1])
    last = np.flatnonzero(last)
    thresholds = np.empty(last.size + 1)
    thresholds[0] = np.nan
    # last is in range; any mode but "raise" lets take write out unbuffered
    np.take(key, last, out=thresholds[1:].view(np.int64), mode="clip")
    np.copyto(key, bits)  # summed in place: cumsum casting int8 to int64 copies it all
    del bits
    np.cumsum(key, out=key)
    tp = np.empty(last.size + 1, dtype=np.int64)
    tp[0] = 0
    np.take(key, last, out=tp[1:], mode="clip")
    del key
    fp = np.empty(last.size + 1, dtype=np.int64)
    fp[0] = 0
    np.add(last, 1, out=fp[1:])
    fp[1:] -= tp[1:]
    return thresholds, tp, fp


def threshold_rates(data: Dataset, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tpr, fpr) arrays for the rule score >= threshold, vectorized: each
    threshold takes the counts of the lowest distinct score at or above it,
    or the (0, 0) anchor's when no score reaches it."""
    points = _points(data)
    cuts = points.thresholds
    at = cuts.size - 1 - np.searchsorted(cuts[:0:-1], np.asarray(thresholds, dtype=np.float64))
    return points.tp[at] / data.n_p, points.fp[at] / data.n_n


def operating_points(data: Dataset) -> RocCurve:
    """All attainable operating points, one per distinct score.

    Points come out ordered by increasing (fpr, tpr), i.e. thresholds
    descending, starting from the synthetic (0, 0) anchor and ending at
    (1, 1) (the threshold at the minimum score classifies everything
    positive). Tied scores collapse into a single point. The dataset holds
    the curve, so every call on it returns the same one.
    """
    return _points(data)


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


def _upper_boundary(x: np.ndarray, y: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Piecewise-linear height of the curve with rates (x, y) at the given
    fpr values, taking the top of any vertical segment."""
    # points are sorted by (fpr, tpr), so the last of each fpr run is its top
    top = np.append(x[1:] != x[:-1], True)
    return np.interp(at, x[top], y[top])


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
    ax, bx = a.fprs, b.fprs
    pooled = np.sort(np.concatenate([ax, bx]))
    grid = pooled[np.append(True, pooled[1:] != pooled[:-1])]  # np.unique would load numpy.ma
    diff = _upper_boundary(ax, a.tprs, grid) - _upper_boundary(bx, b.tprs, grid)
    a_ge = bool(np.all(diff >= -_TOL))
    b_ge = bool(np.all(diff <= _TOL))
    if a_ge and b_ge:
        return "equal"
    if a_ge:
        return "first"
    if b_ge:
        return "second"
    return "neither"

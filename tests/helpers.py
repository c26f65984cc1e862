"""Dataset builders and reference implementations shared by the test modules."""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from opcurves import (Curve, Dataset, Priors, RocCurve, ThresholdGrid, loss_cp, lower_envelope,
                      net_benefit, operating_points, threshold_rates,
                      upper_envelope_decision_curve)
from opcurves import render
from opcurves._exact import DOUBT, POW10, near_power_of_two, times_pow10
from opcurves.dataset import (_EXACT, _LABEL_BYTES, _LABEL_TOKENS, _M_LIMIT, _WIDEST, CSV_HEADER,
                              EmptyInputError, ParseError, _csv_chunks, _from_csv_file,
                              _from_csv_rows, _reread)
from opcurves import output
from opcurves.output import _json_chunks
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


def text_lines(text: str) -> io.StringIO:
    """The lines of CSV text as _from_csv_rows reads a file's: after any
    byte order mark, split at LF only."""
    return io.StringIO(text.removeprefix("\ufeff"))


def to_csv(data: Dataset) -> str:
    """The `score,label` CSV text of a Dataset, as write_csv writes it."""
    return "".join(_csv_chunks(data))


def json_text(obj) -> str:
    """The JSON text of obj as the report writer writes it, whole: exactly
    json.dumps(obj, indent=2) for objects whose dict keys are all strings,
    numpy arrays and Records written as lists."""
    return "".join(_json_chunks(obj))


def column_words_oracle(column: np.ndarray, fallback) -> np.ndarray:
    """output._column_words as it was before it gave each run's words and
    an index: the words of every row, a run's words repeated."""
    kind = column.dtype.kind
    if kind == "b":
        return output._BOOL_WORDS[column.view(np.uint8)]
    if kind in "iu":
        if column.size and (column.min() < 0 or column.max() >= 10**4):
            raise ValueError("integer columns must lie in [0, 10000)")
        return output._digit_words()[output._LEAD1:output._LEAD1 + 10**4][column][:, None]
    values = np.ascontiguousarray(column, dtype=np.float64)
    bits = values.view(np.int64)
    heads = np.empty(values.size, dtype=bool)
    heads[0] = True
    np.not_equal(bits[1:], bits[:-1], out=heads[1:])
    if heads.all():
        return output._float_words(values, fallback)
    return output._float_words(values[heads], fallback)[np.cumsum(heads) - 1]


def frame_text_oracle(blocks: list[np.ndarray], piece_words: list[np.ndarray]) -> str:
    """output._frame_text as it was before rows() held one frame: each
    frame of output._FRAME_ROWS rows a new concatenation of the blocks'
    rows and the pieces' words."""
    texts = []
    for lo in range(0, len(blocks[0]), output._FRAME_ROWS):
        parts = [piece_words[0]]
        for block, piece in zip(blocks, piece_words[1:]):
            parts += [block[lo:lo + output._FRAME_ROWS], piece]
        m = len(parts[1])
        frame = np.concatenate([np.broadcast_to(p, (m, p.shape[-1])) for p in parts], axis=1)
        texts.append(frame.tobytes().translate(None, b"\0").decode())
    return "".join(texts)


def rows_oracle(columns: list[np.ndarray], pieces: list[str], fallback=float.__repr__) -> str:
    """The text output.rows writes, as it wrote it with the two oracles
    above, a chunk of output._CHUNK cells at a time and no memo."""
    piece_words = [np.frombuffer(p.encode() + b"\0" * (-len(p.encode()) % 4), dtype=np.uint32)
                   for p in pieces]
    columns = [np.asarray(c) for c in columns]
    size = max(1, output._CHUNK // len(columns))
    return "".join(frame_text_oracle([column_words_oracle(c[lo:lo + size], fallback)
                                      for c in columns], piece_words)
                   for lo in range(0, len(columns[0]), size))


def from_csv_bytes(raw: bytes) -> Dataset | None:
    """The byte decoder's Dataset of a file holding the bytes raw, or None."""
    return _from_csv_file(io.BytesIO(raw), len(raw))


def from_csv(text: str) -> Dataset:
    """The Dataset of `score,label` CSV text, through read_csv's two paths:
    the byte decoder on the text's UTF-8 bytes, then, for any text it
    refuses (or that has no UTF-8 form, as a lone surrogate), the row
    parser."""
    try:
        data = from_csv_bytes(text.encode("utf-8"))
    except UnicodeEncodeError:
        data = None
    return data if data is not None else _from_csv_rows(text_lines(text))


def two_pass_rows_oracle(text: str) -> Dataset:
    """The row parser as it was before it became one pass: every row of the
    text in a list first, then each score and label converted. A csv.Error,
    a bad header or a row of the wrong field count anywhere outranks an
    earlier bad score or label."""
    reader = csv.reader(text_lines(text))
    try:
        rows = [(reader.line_num, row) for row in reader
                if row and any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise EmptyInputError("csv input is empty")
    header = rows[0][1]
    if tuple(cell.strip().casefold() for cell in header) != CSV_HEADER:
        raise ParseError(f"expected header 'score,label', got {','.join(header)!r}")
    for idx, (line, row) in enumerate(rows[1:], start=1):
        if len(row) != 2:
            raise ParseError(f"row {idx} (line {line}): expected 2 fields, got {len(row)}")
    scores, labels = [], []
    for idx, (line, (score_text, label_text)) in enumerate(rows[1:], start=1):
        where = f"row {idx} (line {line})"
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"{where}: score {score_text!r} is not a decimal number") from None
        if not math.isfinite(score) or not 0.0 <= score <= 1.0:
            raise ParseError(f"{where}: score {score_text!r} is outside [0, 1]")
        label = _LABEL_TOKENS.get(label_text.strip().casefold())
        if label is None:
            raise ParseError(f"{where}: unknown label {label_text!r} (expected 0/1 or N/P)")
        scores.append(score)
        labels.append(label)
    if not scores:
        raise EmptyInputError("no sample rows in input")
    return Dataset(scores, labels)


def comparison_dict(report) -> dict:
    """The report as plain lists and one dict a grid point, built from its
    public arrays: what the compare command's JSON must be, as json.dumps
    writes it."""
    cols = {"t": report.grid.values, "nb_a": report.nb_a, "nb_b": report.nb_b,
            "bc_a": report.bc_a, "bc_b": report.bc_b, "delta_nb": report.delta_nb,
            "delta_bc": report.delta_bc, "agree": report.agree}
    per_t = [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in cols.values()))]
    return {"priors": {"pi_p": report.priors.pi_p, "pi_n": report.priors.pi_n},
            "grid": report.grid.values.tolist(), "per_t": per_t,
            "agree_at_all_t": report.agree_at_all_t}


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
    pos, neg = sorted_classes_oracle(data.scores, data.labels)
    tp = data.n_p - np.searchsorted(pos, distinct, side="left")
    fp = data.n_n - np.searchsorted(neg, distinct, side="left")
    return ((None, 0, 0),) + tuple((float(t), int(tpk), int(fpk))
                                   for t, tpk, fpk in zip(distinct, tp, fp))


@dataclass(frozen=True)
class OperatingPoint:
    """One point in ROC space; threshold is None for the (0, 0) anchor."""

    fpr: float
    tpr: float
    threshold: float | None = None


def point_view(curve: RocCurve) -> tuple[OperatingPoint, ...]:
    """The curve's points as OperatingPoint objects, each rate a Python int
    count over its class total, for tests that read points one by one."""
    return tuple(OperatingPoint(fpr=fp / curve.n_n, tpr=tp / curve.n_p,
                                threshold=None if math.isnan(t) else t)
                 for t, tp, fp in zip(curve.thresholds.tolist(), curve.tp.tolist(),
                                      curve.fp.tolist()))


def sorted_classes_oracle(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """The positive and the negative scores, each sorted by np.sort of a
    boolean-mask gather: the sorted class copies Dataset held before it
    held the count table."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    return np.sort(scores[labels == 1]), np.sort(scores[labels == 0])


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values in a sorted array begins."""
    new = np.empty(a.size, dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


def _anchored(anchor, values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """anchor, then values[idx]."""
    return np.concatenate((np.array([anchor], dtype=values.dtype), values[idx]))


def count_table_oracle(data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """roc._count_table as it was before the count table became one sort of
    packed keys: the thresholds (NaN, then the distinct scores descending)
    and tp and fp counts, from the sorted class copies. Each is cut into
    runs of equal scores; one stable sort merges the two run lists, and the
    run lengths summed down the merged order count the samples at or above
    each entry. The last entry of each score carries its point's counts."""
    pos, neg = sorted_classes_oracle(data.scores, data.labels)
    starts_p, starts_n = _run_starts(pos), _run_starts(neg)
    values = np.concatenate((pos[starts_p], neg[starts_n]))
    lengths = np.concatenate((np.diff(starts_p, append=pos.size),
                              np.diff(starts_n, append=neg.size)))
    # scores descending; a score of both classes has two adjacent entries
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    last = np.append(_run_starts(values)[1:], values.size) - 1
    lengths = lengths[order]
    below = np.cumsum(lengths)  # samples scored at or above each entry
    tp = np.cumsum(lengths * (order < starts_p.size))
    return (_anchored(np.nan, values, last), _anchored(0, tp, last),
            _anchored(0, below - tp, last))


def threshold_rates_oracle(data: Dataset, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """threshold_rates as it was before it read the count table: one
    searchsorted over each sorted class copy."""
    pos, neg = sorted_classes_oracle(data.scores, data.labels)
    ts = np.asarray(thresholds, dtype=np.float64)
    tp = data.n_p - np.searchsorted(pos, ts, side="left")
    fp = data.n_n - np.searchsorted(neg, ts, side="left")
    return tp / data.n_p, fp / data.n_n


def assert_count_table(data: Dataset) -> None:
    """data's operating points are count_table_oracle's: tp and fp exactly,
    the thresholds by value (-0.0 == 0.0), every zero threshold +0.0; and
    threshold_rates gives threshold_rates_oracle's rates bit for bit on a
    grid of every score, its float neighbours, 0, 1 and values outside."""
    got, (cuts, tp, fp) = operating_points(data), count_table_oracle(data)
    assert got.tp.tolist() == tp.tolist() and got.fp.tolist() == fp.tolist()
    assert np.isnan(got.thresholds[0]) and np.isnan(cuts[0])
    assert got.thresholds[1:].tolist() == cuts[1:].tolist()
    assert not np.signbit(got.thresholds[1:]).any()
    distinct = np.unique(data.scores)
    grid = np.concatenate((distinct, np.nextafter(distinct, -1.0), np.nextafter(distinct, 2.0),
                           [0.0, -0.0, 1.0, -0.5, 1.5, np.nan]))
    for a, b in zip(threshold_rates(data, grid), threshold_rates_oracle(data, grid)):
        assert a.view(np.int64).tolist() == b.view(np.int64).tolist()


def check_rates_oracle(thresholds, tp, fp, n_p: int, n_n: int, is_hull: bool) -> None:
    """RocCurve's checks as they ran on the rates fp / n_n and tp / n_p
    before they moved to the integer counts: raises the ValueError
    RocCurve raises for the same arrays, for class totals of at least 1."""
    thresholds = np.array(thresholds, dtype=np.float64)
    tp, fp = np.array(tp, dtype=np.int64), np.array(fp, dtype=np.int64)
    x, y = fp / n_n, tp / n_p
    if not 2 <= x.size == y.size == thresholds.size:
        raise ValueError("a curve needs one threshold, tp and fp a point, and "
                         "at least the (0, 0) and (1, 1) anchors")
    if (x[0], y[0]) != (0.0, 0.0):
        raise ValueError("curve must start at (0, 0)")
    if (x[-1], y[-1]) != (1.0, 1.0):
        raise ValueError("curve must end at (1, 1)")
    dx, dy = np.diff(x), np.diff(y)
    if not np.all((dx > 0.0) | ((dx == 0.0) & (dy > 0.0))):
        raise ValueError("points must strictly increase in (fpr, tpr) order")
    if is_hull:
        ox, oy, ax, ay, bx, by = fp[:-2], tp[:-2], fp[1:-1], tp[1:-1], fp[2:], tp[2:]
        if np.any((ax - ox) * (by - oy) - (ay - oy) * (bx - ox) >= 0):
            raise ValueError("hull points must be in strictly convex position")


def brier_score_oracle(data: Dataset) -> float:
    """The Brier curve's area from all n scores: np.unique over the scores
    and both bounds, then two searchsorted calls for each segment's counts."""
    b = np.unique(np.concatenate([[0.0], data.scores, [1.0]]))
    lo, hi = b[:-1], b[1:]
    # on the open segment (lo, hi) the rule s >= t classifies {s > lo}
    # positive, so the false-negative and false-positive counts are
    pos, neg = sorted_classes_oracle(data.scores, data.labels)
    fn = np.searchsorted(pos, lo, side="right")
    fp = data.n_n - np.searchsorted(neg, lo, side="right")
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
    pts = point_view(points) if isinstance(points, RocCurve) else list(points)
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
    view = point_view(hull)
    return tuple(view[i] for i in np.flatnonzero(vals <= vals.min() + 1e-12))


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


def decode_lines_oracle(a: np.ndarray, widest: int,
                          crlf: bool = False) -> tuple[np.ndarray, np.ndarray] | None:
    """dataset._decode_lines as it was before its Horner loop lost its
    np.where selects: each column skips a field's dot and the columns left
    of a field's start, and m >= 2**58 is refused before m * 10 can
    overflow; and before its exact-division tail ran on the gathered rows
    with m > 2**53 alone: here it runs on every row once one has
    m > 2**53. Scores and labels of the lines in the bytes a, or None."""
    ends = np.flatnonzero(a == 10)
    newlines = ends.size
    if a[-1] != 10:
        ends = np.append(ends, a.size)
    width = np.diff(ends, prepend=-1) - 3
    stops, crs = ends, 0
    if crlf:  # a CR right before a newline is part of the line end
        cr = np.zeros(ends.size, dtype=np.int64)
        cr[:newlines] = a[ends[:newlines] - 1] == 13
        crs = np.count_nonzero(cr)
        stops, width = ends - cr, width - cr
    comma = stops - 2
    label_bytes = a[stops - 1]
    labels = _LABEL_BYTES[label_bytes]
    dots = np.count_nonzero(a == 46)
    # one comma a line, left of a 0/1/N/P label: every other byte is a
    # digit, a dot, or a sign or an exponent of a field float() reads
    if (width.min() < 1 or width.max() > widest or labels.min() < 0
            or np.count_nonzero(a == 44) != ends.size or np.any(a[comma] != 44)):
        return None
    # bytes of no class counted here must be signs or exponents; so must any
    # CR that does not end a line, which refuses a
    letters = np.count_nonzero(label_bytes > 57)
    signs = (a.size - np.count_nonzero(a - 48 < 10) - dots - ends.size - newlines - crs
             - letters)
    by_float, reach = False, width  # rows read by float(); widths Horner's rule reads
    if signs:
        odd = np.flatnonzero((a == 43) | (a == 45) | (a == 69) | (a == 101))  # + - E e
        if odd.size != signs:
            return None
        by_float = np.zeros(ends.size, dtype=bool)
        by_float[np.searchsorted(ends, odd)] = True
        # the dots of these fields are float()'s to check
        dots -= np.count_nonzero(by_float[np.searchsorted(ends, np.flatnonzero(a == 46))])
        reach = np.where(by_float, 0, width)
    # Horner's rule over the columns j bytes left of the commas, widest first,
    # skipping each field's dot and the columns left of a field's start
    m = np.zeros(ends.size, dtype=np.int64)
    point = np.zeros(ends.size, dtype=np.int64)  # the j of the dot, 0 for none
    span = int(reach.max())
    if span == _WIDEST:  # a decimal field has at most 24 bytes
        return None
    at = comma - span - 1
    for j in range(span, 0, -1):
        at += 1
        digit = a.take(at, mode="clip") - 48  # a dot reads 254
        outside = reach < j
        skip = outside | (digit > 9)
        # m < 10**18 after 18 columns; from then on m >= 2**58 is refused
        # before m * 10 can overflow
        if span - j > 17 and np.any(m >= _M_LIMIT):
            return None
        m = np.where(skip, m, m * 10 + digit)
        point = np.where(skip ^ outside, j, point)  # skipped inside: the dot
    f = np.maximum(point - 1, 0)  # digits after the dot
    if (np.count_nonzero(point) != dots or np.any((width == 1) & (point == 1))
            or np.any(m >= _M_LIMIT) or f.max() >= POW10.size):
        return None
    scale = POW10[f]
    hi = m.astype(np.float64)
    scores = hi / scale
    big = m > _EXACT
    if big.any():
        q, lo = scores, m - hi.astype(np.int64)
        ph, pl = times_pow10(q, f)  # q * scale, exactly
        c = ((hi - ph - pl) + lo) / scale
        units = c / np.spacing(q)
        mantissa = np.frexp(q)[0]
        by_float = by_float | (big & ((np.abs(units - np.floor(units) - 0.5) < DOUBT)
                                      | near_power_of_two(mantissa)))
        scores = np.where(big, q + c, q)
    rows = np.flatnonzero(by_float)
    if rows.size:
        try:
            scores[rows] = _reread(a, comma[rows] - width[rows], comma[rows])
        except ValueError:
            return None
    return scores, labels


def path_data_unthinned_oracle(polylines: list[tuple[np.ndarray, np.ndarray]],
                               box: tuple[float, float, float, float], px, py,
                               clip_all: bool = False) -> list[str]:
    """render._path_data as it was before it thinned straight runs: every
    vertex goes to the clip. With clip_all, as it was before it clipped
    only the segments with an end outside the box: every segment goes
    through the Liang-Barsky updates. Both work in chunks of render._CHUNK
    segments as it is at the call."""
    xmin, xmax, ymin, ymax = box
    xs = np.concatenate([x for x, _ in polylines])
    ys = np.concatenate([y for _, y in polylines])
    ids = np.repeat(np.arange(len(polylines)), [x.size for x, _ in polylines])
    owner, drawn = ids[:-1], ids[:-1] == ids[1:]  # a segment's polyline; not a bridge
    kept = []  # per chunk: (gx, gy, heads, polyline) of the vertices _kept keeps
    prev_ok, prev_bx, prev_by = False, 0.0, 0.0
    for lo in range(0, xs.size - 1, render._CHUNK):
        hi = min(lo + render._CHUNK, xs.size - 1)
        x1, y1, x2, y2 = xs[lo:hi], ys[lo:hi], xs[lo + 1:hi + 1], ys[lo + 1:hi + 1]
        dx, dy = x2 - x1, y2 - y1
        t0, t1 = np.zeros(hi - lo), np.ones(hi - lo)
        ok = drawn[lo:hi].copy()
        if clip_all:
            out = np.arange(hi - lo)
        else:
            # the segments with an end outside the box; the others keep t0 = 0, t1 = 1
            vx, vy = xs[lo:hi + 1], ys[lo:hi + 1]
            inside = (vx >= xmin) & (vx <= xmax) & (vy >= ymin) & (vy <= ymax)
            out = np.flatnonzero(~(inside[:-1] & inside[1:]))
        c0, c1, cok, cx, cy, cdx, cdy = (v[out] for v in (t0, t1, ok, x1, y1, dx, dy))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for p, q in ((-cdx, cx - xmin), (cdx, xmax - cx), (-cdy, cy - ymin), (cdy, ymax - cy)):
                flat, enters = p == 0.0, p < 0.0
                cok &= ~(flat & (q < 0.0))
                r = q / p
                # max(t0, r) and min(t1, r) keep t0 and t1 unless r is strictly beyond
                c0 = np.where(enters & (r > c0), r, c0)
                c1 = np.where(~flat & ~enters & (r < c1), r, c1)
            t0[out], t1[out], ok[out] = c0, c1, cok & ~(c0 > c1)
            # a dropped segment's t0 or t1 may be infinite, and inf * 0 is NaN
            ax, ay, bx, by = x1 + t0 * dx, y1 + t0 * dy, x1 + t1 * dx, y1 + t1 * dy
        after_ok = np.concatenate(([prev_ok], ok[:-1]))
        joins = (after_ok & (ax == np.concatenate(([prev_bx], bx[:-1])))
                 & (ay == np.concatenate(([prev_by], by[:-1]))))
        prev_ok, prev_bx, prev_by = bool(ok[-1]), bx[-1], by[-1]
        # the vertices in drawing order: a segment's start when it opens a
        # subpath, then its end when it is kept
        pick = np.column_stack((ok & ~joins, ok)).ravel()
        if not pick.any():
            continue
        vertices = (render._path_centipixels(px(np.column_stack((ax, bx)).ravel()[pick])),
                    render._path_centipixels(py(np.column_stack((ay, by)).ravel()[pick])),
                    np.tile((True, False), hi - lo)[pick], np.repeat(owner[lo:hi], 2)[pick])
        # here the chunk's last vertex passes for the end of its subpath;
        # the _kept over what every chunk kept settles it
        keep = render._kept(*vertices[:3])
        kept.append([v[keep] for v in vertices])
    if not kept:
        return [""] * len(polylines)
    gx, gy, heads, owners = map(np.concatenate, zip(*kept))
    keep = render._kept(gx, gy, heads)
    bounds = np.searchsorted(owners[keep], np.arange(len(polylines) + 1)).tolist()
    return render._path_texts(gx[keep], gy[keep], heads[keep], bounds)

"""Deterministic SVG rendering for curves.

No plotting dependency: the writer emits plain SVG 1.1 text and the same
arguments always produce byte-identical output, so rendered files can be
diffed and cached. Every series is a Curve (sampled, an ROC staircase
whose x repeats, or a two-vertex line), drawn through its vertices in
order and clipped to the axes box. A path vertex that the 0.01 px output
resolution cannot tell apart from the path without it is left out.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from math import ceil, floor, isfinite, log10

import numpy as np

from ._exact import times_pow10
from .decision import Curve
from .output import write_text

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_MARGIN_LEFT = 58
_MARGIN_RIGHT = 168
_MARGIN_TOP = 42
_MARGIN_BOTTOM = 52
_WIDTH = 720
_HEIGHT = 480
# legend row k lies at y = _LEGEND_TOP + k * _LEGEND_PITCH
_LEGEND_TOP = _MARGIN_TOP + 14
_LEGEND_PITCH = 20
_LEGEND_ROWS = (_HEIGHT - _LEGEND_TOP) // _LEGEND_PITCH + 1


class RenderError(ValueError):
    """The plot cannot be rendered faithfully."""


# the style keys a series may set, and their defaults: a palette slot by
# position when color is None, and dash an SVG dasharray such as "6,3"
_STYLE = {"color": None, "width": 1.6, "dash": None}


def _escape(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _series_vertices(curve: Curve, style: Mapping[str, object],
                     slot: str) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The series' legend row, (label, color, color given, width, dash),
    and its curve's vertices, checked for drawing. A style that gives no
    color takes the palette's color slot."""
    if not isinstance(curve, Curve):
        raise RenderError(f"cannot plot object of type {type(curve).__name__}")
    unknown = style.keys() - _STYLE.keys()
    if unknown:
        raise RenderError(f"unknown style key {min(unknown)!r}; expected color, width or dash")
    label, xs, ys = curve.series, curve.xs, curve.ys
    bad = ~(np.isfinite(xs) & np.isfinite(ys))
    if np.any(bad):
        raise RenderError(f"series {label!r} has a non-finite value at x={float(xs[bad][0])!r}")
    # the clip works on each segment's dx and dy, which must be finite too
    with np.errstate(over="ignore"):
        if not (np.all(np.isfinite(np.diff(xs))) and np.all(np.isfinite(np.diff(ys)))):
            raise RenderError(f"series {label!r} has a segment whose dx or dy overflows")
    color, width, dash = {**_STYLE, **style}.values()
    return (label, color or slot, color, width, dash), xs, ys


_CHUNK = 1 << 14  # segments clipped per pass; bounds the clip's temporaries


def _path_data(polylines: list[tuple[np.ndarray, np.ndarray]],
               box: tuple[float, float, float, float], px, py) -> list[str]:
    """The d attribute of each polyline (xs, ys), clipped to the box.

    Only a segment with an end outside the box is clipped, Liang-Barsky, on
    its own; one with both ends inside is drawn whole, as the clip would
    draw it (t0 = 0, t1 = 1). A segment that starts where the previous kept
    one ended continues the subpath ("L"), any other kept segment opens a
    new one ("M"). All polylines go through one pass over their
    concatenated vertices, in chunks of up to _CHUNK segments; the segments
    that join one polyline to the next are dropped, and so are the inner
    vertices of straight runs in the box (_unbent). The clip does the float
    operations of the one-segment-at-a-time version in the same order, so
    every vertex drawn has the same text. Vertices that change nothing at
    the 0.01 px resolution of that text are left out (_kept). A vertex is
    carried as its centipixels from the clip on, and its text is written
    from them (_path_texts).
    """
    xmin, xmax, ymin, ymax = box
    polylines = [_unbent(x, y, box) for x, y in polylines]
    xs = np.concatenate([x for x, _ in polylines])
    ys = np.concatenate([y for _, y in polylines])
    ids = np.repeat(np.arange(len(polylines)), [x.size for x, _ in polylines])
    owner, drawn = ids[:-1], ids[:-1] == ids[1:]  # a segment's polyline; not a bridge
    kept = []  # per chunk: (gx, gy, heads, polyline) of the vertices _kept keeps
    prev_ok, prev_bx, prev_by = False, 0.0, 0.0
    for lo in range(0, xs.size - 1, _CHUNK):
        hi = min(lo + _CHUNK, xs.size - 1)
        x1, y1, x2, y2 = xs[lo:hi], ys[lo:hi], xs[lo + 1:hi + 1], ys[lo + 1:hi + 1]
        dx, dy = x2 - x1, y2 - y1
        t0, t1 = np.zeros(hi - lo), np.ones(hi - lo)
        ok = drawn[lo:hi].copy()
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
        vertices = (_path_centipixels(px(np.column_stack((ax, bx)).ravel()[pick])),
                    _path_centipixels(py(np.column_stack((ay, by)).ravel()[pick])),
                    np.tile((True, False), hi - lo)[pick], np.repeat(owner[lo:hi], 2)[pick])
        # here the chunk's last vertex passes for the end of its subpath;
        # the _kept over what every chunk kept settles it
        keep = _kept(*vertices[:3])
        kept.append([v[keep] for v in vertices])
    if not kept:
        return [""] * len(polylines)
    gx, gy, heads, owners = map(np.concatenate, zip(*kept))
    keep = _kept(gx, gy, heads)
    bounds = np.searchsorted(owners[keep], np.arange(len(polylines) + 1)).tolist()
    return _path_texts(gx[keep], gy[keep], heads[keep], bounds)


def _unbent(xs: np.ndarray, ys: np.ndarray,
            box: tuple[float, float, float, float]) -> tuple[np.ndarray, np.ndarray]:
    """The vertices of a polyline that the clip needs. An inner vertex of a
    straight run goes when it and its neighbours lie in the box, both its
    edges point the same way (up, down, left or right; an empty edge points
    no way) and the clip joins its two segments. A run whose merged segment
    does not end, bit for bit, where its last segment ends keeps its
    vertices. _kept would leave out each vertex that goes, so the path text
    is the same."""
    if xs.size < 3:
        return xs, ys
    xmin, xmax, ymin, ymax = box
    keep = np.ones(xs.size, dtype=bool)
    for lo in range(1, xs.size - 1, _CHUNK):  # in chunks, to bound the temporaries
        hi = min(lo + _CHUNK, xs.size - 1)
        x, y = xs[lo - 1:hi + 1], ys[lo - 1:hi + 1]
        inside = (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)
        ex, ey = np.diff(x), np.diff(y)
        flat, up, right = ex == 0, ey > 0, ex > 0
        # per edge: in the box, vertical or horizontal and not empty
        edge = inside[:-1] & inside[1:] & (flat ^ (ey == 0))
        joins = (x[:-1] + ex == x[1:]) & (y[:-1] + ey == y[1:])  # the clip ends it at its end
        keep[lo:hi] = ~(edge[:-1] & edge[1:] & joins[:-1] & (flat[:-1] == flat[1:])
                        & (up[:-1] == up[1:]) & (right[:-1] == right[1:]))
    kept = np.flatnonzero(keep)
    merged = np.flatnonzero(np.diff(kept) > 1)
    a, b = kept[merged], kept[merged + 1]
    off = ((xs[a] + (xs[b] - xs[a]) != xs[b - 1] + (xs[b] - xs[b - 1]))
           | (ys[a] + (ys[b] - ys[a]) != ys[b - 1] + (ys[b] - ys[b - 1])))
    if off.any():
        keep |= np.isin(np.cumsum(keep) - 1, merged[off])
    return xs[keep], ys[keep]


def _path_texts(gx: np.ndarray, gy: np.ndarray, heads: np.ndarray,
                bounds: list[int]) -> list[str]:
    """The path data of the vertices from each bound to the next: "M" at a
    subpath's first vertex (heads) and "L" at any other, then the point as
    f"{x:.2f} {y:.2f}" writes it, from its centipixels in [0, 10**5); the
    vertices are joined by spaces. Each vertex is a 16-byte row of a frame,
    "L ddd.dd ddd.dd ", with NUL bytes for the zeros that lead the integer
    part; deleting the NULs leaves the text."""
    frame = np.empty((gx.size, 16), dtype=np.uint8)
    frame[:, 0] = np.where(heads, ord("M"), ord("L"))
    frame[:, [1, 8, 15]] = ord(" ")
    frame[:, [5, 12]] = ord(".")
    for at, g in ((2, gx), (9, gy)):
        for col, place in zip((at, at + 1, at + 2, at + 4, at + 5), (10**4, 10**3, 100, 10, 1)):
            frame[:, col] = g // place % 10 + ord("0")
        frame[g < 10**4, at] = 0
        frame[g < 10**3, at + 1] = 0
    return [frame[a:b].tobytes().translate(None, b"\0")[:-1].decode()
            for a, b in zip(bounds[:-1], bounds[1:])]


def _path_centipixels(v: np.ndarray) -> np.ndarray:
    """_centipixels of path coordinates, refusing one that the frame of
    _path_texts has no room for: one with a sign, as -0.0 has, or with 4
    or more integer digits. No double below 999.995 prints as 1000.00."""
    if np.signbit(v).any() or not np.all(v < 999.995):
        raise RenderError("a path vertex lies outside the 0 to 999.99 px its text is written for")
    return _centipixels(v)


def _centipixels(v: np.ndarray) -> np.ndarray:
    """The integer that f"{x:.2f}" writes for each x in v, |100 x| < 2**52,
    without its decimal point: 100 x = h + e exactly (Dekker's product),
    rounded half to even. h's distance from any half that h is not is a
    multiple of its ulp, more than |e|, so rint(h) rounds 100 x right unless
    h is a half and e is not 0; e's sign then decides."""
    h = v * 100.0
    k = np.rint(h)
    half = np.flatnonzero(h - np.floor(h) == 0.5)
    e = times_pow10(v[half], 2)[1]
    k[half] = np.where(e == 0, k[half], np.floor(h[half]) + (e > 0))
    return k.astype(np.int64)


def _kept(gx: np.ndarray, gy: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Indices of the path vertices (centipixel coordinates gx, gy; heads
    marks each subpath's first vertex) that change the drawing at the
    output's 0.01 px resolution.

    On the integer grid of the printed coordinates, a vertex goes when it
    repeats the point of the vertex before it, or when it lies on the
    closed segment between its neighbours: the edges into and out of it are
    parallel and not opposed. Each subpath keeps its first and last vertex.
    """
    tails = np.append(heads[1:], True)
    repeat = (gx[1:] == gx[:-1]) & (gy[1:] == gy[:-1])
    idx = np.flatnonzero(np.concatenate(([True], ~repeat | heads[1:] | tails[1:])))
    if idx.size < 3:
        return idx
    ex, ey = np.diff(gx[idx]), np.diff(gy[idx])
    # no edge into an inner vertex is empty; the edge out of one is empty
    # only where it repeats its subpath's last point, which it then leaves out
    inner = ~heads[idx][1:-1] & ~tails[idx][1:-1]
    on = ((ex[:-1] * ey[1:] == ey[:-1] * ex[1:])
          & (ex[:-1] * ex[1:] + ey[:-1] * ey[1:] >= 0))
    return idx[np.concatenate(([True], ~(inner & on), [True]))]


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    raw = span / target
    mag = 10.0 ** floor(log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if m * mag >= raw)
    first = ceil(lo / step - 1e-9)
    out = []
    k = first
    while k * step <= hi + 1e-9 * span:
        out.append(round(k * step, 10))
        k += 1
    return out


def render_svg(title: str, x_label: str, y_label: str,
               series: Sequence[tuple[Curve, Mapping[str, object]]],
               x_range: tuple[float, float], y_range: tuple[float, float]) -> str:
    """The SVG text of series, (Curve, style) pairs drawn in order under the
    curve's series as label. Raises RenderError on an empty series list,
    unusable ranges, a series that is not a Curve, a style key not in
    _STYLE, non-finite curve values, or more legend rows than fit on the
    canvas (_LEGEND_ROWS)."""
    if not series:
        raise RenderError("nothing to plot: series list is empty")
    x0, x1 = x_range
    y0, y1 = y_range
    if not all(isfinite(v) for v in (x0, x1, y0, y1)) or x0 >= x1 or y0 >= y1:
        raise RenderError("plot ranges must be finite and increasing")
    if not (isfinite(x1 - x0) and isfinite(y1 - y0)):
        raise RenderError("plot range spans must be finite")

    pw = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    ph = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x0) / (x1 - x0) * pw

    def py(y: float) -> float:
        return _MARGIN_TOP + (y1 - y) / (y1 - y0) * ph

    lines: list[str] = []
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">')
    lines.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    lines.append(
        f'<text x="{_fmt(_MARGIN_LEFT + pw / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="#222222">{_escape(title)}</text>')

    for tx in _ticks(x0, x1):
        gx = _fmt(px(tx))
        lines.append(f'<line x1="{gx}" y1="{_MARGIN_TOP}" x2="{gx}" '
                     f'y2="{_MARGIN_TOP + ph}" stroke="#e3e3e3" stroke-width="1"/>')
        lines.append(f'<text x="{gx}" y="{_MARGIN_TOP + ph + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11" fill="#444444">{tx:g}</text>')
    for ty in _ticks(y0, y1):
        gy = _fmt(py(ty))
        lines.append(f'<line x1="{_MARGIN_LEFT}" y1="{gy}" x2="{_MARGIN_LEFT + pw}" '
                     f'y2="{gy}" stroke="#e3e3e3" stroke-width="1"/>')
        lines.append(f'<text x="{_MARGIN_LEFT - 7}" y="{gy}" text-anchor="end" dy="4" '
                     f'font-family="sans-serif" font-size="11" fill="#444444">{ty:g}</text>')

    lines.append(f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#333333" stroke-width="1"/>')
    lines.append(f'<text x="{_fmt(_MARGIN_LEFT + pw / 2)}" y="{_HEIGHT - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="13" '
                 f'fill="#222222">{_escape(x_label)}</text>')
    ylab_x, ylab_y = 17, _MARGIN_TOP + ph / 2
    lines.append(f'<text x="{ylab_x}" y="{_fmt(ylab_y)}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" fill="#222222" '
                 f'transform="rotate(-90 {ylab_x} {_fmt(ylab_y)})">{_escape(y_label)}</text>')

    legend, polylines = [], []
    for idx, (curve, style) in enumerate(series):
        row, xs, ys = _series_vertices(curve, style, _PALETTE[idx % len(_PALETTE)])
        legend.append(row)
        polylines.append((xs, ys))
    # a series given the style of an earlier one under the same label, and
    # so drawn alike, shares its row
    rows = dict.fromkeys(legend)
    if len(rows) > _LEGEND_ROWS:
        raise RenderError(f"the legend has {len(rows)} rows, and at most {_LEGEND_ROWS} "
                          "fit on the canvas")
    for d, (_, color, _, width, dash) in zip(_path_data(polylines, (x0, x1, y0, y1), px, py),
                                             legend):
        if d:
            dash = f' stroke-dasharray="{dash}"' if dash else ""
            lines.append(f'<path d="{d}" fill="none" stroke="{color}" '
                         f'stroke-width="{width:g}"{dash}/>')

    lx = _MARGIN_LEFT + pw + 16
    for row, (label, color, _, width, dash) in enumerate(rows):
        ly = _LEGEND_TOP + row * _LEGEND_PITCH
        dash = f' stroke-dasharray="{dash}"' if dash else ""
        lines.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="{width:g}"{dash}/>')
        lines.append(f'<text x="{lx + 32}" y="{ly}" dy="4" font-family="sans-serif" '
                     f'font-size="11" fill="#222222">{_escape(label)}</text>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_svg(title: str, x_label: str, y_label: str,
              series: Sequence[tuple[Curve, Mapping[str, object]]],
              x_range: tuple[float, float], y_range: tuple[float, float], path: str) -> None:
    """Write render_svg's text for the same arguments to path."""
    write_text(path, render_svg(title, x_label, y_label, series, x_range, y_range))

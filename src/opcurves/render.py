"""Deterministic SVG rendering for curves and reference lines.

No plotting dependency: the writer emits plain SVG 1.1 text and the same
PlotSpec always produces byte-identical output, so rendered files can be
diffed and cached. Series data may be a Curve (sampled, or an ROC
staircase whose x repeats), a CostLine or a RocLine; lines are drawn
across the x range and everything is clipped to the axes box. A path
vertex that the 0.01 px output resolution cannot tell apart from the path
without it is left out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, floor, isfinite, log10
from typing import Union

import numpy as np

from .cost import CostLine
from .decision import Curve
from .isometrics import RocLine
from .output import write_text

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_MARGIN_LEFT = 58
_MARGIN_RIGHT = 168
_MARGIN_TOP = 42
_MARGIN_BOTTOM = 52
_WIDTH = 720
_HEIGHT = 480


class RenderError(ValueError):
    """The plot spec cannot be rendered faithfully."""


PlotData = Union[Curve, CostLine, RocLine]


@dataclass(frozen=True)
class SeriesStyle:
    color: str | None = None     # palette slot by position when None
    width: float = 1.6
    dash: str | None = None      # SVG dasharray, e.g. "6,3"


@dataclass(frozen=True)
class PlotSeries:
    data: PlotData
    label: str = ""              # derived from the data when empty
    style: SeriesStyle = field(default_factory=SeriesStyle)


@dataclass(frozen=True)
class PlotSpec:
    title: str
    x_label: str
    y_label: str
    series: tuple[PlotSeries, ...]
    x_range: tuple[float, float]
    y_range: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "series", tuple(self.series))


def _escape(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _default_label(data: PlotData) -> str:
    if isinstance(data, Curve):
        return data.series
    if isinstance(data, CostLine):
        src = data.source
        return f"line fpr={src.fpr:g} tpr={src.tpr:g}"
    if isinstance(data, RocLine):
        tag = f"{data.metric}={data.level:g}"
        return tag if data.t is None else f"{tag} t={data.t:g}"
    raise RenderError(f"cannot plot object of type {type(data).__name__}")


def _series_vertices(entry: PlotSeries, label: str,
                     x_range: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    data = entry.data
    if isinstance(data, Curve):
        xs, ys = data.xs, data.ys
    elif isinstance(data, CostLine):
        xs = np.array(x_range, dtype=np.float64)
        ys = data.value_at(xs)
    elif isinstance(data, RocLine):
        xs = np.array(x_range, dtype=np.float64)
        ys = data.tpr_at(xs)
    else:
        raise RenderError(f"cannot plot object of type {type(data).__name__}")
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    bad = ~(np.isfinite(xs) & np.isfinite(ys))
    if np.any(bad):
        raise RenderError(f"series {label!r} has a non-finite value at x={float(xs[bad][0])!r}")
    # the clip works on each segment's dx and dy, which must be finite too
    with np.errstate(over="ignore"):
        if not (np.all(np.isfinite(np.diff(xs))) and np.all(np.isfinite(np.diff(ys)))):
            raise RenderError(f"series {label!r} has a segment whose dx or dy overflows")
    return xs, ys


_CHUNK = 1 << 14  # segments clipped per pass; bounds the clip's temporaries


def _path_data(polylines: list[tuple[np.ndarray, np.ndarray]],
               box: tuple[float, float, float, float], px, py) -> list[str]:
    """The d attribute of each polyline (xs, ys), clipped to the box.

    Each segment is Liang-Barsky clipped on its own; a segment that starts
    where the previous kept one ended continues the subpath ("L"), any other
    kept segment opens a new one ("M"). All polylines go through one pass
    over their concatenated vertices, in chunks of up to _CHUNK segments; the
    segments that join one polyline to the next are dropped. The clip does
    the float operations of the one-segment-at-a-time version in the same
    order, so every vertex drawn has the same text. Vertices that change
    nothing at the 0.01 px resolution of that text are left out (_kept).
    """
    xmin, xmax, ymin, ymax = box
    xs = np.concatenate([x for x, _ in polylines])
    ys = np.concatenate([y for _, y in polylines])
    ids = np.repeat(np.arange(len(polylines)), [x.size for x, _ in polylines])
    owner, drawn = ids[:-1], ids[:-1] == ids[1:]  # a segment's polyline; not a bridge
    kept = []  # per chunk: (px, py, heads, polyline) of the vertices _kept keeps
    prev_ok, prev_bx, prev_by = False, 0.0, 0.0
    for lo in range(0, xs.size - 1, _CHUNK):
        hi = min(lo + _CHUNK, xs.size - 1)
        x1, y1, x2, y2 = xs[lo:hi], ys[lo:hi], xs[lo + 1:hi + 1], ys[lo + 1:hi + 1]
        dx, dy = x2 - x1, y2 - y1
        t0, t1 = np.zeros(hi - lo), np.ones(hi - lo)
        ok = drawn[lo:hi].copy()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for p, q in ((-dx, x1 - xmin), (dx, xmax - x1), (-dy, y1 - ymin), (dy, ymax - y1)):
                flat, enters = p == 0.0, p < 0.0
                ok &= ~(flat & (q < 0.0))
                r = q / p
                # max(t0, r) and min(t1, r) keep t0 and t1 unless r is strictly beyond
                t0 = np.where(enters & (r > t0), r, t0)
                t1 = np.where(~flat & ~enters & (r < t1), r, t1)
        ok &= ~(t0 > t1)
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
        vertices = (px(np.column_stack((ax, bx)).ravel()[pick]),
                    py(np.column_stack((ay, by)).ravel()[pick]),
                    np.tile((True, False), hi - lo)[pick], np.repeat(owner[lo:hi], 2)[pick])
        # here the chunk's last vertex passes for the end of its subpath;
        # the _kept over what every chunk kept settles it
        keep = _kept(*vertices[:3])
        kept.append([v[keep] for v in vertices])
    if not kept:
        return [""] * len(polylines)
    vx, vy, heads, owners = map(np.concatenate, zip(*kept))
    keep = _kept(vx, vy, heads)
    parts = list(map("L {:.2f} {:.2f}".format, vx[keep].tolist(), vy[keep].tolist()))
    for k in np.flatnonzero(heads[keep]).tolist():
        parts[k] = "M" + parts[k][1:]
    bounds = np.searchsorted(owners[keep], np.arange(len(polylines) + 1)).tolist()
    return [" ".join(parts[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _centipixels(v: np.ndarray) -> np.ndarray:
    """The integer that f"{x:.2f}" writes for each finite x in v, without
    its decimal point. rint(100 x) is that integer unless 100 x lies within
    its rounding error of a half (1e-6 covers coordinates below 10^7 px);
    there the text itself decides."""
    h = v * 100.0
    unsure = np.flatnonzero(~(np.abs(h - np.floor(h) - 0.5) > 1e-6))
    k = np.rint(h).astype(np.int64)
    k[unsure] = [int(f"{x:.2f}".replace(".", "")) for x in v[unsure].tolist()]
    return k


def _kept(vx: np.ndarray, vy: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Indices of the path vertices (pixel coordinates vx, vy; heads marks
    each subpath's first vertex) that change the drawing at the output's
    0.01 px resolution.

    On the integer grid of the printed coordinates, a vertex goes when it
    repeats the point of the vertex before it, or when it lies on the
    closed segment between its neighbours: the edges into and out of it are
    parallel and not opposed. Each subpath keeps its first and last vertex.
    """
    tails = np.append(heads[1:], True)
    gx, gy = _centipixels(vx), _centipixels(vy)
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


def render_svg(spec: PlotSpec) -> str:
    """Render the spec to SVG text. Raises RenderError on an empty series
    list, unusable ranges, or non-finite curve values."""
    if not spec.series:
        raise RenderError("nothing to plot: series list is empty")
    x0, x1 = spec.x_range
    y0, y1 = spec.y_range
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
        f'font-family="sans-serif" font-size="15" fill="#222222">{_escape(spec.title)}</text>')

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
                 f'fill="#222222">{_escape(spec.x_label)}</text>')
    ylab_x, ylab_y = 17, _MARGIN_TOP + ph / 2
    lines.append(f'<text x="{ylab_x}" y="{_fmt(ylab_y)}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" fill="#222222" '
                 f'transform="rotate(-90 {ylab_x} {_fmt(ylab_y)})">{_escape(spec.y_label)}</text>')

    legend: list[tuple[str, str, SeriesStyle]] = []
    polylines = []
    for idx, entry in enumerate(spec.series):
        label = entry.label or _default_label(entry.data)
        legend.append((label, entry.style.color or PALETTE[idx % len(PALETTE)], entry.style))
        polylines.append(_series_vertices(entry, label, spec.x_range))
    for d, (_, color, style) in zip(_path_data(polylines, (x0, x1, y0, y1), px, py), legend):
        if d:
            dash = f' stroke-dasharray="{style.dash}"' if style.dash else ""
            lines.append(f'<path d="{d}" fill="none" stroke="{color}" '
                         f'stroke-width="{style.width:g}"{dash}/>')

    lx = _MARGIN_LEFT + pw + 16
    for row, (label, color, style) in enumerate(legend):
        ly = _MARGIN_TOP + 14 + row * 20
        dash = f' stroke-dasharray="{style.dash}"' if style.dash else ""
        lines.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="{style.width:g}"{dash}/>')
        lines.append(f'<text x="{lx + 32}" y="{ly}" dy="4" font-family="sans-serif" '
                     f'font-size="11" fill="#222222">{_escape(label)}</text>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_svg(spec: PlotSpec, path: str) -> None:
    write_text(path, render_svg(spec))

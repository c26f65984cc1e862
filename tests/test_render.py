import hashlib
import re
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opcurves import (Curve, PlotSeries, PlotSpec, Priors, RenderError, SeriesStyle,
                      cost_line, isometric_line, render_svg, write_svg)
from opcurves import render
from opcurves.roc import OperatingPoint
from helpers import assert_decimated, path_data_oracle

PRIORS = Priors(pi_p=0.25, pi_n=0.75)


def _curve(series="model"):
    xs = np.linspace(0.0, 1.0, 11)
    return Curve(xs=xs, ys=xs ** 2, series=series)


def _spec(**overrides):
    base = dict(title="demo", x_label="x", y_label="y",
                series=(PlotSeries(data=_curve()),),
                x_range=(0.0, 1.0), y_range=(0.0, 1.0))
    base.update(overrides)
    return PlotSpec(**base)


def test_output_is_well_formed_svg():
    text = render_svg(_spec())
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert "demo" in text


def test_deterministic():
    assert render_svg(_spec()) == render_svg(_spec())


def test_legend_lists_every_series():
    spec = _spec(series=(PlotSeries(data=_curve("model")),
                         PlotSeries(data=_curve("treat_all"))))
    text = render_svg(spec)
    assert "model" in text
    assert "treat_all" in text


def test_default_palette_cycles():
    from opcurves import PALETTE
    spec = _spec(series=(PlotSeries(data=_curve("a")),
                         PlotSeries(data=_curve("b"))))
    text = render_svg(spec)
    assert PALETTE[0] in text
    assert PALETTE[1] in text


def test_explicit_style_wins():
    spec = _spec(series=(PlotSeries(data=_curve(), style=SeriesStyle(
        color="#123456", width=3.0, dash="4,2")),))
    text = render_svg(spec)
    assert "#123456" in text
    assert 'stroke-dasharray="4,2"' in text


def test_lines_are_sampled_and_clipped():
    line = cost_line(OperatingPoint(fpr=0.2, tpr=0.7), PRIORS)
    iso = isometric_line("accuracy", 0.8, PRIORS)
    spec = _spec(series=(PlotSeries(data=line), PlotSeries(data=iso)),
                 y_range=(0.0, 0.5))
    text = render_svg(spec)
    ET.fromstring(text)


def test_out_of_range_series_is_dropped_not_drawn():
    # a curve entirely above the window contributes no path segment
    xs = np.linspace(0.0, 1.0, 5)
    high = Curve(xs=xs, ys=xs + 5.0, series="high")
    base = render_svg(_spec())
    both = render_svg(_spec(series=(PlotSeries(data=_curve()),
                                    PlotSeries(data=high))))
    assert both.count("<path") == base.count("<path") + 0


def test_escapes_markup_in_labels():
    spec = _spec(title="a < b & c")
    text = render_svg(spec)
    assert "a &lt; b &amp; c" in text
    ET.fromstring(text)


def test_rejects_empty_series():
    with pytest.raises(RenderError):
        render_svg(_spec(series=()))


def test_rejects_bad_ranges():
    with pytest.raises(RenderError):
        render_svg(_spec(x_range=(1.0, 0.0)))
    with pytest.raises(RenderError):
        render_svg(_spec(y_range=(0.0, float("nan"))))


def test_rejects_overflowing_range_span():
    # finite ends whose difference overflows would reach the ticks as inf
    for ranges in (dict(x_range=(-1e308, 1e308)), dict(y_range=(-1e308, 1e308))):
        with pytest.raises(RenderError, match="plot range spans must be finite"):
            render_svg(_spec(**ranges))


def test_rejects_non_finite_curve():
    xs = np.array([0.0, 0.5, 1.0])
    ys = np.array([0.0, np.inf, 1.0])
    bad = Curve(xs=xs, ys=ys, series="model")
    with pytest.raises(RenderError, match="non-finite"):
        render_svg(_spec(series=(PlotSeries(data=bad),)))


def test_curve_x_may_repeat_and_go_back():
    # an ROC staircase, say: drawn vertex by vertex, in order, with the path
    # and file bytes the former separate staircase type gave
    stairs = Curve(xs=[0.0, 0.0, 0.5, 0.5, 0.2], ys=[0.0, 0.4, 0.4, 0.9, 0.9], series="stairs")
    text = render_svg(_spec(series=(PlotSeries(data=stairs),)))
    ET.fromstring(text)
    assert "stairs" in text
    assert re.findall(r'<path d="([^"]*)"', text) == [
        "M 58.00 428.00 L 58.00 273.60 L 305.00 273.60 L 305.00 80.60 L 156.80 80.60"]
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9ad17c39f6d52fbaf97c29e1d9bf1dcce058ab7c32c1465f4910cc1a705f8af6")


def test_rejects_non_finite_x():
    bad = Curve(xs=[0.0, np.inf], ys=[0.0, 1.0], series="stairs")
    with pytest.raises(RenderError, match="non-finite value at x=inf"):
        render_svg(_spec(series=(PlotSeries(data=bad),)))


def test_write_svg(tmp_path):
    path = tmp_path / "plot.svg"
    write_svg(_spec(), str(path))
    assert path.read_text(encoding="utf-8").startswith("<svg")


# The vectorised path builder against the one-segment-at-a-time oracle:
# the same vertices with the same text, less those that the 0.01 px grid
# of the text cannot tell apart from the path without them.

BOX = (-0.02, 1.02, -0.02, 1.02)


def _px(x):
    return 58 + (x - BOX[0]) / (BOX[1] - BOX[0]) * 494


def _py(y):
    return 42 + (BOX[3] - y) / (BOX[3] - BOX[2]) * 386


def _same_paths(polylines, box=BOX):
    polylines = [(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))
                 for xs, ys in polylines]
    got = render._path_data(polylines, box, _px, _py)
    assert len(got) == len(polylines)
    for (xs, ys), path in zip(polylines, got):
        assert_decimated(path, path_data_oracle(xs, ys, box, _px, _py))
    return got


def _same_path(xs, ys, box=BOX):
    return _same_paths([(xs, ys)], box)[0]


@pytest.mark.parametrize("seed", range(4))
def test_path_matches_oracle_on_walks_longer_than_a_chunk(seed):
    rng = np.random.default_rng(seed)
    n = 2 * render._CHUNK + 1000 * seed + 7
    # a random walk that leaves and re-enters the box many times
    xs = np.cumsum(rng.normal(0.0, 0.05, n)) % 1.6 - 0.3
    ys = np.cumsum(rng.normal(0.0, 0.05, n)) % 1.6 - 0.3
    assert _same_path(xs, ys).count("M ") > 10


def test_path_matches_oracle_on_a_staircase():
    rng = np.random.default_rng(9)
    fpr = np.repeat(np.sort(rng.random(render._CHUNK)), 2)[1:]
    tpr = np.repeat(np.sort(rng.random(render._CHUNK)), 2)[:-1]
    assert _same_path(fpr, tpr).count("M ") == 1


def test_path_with_spans_clipped_out():
    xs = np.linspace(0.0, 1.0, 3 * render._CHUNK)
    ys = np.where((xs > 0.3) & (xs < 0.6), 5.0, 0.5)
    ys[-render._CHUNK - 2:-render._CHUNK + 2] = -3.0  # out around a chunk boundary
    path = _same_path(xs, ys)
    assert path.count("M ") == 3
    assert _same_path(xs, np.full(xs.size, 7.0)) == ""


def test_path_with_vertical_and_horizontal_segments():
    # dx == 0 and dy == 0 take the p == 0 branch, inside and outside the box
    xs = [0.5, 0.5, 0.5, -0.5, -0.5, 1.5, 1.5, 0.2, 0.2, 0.8, 0.8, 2.0]
    ys = [0.1, 0.9, 0.9, 0.9, -0.7, -0.7, 0.4, 0.4, 3.0, 3.0, 0.3, 0.3]
    path = _same_path(xs, ys)
    assert path.startswith("M ")
    assert _same_path([0.3, 0.3], [0.3, 0.3]) != ""  # a point segment is kept


def test_path_with_vertices_on_the_box_edges():
    x0, x1, y0, y1 = BOX
    xs = [x0, x0, x1, x1, x0, 0.5, x1, x1 + 1e-17, x0 - 1e-300]
    ys = [y0, y1, y1, y0, y0, y1, 0.5, y0, y1]
    _same_path(xs, ys)
    _same_path([x0, x1], [y1, y1])
    _same_path([x0, x0], [y0, y1])


def test_many_short_polylines_in_one_pass():
    # cost lines: hundreds of two-vertex series, some clipped out, plus
    # one-vertex series that have no segment at all
    rng = np.random.default_rng(5)
    lines = [([-0.02, 1.02], rng.normal(0.5, 0.6, 2)) for _ in range(300)]
    lines[7:7] = [([0.5], [0.5]), ([0.2], [0.9])]
    lines.append(([0.1], [0.1]))
    paths = _same_paths(lines)
    assert paths[7] == paths[8] == paths[-1] == ""
    assert 0 < sum(p == "" for p in paths) < len(paths)


VERTEX = st.tuples(st.sampled_from([-0.5, -0.02, 0.0, 0.3, 0.3, 1.0, 1.02, 1.7]),
                   st.sampled_from([-0.5, -0.02, 0.0, 0.6, 1.0, 1.02, 2.0]))


@given(st.lists(st.lists(VERTEX, min_size=1, max_size=12), min_size=1, max_size=4),
       st.integers(1, 4))
def test_path_matches_oracle_across_small_chunks(polylines, chunk):
    polylines = [tuple(np.array(v, dtype=np.float64) for v in zip(*vs)) for vs in polylines]
    whole = render._path_data(polylines, BOX, _px, _py)
    with mock.patch.object(render, "_CHUNK", chunk):
        # each chunk is thinned on its own first; the pass over what every
        # chunk kept must leave the path that one pass over all of it leaves
        assert _same_paths(polylines) == whole


def test_dense_staircase_collapses_on_the_grid():
    # an ROC staircase of 6*10^4 rows: each step moves fpr or tpr, by
    # 0.003 px or 0.03 px; vertical runs and repeated points go
    rng = np.random.default_rng(11)
    pos = rng.random(60_000) < 0.1
    fpr = np.concatenate(([0.0], np.cumsum(~pos) / np.count_nonzero(~pos)))
    tpr = np.concatenate(([0.0], np.cumsum(pos) / np.count_nonzero(pos)))
    path = _same_path(fpr, tpr)
    assert path.count(" L ") < fpr.size // 4
    assert path.startswith("M 67.50 420.58 ") and path.endswith(" L 542.50 49.42")


def test_overflowing_segment_is_refused():
    # finite values whose difference overflows would clip to NaN coordinates
    for xs, ys in (([-1e308, 1e308, 0.5], [0.5, 0.5, 0.2]), ([0.5, 0.5], [1e308, -1e308])):
        wide = Curve(xs=xs, ys=ys, series="wide")
        with pytest.raises(RenderError, match="'wide' has a segment whose dx or dy overflows"):
            render_svg(_spec(series=(PlotSeries(data=_curve()), PlotSeries(data=wide))))


@given(st.lists(st.one_of(st.floats(0.0, 1e5), st.integers(0, 8 * 10**7).map(lambda k: k / 800),
                          st.integers(0, 10**7).map(lambda k: k / 200 + 1e-12)), min_size=1))
def test_centipixels_are_the_printed_digits(values):
    # k / 800 and k / 200 hit the halves of a centipixel exactly or nearly
    v = np.array(values)
    want = [int(f"{x:.2f}".replace(".", "")) for x in values]
    assert render._centipixels(v).tolist() == want

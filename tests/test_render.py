import hashlib
import re
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from opcurves import (Curve, Priors, RenderError, RocCurve, cost_lines, isometric_lines,
                      operating_points, render_svg, write_svg)
from opcurves import render
from helpers import assert_decimated, datasets, path_data_oracle, path_data_unthinned_oracle

PRIORS = Priors(pi_p=0.25, pi_n=0.75)


def _curve(series="model"):
    xs = np.linspace(0.0, 1.0, 11)
    return Curve(xs=xs, ys=xs ** 2, series=series)


def _spec(**overrides):
    """render_svg's arguments, by keyword."""
    base = dict(title="demo", x_label="x", y_label="y", series=[(_curve(), {})],
                x_range=(0.0, 1.0), y_range=(0.0, 1.0))
    base.update(overrides)
    return base


def test_output_is_well_formed_svg():
    text = render_svg(**_spec())
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert "demo" in text


def test_deterministic():
    assert render_svg(**_spec()) == render_svg(**_spec())


def test_legend_lists_every_series():
    text = render_svg(**_spec(series=[(_curve("model"), {}), (_curve("treat_all"), {})]))
    assert "model" in text
    assert "treat_all" in text


def test_series_drawn_alike_under_one_label_share_a_legend_row():
    def legend(*series):
        text = render_svg(**_spec(series=series))
        assert text.count("<path") == len(series)
        return re.findall(r'dy="4" font-family="sans-serif" font-size="11" '
                          r'fill="#222222">([^<]*)</text>', text)

    grey = {"color": "#b0b0b0", "width": 1.0}
    assert legend((_curve("line"), grey), (_curve("model"), {}),
                  (_curve("line"), dict(grey))) == ["line", "model"]
    # a different style, or a palette slot by position, gets a row of its own
    assert legend((_curve("line"), grey), (_curve("line"), {"color": "#b0b0b0"})) == [
        "line", "line"]
    assert legend((_curve("a"), {}), (_curve("a"), {})) == ["a", "a"]
    # a key given its default is a key left out; a color named is not the
    # palette slot of that color
    assert legend((_curve("line"), {"color": "#b0b0b0", "width": 1.6, "dash": None}),
                  (_curve("line"), {"color": "#b0b0b0"})) == ["line"]
    assert legend((_curve("a"), {}), (_curve("a"), {"color": render._PALETTE[0]})) == ["a", "a"]


def test_legend_rows_stay_on_the_canvas():
    # row k lies at y = 56 + 20k: 22 rows end at y = 476 on the 480 px
    # canvas, and a 23rd would not fit, so 25 distinct labels are refused
    def spec(rows):
        return _spec(series=[(_curve(f"s{k}"), {}) for k in range(rows)])

    right = render._WIDTH - render._MARGIN_RIGHT
    rows = [float(e.get("y1")) for e in ET.fromstring(render_svg(**spec(22))).iter()
            if e.tag.endswith("line") and float(e.get("x1")) > right]
    assert len(rows) == 22 and rows[-1] == 476 and max(rows) < render._HEIGHT
    with pytest.raises(RenderError, match="the legend has 25 rows, and at most 22 fit"):
        render_svg(**spec(25))


def test_default_palette_cycles():
    from opcurves.render import _PALETTE as PALETTE
    text = render_svg(**_spec(series=[(_curve("a"), {}), (_curve("b"), {})]))
    assert PALETTE[0] in text
    assert PALETTE[1] in text


def test_explicit_style_wins():
    text = render_svg(**_spec(series=[(_curve(), {"color": "#123456", "width": 3.0,
                                                  "dash": "4,2"})]))
    assert "#123456" in text
    assert 'stroke-dasharray="4,2"' in text


@pytest.mark.parametrize("style", [{"colour": "#123456"}, {"width": 2.0, "label": "x"}])
def test_unknown_style_key_is_refused(style):
    key = next(k for k in style if k not in ("color", "width", "dash"))
    with pytest.raises(RenderError, match=f"^unknown style key {key!r}; expected color, "
                                          "width or dash$"):
        render_svg(**_spec(series=[(_curve(), {}), (_curve("b"), style)]))


def test_lines_are_sampled_and_clipped():
    # the cost line of (fpr, tpr) = (0.2, 0.7) and the accuracy 0.8 isometric,
    # each a two-vertex Curve over x in [0, 1]; the isometric leaves the y range
    points = RocCurve([np.nan, 0.5, 0.1], [0, 7, 10], [0, 1, 5], n_p=10, n_n=5)
    line = cost_lines(points, PRIORS)[1]
    fprs = np.array([0.0, 1.0])
    gradient, intercepts = isometric_lines("accuracy", np.array([0.8]), PRIORS)
    iso = Curve(xs=fprs, ys=gradient * fprs + intercepts[0], series="accuracy=0.8")
    text = render_svg(**_spec(series=[(line, {}), (iso, {})], y_range=(0.0, 0.5)))
    root = ET.fromstring(text)
    assert ">line fpr=0.2 tpr=0.7<" in text and ">accuracy=0.8<" in text
    paths = [e.get("d") for e in root.iter() if e.tag.endswith("path")]
    assert len(paths) == 2
    right = render._WIDTH - render._MARGIN_RIGHT
    bottom = render._HEIGHT - render._MARGIN_BOTTOM
    for d in paths:
        nums = [float(v) for v in re.findall(r"-?\d+\.\d+", d)]
        assert all(render._MARGIN_LEFT <= x <= right for x in nums[0::2])
        assert all(render._MARGIN_TOP <= y <= bottom for y in nums[1::2])


@pytest.mark.parametrize("key", ["", "named"])
@pytest.mark.parametrize("data", [(np.zeros(2), np.ones(2), "triple"),
                                  (np.zeros(2), np.ones(2)), None])
def test_non_curve_series_is_refused(data, key):
    # before its style is read: an unknown key there does not hide it
    style = {key: 1} if key else {}
    with pytest.raises(RenderError, match=f"cannot plot object of type {type(data).__name__}$"):
        render_svg(**_spec(series=[(_curve(), {}), (data, style)]))


def test_out_of_range_series_is_dropped_not_drawn():
    # a curve entirely above the window contributes no path segment
    xs = np.linspace(0.0, 1.0, 5)
    high = Curve(xs=xs, ys=xs + 5.0, series="high")
    base = render_svg(**_spec())
    both = render_svg(**_spec(series=[(_curve(), {}), (high, {})]))
    assert both.count("<path") == base.count("<path") + 0


def test_escapes_markup_in_labels():
    text = render_svg(**_spec(title="a < b & c"))
    assert "a &lt; b &amp; c" in text
    ET.fromstring(text)


def test_rejects_empty_series():
    with pytest.raises(RenderError):
        render_svg(**_spec(series=[]))


def test_rejects_bad_ranges():
    with pytest.raises(RenderError):
        render_svg(**_spec(x_range=(1.0, 0.0)))
    with pytest.raises(RenderError):
        render_svg(**_spec(y_range=(0.0, float("nan"))))


def test_rejects_overflowing_range_span():
    # finite ends whose difference overflows would reach the ticks as inf
    for ranges in (dict(x_range=(-1e308, 1e308)), dict(y_range=(-1e308, 1e308))):
        with pytest.raises(RenderError, match="plot range spans must be finite"):
            render_svg(**_spec(**ranges))


def test_rejects_non_finite_curve():
    xs = np.array([0.0, 0.5, 1.0])
    ys = np.array([0.0, np.inf, 1.0])
    bad = Curve(xs=xs, ys=ys, series="model")
    with pytest.raises(RenderError, match="non-finite"):
        render_svg(**_spec(series=[(bad, {})]))


def test_curve_x_may_repeat_and_go_back():
    # an ROC staircase, say: drawn vertex by vertex, in order, with the path
    # and file bytes the former separate staircase type gave
    stairs = Curve(xs=[0.0, 0.0, 0.5, 0.5, 0.2], ys=[0.0, 0.4, 0.4, 0.9, 0.9], series="stairs")
    text = render_svg(**_spec(series=[(stairs, {})]))
    ET.fromstring(text)
    assert "stairs" in text
    assert re.findall(r'<path d="([^"]*)"', text) == [
        "M 58.00 428.00 L 58.00 273.60 L 305.00 273.60 L 305.00 80.60 L 156.80 80.60"]
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9ad17c39f6d52fbaf97c29e1d9bf1dcce058ab7c32c1465f4910cc1a705f8af6")


def test_rejects_non_finite_x():
    bad = Curve(xs=[0.0, np.inf], ys=[0.0, 1.0], series="stairs")
    with pytest.raises(RenderError, match="non-finite value at x=inf"):
        render_svg(**_spec(series=[(bad, {})]))


def test_write_svg(tmp_path):
    path = tmp_path / "plot.svg"
    write_svg(**_spec(), path=str(path))
    assert path.read_text(encoding="utf-8") == render_svg(**_spec())


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
    # thinning straight runs, and clipping only the segments with an end
    # outside the box, leave every text as clipping every vertex did
    assert got == path_data_unthinned_oracle(polylines, box, _px, _py)
    assert got == path_data_unthinned_oracle(polylines, box, _px, _py, clip_all=True)
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


# inside the box, on its edges, just beyond them and far out; repeated
# values make flat segments (dx == 0 or dy == 0)
VERTEX = st.tuples(st.sampled_from([-0.5, -0.025, -0.02, 0.0, 0.3, 0.3, 1.0, 1.02, 1.025, 1.7])
                   | st.floats(-0.6, 1.6),
                   st.sampled_from([-0.5, -0.025, -0.02, 0.0, 0.6, 1.0, 1.02, 1.025, 2.0])
                   | st.floats(-0.6, 1.6))


@given(st.lists(st.lists(VERTEX, min_size=1, max_size=12), min_size=1, max_size=4),
       st.integers(1, 4))
@example([[(0.5, 0.5), (1.025, 0.5), (0.5, -0.025), (-0.025, 0.5), (-0.025, 1.025)]], 2)
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


def test_straight_runs_reach_the_clip_as_their_corners():
    # the staircase above: each run of positives or of negatives is one
    # segment, so only its ends and the two ends of the curve are clipped
    rng = np.random.default_rng(11)
    pos = rng.random(60_000) < 0.1
    fpr = np.concatenate(([0.0], np.cumsum(~pos) / np.count_nonzero(~pos)))
    tpr = np.concatenate(([0.0], np.cumsum(pos) / np.count_nonzero(pos)))
    corners = [0, *(np.flatnonzero(pos[1:] != pos[:-1]) + 1).tolist(), pos.size]
    xs, ys = render._unbent(fpr, tpr, BOX)
    assert xs.tolist() == fpr[corners].tolist() and ys.tolist() == tpr[corners].tolist()


@pytest.mark.parametrize("xs, ys", [
    ([0.0, 0.0, 0.0], [0.0, 1.0, 0.5]),  # the run turns back
    ([0.5, 0.5, 0.5, 0.8], [0.1, 0.11, 0.41, 0.41]),  # 0.1 + (0.41 - 0.1) is not 0.41
    ([0.5, 0.5, 0.5], [0.5, 0.9, 1.5]),  # the run leaves the box
    ([0.2, 0.8, 0.5], [0.3, 0.3, 0.3]),  # and across
    ([0.0, 0.0, 0.0, 0.0], [0.0, 0.3, 0.3, 0.04999999999999999]),  # past a repeated vertex
])
def test_runs_the_clip_could_draw_otherwise_keep_their_vertices(xs, ys):
    xs, ys = np.array(xs), np.array(ys)
    assert render._unbent(xs, ys, BOX)[0].size == xs.size
    _same_path(xs, ys)


# render_svg against its text with the unthinned path builder, on series
# whose segments are mostly vertical or horizontal: runs that turn back,
# cross the box edge, repeat a vertex or end inexactly, two-vertex series,
# ROC staircases with ties, several series a plot
STEP = st.sampled_from([0.0, -0.0, 0.01, -0.01, 0.1, 0.3, -0.5, 1e-17, 0.00101, 0.123]) \
    | st.floats(-1.2, 1.2)
START = st.sampled_from([0.0, 0.1, 0.5, -0.02, 1.02, 1.1, -0.3]) | st.floats(-0.3, 1.3)


@st.composite
def axis_runs(draw):
    x, y = draw(START), draw(START)
    xs, ys = [x], [y]
    for across, steps in draw(st.lists(st.tuples(st.booleans(), st.lists(STEP, min_size=1,
                                                                         max_size=6)),
                                       min_size=1, max_size=8)):
        for step in steps:
            x, y = (x + step, y) if across else (x, y + step)
            xs.append(x)
            ys.append(y)
    return xs, ys


@st.composite
def roc_staircases(draw):
    curve = operating_points(draw(datasets()))
    return curve.fprs, curve.tprs


@given(st.lists(axis_runs() | roc_staircases(), min_size=1, max_size=4),
       st.sampled_from([(-0.02, 1.02), (0.1, 0.9), (0.0, 1.0)]))
@example([([0.5, 0.5, 0.5, 0.8], [0.1, 0.11, 0.41, 0.41])], (-0.02, 1.02))
@example([([0.0, 0.0, 0.0], [0.0, 1.0, 0.5]), ([0.3, 0.3], [0.2, 0.2])], (0.0, 1.0))
@example([([0.0, 0.0, 0.0, 0.0], [0.0, 0.3, 0.3, 0.04999999999999999])], (-0.02, 1.02))
def test_render_svg_is_the_unthinned_text(polylines, box):
    spec = _spec(series=[(Curve(xs=xs, ys=ys, series=f"s{k}"), {})
                         for k, (xs, ys) in enumerate(polylines)], x_range=box, y_range=box)
    got = render_svg(**spec)
    with mock.patch.object(render, "_path_data", path_data_unthinned_oracle):
        assert got == render_svg(**spec)


def test_a_segment_off_the_box_by_a_subnormal_rise_is_dropped_without_a_warning():
    # below the box, dy = 1e-310 makes q / p overflow to t0 = inf, and the
    # end point x1 + t0 * dx is inf * 0; the segment is dropped, and under
    # the tests' warning filter the NaN it leaves is no error
    xs, ys = [0.5, 0.5], [0.0, 1e-310]
    svg = render_svg("t", "x", "y", [(Curve(xs, ys, "s"), {})], (0.1, 0.9), (0.1, 0.9))
    assert "<path" not in svg
    assert _same_path(xs, ys, (0.1, 0.9, 0.1, 0.9)) == ""


def test_overflowing_segment_is_refused():
    # finite values whose difference overflows would clip to NaN coordinates
    for xs, ys in (([-1e308, 1e308, 0.5], [0.5, 0.5, 0.2]), ([0.5, 0.5], [1e308, -1e308])):
        wide = Curve(xs=xs, ys=ys, series="wide")
        with pytest.raises(RenderError, match="'wide' has a segment whose dx or dy overflows"):
            render_svg(**_spec(series=[(_curve(), {}), (wide, {})]))


@given(st.lists(st.one_of(st.floats(-4.5e13, 4.5e13),
                          st.integers(0, 8 * 10**7).map(lambda k: k / 800),
                          st.integers(-10**6, 10**6).map(lambda k: (2 * k + 1) / 200),
                          st.integers(0, 10**7).map(lambda k: k / 200 + 1e-12)), min_size=1))
@example([0.125, 0.375, -0.125, 2.675, -2.675, 1.005, 0.015, 1.115, 8.345, 0.285,
          0.0, -0.0, -0.001, 5e-324, 4.5e13])
def test_centipixels_are_the_printed_digits(values):
    # k / 800 and k / 200 hit the halves of a centipixel exactly or nearly:
    # 100 x rounds to a half as a double where x is not one, so 2.675
    # prints as 2.67 and 8.345 as 8.35, and 0.125, a half, goes to even
    v = np.array(values)
    want = [int(f"{x:.2f}".replace(".", "")) for x in values]
    assert render._centipixels(v).tolist() == want


# The path text writer against the "L {:.2f} {:.2f}".format it replaces.

COORDINATE = st.one_of(st.floats(0.0, 999.99), st.integers(0, 799_995).map(lambda k: k / 800),
                       st.sampled_from([0.0, 0.004, 0.005, 9.995, 99.995, 999.99, 999.994]))


@given(st.lists(st.tuples(COORDINATE, COORDINATE, st.booleans()), max_size=40),
       st.lists(st.integers(0, 40), max_size=4))
def test_path_texts_are_the_format_texts(vertices, cuts):
    x, y = (np.array([v[k] for v in vertices], dtype=np.float64) for k in (0, 1))
    heads = np.array([v[2] for v in vertices], dtype=bool)
    bounds = sorted({0, len(vertices), *(min(c, len(vertices)) for c in cuts)})
    parts = [("M" if h else "L") + " {:.2f} {:.2f}".format(a, b)
             for a, b, h in zip(x.tolist(), y.tolist(), heads.tolist())]
    want = [" ".join(parts[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    got = render._path_texts(render._path_centipixels(x), render._path_centipixels(y),
                             heads, bounds)
    assert got == want


@pytest.mark.parametrize("v", [-0.0, -0.001, -3.0, 999.995, 1000.0, 1e300, np.nan])
def test_path_coordinates_without_room_in_the_frame_are_refused(v):
    with pytest.raises(RenderError, match="outside the 0 to 999.99 px"):
        render._path_centipixels(np.array([1.0, v]))

import gc
import json
import os
import stat
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opcurves import output
from opcurves.output import Outputs, Records, replaces, rows, write_text, xy_csv
from helpers import json_text, rows_oracle

FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, float("nan"),
                                                 float("inf"), float("-inf")]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, st.text())
KEYS = st.one_of(st.text(), st.text(alphabet="%{}\"\\é☃\n", max_size=4))
JSON_TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.tuples(inner, inner),
                            st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=30)


@given(JSON_TREES)
def test_json_text_is_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@given(st.lists(FLOATS, max_size=30), st.integers(0, 3))
def test_float_arrays_are_their_lists(values, depth):
    arr = np.array(values, dtype=np.float64)
    obj, ref = arr, arr.tolist()
    for _ in range(depth):
        obj, ref = {"v": [obj]}, {"v": [ref]}
    assert json_text(obj) == json.dumps(ref, indent=2)


@given(st.integers(1, 12), st.lists(KEYS, min_size=1, max_size=4, unique=True),
       st.data())
def test_records_are_their_list_of_objects(n, keys, data):
    columns = {}
    for k in keys:
        cells = data.draw(st.sampled_from([FLOATS, st.booleans()]))
        columns[k] = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)))
    rows = [dict(zip(keys, vals)) for vals in zip(*(c.tolist() for c in columns.values()))]
    obj = {"head": 1, "per_t": Records(columns), "tail": [Records(columns)]}
    ref = {"head": 1, "per_t": rows, "tail": [rows]}
    assert json_text(obj) == json.dumps(ref, indent=2)


def test_records_need_equal_1d_columns():
    with pytest.raises(ValueError):
        Records({})
    with pytest.raises(ValueError):
        Records({"a": np.zeros(2), "b": np.zeros(3)})
    with pytest.raises(ValueError):
        Records({"a": np.zeros((2, 2))})


@pytest.mark.parametrize("obj", [np.int64(3), {1, 2}, np.bool_(True), object(),
                                 {(1, 2): 3}])
def test_unserializable_objects_raise_type_error(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        json_text(obj)


@pytest.mark.parametrize("obj", [{1: 2}, {None: 1}, np.arange(3), np.zeros((2, 2))])
def test_outside_the_supported_subset_raises_type_error(obj):
    with pytest.raises(TypeError):
        json_text(obj)


@pytest.mark.parametrize("n", [0, 1, 5, (1 << 14) + 3, 3 * (1 << 14)])
def test_csv_rows_match_repr_rows(n):
    rng = np.random.default_rng(n)
    xs, ys = rng.random(n), rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    want = "".join(f"{float(x)!r},{float(y)!r},a{{b}}%s\n" for x, y in zip(xs, ys))
    assert "".join(rows([xs, ys], ["", ",", ",a{b}%s\n"])) == want


def test_rows_refuse_what_they_cannot_write():
    x = np.zeros(3)
    for pieces in (["", ""], ["", ",", "\0\n"]):
        with pytest.raises(ValueError):
            list(rows([x, x], pieces))
    with pytest.raises(ValueError):
        list(rows([np.array([0, 10**4])], ["", "\n"]))
    assert "".join(rows([np.array([0, 7, 9999]), np.array([True, False, True])],
                        ["", ",", "\n"])) == "0,true\n7,false\n9999,true\n"


def test_rows_refuse_columns_they_cannot_pair():
    for columns, pieces in (([], ["x"]), ([np.zeros(2), np.ones(1)], ["", ",", "\n"]),
                            ([np.zeros((2, 2))], ["", "\n"]), ([np.float64(1.0)], ["", "\n"])):
        with pytest.raises(ValueError, match="1-d columns of one length"):
            list(rows(columns, pieces))


# rows() against the writer it replaced (helpers.rows_oracle): every row's
# words expanded and each frame a new concatenation. The lengths straddle
# a frame (4,096 rows) and a chunk (32,768 cells: 32,768, 16,384 or 10,922
# rows for one to three columns).
LENGTHS = st.sampled_from([4095, 4096, 4097, 8192, 8193, 10922, 10923, 16383, 16384,
                           16385, 32767, 32768, 32769]) | st.integers(1, 300)


@st.composite
def table_columns(draw, n):
    """A float column of runs of equal values (NaN, the infinities and
    -0.0 among them) over a fraction of distinct ones, a bool column or an
    int column, of n rows."""
    kind = draw(st.sampled_from(["f", "f", "b", "i"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "b":
        return rng.random(n) < draw(st.floats(0.0, 1.0))
    if kind == "i":
        dtype, top = draw(st.sampled_from([(np.int8, 128), (np.int64, 10**4)]))
        return rng.integers(0, top, n).astype(dtype)
    values = draw(st.lists(FLOATS, min_size=1, max_size=6))
    runs = rng.integers(1, draw(st.sampled_from([2, 50, 5000])), len(values))
    column = np.resize(np.repeat(np.array(values, dtype=np.float64), runs), n)
    distinct = rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]))
    column[distinct] = rng.random(np.count_nonzero(distinct)) * 10.0 ** rng.integers(-6, 18)
    return column


@given(st.data(), LENGTHS, st.sampled_from([1, 2, 3, 8]), st.booleans())
def test_rows_are_the_oracles_text(data, n, k, json_floats):
    columns = [data.draw(table_columns(n)) for _ in range(k)]
    pieces = ["", *(data.draw(st.sampled_from([",", ", ", ",\n  \"é\": "])) for _ in columns[1:]),
              data.draw(st.sampled_from(["\n", ",tag\n"]))]
    if k == 8:
        # objects of a Records table, as compare's per_t: a row of 100 words
        # or so, whose frame holds about _CHUNK words and not _FRAME_ROWS rows
        keys = [f'"c{i}": ' for i in range(k)]
        pieces = ["{\n      " + keys[0], *(",\n      " + key for key in keys[1:]), "\n    }"]
    fallback = output._json_float if json_floats else float.__repr__
    want = rows_oracle(columns, pieces, fallback)
    assert "".join(rows(columns, pieces, fallback)) == want
    for column in columns:
        column.flags.writeable = False
    with Outputs():  # read-only float columns of a chunk or less are held
        assert "".join(rows(columns, pieces, fallback)) == want
        assert "".join(rows(columns, pieces, fallback)) == want
        assert "".join(rows(columns[:1], ["[", "]"], fallback)) == rows_oracle(
            columns[:1], ["[", "]"], fallback)


def test_integer_columns_of_every_width_write_the_same_text():
    # an int8 column indexes the digit table as it is: no integer is added
    # to it, which under NEP 50 would not fit its dtype
    values = [0, 1, 9, 10, 99, 100, 127, 0, 1]
    want = "".join(f"{v},{v % 2}\n" for v in values)
    for dtype in (np.int8, np.uint8, np.int16, np.int64, np.uint64):
        column = np.array(values, dtype=dtype)
        labels = np.array(values, dtype=dtype) % 2
        assert "".join(rows([column, labels], ["", ",", "\n"])) == want, dtype
    # a bool column of the same 0/1 values is written as JSON's booleans
    flags = np.array(values) % 2
    assert "".join(rows([flags.astype(np.int8), flags.astype(bool)], ["", ",", "\n"])) == \
        "".join(f"{v},{'true' if v else 'false'}\n" for v in flags.tolist())


def _repr_lines(values) -> str:
    return "".join(f"{v!r}\n" for v in np.asarray(values, dtype=np.float64).tolist())


def _lines(values) -> str:
    return "".join(rows([np.asarray(values, dtype=np.float64)], ["", "\n"]))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 17, 50, 300])
def test_encoder_is_repr_across_binades(k):
    values = np.random.default_rng(k).random(50_000) ** k
    assert _lines(values) == _repr_lines(values)


def test_encoder_is_repr_for_the_rates_of_a_large_n():
    n = 999_983
    assert _lines(np.arange(n + 1) / n) == _repr_lines(np.arange(n + 1) / n)


def test_encoder_is_repr_for_every_six_digit_decimal():
    values = np.arange(10**6) / 10**6
    assert _lines(values) == _repr_lines(values)


def test_encoder_is_repr_for_negatives_and_values_of_one_or_more():
    rng = np.random.default_rng(3)
    values = rng.random(100_000) * 10.0 ** rng.integers(-5, 17, 100_000)
    values[::2] *= -1
    grid = np.arange(-2000, 2000) * 0.25  # integers and short fractions
    exact = np.array([1.0, 10.0, 1e14, 999999999999999.9, 1e15, 1e16, 0.1, 1e-4,
                      np.nextafter(1e-4, 0.0), np.nextafter(1e15, 0.0), 123456789012.5])
    for group in (values, grid, exact, -exact, 1.0 / exact):
        assert _lines(group) == _repr_lines(group)


@given(st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True), max_size=60))
def test_encoded_json_arrays_are_json_dumps(values):
    arr = np.array(values, dtype=np.float64)
    assert json_text({"v": arr}) == json.dumps({"v": arr.tolist()}, indent=2)


def _fallback_values(values) -> set[float]:
    """The values rows() sends to the repr fallback, after checking its text."""
    seen = []

    def spy(vals, fallback, width):
        seen.extend(vals.tolist())
        return fallback_words(vals, fallback, width)

    fallback_words = output._fallback_words
    with mock.patch.object(output, "_fallback_words", side_effect=spy):
        assert _lines(values) == _repr_lines(values)
    return set(seen)


def test_powers_of_two_and_their_neighbours_reach_the_fallback():
    powers = 2.0 ** np.arange(-13, 50)
    planted = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    planted = planted[(planted >= 1e-4) & (planted < 1e15)]
    others = np.random.default_rng(0).random(1000)
    values = np.concatenate([planted, -planted, others])
    reached = _fallback_values(values)
    assert set(np.concatenate([planted, -planted]).tolist()) <= reached
    assert len(reached) < planted.size * 2 + 10


def test_values_at_a_rounding_tie_reach_the_fallback():
    # an odd j / 2**18 in (0.25, 0.5) has 18 digits after the point, the
    # last a 5: a tie of its two 17-digit neighbours; j / 2**17 is one of
    # the 16-digit ones; I + 0.125 at 10**14 one of the 17 digits I.12 and I.13
    rng = np.random.default_rng(1)
    odd = 2 * rng.integers(1 << 15, (1 << 16) - 1, 500) + 1
    ties = np.concatenate([odd / 2.0 ** 18, odd / 2.0 ** 17,
                           rng.integers(10**14, 10**15, 500) + 0.125])
    assert set(ties.tolist()) <= _fallback_values(ties)


def test_rows_encode_each_run_head_once():
    c = 1 << 14  # the rows of a chunk of two columns
    other_nan = (np.array([np.nan]).view(np.int64) ^ 1).view(np.float64)[0]
    # runs across both chunk boundaries, 0.0 next to -0.0, two NaN payloads
    xs = np.repeat([0.1, -0.0, 0.0, np.nan, other_nan, np.inf, -np.inf, 0.3],
                   [c - 3, 2, 2, 3, 2, 1, 1, c + 5])
    ys = np.arange(xs.size) // 7 / 3
    want = "".join(f"{x!r},{y!r},t\n" for x, y in zip(xs.tolist(), ys.tolist()))
    with mock.patch.object(output, "_float_words", wraps=output._float_words) as enc:
        assert "".join(rows([xs, ys], ["", ",", ",t\n"])) == want
    heads = [call.args[0] for call in enc.call_args_list]
    for lo, (x_heads, y_heads) in zip(range(0, xs.size, c), zip(heads[::2], heads[1::2])):
        for column, got in ((xs, x_heads), (ys, y_heads)):
            bits = column[lo:lo + c].view(np.int64)
            first = np.concatenate([[True], bits[1:] != bits[:-1]])
            assert got.view(np.int64).tolist() == bits[first].tolist()


def test_json_arrays_and_records_encode_run_heads_once():
    grid = np.repeat(np.linspace(0.0, 1.0, 41), 3)
    obj = {"grid": grid, "series": [{"x": grid, "y": grid * k} for k in range(3)],
           "per_t": Records({"t": grid, "v": -grid, "ok": grid > 0.5}), "other": np.arange(3.0)}
    ref = {"grid": grid.tolist(),
           "series": [{"x": grid.tolist(), "y": (grid * k).tolist()} for k in range(3)],
           "per_t": [{"t": t, "v": -t, "ok": t > 0.5} for t in grid.tolist()],
           "other": [0.0, 1.0, 2.0]}
    with mock.patch.object(output, "_float_words", wraps=output._float_words) as enc:
        assert json_text(obj) == json.dumps(ref, indent=2)
    # 41 runs in grid, each x, the y of k = 1 and 2, t and v; one run of
    # zeros in the y of k = 0; 3 in other
    sizes = [call.args[0].size for call in enc.call_args_list]
    assert sizes == [41, 41, 1, 41, 41, 41, 41, 41, 41, 3]


def test_json_writes_a_finite_float_in_doubt_with_repr():
    # every value here is in doubt for the encoder: zeros, the least
    # subnormal, one below 1e-4, one at 1e15 or more, NaN and the infinities
    values = [0.0, -0.0, 5e-324, 1e-5, 1e16, float("nan"), float("inf"), float("-inf")]
    want = json.dumps(values, indent=2)
    with mock.patch.object(output.json, "dumps", wraps=json.dumps) as dumps:
        got = "".join(output._json_chunks(np.array(values)))
    assert got == want
    reached = [call.args[0] for call in dumps.call_args_list]
    assert len(reached) == 3 and np.isnan(reached[0]) and reached[1:] == [np.inf, -np.inf]


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _encoded(run) -> list[np.ndarray]:
    """The arrays run() hands _float_words."""
    with mock.patch.object(output, "_float_words", wraps=output._float_words) as enc:
        run()
    return [call.args[0] for call in enc.call_args_list]


def test_an_outputs_block_encodes_each_read_only_column_once(tmp_path):
    grid = _frozen(np.arange(100) / 99)
    ys = [_frozen(grid * (k + 1)) for k in range(3)]
    series = [(grid, y, f"s{k}") for k, y in enumerate(ys)]
    doc = {"grid": grid, "series": [{"x": x, "y": y} for x, y, _ in series]}

    def run():
        with Outputs() as out:
            out.add(str(tmp_path / "a.csv"), xy_csv(series))
            out.add(str(tmp_path / "a.json"), json_text(doc))

    # the grid once and each y once, across the CSV and the JSON
    assert [a.size for a in _encoded(run)] == [100] * 4
    assert (tmp_path / "a.csv").read_text() == "x,y,series\n" + "".join(
        f"{x!r},{y!r},s{k}\n" for k, y in enumerate(ys) for x, y in zip(grid.tolist(), y.tolist()))
    assert json.loads((tmp_path / "a.json").read_text()) == {
        "grid": grid.tolist(), "series": [{"x": grid.tolist(), "y": y.tolist()} for y in ys]}
    assert output._memo.get() is None


def test_an_outputs_block_frames_a_held_column_once_per_indentation(tmp_path):
    # a.json has the grid at one indentation and the x of two series at
    # another, b.json two arrays at a third: three frames, or five for a
    # grid that may change
    grid = _frozen(np.arange(100) / 99)
    for column, frames in ((grid, 3), (grid.copy(), 5)):
        doc = {"grid": column, "series": [{"x": column}, {"x": column}]}
        with mock.patch.object(output, "_frame_text", wraps=output._frame_text) as frame:
            with Outputs() as out:
                out.add(str(tmp_path / "a.json"), json_text(doc))
                out.add(str(tmp_path / "b.json"), json_text({"x": [column, column]}))
        assert frame.call_count == frames
        want = {"grid": grid.tolist(), "series": [{"x": grid.tolist()}] * 2}
        assert (tmp_path / "a.json").read_text() == json.dumps(want, indent=2)
        assert (tmp_path / "b.json").read_text() == json.dumps({"x": [grid.tolist()] * 2},
                                                                indent=2)


def test_a_shared_column_keeps_each_writers_text_for_nan_and_infinities(tmp_path):
    odd = _frozen([np.nan, 0.25, np.inf, -np.inf, -0.0, 0.0, 1e300, 2.0 ** -30])
    plain = _frozen([0.5, -0.0, 1.0])

    def run():
        with Outputs() as out:
            out.add(str(tmp_path / "a.csv"), xy_csv([(odd, odd, "odd"), (plain, plain, "plain")]))
            out.add(str(tmp_path / "a.json"), json_text({"odd": odd, "plain": plain}))
            out.add(str(tmp_path / "b.csv"), xy_csv([(odd, odd, "odd")]))

    # odd once for repr and once for JSON's NaN and Infinity; plain once
    assert [a.size for a in _encoded(run)] == [8, 3, 8]
    assert (tmp_path / "a.csv").read_text() == "x,y,series\n" + "".join(
        f"{v!r},{v!r},{tag}\n" for arr, tag in ((odd, "odd"), (plain, "plain"))
        for v in arr.tolist())
    assert (tmp_path / "b.csv").read_text() == "x,y,series\n" + "".join(
        f"{v!r},{v!r},odd\n" for v in odd.tolist())
    assert (tmp_path / "a.json").read_text() == json.dumps(
        {"odd": odd.tolist(), "plain": plain.tolist()}, indent=2)


def test_a_column_that_may_change_is_encoded_each_time(tmp_path):
    writable = np.linspace(0.0, 1.0, 50)
    view = writable[:]
    view.flags.writeable = False  # read-only, but a view of a writable array

    def run():
        with Outputs() as out:
            for k, column in enumerate([writable, writable, view, view]):
                out.add(str(tmp_path / f"{k}.csv"), rows([column], ["", "\n"]))

    assert len(_encoded(run)) == 4


def test_a_column_longer_than_a_chunk_streams_and_nothing_is_held(tmp_path):
    c = 1 << 14  # the rows of a chunk of two columns
    long, short = _frozen(np.arange(c + 5) / 7), _frozen(np.arange(10) / 7)
    refs = [weakref.ref(long), weakref.ref(short)]

    def run():
        with Outputs() as out:
            for name in ("a.csv", "b.csv"):
                out.add(str(tmp_path / name), xy_csv([(long, long, "l"), (short, short, "s")]))
            held = {id(column) for column, _ in output._memo.get().values()}
            assert held == {id(short)}
            with Outputs() as inner:  # a block inside keeps its own memo
                inner.add(str(tmp_path / "c.csv"), xy_csv([(short, short, "s")]))
            assert {id(column) for column, _ in output._memo.get().values()} == held

    # two chunks of each long column per file; the short one once a block
    assert [a.size for a in _encoded(run)] == [c, c, 5, 5, 10, c, c, 5, 5, 10]
    want = "x,y,series\n" + "".join(f"{v!r},{v!r},{tag}\n" for arr, tag in ((long, "l"), (short, "s"))
                                   for v in arr.tolist())
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text() == want
    assert output._memo.get() is None
    del long, short
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_held_column_gives_its_words_to_a_table_of_several_chunks(tmp_path):
    # compare writes the grid whole, then as the t of per_t's chunked rows
    grid = _frozen(np.arange(20_000) / 19_999)
    v = -grid  # writable, so encoded a chunk at a time
    doc = {"grid": grid, "per_t": Records({"t": grid, "v": v, "ok": grid > 0.5})}

    def run():
        with Outputs() as out:
            out.add(str(tmp_path / "a.json"), json_text(doc))

    size = (1 << 15) // 3  # the rows of a chunk of three columns
    assert [a.size for a in _encoded(run)] == [20_000, size, 20_000 - size]
    assert (tmp_path / "a.json").read_text() == json.dumps(
        {"grid": grid.tolist(), "per_t": [{"t": t, "v": -t, "ok": t > 0.5}
                                          for t in grid.tolist()]}, indent=2)


class TestWriteText:
    def test_writes_text_and_chunks(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(str(path), "café\n")
        assert path.read_bytes() == "café\n".encode("utf-8")
        write_text(str(path), iter(["a\n", "b\r\n"]))
        assert path.read_bytes() == b"a\nb\r\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_mode_matches_a_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        write_text(str(tmp_path / "atomic.txt"), "x")
        assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(plain).st_mode

    def test_failure_keeps_the_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")

        def chunks():
            yield "new"
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            write_text(str(path), chunks())
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "nope" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            write_text(str(path), "x")
        assert info.value.filename == str(path)
        assert os.listdir(tmp_path) == []

    def test_an_old_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        os.chmod(path, 0o640)
        write_text(str(path), "new")
        assert path.read_text() == "new"
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_a_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("old")
        link.symlink_to(target)
        assert not replaces(str(link))
        write_text(str(link), iter(["a", "b"]))
        assert link.is_symlink() and target.read_text() == "ab"
        dangling = tmp_path / "dangling.txt"
        dangling.symlink_to(tmp_path / "made.txt")
        write_text(str(dangling), "x")
        assert dangling.is_symlink() and (tmp_path / "made.txt").read_text() == "x"

    def test_a_hard_linked_file_is_written_in_place(self, tmp_path):
        path, twin = tmp_path / "out.txt", tmp_path / "twin.txt"
        path.write_text("old")
        os.link(path, twin)
        assert not replaces(str(path))
        write_text(str(path), "new")
        assert twin.read_text() == "new"
        assert os.stat(path).st_ino == os.stat(twin).st_ino

    def test_a_fifo_is_written_through(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        assert not replaces(str(fifo))
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_text(str(fifo), iter(["x,y\n", "é\n"]))
        reader.join(timeout=10)
        assert got == ["x,y\né\n".encode("utf-8")]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]


def _failing(text):
    yield text
    raise OSError(28, "No space left on device")


class TestOutputs:
    def test_all_targets_are_replaced_in_order(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("old a")
        with Outputs() as out:
            out.add(str(a), "new a")
            out.add(str(b), iter(["new ", "b"]))
            assert a.read_text() == "old a" and not b.exists()
        assert (a.read_text(), b.read_text()) == ("new a", "new b")
        assert out.paths == [str(a), str(b)]
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]

    def test_a_failed_second_output_keeps_both_targets(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("old a")
        b.write_text("old b")
        with pytest.raises(OSError, match="No space"):
            with Outputs() as out:
                out.add(str(a), "new a")
                out.add(str(b), _failing("new b"))
        assert (a.read_text(), b.read_text()) == ("old a", "old b")
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]

    def test_a_failure_between_outputs_writes_none(self, tmp_path):
        a = tmp_path / "a.txt"
        with pytest.raises(RuntimeError):
            with Outputs() as out:
                out.add(str(a), "new a")
                raise RuntimeError("computing the next output failed")
        assert os.listdir(tmp_path) == []

    def test_a_symlink_is_written_only_when_every_output_is_ready(self, tmp_path):
        target, link, b = tmp_path / "target.txt", tmp_path / "link.txt", tmp_path / "b.txt"
        target.write_text("old")
        link.symlink_to(target)
        with pytest.raises(OSError):
            with Outputs() as out:
                out.add(str(link), "new")
                out.add(str(b), _failing("new b"))
        assert target.read_text() == "old" and not b.exists()
        with Outputs() as out:
            out.add(str(link), iter(["ne", "w"]))
            out.add(str(b), "new b")
        assert (target.read_text(), b.read_text()) == ("new", "new b")
        assert link.is_symlink()

    def test_a_failed_replace_names_the_target_and_leaves_no_temp(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError(28, "No space left on device", src)

        monkeypatch.setattr(os, "replace", fail)
        path = tmp_path / "a.txt"
        with pytest.raises(OSError) as info:
            with Outputs() as out:
                out.add(str(path), "x")
        assert info.value.filename == str(path)
        assert os.listdir(tmp_path) == []

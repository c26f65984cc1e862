import json
import os
import stat
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opcurves import output
from opcurves.output import (Outputs, Records, csv_rows, json_text, replaces, write_text,
                             xy_csv)

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
    assert "".join(csv_rows(xs, ys, "a{b}%s")) == want


class _CountingFloat:
    """Stands in for float in opcurves.output, counting float.__repr__ calls."""
    calls = 0

    @staticmethod
    def __repr__(x):
        _CountingFloat.calls += 1
        return float.__repr__(x)


def _runs(values):
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return int(bits.size and 1 + np.count_nonzero(bits[1:] != bits[:-1]))


def test_csv_rows_format_each_run_once():
    c = output._CSV_CHUNK
    other_nan = (np.array([np.nan]).view(np.int64) ^ 1).view(np.float64)[0]
    # runs across both chunk boundaries, 0.0 next to -0.0, two NaN payloads
    xs = np.repeat([0.1, -0.0, 0.0, np.nan, other_nan, np.inf, -np.inf, 0.3],
                   [c - 3, 2, 2, 3, 2, 1, 1, c + 5])
    ys = np.arange(xs.size) // 7 / 3
    want = "".join(f"{x!r},{y!r},t\n" for x, y in zip(xs.tolist(), ys.tolist()))
    _CountingFloat.calls = 0
    with mock.patch.object(output, "float", _CountingFloat, create=True):
        assert "".join(csv_rows(xs, ys, "t")) == want
    assert _CountingFloat.calls == _runs(xs) + _runs(ys) == 8 + -(-xs.size // 7)


def test_xy_csv_formats_a_shared_x_array_once():
    grid = np.linspace(0.0, 1.0, 3 * output._CSV_CHUNK)
    series = [(grid, grid * k, f"s{k}") for k in range(3)] + [(grid * 2, grid + 1, "own")]
    want = "x,y,series\n" + "".join(
        f"{x!r},{y!r},{tag}\n" for xs, ys, tag in series for x, y in zip(xs.tolist(), ys.tolist()))
    with mock.patch.object(output, "_repr_chunks", wraps=output._repr_chunks) as fmt:
        assert "".join(xy_csv(series)) == want
    assert [a.args[0] is grid for a in fmt.call_args_list].count(True) == 1
    assert fmt.call_count == 6


def test_json_text_formats_a_shared_array_once():
    grid = np.linspace(0.0, 1.0, 41)
    obj = {"grid": grid, "series": [{"x": grid, "y": grid * k} for k in range(3)],
           "per_t": Records({"t": grid, "v": -grid}), "other": np.arange(3.0)}
    ref = {"grid": grid.tolist(),
           "series": [{"x": grid.tolist(), "y": (grid * k).tolist()} for k in range(3)],
           "per_t": [{"t": t, "v": -t} for t in grid.tolist()], "other": [0.0, 1.0, 2.0]}
    with mock.patch.object(output, "_scalar_texts", wraps=output._scalar_texts) as fmt:
        assert json_text(obj) == json.dumps(ref, indent=2)
    assert [a.args[0] is grid for a in fmt.call_args_list].count(True) == 1
    assert fmt.call_count == 6


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

"""Output writers: JSON and CSV text built from whole arrays, and files
replaced atomically.

Reports and curve exports carry up to a few hundred thousand numbers.
Formatting them one Python object at a time cost more than computing them
(json.dumps with an indent runs the pure-Python encoder), so these writers
format each numpy array with one map over the tolist() of each chunk of
_CSV_CHUNK elements, and yield the text chunk by chunk for write_text to
stream. The text is the one json.dumps(obj, indent=2) and repr-formatted
CSV rows give. Within one output an array is formatted once, however
often it occurs (the curves on one grid share its values array), and a
CSV column calls float.__repr__ once per run of equal values (an ROC
staircase moves FP or TP, not both).

write_text puts a new or plain file under a temporary name in the target
directory and moves it into place with os.replace, so a reader never sees
a half-written file and a failed write leaves nothing behind. Any other
path (a symlink, a device, a FIFO, a hard-linked file or another user's
file) is opened and written through, as open(path, "w") does. Outputs
does the same for the several files of one run, all or none.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import stat
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

_INDENT = "  "
_INF = float("inf")
_CSV_CHUNK = 1 << 14


class Records:
    """A JSON array of objects that all have the same keys, held as one
    1-d numpy column per key; json_text writes it like the list of dicts."""

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        sizes = {np.shape(c) for c in columns.values()}
        if len(sizes) != 1 or len(next(iter(sizes))) != 1:
            raise ValueError("records need at least one column, all 1-d and of one length")
        self.columns = columns


def _float_text(v: float) -> str:
    if v != v:
        return "NaN"
    if v == _INF or v == -_INF:
        return "Infinity" if v > 0 else "-Infinity"
    return float.__repr__(v)


def _scalar_texts(arr: np.ndarray) -> list[str]:
    """JSON text of each element of a 1-d float or bool array."""
    values = arr.tolist()
    if arr.dtype.kind == "f":
        return list(map(float.__repr__ if np.all(np.isfinite(arr)) else _float_text, values))
    if arr.dtype.kind == "b":
        return ["true" if v else "false" for v in values]
    raise TypeError(f"arrays of dtype {arr.dtype} are not JSON serializable")


class _Memo:
    """The texts of the arrays that one output uses more than once (the
    same object), each formatted once and held until its last use."""

    def __init__(self, arrays: Iterable[np.ndarray],
                 fmt: Callable[[np.ndarray], list[str]]) -> None:
        self._left = Counter(map(id, arrays))
        self._held: dict[int, list[str]] = {}
        self._fmt = fmt

    def __call__(self, arr: np.ndarray) -> list[str] | None:
        """arr's texts, or None when this is its only use."""
        key = id(arr)
        self._left[key] -= 1
        texts = self._held.pop(key, None)
        if self._left[key] > 0:
            texts = self._held[key] = texts if texts is not None else self._fmt(arr)
        return texts


def _arrays(o) -> Iterator[np.ndarray]:
    """The numpy arrays in a JSON tree, in the order _encode writes them."""
    if isinstance(o, np.ndarray):
        yield o
    elif isinstance(o, Records):
        yield from o.columns.values()
    elif isinstance(o, (list, tuple, dict)):
        for v in o.values() if isinstance(o, dict) else o:
            yield from _arrays(v)


def _key_text(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _json_str(key)


def _block(open_: str, items: Iterable[Iterable[str]], close: str,
           level: int) -> Iterator[str]:
    """open_, then each item's chunks on a line of its own at level + 1,
    a comma after each item but the last, then close."""
    inner = "\n" + _INDENT * (level + 1)
    yield open_
    lead = inner
    for item in items:
        yield lead
        yield from item
        lead = "," + inner
    yield close if lead == inner else "\n" + _INDENT * level + close


def _array_chunks(arr: np.ndarray, memo: _Memo,
                  size: int = _CSV_CHUNK) -> Iterator[list[str]]:
    """The texts of arr's elements, size of them at a time."""
    texts = memo(arr)
    # an empty array is still formatted once, which refuses a wrong dtype
    for lo in range(0, max(arr.size, 1), size):
        yield (_scalar_texts(arr[lo:lo + size]) if texts is None
               else texts[lo:lo + size])


def _chunk_items(chunks: Iterable[list[str]], level: int) -> Iterator[list[str]]:
    """Each non-empty chunk of texts as one item of a _block at level."""
    sep = ",\n" + _INDENT * (level + 1)
    return ([sep.join(texts)] for texts in chunks if texts)


def _records_chunks(rec: Records, level: int, memo: _Memo) -> Iterator[list[str]]:
    inner = "\n" + _INDENT * (level + 2)
    fields = ("," + inner).join(_key_text(k).replace("%", "%%") + ": %s" for k in rec.columns)
    template = "{" + inner + fields + "\n" + _INDENT * (level + 1) + "}"
    # _CSV_CHUNK values a chunk, as for an array
    rows = max(1, _CSV_CHUNK // len(rec.columns))
    columns = [_array_chunks(np.asarray(c), memo, rows) for c in rec.columns.values()]
    for texts in zip(*columns):
        yield list(map(template.__mod__, zip(*texts)))


def _scalar_text(o) -> str:
    if isinstance(o, str):
        return _json_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_chunks(o, level: int = 0, memo: _Memo | None = None) -> Iterator[str]:
    """The text of json_text(o) in chunks: an array or a Records yields
    _CSV_CHUNK elements a chunk, so no text of a whole array is held."""
    if memo is None:
        memo = _Memo(_arrays(o), _scalar_texts)
    if isinstance(o, (list, tuple)):
        yield from _block("[", (_json_chunks(v, level + 1, memo) for v in o), "]", level)
    elif isinstance(o, dict):
        items = (itertools.chain((_key_text(k) + ": ",), _json_chunks(v, level + 1, memo))
                 for k, v in o.items())
        yield from _block("{", items, "}", level)
    elif isinstance(o, np.ndarray) and o.ndim == 1:
        yield from _block("[", _chunk_items(_array_chunks(o, memo), level), "]", level)
    elif isinstance(o, Records):
        yield from _block("[", _chunk_items(_records_chunks(o, level, memo), level), "]", level)
    else:
        yield _scalar_text(o)


def json_text(obj) -> str:
    """Exactly json.dumps(obj, indent=2), NaN, Infinity and -0.0 included,
    for objects whose dict keys are all strings.

    A 1-d float or bool numpy array is written as the list of its elements
    and a Records as its list of objects, each in one pass.
    """
    return "".join(_json_chunks(obj))


def _repr_chunks(values: np.ndarray) -> Iterator[list[str]]:
    """repr of each element of a float array, in chunks of _CSV_CHUNK.

    float.__repr__ runs once per run of equal bit patterns, chunk
    boundaries included; equal bits are equal floats and so equal texts,
    and 0.0 and -0.0 (or NaNs with different payloads) never share a run.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    last_bits, last_text = None, ""
    for lo in range(0, values.size, _CSV_CHUNK):
        chunk = values[lo:lo + _CSV_CHUNK]
        bits = chunk.view(np.int64)
        new = np.empty(chunk.size, dtype=bool)
        new[0] = bits[0] != last_bits
        np.not_equal(bits[1:], bits[:-1], out=new[1:])
        texts = list(map(float.__repr__, chunk[new].tolist()))
        if not new[0]:
            texts.insert(0, last_text)
            new[0] = True
        if len(texts) < chunk.size:
            texts = np.array(texts, dtype=object)[np.cumsum(new) - 1].tolist()
        last_bits, last_text = bits[-1], texts[-1]
        yield texts


def _repr_texts(values: np.ndarray) -> list[str]:
    return [text for chunk in _repr_chunks(values) for text in chunk]


def csv_rows(xs: np.ndarray, ys: np.ndarray, tag: str,
             x_texts: list[str] | None = None) -> Iterator[str]:
    """Rows "x,y,tag" with x and y in repr form, as chunks of text.
    x_texts, when given, are the texts of xs, formatted once for several
    series."""
    x_chunks = (_repr_chunks(xs) if x_texts is None else
                (x_texts[lo:lo + _CSV_CHUNK] for lo in range(0, len(x_texts), _CSV_CHUNK)))
    end = "," + tag + "\n"
    for x_part, y_part in zip(x_chunks, _repr_chunks(ys)):
        yield end.join(map(",".join, zip(x_part, y_part))) + end


def xy_csv(series: list[tuple[np.ndarray, np.ndarray, str]]) -> Iterator[str]:
    """The x,y,series CSV of (xs, ys, tag) triples, in chunks of text; an
    xs array that several triples share is formatted once."""
    memo = _Memo((xs for xs, _, _ in series), _repr_texts)
    yield "x,y,series\n"
    for xs, ys, tag in series:
        yield from csv_rows(xs, ys, tag, memo(xs))


def replaces(path: str) -> bool:
    """Whether write_text replaces path through a temporary file: path is
    missing, or a writable regular file with one link that this process
    owns."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        return True
    return (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
            and st.st_uid == os.geteuid()
            and os.access(path, os.W_OK))


class Outputs:
    """The files one run writes, all or none; use it as a context manager.

    add(path, text) streams text, a string or an iterable of text chunks,
    to a temporary file next to path at once, as write_text does. Leaving
    the with block moves every temporary file into place with os.replace,
    in the order added. If anything fails before that, a later output or
    the computing between two, every temporary file is removed and every
    target is left as it was. A path that replaces() refuses is written in
    place, so its text is kept unread until the block ends and written
    before the first os.replace. paths lists the targets as added.
    """

    def __init__(self) -> None:
        self.paths: list[str] = []
        self._staged: list[tuple[str, str]] = []  # (temporary file, target)
        self._in_place: list[tuple[str, Iterable[str]]] = []

    def add(self, path: str, text: str | Iterable[str]) -> None:
        chunks = [text] if isinstance(text, str) else text
        if replaces(path):
            self._staged.append((_stage(path, chunks), path))
        else:
            self._in_place.append((path, chunks))
        self.paths.append(path)

    def __enter__(self) -> Outputs:
        return self

    def __exit__(self, kind, exc, tb) -> None:
        try:
            if kind is None:
                for path, chunks in self._in_place:
                    with open(path, "w", encoding="utf-8", newline="") as fh:
                        fh.writelines(chunks)
                while self._staged:
                    tmp, path = self._staged[0]
                    try:
                        os.replace(tmp, path)
                    except OSError as exc:
                        _name_target(exc, tmp, path)
                        raise
                    del self._staged[0]
        finally:
            for tmp, _ in self._staged:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)


def _name_target(exc: BaseException, tmp: str, path: str) -> None:
    """Make an OSError about the temporary file name path instead, the file
    the caller asked for."""
    if isinstance(exc, OSError) and exc.filename == tmp:
        exc.filename = path


def _stage(path: str, chunks: Iterable[str]) -> str:
    """Write chunks to a new temporary file next to path, with the mode and
    group of any old file at path, and return its name; on any failure the
    temporary file is removed."""
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            if old is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(old.st_mode))
                with contextlib.suppress(OSError):
                    os.chown(fh.fileno(), -1, old.st_gid)
            fh.writelines(chunks)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        _name_target(exc, tmp, path)
        raise
    return tmp


def write_text(path: str, text: str | Iterable[str]) -> None:
    """Write text, or an iterable of text chunks, to path as UTF-8.

    Where replaces(path), the chunks go to a temporary file next to path
    that takes over the mode and group of any old file and then replaces
    path in one os.replace; on any failure the temporary file is removed
    and path is left as it was. Any other path is written in place.
    """
    with Outputs() as out:
        out.add(path, text)

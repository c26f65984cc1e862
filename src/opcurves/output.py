"""Output writers: JSON and CSV text built from whole arrays, and files
replaced atomically.

Reports and curve exports carry up to a few hundred thousand numbers,
and writing them one Python object at a time cost more than computing
them. So rows() writes a whole table of array columns at once: each
float becomes the text float.__repr__ gives it, found with numpy
arithmetic on the whole column (see _float_words), each row's bytes go
into a frame of uint32 words, one a table, where NUL bytes mark unused
places, and deleting the NULs leaves the text. _json_chunks writes a
JSON array, or the rows of a Records, through rows() too, and each
scalar as json.dumps writes it; both yield the text chunk by chunk for
write_text to stream. While an Outputs block is open, a read-only float
column that fits in one chunk is encoded once for the whole block and
its words reused by every table that writes it (see _memo_words): the
threshold grid of a curve run is one array, the x of every series and
the grid of its report (and the t of compare's per_t rows); the x of
every series, a JSON array at one indentation, is framed once too.

write_text puts a new or plain file under a temporary name in the target
directory and moves it into place with os.replace, so a reader never sees
a half-written file and a failed write leaves nothing behind. Any other
path (a symlink, a device, a FIFO, a hard-linked file or another user's
file) is opened and written through, as open(path, "w") does. Outputs
does the same for the several files of one run, all or none.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import math
import os
import stat
from collections.abc import Callable, Iterable, Iterator
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from ._exact import DOUBT, POW10, near_power_of_two, times_pow10

_INDENT = "  "
_CHUNK = 1 << 15  # rows times columns a chunk, and about the words of a frame at most
_FRAME_ROWS = 1 << 12  # rows framed at a time; rows() fills one such frame for a whole table


class Records:
    """A JSON array of objects that all have the same keys, held as one
    1-d numpy column per key; _json_chunks writes it like the list of dicts."""

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        sizes = {np.shape(c) for c in columns.values()}
        if len(sizes) != 1 or len(next(iter(sizes))) != 1:
            raise ValueError("records need at least one column, all 1-d and of one length")
        self.columns = columns


@functools.cache  # built on first use, so a run that writes no array never holds it
def _digit_words() -> np.ndarray:
    """The ASCII of the 4-digit groups 0000 to 9999 as uint32 words, in five
    forms of 10**4 words each (see the _TRAIL to _LEAD1 offsets): as they
    are, with trailing zeros as NULs, the same keeping the first digit, with
    leading zeros as NULs, and the same keeping the last digit."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row g: the digits of g
    lead = digits != 0  # a nonzero digit at or before
    trail = lead.copy()  # a nonzero digit at or after
    for k in range(1, 4):
        lead[:, k] |= lead[:, k - 1]
        trail[:, 3 - k] |= trail[:, 4 - k]
    first, last = trail.copy(), lead.copy()
    first[:, 0] = last[:, 3] = True
    text = digits + np.uint8(48)
    forms = np.stack([text, text * trail, text * first, text * lead, text * last])
    return forms.view(np.uint32).ravel()


_TRAIL, _TRAIL1, _LEAD, _LEAD1 = (k * 10**4 for k in range(1, 5))


def _word(text: bytes) -> np.uint32:
    return np.frombuffer(text, dtype=np.uint32)[0]


# the first word of a value below 1 is a sign or NUL, "0.", and a NUL
_ZERO_DOT = _word(b"\x000.\x00")
# a digit after 0 to 3 zeros, right-aligned in a word: the digits after "0."
_ZEROS_DIGIT = np.array([_word(b"\x00" * (3 - z) + b"0" * z + bytes([48 + d]))
                         for z in range(4) for d in range(10)])
_MINUS, _DOT = _word(b"-\x00\x00\x00"), _word(b".\x00\x00\x00")
_BOOL_WORDS = np.array([[_word(b"fals"), _word(b"e\x00\x00\x00")],
                        [_word(b"true"), _word(b"\x00\x00\x00\x00")]])
_POW10_INT = np.array([10**k for k in range(19)])
# 10**e for e = -4 to 16 as doubles; x >= 10**e as doubles iff x >= 10**e
# exactly, as each is exact or the nearest double above it
_TENS = np.array([float(f"1e{e}") for e in range(-4, 17)])
# floor(log10(2**(E - 1))) for the binary exponents E = -14 to 50 of
# doubles in [1e-4, 1e15) as np.frexp gives them, offset by 14
_DECADE = np.array([math.floor(k * math.log10(2.0)) for k in range(-15, 50)])


def _float_words(x: np.ndarray, fallback: Callable[[float], str]) -> np.ndarray:
    """The text of each double v in x as rows of 6 or 9 uint32 words, NUL
    bytes left out: repr(v), or fallback(v) for the rows in doubt.

    For 1e-4 <= |v| < 1e15 repr writes positionally the shortest digits that
    round-trip, the nearest to v of that length (Steele & White 1990; Gay
    1990). With e the decimal exponent of |v| and p = 16 - e, Dekker's exact
    product |v| * 10**p = ph + pl gives N17, the nearest integer, and r, its
    distance, exactly but for r's last bits; N16 and N15 are the nearest
    multiples of 10 and 100. A candidate decodes to v when its distance is
    below h, half an ulp of v times 10**p, and repr's digits are the first of
    N15, N16 and N17 that does: no two 15-digit decimals lie within an ulp of
    each other (DBL_DIG = 15), so one that decodes is the shortest once its
    trailing zeros go, and a 16- or 17-digit one is the nearest of its
    length. As in Grisu3 (Loitsch 2010), doubt goes to fallback, each row
    from its own value: a distance within 2**-20 (in units of the 17th
    digit) of h or of a rounding tie, v within an ulp of a power of two,
    where the spacing of doubles changes, a rounding up to 18 digits, and
    every v outside the range (zeros, NaN, infinities and what repr writes
    with an exponent).
    """
    mag = np.abs(x)
    with np.errstate(invalid="ignore"):  # NaN compares false
        doubt = ~((mag >= 1e-4) & (mag < 1e15))
    mag[doubt] = 1.0
    mantissa, binary = np.frexp(mag)
    doubt |= near_power_of_two(mantissa)
    e = _DECADE.take(binary + 14)
    e += mag >= _TENS.take(e + 5)  # |v| lies in [10**e, 10**(e + 1))
    p = 16 - e
    ph, pl = times_pow10(mag, p)
    n17 = np.rint(ph)
    r = (ph - n17) + pl
    step = np.rint(r)
    r -= step
    n17 = n17.astype(np.int64) + step.astype(np.int64)
    h = np.ldexp(POW10.take(p), binary - 54)
    # u: |v| * 10**p less the multiple of 100 at or below N17; c15 and c16
    # the candidates' places, d15 to d17 their distances from it
    last2 = n17 - n17 // 100 * 100
    u = last2 + r
    c15 = np.rint(u / 100) * 100
    c16 = np.rint(u / 10) * 10
    d15, d16, d17 = np.abs(u - c15), np.abs(u - c16), np.abs(r)
    # a tie of N15 lies 50 from both candidates, beyond any h
    doubt |= ((np.abs(d15 - h) <= DOUBT) | (np.abs(d16 - h) <= DOUBT)
              | (np.abs(d17 - h) <= DOUBT) | (np.abs(d16 - 5.0) <= DOUBT)
              | (np.abs(d17 - 0.5) <= DOUBT) | (d17 >= h))
    chosen = last2.astype(np.float64)
    np.copyto(chosen, c16, where=d16 < h)
    np.copyto(chosen, c15, where=d15 < h)
    n = n17 - last2 + chosen.astype(np.int64)
    doubt |= n >= 10**17
    n[doubt] = 10**16  # any 17 digits, so the rows in doubt index the tables

    wide = ~doubt & (e >= 0)
    words = np.zeros((x.size, 9 if wide.any() else 6), dtype=np.uint32)
    negative = np.signbit(x)
    # below 1: sign, "0.", -e - 1 zeros and the 17 digits, trailing zeros trimmed
    groups = _groups(n, 5)
    words[:, 0] = _MINUS * negative | _ZERO_DOT
    words[:, 1] = _ZEROS_DIGIT.take(np.clip(-e - 1, 0, 3) * 10 + groups[0].astype(np.intp))
    words[:, 2:6] = _group_words(groups[1:], _TRAIL, _TRAIL)
    some = np.flatnonzero(wide)
    if some.size:
        # 1 or more: sign, the integer part without leading zeros, ".", and
        # the fraction trimmed, down to "0"
        e, n = e[some], n[some]
        scale = _POW10_INT[16 - e]
        whole = n // scale
        big = np.empty((some.size, 9), dtype=np.uint32)
        big[:, :4] = _group_words(_groups(whole, 4), _LEAD, _LEAD)
        big[:, 0] |= _MINUS * negative[some]
        big[:, 4] = _DOT
        big[:, 5:] = _group_words(_groups((n - whole * scale) * _POW10_INT[e], 4), _TRAIL, _TRAIL1)
        words[some] = big
    some = np.flatnonzero(doubt)
    if some.size:
        words[some] = _fallback_words(x[some], fallback, words.shape[1])
    return words


def _groups(n: np.ndarray, count: int) -> list[np.ndarray]:
    """The last count 4-digit groups of integers n >= 0, most significant
    first, as doubles; 8 digits at a time are split off as int64."""
    out: list[np.ndarray] = []
    while len(out) < count:
        high = n // 10**8
        low = (n - high * 10**8).astype(np.float64)
        top = np.floor(low / 1e4)
        out[:0] = [top, low - top * 1e4]
        n = high
    return out[-count:]


def _group_words(groups: list[np.ndarray], form: int, end_form: int) -> np.ndarray:
    """The words of 4-digit groups, most significant first, with the zeros
    at one end as NULs: trailing zeros for form _TRAIL, leading ones for
    _LEAD. The group at the other end takes end_form where every group
    before it in that scan is zero."""
    count = len(groups)
    scan = range(count - 1, -1, -1) if form == _TRAIL else range(count)
    out = np.empty((groups[0].size, count), dtype=np.uint32)
    zero = np.ones(groups[0].size, dtype=bool)  # every group scanned so far is zero
    for k in scan:
        this = end_form if k == scan[-1] else form
        out[:, k] = _digit_words().take((groups[k] + this * zero).astype(np.intp))
        zero &= groups[k] == 0
    return out


def _fallback_words(values: np.ndarray, fallback: Callable[[float], str],
                    width: int) -> np.ndarray:
    """fallback's text of each value, NUL-padded to width uint32 words."""
    text = "".join([fallback(v).ljust(4 * width, "\0") for v in values.tolist()])
    return np.frombuffer(text.encode(), dtype=np.uint32).reshape(values.size, width)


def _column_words(column: np.ndarray, fallback: Callable[[float], str]
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """The text of each element of a 1-d column as rows of uint32 words,
    (words, idx): row i is words[idx[i]], or words[i] where idx is None. A
    float is as _float_words writes it, a bool false or true, an integer
    in [0, 10**4) decimal. A run of equal floats (equal bits) is encoded
    once, and its rows index its words."""
    kind = column.dtype.kind
    if kind == "b":
        return _BOOL_WORDS, column.view(np.uint8)
    if kind in "iu":
        if column.size and (column.min() < 0 or column.max() >= 10**4):
            raise ValueError("integer columns must lie in [0, 10000)")
        # the column as it is indexes a slice of the table: _LEAD1 + column
        # would not fit a narrow integer dtype
        return _digit_words()[_LEAD1:_LEAD1 + 10**4, None], column
    values = np.ascontiguousarray(column, dtype=np.float64)
    bits = values.view(np.int64)
    heads = np.empty(values.size, dtype=bool)
    heads[0] = True
    np.not_equal(bits[1:], bits[:-1], out=heads[1:])
    if heads.all():
        return _float_words(values, fallback), None
    return _float_words(values[heads], fallback), np.cumsum(heads) - 1


# the words of the columns encoded in the open Outputs block, by (id(column),
# fallback or None), and the text of a one-column table of one, by
# (id(column), fallback, *pieces): {key: (column, words or text)}; None outside one
_memo: contextvars.ContextVar[dict | None] = contextvars.ContextVar("_memo", default=None)


def _frozen(a: np.ndarray) -> bool:
    """Whether a and every array down its .base chain are read-only, and
    the last owns its data: no view of a writable array can change it."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _memo_words(column: np.ndarray, fallback: Callable[[float], str],
                lo: int, size: int) -> tuple[np.ndarray, np.ndarray | None]:
    """_column_words(column[lo:lo + size], fallback). In an Outputs block a
    read-only float column of at most size rows is encoded whole once, and
    every later table that writes it, in one chunk or in several, takes
    its rows of those words; a longer column that no table wrote whole is
    encoded a chunk at a time and not held. The memo holds the column, so
    its id names it for the whole block, and keys a column that holds NaN
    or an infinity by fallback too: only those rows differ in text between
    the CSV and the JSON fallbacks."""
    memo = _memo.get()
    if memo is None or column.dtype.kind != "f" or not _frozen(column):
        return _column_words(column[lo:lo + size], fallback)
    held = memo.get((id(column), None)) or memo.get((id(column), fallback))
    if held is None:
        if len(column) > size:
            return _column_words(column[lo:lo + size], fallback)
        key = (id(column), None if np.isfinite(column).all() else fallback)
        held = memo[key] = (column, _column_words(column, fallback))
    words, idx = held[1]
    return (words[lo:lo + size], None) if idx is None else (words, idx[lo:lo + size])


def rows(columns: list[np.ndarray], pieces: list[str],
         fallback: Callable[[float], str] = float.__repr__) -> Iterator[str]:
    """The text of a table, in chunks: row i is pieces[0], the text of
    columns[0][i], pieces[1], and so on to pieces[-1], for 1-d columns of
    one length and one more piece than columns. A float is written as
    float.__repr__ writes it, or by fallback where that is not repr (its
    NaN and infinities; see _float_words). The pieces must hold no NUL."""
    columns = [np.asarray(c) for c in columns]
    if (not columns or len({c.shape for c in columns}) != 1 or columns[0].ndim != 1
            or len(pieces) != len(columns) + 1 or any("\0" in p for p in pieces)):
        raise ValueError("rows need 1-d columns of one length, one more piece than columns, "
                         "and no NUL in a piece")
    piece_words = [np.frombuffer(p.encode() + b"\0" * (-len(p.encode()) % 4), dtype=np.uint32)
                   for p in pieces]
    size = max(1, _CHUNK // len(columns))
    memo, column, n = _memo.get(), columns[0], len(columns[0])
    if (memo is not None and len(columns) == 1 and 0 < n <= size
            and column.dtype.kind == "f" and _frozen(column)):
        # a column _memo_words holds: the text, for a JSON array at one indentation
        key = (id(column), fallback, *pieces)
        if key not in memo:
            block = _memo_words(column, fallback, 0, size)
            memo[key] = (column, _frame_text([block], *_frame(piece_words, [block], n)))
        yield memo[key][1]
        return
    frame, spans = None, []  # made again only for a chunk whose floats take another width
    for lo in range(0, n, size):
        blocks = [_memo_words(c, fallback, lo, size) for c in columns]
        if [s.stop - s.start for s in spans] != [words.shape[1] for words, _ in blocks]:
            frame, spans = _frame(piece_words, blocks, n)
        yield _frame_text(blocks, frame, spans)


def _frame(piece_words: list[np.ndarray], blocks: list[tuple], n: int
           ) -> tuple[np.ndarray, list[slice]]:
    """A frame for up to _FRAME_ROWS of a table's n rows, fewer where a row
    is so wide that they would hold more than _CHUNK words, its pieces'
    words written in, and the slice of each block's words in a row."""
    widths = [words.shape[1] for words, _ in blocks]
    row_words = sum(widths) + sum(p.size for p in piece_words)
    frame = np.empty((max(1, min(_FRAME_ROWS, n, _CHUNK // row_words)), row_words),
                     dtype=np.uint32)
    spans, at = [], 0
    for piece, width in itertools.zip_longest(piece_words, widths, fillvalue=0):
        frame[:, at:at + piece.size] = piece
        spans.append(slice(at + piece.size, at + piece.size + width))
        at += piece.size + width
    return frame, spans[:-1]


def _frame_text(blocks: list[tuple], frame: np.ndarray, spans: list[slice]) -> str:
    """The text of the rows of blocks, (words, idx) as _column_words gives
    them, put in their spans of the frame, the frame's rows at a time; the
    other words of the frame, the pieces', stay as they are."""
    words, idx = blocks[0]
    n = len(words if idx is None else idx)
    texts = []
    for lo in range(0, n, len(frame)):
        m = min(len(frame), n - lo)
        for (words, idx), span in zip(blocks, spans):
            # a take straight into the span, which is not contiguous, would be buffered
            frame[:m, span] = words[lo:lo + m] if idx is None else words.take(idx[lo:lo + m], 0)
        texts.append(frame[:m].tobytes().translate(None, b"\0").decode())
    return "".join(texts)


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


def _array_items(columns: list[np.ndarray], pieces: list[str],
                 level: int) -> Iterator[list[str]]:
    """The rows of columns as JSON text, each chunk one item of a _block at
    level (whose separator joins the chunks)."""
    for column in columns:
        if column.dtype.kind not in "fb":
            raise TypeError(f"arrays of dtype {column.dtype} are not JSON serializable")
    sep = ",\n" + _INDENT * (level + 1)
    pieces = [*pieces[:-1], pieces[-1] + sep]
    return ([chunk[:-len(sep)]] for chunk in rows(columns, pieces, _json_float))


def _json_float(v: float) -> str:
    """json.dumps(v) for a float; repr's text where v is finite."""
    return float.__repr__(v) if math.isfinite(v) else json.dumps(v)


def _records_items(rec: Records, level: int) -> Iterator[list[str]]:
    inner = "\n" + _INDENT * (level + 2)
    keys = [_key_text(k) + ": " for k in rec.columns]
    pieces = ["{" + inner + keys[0], *("," + inner + k for k in keys[1:]),
              "\n" + _INDENT * (level + 1) + "}"]
    return _array_items([np.asarray(c) for c in rec.columns.values()], pieces, level)


def _json_chunks(o, level: int = 0) -> Iterator[str]:
    """Exactly the text of json.dumps(o, indent=2), NaN, Infinity and -0.0
    included, in chunks, for objects whose dict keys are all strings. A 1-d
    float or bool numpy array is written as the list of its elements and a
    Records as its list of objects, one chunk of rows() at a time, so no
    text of a whole array is held."""
    if isinstance(o, (list, tuple)):
        yield from _block("[", (_json_chunks(v, level + 1) for v in o), "]", level)
    elif isinstance(o, dict):
        items = (itertools.chain((_key_text(k) + ": ",), _json_chunks(v, level + 1))
                 for k, v in o.items())
        yield from _block("{", items, "}", level)
    elif isinstance(o, np.ndarray) and o.ndim == 1:
        yield from _block("[", _array_items([o], ["", ""], level), "]", level)
    elif isinstance(o, Records):
        yield from _block("[", _records_items(o, level), "]", level)
    else:
        yield json.dumps(o)


def xy_csv(series: list[tuple[np.ndarray, np.ndarray, str]]) -> Iterator[str]:
    """The x,y,series CSV of (xs, ys, tag) triples, in chunks of text."""
    yield "x,y,series\n"
    for xs, ys, tag in series:
        yield from rows([xs, ys], ["", ",", "," + tag + "\n"])


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
    before the first os.replace. paths lists the targets as added. While
    the block is open, rows() encodes each read-only float column that fits
    in one chunk once (see _memo_words); the memo goes when the block ends.
    """

    def __init__(self) -> None:
        self.paths: list[str] = []
        self._staged: list[tuple[str, str]] = []  # (temporary file, target)
        self._in_place: list[tuple[str, Iterable[str]]] = []
        self._memo_token: contextvars.Token | None = None

    def add(self, path: str, text: str | Iterable[str]) -> None:
        chunks = [text] if isinstance(text, str) else text
        if replaces(path):
            self._staged.append((_stage(path, chunks), path))
        else:
            self._in_place.append((path, chunks))
        self.paths.append(path)

    def __enter__(self) -> Outputs:
        self._memo_token = _memo.set({})
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
            _memo.reset(self._memo_token)
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

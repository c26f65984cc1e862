"""Labeled score datasets: parsing, serialization and simulation.

A dataset is an ordered collection of (score, label) samples where scores
live in [0, 1] and labels are binary. Everything downstream (ROC analysis,
decision curves, cost curves) reads from this container, so validation
happens once, here.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from ._exact import DOUBT, POW10, near_power_of_two, times_pow10
from .output import rows, write_text

NEGATIVE = 0
POSITIVE = 1

# accepted label spellings, case-insensitive
_LABEL_TOKENS = {"0": NEGATIVE, "n": NEGATIVE, "1": POSITIVE, "p": POSITIVE}

CSV_HEADER = ("score", "label")


class DatasetError(ValueError):
    """Base class for dataset construction failures."""


class ParseError(DatasetError):
    """A row could not be turned into a valid sample."""


class EmptyInputError(DatasetError):
    """No samples were provided."""


class DegenerateClassError(DatasetError):
    """One class is absent, so class-conditional rates are undefined."""


class SimulationSpecError(DatasetError):
    """simulate_gaussian was given arguments it cannot draw from."""


@dataclass(frozen=True)
class Priors:
    """Class proportions; pi_p + pi_n = 1 up to one float ulp."""

    pi_p: float
    pi_n: float

    def __post_init__(self) -> None:
        if not (0.0 < self.pi_p < 1.0 and 0.0 < self.pi_n < 1.0):
            raise DatasetError("priors must lie strictly inside (0, 1)")
        if abs(self.pi_p + self.pi_n - 1.0) > 1e-15:
            raise DatasetError("priors must sum to 1")

    @classmethod
    def from_counts(cls, n_p: int, n_n: int) -> Priors:
        if n_p <= 0 or n_n <= 0:
            raise DegenerateClassError("both classes must be present")
        n = n_p + n_n
        # store the divisions as computed so recomputing from samples is
        # bit-identical; the sum check above tolerates the last-ulp slack
        return cls(pi_p=n_p / n, pi_n=n_n / n)


class Dataset:
    """Immutable, ordered collection of scored binary-labeled samples.

    Construction validates everything once: scores finite in [0, 1],
    labels binary, at least one sample of each class. The scores and labels
    are held in the order given, frozen. Every curve in this package reduces
    to counting scores at or above a threshold, so the first curve read
    builds the operating points (roc._points) and the dataset holds their
    RocCurve from then on.
    """

    __slots__ = ("_scores", "_labels", "_n_p", "_points")

    def __init__(self, scores: Sequence[float] | np.ndarray,
                 labels: Sequence[int] | np.ndarray, *, _owned: bool = False) -> None:
        # _owned: a float64 and an int8 array that nothing else holds, taken
        # without the copy that keeps a caller's arrays apart from these
        scores = (np.asarray if _owned else np.array)(scores, dtype=np.float64)
        given = np.asarray(labels)
        if scores.ndim != 1 or given.ndim != 1 or scores.shape != given.shape:
            raise DatasetError("scores and labels must be 1-d and equal length")
        if scores.size == 0:
            raise EmptyInputError("dataset has no samples")
        if not (scores.min() >= 0.0 and scores.max() <= 1.0):  # false for a NaN too
            raise DatasetError("scores must be finite and within [0, 1]")
        # checked as given, before a cast could wrap a label into 0 or 1
        if not np.all((given == NEGATIVE) | (given == POSITIVE)):
            raise DatasetError("labels must be 0 or 1")
        labels = given.astype(np.int8, copy=not _owned)
        n_p = int(np.count_nonzero(labels))
        if n_p == 0 or n_p == scores.size:
            raise DegenerateClassError("dataset must contain both classes")
        self._scores, self._labels, self._n_p, self._points = scores, labels, n_p, None
        scores.flags.writeable = labels.flags.writeable = False

    @property
    def scores(self) -> np.ndarray:
        return self._scores

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def n(self) -> int:
        return int(self._scores.size)

    @property
    def n_p(self) -> int:
        return self._n_p

    @property
    def n_n(self) -> int:
        return self.n - self._n_p

    @property
    def pi_p(self) -> float:
        return self.n_p / self.n

    @property
    def pi_n(self) -> float:
        return self.n_n / self.n

    @property
    def priors(self) -> Priors:
        return Priors.from_counts(self.n_p, self.n_n)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (np.array_equal(self._scores, other._scores)
                and np.array_equal(self._labels, other._labels))

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which == takes for equal
        return hash(((self._scores + 0.0).tobytes(), self._labels.tobytes()))

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, n_p={self.n_p}, n_n={self.n_n})"


def _plain_header(line: str) -> bool:
    """Whether the first line is `score,label` up to case and padding, after
    any byte order mark, with no cell longer than csv.field_size_limit()."""
    cells = line.removeprefix("\ufeff").split(",")
    return (tuple(cell.strip().casefold() for cell in cells) == CSV_HEADER
            and max(map(len, cells)) <= csv.field_size_limit())


def _from_csv_rows(lines: Iterable[str]) -> Dataset:
    """Row-by-row parse of text lines through csv.reader, in one pass that
    keeps only the scores and labels, in arrays the Dataset takes without a
    copy. It defines the accepted CSV language (quoted cells, blank lines
    and N/P labels included) and every error message. An error names the
    first offending row in file order: the data row (counted from 1 after
    the header, blank lines skipped) and the file line it ends on."""
    reader = csv.reader(lines)
    scores, labels = array("d"), array("b")

    def fail(problem: str) -> NoReturn:
        raise ParseError(f"row {len(scores) + 1} (line {reader.line_num}): {problem}") from None

    rows = (row for row in reader if any(cell.strip() for cell in row))
    try:
        header = next(rows, None)
        if header is None:
            raise EmptyInputError("csv input is empty")
        if tuple(cell.strip().casefold() for cell in header) != CSV_HEADER:
            raise ParseError(f"expected header 'score,label', got {','.join(header)!r}")
        for row in rows:
            if len(row) != 2:
                fail(f"expected 2 fields, got {len(row)}")
            score_text, label_text = row
            try:
                score = float(score_text)
            except ValueError:
                fail(f"score {score_text!r} is not a decimal number")
            if not 0.0 <= score <= 1.0:  # false for a NaN too
                fail(f"score {score_text!r} is outside [0, 1]")
            label = _LABEL_TOKENS.get(label_text.strip().casefold())
            if label is None:
                fail(f"unknown label {label_text!r} (expected 0/1 or N/P)")
            scores.append(score)
            labels.append(label)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if not scores:
        raise EmptyInputError("no sample rows in input")
    return Dataset(np.frombuffer(scores), np.frombuffer(labels, dtype=np.int8), _owned=True)


def _csv_chunks(data: Dataset) -> Iterator[str]:
    yield ",".join(CSV_HEADER) + "\n"
    yield from rows([data.scores, data.labels], ["", ",", "\n"])


def read_csv(path: str) -> Dataset:
    """Read a `score,label` CSV file into a Dataset.

    The file is opened once. A regular file is read in pieces and decoded
    by _from_csv_file; any other file (a pipe, a FIFO), or one whose size
    reads 0, is read whole once and decoded from its bytes. If the decoder
    refuses them, the bytes are read again from the start of the same
    handle: they must be UTF-8, or ParseError names the line and the byte
    before any row error; then their lines are decoded one at a time, as
    open(path, encoding="utf-8-sig") reads them, for _from_csv_rows.
    """
    with open(path, "rb") as file:
        st = os.fstat(file.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size > 0:
            fh, size = file, st.st_size
        else:  # no size bounds the rows, and the bytes can be read only once
            raw = file.read()
            fh, size = io.BytesIO(raw), len(raw)
        data = _from_csv_file(fh, size)
        if data is not None:
            return data
        fh.seek(0)
        line = 1  # checked by pieces that end at a newline, which no character or CRLF spans
        for piece in iter(lambda: fh.read(_PIECE_BYTES) + fh.readline(), b""):
            try:
                str(piece, "utf-8")
            except UnicodeDecodeError as exc:
                head, byte = piece[:exc.start], piece[exc.start]
                line += head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
                raise ParseError(f"line {line}: not UTF-8 text (byte 0x{byte:02x})") from None
            line += piece.count(b"\n") + piece.count(b"\r") - piece.count(b"\r\n")
        fh.seek(0)
        return _from_csv_rows(io.TextIOWrapper(fh, encoding="utf-8-sig"))


_PIECE_BYTES = 1 << 17  # bytes checked as UTF-8 at a time, and the byte decoder's least piece
_FIRST_PIECE = 1 << 10  # the byte decoder's first piece, so a file of long scores is refused early
_PIECE_ROWS = 1 << 14  # the lines of each later piece, at the first piece's bytes per line,
_PIECE_CAP = 1 << 19  # and at most this many bytes
_WIDEST = 25  # the widest field decoded, as "%.18e" writes a score below 1e-99
_M_LIMIT = 1 << 58  # a decimal field's digits form m < 2**58
_M_GUARD = (2**63 - 10) // 10  # m * 10 + 9 fits in an int64 while m <= this
_EXACT = 1 << 53  # every integer up to this is a double
# by the column k of a field's dot, 10**(k - 1): the loop's m exceeds it iff
# the field has a nonzero digit left of the dot (never with k = 0 or k > 19)
_WHOLE = np.array([10**(k - 1) if 0 < k < 20 else 2**63 - 1 for k in range(_WIDEST)])
# a line's last byte to its label, as _LABEL_TOKENS reads it; -1 for a
# byte that is no label
_LABEL_BYTES = np.full(256, -1, dtype=np.int8)
for _token, _label in _LABEL_TOKENS.items():
    _LABEL_BYTES[[ord(_token), ord(_token.upper())]] = _label


def _from_csv_file(fh: BinaryIO, size: int) -> Dataset | None:
    """The Dataset of a file of `size` bytes, read from fh, whose header
    passes _plain_header and whose body lines are all `<field>,<label>`, the
    label one byte of 0, 1, N, P, n or p, ended by LF or CRLF (the last one
    optional), or None. A field is 1 to 24 bytes of ASCII digits and at most
    one dot, whose digits form an integer m < 2**58 with f <= 22 digits
    after the dot, decoded as m / 10**f; or 1 to 25 bytes of digits, dots
    and a sign or an exponent (`+`, `-`, `e`, `E`), read by float(), as
    "%.18e" writes a score below 1e-99 in 25. _decode_lines gives every
    score bit for bit as float() reads it, so _from_csv_rows reads the file
    to the same Dataset.

    The body is read into one buffer in pieces: the first of _FIRST_PIECE
    bytes, each later one of about _PIECE_ROWS lines of the first piece's
    mean width, at least _PIECE_BYTES and at most _PIECE_CAP bytes. Each
    piece's whole lines are decoded into arrays sized, once the first
    piece has decoded, for the rows the rest of the file holds at that
    piece's bytes per line, with a sixteenth to spare; a piece that would
    overflow them grows them for the rest at the mean width of the lines
    read so far. They are cut to the rows read at the end. A file refused
    in its first piece reserves no arrays, and one that holds more bytes
    than `size` is refused."""
    line = fh.readline()
    if not line.endswith(b"\n"):
        return None
    header = line[:-1].removesuffix(b"\r")
    try:
        if b"\r" in header or not _plain_header(header.decode("utf-8")):
            return None
    except UnicodeDecodeError:
        return None
    widest = min(_WIDEST, csv.field_size_limit())
    body = left = size - len(line)  # left: the bytes of the body not yet read
    buf = bytearray(_FIRST_PIECE)
    row = held = room = 0  # held: the bytes of an unended line, at the front of buf
    while True:
        view, a = memoryview(buf), np.frombuffer(buf, dtype=np.uint8)
        got = fh.readinto(view[held:])
        end, left = held + got, left - got
        if left < 0:  # the file holds more than its size said
            return None
        stop = buf.rfind(b"\n", 0, end) + 1 if got else end  # the whole lines
        if not stop:
            if not end:
                break
            if end == len(buf):  # a line longer than a piece
                return None
            held = end
            continue
        part = _decode_lines(a[:stop], widest, buf.find(b"\r", 0, stop) >= 0)
        if part is None:
            return None
        rows = part[0].size
        held = end - stop
        if row:
            a[:held] = a[stop:end]
        else:  # the first piece has decoded: later ones hold _PIECE_ROWS lines as wide
            buf = bytearray(min(_PIECE_CAP, max(_PIECE_BYTES, round(stop / rows * _PIECE_ROWS)),
                                held + left + 1))  # one byte more shows a file that grew
            buf[:held] = view[stop:end]
        if row + rows > room:  # room for the rest at the lines' mean width, and a sixteenth
            room = row + rows + round((left + held) * (row + rows) / (body - left - held)
                                      * 17 / 16)
            if row:  # numpy's resize keeps the rows and zeroes only the new room
                scores.resize(room, refcheck=False)
                labels.resize(room, refcheck=False)
            else:  # pages never written are never mapped
                scores, labels = np.empty(room), np.empty(room, dtype=np.int8)
        scores[row:row + rows], labels[row:row + rows] = part
        row += rows
        if not got:
            break
    if not row:
        return None
    scores.resize(row, refcheck=False)
    labels.resize(row, refcheck=False)
    try:
        return Dataset(scores, labels, _owned=True)
    except DatasetError:
        return None


def _decode_lines(a: np.ndarray, widest: int,
                  crlf: bool = False) -> tuple[np.ndarray, np.ndarray] | None:
    """Scores and labels of the lines in the bytes a, or None unless each is
    a field _from_csv_file takes, of at most `widest` bytes (24 for a
    decimal field), then a comma and a one-byte label (0, 1, N, P, n or p),
    ended by LF, by CRLF when `crlf`, or by the end of a. The scores are
    float() of the fields, bit for bit.

    The digits of a decimal field form m by Horner's rule over the byte
    columns left of the commas, the columns left of a field and its dot
    read as 0 digits. So the dot puts one 0 digit too many into a field
    with a nonzero digit left of it (1., 1.0, 12.25), which is taken out
    after the loop. After the 18th column m < 10**18; a later column is
    refused once some m > (2**63 - 10) // 10, so m * 10 + 9 never overflows.

    A field holding a sign or an exponent is read by float(), and one that
    float() refuses refuses a. In the others, where m <= 2**53, m and 10**f
    are exact doubles and one IEEE division is the correctly rounded
    m / 10**f (Clinger 1990). The rows where m > 2**53 are gathered, and
    on them alone hi + lo = m with hi = float(m) and |lo| <= 16,
    q = hi / 10**f, and Dekker's (1971) exact product q * 10**f = ph + pl
    gives the division's remainder hi - ph - pl exactly, so
    c = (remainder + lo) / 10**f is the exact m / 10**f - q with a relative
    error of at most 2**-52, under 2**-51 units in the last place of q.
    fl(q + c) is then the correctly rounded m / 10**f unless c / ulp(q) lies
    within 2**-20 of a half-integer (a rounding tie) or q lies within one
    ulp of a power of two (where the spacing of doubles halves); those rows
    are re-read with float().
    """
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
    # Horner's rule over the columns j bytes left of the commas, widest first
    m = np.zeros(ends.size, dtype=np.int64)
    point = np.zeros(ends.size, dtype=np.uint8)  # the j of the dot, 0 for none
    span = int(reach.max())
    if span == _WIDEST:  # a decimal field has at most 24 bytes
        return None
    reach = reach.astype(np.uint8)
    at = comma - span - 1
    for j in range(span, 0, -1):
        at += 1
        digit = a.take(at, mode="clip") - 48  # a dot reads 254
        inside = reach >= j
        # m < 10**18 after 18 columns; from then on m * 10 + 9 must fit
        if span - j > 17 and m.max() > _M_GUARD:
            return None
        keep = (digit < 10) & inside
        np.maximum(point, (inside ^ keep) * np.uint8(j), out=point)  # inside, no digit: the dot
        digit *= keep
        m *= 10
        m += digit
    if np.count_nonzero(point) != dots or np.any((width == 1) & (point == 1)):
        return None
    # a field I.F with f digits F has m = I * 10**(f + 1) + F, and I * 10**f + F is wanted
    whole = np.flatnonzero(m > _WHOLE.take(point))
    if whole.size:
        scale = POW10.take(point[whole] - 1).astype(np.int64)
        m[whole] = m[whole] // (scale * 10) * scale + m[whole] % scale
    f = np.maximum(point, 1) - 1  # digits after the dot
    if np.any(m >= _M_LIMIT) or f.max() >= POW10.size:
        return None
    scale = POW10[f]
    hi = m.astype(np.float64)
    scores = hi / scale
    big = m > _EXACT
    rows = np.flatnonzero(by_float)
    if big.any():  # on the rows where m and so the division may be inexact
        big = np.flatnonzero(big)
        m, f, hi, q, scale = m[big], f[big], hi[big], scores[big], scale[big]
        ph, pl = times_pow10(q, f)  # q * scale, exactly
        c = ((hi - ph - pl) + (m - hi.astype(np.int64))) / scale
        units = c / np.spacing(q)
        doubt = ((np.abs(units - np.floor(units) - 0.5) < DOUBT)
                 | near_power_of_two(np.frexp(q)[0]))
        scores[big] = q + c
        rows = np.append(rows, big[doubt])
    if rows.size:
        try:
            scores[rows] = _reread(a, comma[rows] - width[rows], comma[rows])
        except ValueError:
            return None
    return scores, labels


_COLUMNS = np.arange(_WIDEST)


def _reread(a: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """float() of the fields a[start:stop], of at most _WIDEST bytes each.
    The fields, padded with NULs to _WIDEST bytes, make one bytes array,
    which numpy casts to float64 by float() of each item."""
    padded = np.append(a, np.zeros(_WIDEST, dtype=np.uint8))
    cells = np.lib.stride_tricks.sliding_window_view(padded, _WIDEST)[starts]
    cells[_COLUMNS >= (stops - starts)[:, None]] = 0
    return cells.view(f"S{_WIDEST}")[:, 0].astype(np.float64)


def write_csv(data: Dataset, path: str) -> None:
    write_text(path, _csv_chunks(data))


# simulate_gaussian refuses a larger n, so a huge one fails with a message
# instead of numpy's allocation error
MAX_SIMULATED_ROWS = 10**8


def simulate_gaussian(*, n: int, pi_p: float, mu_n: float, sigma_n: float, mu_p: float,
                      sigma_p: float, seed: int) -> Dataset:
    """Draw a dataset from a two-Gaussian score model: one component per
    class, N(mu_n, sigma_n) for negatives and N(mu_p, sigma_p) for
    positives, clipped to [0, 1].

    round(n * pi_p) samples are positive. Draws falling outside [0, 1] are
    clipped to the boundary, so extreme parameters pile mass at 0 and 1.
    Identical arguments (seed included) produce identical datasets. The
    arguments are checked before anything is drawn (SimulationSpecError).
    """
    if n < 2:
        raise SimulationSpecError("n must be at least 2")
    if n > MAX_SIMULATED_ROWS:
        raise SimulationSpecError(f"n must be at most {MAX_SIMULATED_ROWS}")
    if not 0.0 < pi_p < 1.0:
        raise SimulationSpecError("pi_p must lie strictly inside (0, 1)")
    for name, value in dict(mu_n=mu_n, sigma_n=sigma_n, mu_p=mu_p, sigma_p=sigma_p).items():
        if not math.isfinite(value):
            raise SimulationSpecError(f"{name} must be finite, got {value!r}")
    if sigma_n <= 0.0 or sigma_p <= 0.0:
        raise SimulationSpecError("class standard deviations must be positive")
    n_p = round(n * pi_p)
    n_n = n - n_p
    if n_p < 1 or n_n < 1:
        raise SimulationSpecError("requested prevalence rounds one class to zero samples")
    rng = np.random.default_rng(seed)
    scores = np.concatenate([rng.normal(mu_n, sigma_n, n_n), rng.normal(mu_p, sigma_p, n_p)])
    np.clip(scores, 0.0, 1.0, out=scores)
    labels = np.zeros(n, dtype=np.int8)
    labels[n_n:] = POSITIVE
    return Dataset(scores, labels, _owned=True)

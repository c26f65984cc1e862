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
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .output import write_text

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
    """A simulation spec violates its own constraints."""


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
    labels binary, at least one sample of each class. The backing arrays
    are frozen, and per-class sorted score arrays are precomputed because
    every curve in this package reduces to counting scores above a
    threshold.
    """

    __slots__ = ("_scores", "_labels", "_pos_sorted", "_neg_sorted")

    def __init__(self, scores: Sequence[float] | np.ndarray,
                 labels: Sequence[int] | np.ndarray, *, _owned: bool = False) -> None:
        # _owned: float64 and int64 arrays that nothing else holds, taken
        # without the copy that keeps a caller's arrays apart from these
        take = np.asarray if _owned else np.array
        scores = take(scores, dtype=np.float64)
        labels = take(labels, dtype=np.int64)
        if scores.ndim != 1 or labels.ndim != 1 or scores.shape != labels.shape:
            raise DatasetError("scores and labels must be 1-d and equal length")
        if scores.size == 0:
            raise EmptyInputError("dataset has no samples")
        if not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
            raise DatasetError("scores must be finite and within [0, 1]")
        if not np.all((labels == NEGATIVE) | (labels == POSITIVE)):
            raise DatasetError("labels must be 0 or 1")
        n_p = int(np.count_nonzero(labels))
        if n_p == 0 or n_p == scores.size:
            raise DegenerateClassError("dataset must contain both classes")
        self._scores = scores
        self._labels = labels
        self._pos_sorted = np.sort(scores[labels == POSITIVE])
        self._neg_sorted = np.sort(scores[labels == NEGATIVE])
        for arr in (self._scores, self._labels, self._pos_sorted, self._neg_sorted):
            arr.flags.writeable = False

    @property
    def scores(self) -> np.ndarray:
        return self._scores

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def positive_scores(self) -> np.ndarray:
        """Scores of the positive samples, sorted ascending."""
        return self._pos_sorted

    @property
    def negative_scores(self) -> np.ndarray:
        """Scores of the negative samples, sorted ascending."""
        return self._neg_sorted

    @property
    def n(self) -> int:
        return int(self._scores.size)

    @property
    def n_p(self) -> int:
        return int(self._pos_sorted.size)

    @property
    def n_n(self) -> int:
        return int(self._neg_sorted.size)

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
        return hash((self._scores.tobytes(), self._labels.tobytes()))

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, n_p={self.n_p}, n_n={self.n_n})"


def parse_dataset(records: Iterable[tuple[str, str]], *,
                  lines: Sequence[int] | None = None) -> Dataset:
    """Build a Dataset from (score_text, label_text) records.

    Raises ParseError naming the offending 1-based row on any malformed
    score or unknown label token, and its file line when `lines` gives the
    line of each record.
    """
    scores: list[float] = []
    labels: list[int] = []
    for row, (score_text, label_text) in enumerate(records, start=1):
        try:
            score = float(score_text)
        except (TypeError, ValueError):
            raise ParseError(f"{_where(row, lines)}: score {score_text!r} "
                             "is not a decimal number") from None
        if not math.isfinite(score) or not 0.0 <= score <= 1.0:
            raise ParseError(f"{_where(row, lines)}: score {score_text!r} is outside [0, 1]")
        label = _LABEL_TOKENS.get(str(label_text).strip().casefold())
        if label is None:
            raise ParseError(f"{_where(row, lines)}: unknown label {label_text!r} "
                             "(expected 0/1 or N/P)")
        scores.append(score)
        labels.append(label)
    if not scores:
        raise EmptyInputError("no sample rows in input")
    return Dataset(scores, labels)


def _where(row: int, lines: Sequence[int] | None) -> str:
    return f"row {row}" if lines is None else f"row {row} (line {lines[row - 1]})"


def from_csv(text: str) -> Dataset:
    """Parse `score,label` CSV text into a Dataset.

    A leading byte order mark, which spreadsheet exports write, is skipped.
    The UTF-8 bytes of the text go to the byte decoder, _from_csv_bytes;
    any text it refuses, and any input Dataset rejects, goes through the
    row-by-row parser, which defines the accepted language and the error
    messages.
    """
    try:
        data = _from_csv_bytes(text.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate
        data = None
    return data if data is not None else _from_csv_rows(text)


def _plain_header(line: str) -> bool:
    """Whether the first line is `score,label` up to case and padding, after
    any byte order mark, with no cell longer than csv.field_size_limit()."""
    cells = line.removeprefix("\ufeff").split(",")
    return (tuple(cell.strip().casefold() for cell in cells) == CSV_HEADER
            and max(map(len, cells)) <= csv.field_size_limit())


def _from_csv_rows(text: str) -> Dataset:
    """Row-by-row parse through csv.reader. It defines the accepted CSV
    language (quoted cells, blank lines and N/P labels included) and every
    error message; errors name the data row (counted from 1 after the
    header, blank lines skipped) and the file line it ends on."""
    # not the utf-8-sig codec in read_csv: it copies the whole file's bytes
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
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
    lines = []
    records = []
    for idx, (line, row) in enumerate(rows[1:], start=1):
        if len(row) != 2:
            raise ParseError(f"row {idx} (line {line}): expected 2 fields, got {len(row)}")
        lines.append(line)
        records.append((row[0], row[1]))
    return parse_dataset(records, lines=lines)


# rows per chunk of CSV text; write_csv streams the chunks, so the text of
# a large dataset is never held whole
_CSV_ROWS = 1 << 14


def _csv_chunks(data: Dataset) -> Iterator[str]:
    yield ",".join(CSV_HEADER) + "\n"
    for lo in range(0, data.n, _CSV_ROWS):
        hi = lo + _CSV_ROWS
        yield "".join(f"{s!r},{l}\n" for s, l in zip(data.scores[lo:hi].tolist(),
                                                     data.labels[lo:hi].tolist()))


def to_csv(data: Dataset) -> str:
    return "".join(_csv_chunks(data))


def read_csv(path: str) -> Dataset:
    """Read a `score,label` CSV file into a Dataset.

    The file is read as bytes once and decoded by _from_csv_bytes; any file
    it refuses is parsed by _from_csv_rows from the text open(path,
    encoding="utf-8") would read. A file that is not UTF-8 raises
    ParseError naming the line and the byte.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    data = _from_csv_bytes(raw)
    if data is not None:
        return data
    text = _utf8_text(raw)
    del raw  # the row parser never holds the file's bytes and its text at once
    return _from_csv_rows(text)


def _utf8_text(raw: bytes) -> str:
    """raw decoded as a file opened in text mode as UTF-8 reads: CRLF and
    lone CR become LF, and a byte order mark is kept."""
    try:
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"line {line}: not UTF-8 text (byte 0x{raw[exc.start]:02x})") from None


_PIECE_BYTES = 1 << 17  # bytes of the body decoded at a time, after the first 1 KB
_WIDEST = 25  # the widest field decoded, as "%.18e" writes a score below 1e-99
_M_LIMIT = 1 << 58  # the digits form m < 2**58, so m * 10 + 9 fits in an int64
_EXACT = 1 << 53  # every integer up to this is a double
_POW10 = np.array([float(10**f) for f in range(23)])  # exact doubles, as 10**f is up to f = 22
_DOUBT = 2.0 ** -20  # rows whose correction lies this near a rounding tie are re-read


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into halves of at most 26 bits, x = hi + lo."""
    t = x * 134217729.0  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _from_csv_bytes(raw: bytes) -> Dataset | None:
    """The Dataset of a file whose header passes _plain_header and whose body
    lines are all `<field>,0` or `<field>,1`, ended by LF or CRLF (the last
    one optional), or None. A field is 1 to 24 bytes of ASCII digits and at
    most one dot, whose digits form an integer m < 2**58 with f <= 22 digits
    after the dot, decoded as m / 10**f; or 1 to 25 bytes of digits, dots
    and a sign or an exponent (`+`, `-`, `e`, `E`), read by float(), as
    "%.18e" writes a score below 1e-99 in 25. _decode_lines gives every
    score bit for bit as float() reads it, so _from_csv_rows reads the file
    to the same Dataset."""
    body = raw.find(b"\n") + 1
    if not body:
        return None
    header = raw[:body - 1].removesuffix(b"\r")
    try:
        if b"\r" in header or not _plain_header(header.decode("utf-8")):
            return None
    except UnicodeDecodeError:
        return None
    crlf = raw.find(b"\r", body) >= 0
    buf = np.frombuffer(raw, dtype=np.uint8)
    widest = min(_WIDEST, csv.field_size_limit())
    scores = labels = None
    row = 0
    # the first piece is small, so a file of long scores is refused early
    lo, size = body, 1 << 10
    while lo < len(raw):
        hi = raw.find(b"\n", lo + size) + 1 or len(raw)
        part = _decode_lines(buf[lo:hi], widest, crlf)
        if part is None:
            return None
        if scores is None:
            n = np.count_nonzero(buf[body:] == 10) + (raw[-1] != 10)
            scores, labels = np.empty(n), np.empty(n, dtype=np.int64)
        rows = part[0].size
        scores[row:row + rows], labels[row:row + rows] = part
        row += rows
        lo, size = hi, _PIECE_BYTES
    try:
        return None if scores is None else Dataset(scores, labels, _owned=True)
    except DatasetError:
        return None


def _decode_lines(a: np.ndarray, widest: int,
                  crlf: bool = False) -> tuple[np.ndarray, np.ndarray] | None:
    """Scores and labels of the lines in the bytes a, or None unless each is
    a field _from_csv_bytes takes, of at most `widest` bytes (24 for a
    decimal field), and `,0` or `,1`, ended by LF, by CRLF when `crlf`, or
    by the end of a. The scores are float() of the fields, bit for bit.

    A field holding a sign or an exponent is read by float(), and one that
    float() refuses refuses a. In the others, when every m <= 2**53, m and
    10**f are exact doubles and one IEEE division is the correctly rounded
    m / 10**f (Clinger 1990). Otherwise hi + lo = m with hi = float(m) and
    |lo| <= 16, q = hi / 10**f, and Dekker's (1971) exact product
    q * 10**f = ph + pl gives the division's remainder hi - ph - pl exactly,
    so c = (remainder + lo) / 10**f is the exact m / 10**f - q with a
    relative error of at most 2**-52, under 2**-51 units in the last place
    of q. fl(q + c) is then the correctly rounded m / 10**f unless c / ulp(q)
    lies within 2**-20 of a half-integer (a rounding tie) or q lies within
    one ulp of a power of two (where the spacing of doubles halves); those
    rows are re-read with float().
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
    labels = a[stops - 1] - 48
    dots = np.count_nonzero(a == 46)
    # one comma a line, left of a 0/1 label: every other byte is a digit, a
    # dot, or a sign or an exponent of a field float() reads
    if (width.min() < 1 or width.max() > widest or np.any(labels > 1)
            or np.count_nonzero(a == 44) != ends.size or np.any(a[comma] != 44)):
        return None
    # bytes of no class counted here must be signs or exponents; so must any
    # CR that does not end a line, which refuses a
    signs = a.size - np.count_nonzero(a - 48 < 10) - dots - ends.size - newlines - crs
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
            or np.any(m >= _M_LIMIT) or f.max() >= _POW10.size):
        return None
    scale = _POW10[f]
    hi = m.astype(np.float64)
    scores = hi / scale
    big = m > _EXACT
    if big.any():
        q, lo = scores, m - hi.astype(np.int64)
        # Dekker's product: q * scale = ph + pl exactly
        (qh, ql), sh, sl = _split(q), _POW10_HI[f], _POW10_LO[f]
        ph = q * scale
        pl = ((qh * sh - ph) + qh * sl + ql * sh) + ql * sl
        c = ((hi - ph - pl) + lo) / scale
        units = c / np.spacing(q)
        mantissa = np.frexp(q)[0]  # in [0.5, 1), in steps of 2**-53
        by_float = by_float | (big & ((np.abs(units - np.floor(units) - 0.5) < _DOUBT)
                                      | (mantissa <= 0.5 + 2.0 ** -53)
                                      | (mantissa >= 1.0 - 2.0 ** -53)))
        scores = np.where(big, q + c, q)
    rows = np.flatnonzero(by_float)
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


# SimulationSpec refuses a larger n, so a huge one fails with a message
# instead of numpy's allocation error
MAX_SIMULATED_ROWS = 10**8


@dataclass(frozen=True)
class SimulationSpec:
    """Two-Gaussian score model: one component per class, clipped to [0, 1]."""

    n: int
    pi_p: float
    mu_n: float
    sigma_n: float
    mu_p: float
    sigma_p: float
    seed: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise SimulationSpecError("n must be at least 2")
        if self.n > MAX_SIMULATED_ROWS:
            raise SimulationSpecError(f"n must be at most {MAX_SIMULATED_ROWS}")
        if not 0.0 < self.pi_p < 1.0:
            raise SimulationSpecError("pi_p must lie strictly inside (0, 1)")
        for name in ("mu_n", "sigma_n", "mu_p", "sigma_p"):
            if not math.isfinite(getattr(self, name)):
                raise SimulationSpecError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.sigma_n <= 0.0 or self.sigma_p <= 0.0:
            raise SimulationSpecError("class standard deviations must be positive")


def simulate_gaussian(spec: SimulationSpec) -> Dataset:
    """Draw a dataset from the spec's class-conditional Gaussians.

    round(n * pi_p) samples are positive. Draws falling outside [0, 1] are
    clipped to the boundary, so extreme parameters pile mass at 0 and 1.
    Identical specs (seed included) produce identical datasets.
    """
    n_p = round(spec.n * spec.pi_p)
    n_n = spec.n - n_p
    if n_p < 1 or n_n < 1:
        raise SimulationSpecError("requested prevalence rounds one class to zero samples")
    rng = np.random.default_rng(spec.seed)
    neg = np.clip(rng.normal(spec.mu_n, spec.sigma_n, n_n), 0.0, 1.0)
    pos = np.clip(rng.normal(spec.mu_p, spec.sigma_p, n_p), 0.0, 1.0)
    scores = np.concatenate([neg, pos])
    labels = np.concatenate([np.full(n_n, NEGATIVE), np.full(n_p, POSITIVE)])
    return Dataset(scores, labels)

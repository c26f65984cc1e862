"""Labeled score datasets: parsing, serialization and simulation.

A dataset is an ordered collection of (score, label) samples where scores
live in [0, 1] and labels are binary. Everything downstream (ROC analysis,
decision curves, cost curves) reads from this container, so validation
happens once, here.
"""

from __future__ import annotations

import csv
import io
import itertools
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


def serialize_dataset(data: Dataset) -> tuple[tuple[str, str], ...]:
    """Inverse of parse_dataset: emits records that parse back to `data`.

    Scores are written with repr so the float round-trips exactly; labels
    are written canonically as 0/1.
    """
    return tuple((repr(float(s)), str(int(l)))
                 for s, l in zip(data.scores, data.labels))


def from_csv(text: str) -> Dataset:
    """Parse `score,label` CSV text into a Dataset.

    A leading byte order mark, which spreadsheet exports write, is skipped.
    Plain files (header `score,label`, then one `score,0` or `score,1` per
    line) are read in one vectorized pass; anything else, and any input
    that pass or Dataset rejects, goes through the row-by-row parser, which
    defines the accepted language and the error messages.
    """
    data = _from_csv_fast(text)
    return data if data is not None else _from_csv_rows(text)


# numpy's loadtxt skips these ASCII separators around a number like spaces,
# but float() rejects them, so a body holding one goes to the row parser
_LOADTXT_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


_PIECE = 1 << 16  # characters of the body in one StringIO for loadtxt


def _pieces(text: str | bytes, lo: int = 0, first: int = _PIECE,
            size: int = _PIECE) -> Iterator[tuple[int, int]]:
    """(start, stop) of text[lo:] cut after the first newline past `first`
    characters, then after the first newline past every `size` more."""
    newline = "\n" if isinstance(text, str) else b"\n"
    while lo < len(text):
        hi = text.find(newline, lo + first) + 1 or len(text)
        yield lo, hi
        lo, first = hi, size


def _plain_header(line: str) -> bool:
    """Whether the first line is `score,label` up to case and padding, after
    any byte order mark, with no cell longer than csv.field_size_limit()."""
    cells = line.removeprefix("\ufeff").split(",")
    return (tuple(cell.strip().casefold() for cell in cells) == CSV_HEADER
            and max(map(len, cells)) <= csv.field_size_limit())


def _from_csv_fast(text: str) -> Dataset | None:
    """The Dataset of a plain `score,0|1` file, or None for any other text.

    The header must be exactly `score,label` up to case and padding, and
    the body must have no quote, no carriage return and no line other than
    `<score>,0` or `<score>,1`; the scores are parsed by one np.loadtxt
    call. _from_csv_rows reads every text this accepts to the same
    Dataset, bit for bit.
    """
    header, _, body = text.partition("\n")
    if not _plain_header(header):
        return None
    # csv.reader refuses a cell longer than its field size limit
    limit = csv.field_size_limit()
    if not body.endswith("\n"):
        body += "\n"
    lines = body.count("\n")
    # a line ending in ",0" or ",1" holds a comma, so equal counts mean
    # every line holds exactly one comma and ends in a 0/1 label
    if not body.count(",") == lines == body.count(",0\n") + body.count(",1\n"):
        return None
    if '"' in body or "\r" in body or any(ch in body for ch in _LOADTXT_ONLY_SPACES):
        return None
    pieces = list(_pieces(body))
    # a line `<score>,0` with too long a score is longer than the limit, and
    # so is the piece holding it
    if any(hi - lo > limit and max(map(len, body[lo:hi].split("\n"))) > limit + 2
           for lo, hi in pieces):
        return None
    # loadtxt takes the lines from a StringIO of one piece of the body at a
    # time: a StringIO of the whole body holds it at 4 bytes a character
    text_lines = itertools.chain.from_iterable(io.StringIO(body[lo:hi]) for lo, hi in pieces)
    try:
        table = np.loadtxt(text_lines, delimiter=",", comments=None,
                           quotechar=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if table.shape != (lines, 2):
        return None
    try:
        return Dataset(table[:, 0], table[:, 1])
    except DatasetError:
        return None


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

    The file is read as bytes once. _from_csv_bytes decodes a plain file of
    short decimal scores from them; any other file is parsed by from_csv
    from the text open(path, encoding="utf-8") would read. A file that is
    not UTF-8 raises ParseError naming the line and the byte.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    data = _from_csv_bytes(raw)
    if data is not None:
        return data
    text = _utf8_text(raw)
    del raw  # the parsers never hold the file's bytes and its text at once
    return from_csv(text)


def _utf8_text(raw: bytes) -> str:
    """raw decoded as a file opened in text mode as UTF-8 reads: CRLF and
    lone CR become LF, and a byte order mark is kept."""
    try:
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"line {line}: not UTF-8 text (byte 0x{raw[exc.start]:02x})") from None


_BYTE_PIECE = 1 << 17  # bytes of the body decoded at a time, after the first 1 KB
_WIDEST = 24  # the widest field decoded
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
    lines are all `<field>,0` or `<field>,1` (the last newline optional), or
    None. A field is 1 to 24 ASCII digits and at most one dot, with a digit;
    its digits form an integer m < 2**58 and it has f <= 22 digits after the
    dot, so its score is m / 10**f with 10**f an exact double. _decode_lines
    gives every score bit for bit as float() reads it, so _from_csv_rows
    reads the file to the same Dataset."""
    body = raw.find(b"\n") + 1
    if not body or b"\r" in raw[:body]:
        return None
    try:
        header = raw[:body - 1].decode("utf-8")
    except UnicodeDecodeError:
        return None
    # repr writes a score below 1e-4 with an exponent, which no field holds:
    # such a file goes to the text path before any piece is decoded
    if not _plain_header(header) or raw.find(b"e", body) >= 0:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    widest = min(_WIDEST, csv.field_size_limit())
    scores = labels = None
    row = 0
    # the first piece is small, so a file of long scores is refused early
    for lo, hi in _pieces(raw, body, 1 << 10, _BYTE_PIECE):
        part = _decode_lines(buf[lo:hi], widest)
        if part is None:
            return None
        if scores is None:
            n = np.count_nonzero(buf[body:] == 10) + (raw[-1] != 10)
            scores, labels = np.empty(n), np.empty(n, dtype=np.int64)
        rows = part[0].size
        scores[row:row + rows], labels[row:row + rows] = part
        row += rows
    try:
        return None if scores is None else Dataset(scores, labels, _owned=True)
    except DatasetError:
        return None


def _decode_lines(a: np.ndarray, widest: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Scores and labels of the lines in the bytes a, or None unless each is
    a field _from_csv_bytes takes, of at most `widest` bytes, and `,0` or
    `,1`. The scores are float() of the fields, bit for bit.

    When every m <= 2**53, m and 10**f are exact doubles and one IEEE
    division is the correctly rounded m / 10**f (Clinger 1990). Otherwise
    hi + lo = m with hi = float(m) and |lo| <= 16, q = hi / 10**f, and
    Dekker's (1971) exact product q * 10**f = ph + pl gives the division's
    remainder hi - ph - pl exactly, so c = (remainder + lo) / 10**f is the
    exact m / 10**f - q with a relative error of at most 2**-52, under
    2**-51 units in the last place of q. fl(q + c) is then the correctly
    rounded m / 10**f unless c / ulp(q) lies within 2**-20 of a half-integer
    (a rounding tie) or q lies within one ulp of a power of two (where the
    spacing of doubles halves); those rows are re-read with float().
    """
    ends = np.flatnonzero(a == 10)
    newlines = ends.size
    if a[-1] != 10:
        ends = np.append(ends, a.size)
    comma = ends - 2
    width = np.diff(ends, prepend=-1) - 3
    labels = a[ends - 1] - 48
    dots = np.count_nonzero(a == 46)
    # one comma a line, left of a 0/1 label: every other byte is a digit or a dot
    if (width.min() < 1 or width.max() > widest or np.any(labels > 1)
            or np.count_nonzero(a == 44) != ends.size or np.any(a[comma] != 44)
            or np.count_nonzero(a - 48 < 10) + dots + ends.size + newlines != a.size):
        return None
    # Horner's rule over the columns j bytes left of the commas, widest first,
    # skipping each field's dot and the columns left of a field's start
    m = np.zeros(ends.size, dtype=np.int64)
    point = np.zeros(ends.size, dtype=np.int64)  # the j of the dot, 0 for none
    span = int(width.max())
    at = comma - span - 1
    for j in range(span, 0, -1):
        at += 1
        digit = a.take(at, mode="clip") - 48  # a dot reads 254
        outside = width < j
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
    q = hi / scale
    big = m > _EXACT
    if not big.any():
        return q, labels
    lo = m - hi.astype(np.int64)
    # Dekker's product: q * scale = ph + pl exactly
    (qh, ql), sh, sl = _split(q), _POW10_HI[f], _POW10_LO[f]
    ph = q * scale
    pl = ((qh * sh - ph) + qh * sl + ql * sh) + ql * sl
    c = ((hi - ph - pl) + lo) / scale
    units = c / np.spacing(q)
    mantissa = np.frexp(q)[0]  # in [0.5, 1), in steps of 2**-53
    doubt = big & ((np.abs(units - np.floor(units) - 0.5) < _DOUBT)
                   | (mantissa <= 0.5 + 2.0 ** -53) | (mantissa >= 1.0 - 2.0 ** -53))
    scores = np.where(big, q + c, q)
    rows = np.flatnonzero(doubt)
    if rows.size:
        scores[rows] = _reread(a, comma[rows] - width[rows], comma[rows])
    return scores, labels


def _reread(a: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> list[float]:
    """float() of the fields a[start:stop]."""
    return [float(a[i:j].tobytes()) for i, j in zip(starts.tolist(), stops.tolist())]


def write_csv(data: Dataset, path: str) -> None:
    write_text(path, _csv_chunks(data))


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
        if not 0.0 < self.pi_p < 1.0:
            raise SimulationSpecError("pi_p must lie strictly inside (0, 1)")
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

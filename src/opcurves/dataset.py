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
                 labels: Sequence[int] | np.ndarray) -> None:
        scores = np.array(scores, dtype=np.float64)
        labels = np.array(labels, dtype=np.int64)
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


def _pieces(text: str) -> Iterator[tuple[int, int]]:
    """(start, stop) of text cut after the first newline past every _PIECE
    characters."""
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + _PIECE) + 1 or len(text)
        yield lo, hi
        lo = hi


def _from_csv_fast(text: str) -> Dataset | None:
    """The Dataset of a plain `score,0|1` file, or None for any other text.

    The header must be exactly `score,label` up to case and padding, and
    the body must have no quote, no carriage return and no line other than
    `<score>,0` or `<score>,1`; the scores are parsed by one np.loadtxt
    call. _from_csv_rows reads every text this accepts to the same
    Dataset, bit for bit.
    """
    # csv.reader refuses a cell longer than its field size limit
    limit = csv.field_size_limit()
    header, _, body = text.partition("\n")
    header = header.removeprefix("\ufeff").split(",")
    if (tuple(cell.strip().casefold() for cell in header) != CSV_HEADER
            or max(map(len, header)) > limit):
        return None
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
    with open(path, "r", encoding="utf-8") as fh:
        return from_csv(fh.read())


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

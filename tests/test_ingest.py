"""Bytes-first ingest: read_csv reads a file's bytes and decodes plain
files (LF or CRLF line ends) of scores of up to 24 bytes, or 25 with a sign
or an exponent, in numpy. Decimal
fields are decoded by integer arithmetic and re-read with float() only where
their rounding cannot be proved; fields with a sign or an exponent are
re-read with float(). Every other file is read as text-mode UTF-8 and
parsed by the row parser.

The oracles are the text-mode read, from_csv(open(path).read()), and the
row parser _from_csv_rows: whatever read_csv returns must equal theirs bit
for bit, and whatever they raise it must raise with the same message.
"""

import csv
import io
import os
import re
import stat
import threading
import tracemalloc
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from opcurves import DatasetError, ParseError, read_csv
from opcurves import dataset
from opcurves.cli import main
from opcurves.dataset import (_FIRST_PIECE, _M_GUARD, _PIECE_BYTES, _PIECE_CAP, _PIECE_ROWS,
                              _WIDEST, _from_csv_file, _from_csv_rows)
from helpers import (decode_lines_oracle, from_csv, from_csv_bytes, make_random, text_lines,
                     to_csv, two_pass_rows_oracle)

TWO_53 = 1 << 53
TWO_58 = 1 << 58


def _bits(data):
    return data.scores.view(np.int64).tolist(), data.labels.tolist()


def _assert_reads_as_text_mode(path, raw):
    """read_csv(path) of raw equals from_csv of the text-mode read of it."""
    path.write_bytes(raw)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        want = from_csv(text)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as got:
            read_csv(str(path))
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    assert _bits(read_csv(str(path))) == _bits(want)


LONG_BODY = "".join(f"0.{i % 997:03d},{i % 3 == 0:d}\n" for i in range(40_000))


TEXT_MODE_FILES = {
    "plain": b"score,label\n0.25,0\n0.75,1\n",
    "crlf": b"score,label\r\n0.25,0\r\n0.75,1\r\n",
    "lone-cr": b"score,label\r0.25,0\r0.75,1\r",
    "crlf-header": b"score,label\r\n0.25,0\n0.75,1\n",
    "crlf-body": b"score,label\n0.25,0\r\n0.75,1\n",
    "cr-in-header": b"score\r,label\n0.25,0\n0.75,1\n",  # ends the header's line
    "final-cr": b"score,label\n0.25,0\n0.75,1\r",
    "bom": b"\xef\xbb\xbfscore,label\n0.25,0\n0.75,1\n",
    "bom-crlf-no-final-newline": b"\xef\xbb\xbfscore,label\r\n0.25,0\r\n0.75,1",
    "no-final-newline": b"score,label\n0.25,0\n0.75,1",
    "blank-last-line": b"score,label\n0.25,0\n0.75,1\n\n",
    "blank-first-line": b"score,label\n\n0.25,0\n0.75,1\n",
    "non-ascii-digit": "score,label\n\u0660.25,0\n0.75,1\n".encode(),  # float() reads it
    "non-ascii-header": "sc\u00f6re,label\n0.25,0\n0.75,1\n".encode(),
    "non-ascii-label": "score,label\n0.25,0\n0.75,\u00e9\n".encode(),
    "padded-label": b"score,label\n0.25, 0\n0.75,1 \n",
    "padded-header": b"Score , LABEL \n0.25,0\n0.75,1\n",
    "letter-labels": b"score,label\n0.25,n\n0.75,P\n",
    "out-of-range": b"score,label\n0.25,0\n1.5,1\n",
    "one-class": b"score,label\n0.25,0\n0.75,0\n",
    "header-only": b"score,label\n",
    "header-no-newline": b"score,label",
    "empty": b"",
    "nul": b"score,label\n0.25,0\n0.75,1\n\x00,1\n",
    "long": ("score,label\n" + LONG_BODY).encode(),
    "long-crlf": ("score,label\n" + LONG_BODY).replace("\n", "\r\n").encode(),
    "long-letter-label-last": ("score,label\n" + LONG_BODY + "0.3,p").encode(),
}


@pytest.mark.parametrize("raw", TEXT_MODE_FILES.values(), ids=TEXT_MODE_FILES.keys())
def test_read_csv_matches_the_text_mode_read(tmp_path, raw):
    _assert_reads_as_text_mode(tmp_path / "in.csv", raw)


@pytest.mark.parametrize("raw, line, byte", [
    (b"score,label\n0.5,1\n0.2,\xff\n", 3, 0xff),
    (b"score,label\r\n0.5,1\r\n\xfe0.2,0\r\n", 3, 0xfe),
    (b"score,label\r0.5,1\r\r0.2,0\xc3\n", 4, 0xc3),
    (b"\xffscore,label\n0.5,1\n", 1, 0xff),
    (b"score,label\n0.5,maybe\n0.2,\xff\n", 3, 0xff),  # before an earlier row error
    pytest.param(b"score,label\n0.5,p\n" + b"0.25,0\n" * 50_000 + b"0.2,\xe2\x82\n", 50_003, 0xe2,
                 id="past-the-first-piece"),
])
def test_a_file_that_is_not_utf8_names_the_line_and_byte(tmp_path, raw, line, byte):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=rf"^line {line}: not UTF-8 text \(byte 0x{byte:02x}\)$"):
        read_csv(str(path))


# The decoder against float(): which fields it takes, and the bits it gives.

def _decodable(field):
    """The decoder's language: 1-24 digits and dots, at most one dot, at
    least one digit, digits m < 2**58, at most 22 digits after the dot."""
    digits = field.replace(".", "", 1)
    return (1 <= len(field) <= 24 and digits.isdigit() and digits.isascii()
            and int(digits) < TWO_58 and len(field.partition(".")[2]) <= 22)


def _decode(fields, labels=None):
    labels = labels or [i % 2 for i in range(len(fields))]
    body = "".join(f"{f},{y}\n" for f, y in zip(fields, labels)).encode()
    return dataset._decode_lines(np.frombuffer(body, dtype=np.uint8), _WIDEST)


@st.composite
def decimal_fields(draw):
    digits = draw(st.one_of(st.text("0123456789", max_size=25),
                            st.integers(TWO_53 - 3, TWO_53 + 3).map(str),
                            st.integers(TWO_58 - 3, TWO_58 + 3).map(str)))
    at = draw(st.none() | st.integers(0, len(digits)))
    return digits if at is None else digits[:at] + "." + digits[at:]


@given(st.lists(decimal_fields(), min_size=1, max_size=6))
def test_decoded_fields_are_float_bit_for_bit(fields):
    got = _decode(fields)
    if not all(_decodable(f) for f in fields):
        assert got is None
        return
    scores, labels = got
    assert scores.view(np.int64).tolist() == np.array(list(map(float, fields))).view(np.int64).tolist()
    assert labels.tolist() == [i % 2 for i in range(len(fields))]


@pytest.mark.parametrize("field", [".5", "1.", "0", "000.000", "1", "0.0", "1.000",
                                   "0.9007199254740992", "9007199254740992",
                                   ".00000000000000001", "123456789012345.6",
                                   "0.9007199254740993", "9007199254740993",
                                   "0.12345678901234567", "0.49999999999999994",
                                   "288230376151711743", "0.288230376151711743",
                                   ".0000000000000000000001", "0.0000000000000000000001",
                                   "0000000000000000000000.5"])
def test_fields_the_decoder_takes(field):
    assert _decodable(field)
    scores, _ = _decode([field])
    assert scores.view(np.int64)[0] == np.float64(float(field)).view(np.int64)


@pytest.mark.parametrize("field", [".", "", "1.2.3", "0..5", "..", "0.1234567890123456789",
                                   "288230376151711744", "2.88230376151711744",
                                   ".00000000000000000000001", "0.00000000000000000000001",
                                   "00000000000000000000000.5", "18446744073709551621",
                                   "1844674407370955162.1",
                                   " 0.5", "0.5 ", "0x1", "٠.5", "0_5", "nan", '"0.5"'])
def test_fields_the_decoder_refuses(field):
    assert _decode([field]) is None
    assert _decode(["0.5", field, "0.25"]) is None


@pytest.mark.parametrize("field", ["-0.5", "+1", "1e-3", "1E-3", "-0.0", "+.5e0", "1e0",
                                   "2.65516383690656e-05", "5e-324", "1e-400", "-1e5",
                                   "4.9406564584124654e-324", "1.000000000000000000e+00",
                                   "1e", "1e-3e1", "+-1", "--1", "e", "-", "1.2.3e0"])
def test_fields_with_a_sign_or_an_exponent_are_reread_with_float(field):
    fields = ["0.5", field, "0.25"]
    with mock.patch.object(dataset, "_reread", wraps=dataset._reread) as reread:
        got = _decode(fields)
    assert reread.call_count == 1
    a, starts, stops = reread.call_args.args
    assert [a[i:j].tobytes().decode() for i, j in zip(starts, stops)] == [field]
    try:
        want = np.array(list(map(float, fields)))
    except ValueError:  # the row parser gives the message
        assert got is None
        return
    assert got[0].view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("field", ["1e", "1e-3e1", "+-1", "--1", "1.2.3e0"])
def test_a_field_float_refuses_keeps_the_row_parser_message(tmp_path, field):
    path = tmp_path / "in.csv"
    for end in (b"\n", b"\r\n"):
        path.write_bytes(end.join([b"score,label", b"0.25,0", field.encode() + b",1",
                                   b"0.75,1", b""]))
        message = rf"^row 2 \(line 3\): score '{re.escape(field)}' is not a decimal number$"
        with pytest.raises(ParseError, match=message):
            read_csv(str(path))
        with pytest.raises(ParseError, match=message):
            _from_csv_rows(text_lines(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("line", [b"0.5,2", b"0.5,01", b"0.5,", b"0.5", b"0.5,1,1",
                                  b",1", b"0.5;1", b"0.5,x", b"0.5,e", b"0.5, p", b"0.5,pP",
                                  b"0.5N,1", b"0.5,\xff", b"\n"])
def test_lines_the_decoder_refuses(line):
    for body in (line + b"\n", b"0.25,0\n" + line + b"\n0.75,1\n", b"0.25,0\n" + line):
        assert dataset._decode_lines(np.frombuffer(body, dtype=np.uint8), _WIDEST) is None


@pytest.mark.parametrize("line", [b"0.5,p", b"0.5,P", b"0.5,n", b"0.5,N", b"1e-5,p",
                                  b"-0.0,N"])
def test_lines_the_decoder_takes(line):
    # a one-byte N/P label in either case, as the row parser reads it
    for end in (b"\n", b"\r\n"):
        raw = end.join([b"score,label", b"0.25,0", line, b"0.75,1", b""])
        assert from_csv_bytes(raw) is not None
        _assert_bytes_match_the_row_parser(raw)


def test_every_ascii_label_byte_reads_as_the_row_parser_reads_it():
    # the decoder's label table against the row parser's spellings: each
    # byte is taken by both, with the same label, or refused by both
    for byte in range(128):
        raw = b"score,label\n0.25,0\n0.5," + bytes([byte]) + b"\n0.75,1\n"
        data = from_csv_bytes(raw)
        try:
            want = _from_csv_rows(text_lines(raw.decode("ascii")))
        except DatasetError:
            assert data is None, byte
            continue
        assert data is not None, byte
        assert _bits(data) == _bits(want), byte


def test_every_six_digit_decimal_is_float_bit_for_bit():
    fields = [f"0.{i:06d}" for i in range(10**6)]
    want = np.array(list(map(float, fields)))
    raw = ("score,label\n" + "".join(f"{f},{i & 1}\n" for i, f in enumerate(fields))).encode()
    data = from_csv_bytes(raw)
    assert data is not None
    assert np.array_equal(data.scores.view(np.int64), want.view(np.int64))
    assert np.array_equal(data.labels, np.arange(10**6) & 1)


# Fields of 17 significant digits, as repr writes them: m passes 2**53, and
# each row's rounding is either proved or re-read with float().

@given(st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=20))
@example([0.49999999999999994, 1.0, 0.1, 2.0 ** -13, 1e-4, 0.9999999999999999,
          0.30000000000000004, 0.7182861382334527])
def test_repr_fields_decode_bit_for_bit(values):
    scores, _ = _decode(list(map(repr, values)))
    assert scores.view(np.int64).tolist() == np.array(values).view(np.int64).tolist()


@pytest.mark.parametrize("power", [1, 2, 3, 5, 8, 13])
def test_repr_fields_across_binades_decode_bit_for_bit(power):
    values = np.random.default_rng(power).random(20_000) ** power
    fields = [f for f in map(repr, values.tolist()) if "e" not in f]
    # none of these lies near a tie, so the re-read is not called
    with mock.patch.object(dataset, "_reread", wraps=dataset._reread) as reread:
        scores, _ = _decode(fields)
    assert reread.call_count == 0
    assert np.array_equal(scores.view(np.int64), np.array(list(map(float, fields))).view(np.int64))


# Decimals within 2**-20 units in the last place of the midpoint of two
# adjacent doubles (each the nearest to one such midpoint with m < 2**58),
# and exact midpoints above 2**51; 2**54 - 1 and 2**55 - 2 are ties just
# below a power of two, where the spacing of doubles halves.
NEAR_TIES = ["0.054167496378288469", "0.092479772659323424", "0.0153508443904211778",
             "0.000255365131809459010", "0.00065890419317539661", "0.0170611896853742704"]
EXACT_TIES = [str(TWO_53 + 1), "2251799813685248.25", "9007199254740993.0",
              str((1 << 54) - 1), str((1 << 55) - 2)]


def _ulps_from_a_tie(field):
    """How far the exact decimal lies from the midpoint of the double it reads
    as and that double's neighbour on its side, in units of their spacing."""
    exact, near = Decimal(field), float(field)
    other = float(np.nextafter(near, np.inf if exact > Decimal(near) else -np.inf))
    midpoint = (Decimal(near) + Decimal(other)) / 2
    return abs(exact - midpoint) / abs(Decimal(near) - Decimal(other))


@pytest.mark.parametrize("field", NEAR_TIES + EXACT_TIES)
def test_fields_near_a_rounding_tie_are_reread(field):
    assert _ulps_from_a_tie(field) < Decimal(2) ** -20
    fields = ["0.5", field, "0.30000000000000004"]
    with mock.patch.object(dataset, "_reread", wraps=dataset._reread) as reread:
        scores, _ = _decode(fields)
    assert reread.call_count == 1
    a, starts, stops = reread.call_args.args
    assert [a[i:j].tobytes().decode() for i, j in zip(starts, stops)] == [field]
    want = np.array(list(map(float, fields)))
    assert scores.view(np.int64).tolist() == want.view(np.int64).tolist()


# Whole files: what the decoder takes equals the row parser, bit for bit.

def _assert_bytes_match_the_row_parser(raw):
    data = from_csv_bytes(raw)
    text = raw.decode("utf-8")
    try:
        want = _from_csv_rows(text_lines(text))
    except DatasetError:
        assert data is None
        return
    if data is not None:
        assert _bits(data) == _bits(want)
        assert not data.scores.flags.writeable and not data.labels.flags.writeable
    assert _bits(from_csv(text)) == _bits(want)


@given(st.lists(st.tuples(st.one_of(decimal_fields(), st.sampled_from(["0.5", "1", "0"])),
                          st.sampled_from("01NPnp")), min_size=1, max_size=8),
       st.booleans())
def test_files_of_decimal_fields_match_the_row_parser(rows, final_newline):
    lines = [f"{f},{y}" for f, y in rows] + ["0.25,0", "0.75,1"]
    raw = ("score,label\n" + "\n".join(lines) + "\n" * final_newline).encode()
    _assert_bytes_match_the_row_parser(raw)


@pytest.mark.parametrize("body", [".5,0\n1.,1\n", "0,0\n1,1\n000.000,0\n1,1",
                                  "0.9007199254740992,1\n0,0\n",
                                  "0.9007199254740993,1\n0,0\n"])
def test_files_the_decoder_takes(body):
    raw = ("score,label\n" + body).encode()
    assert from_csv_bytes(raw) is not None
    _assert_bytes_match_the_row_parser(raw)


@pytest.mark.parametrize("body", [".,1\n0,0\n", ",1\n0,0\n", "1.5,1\n0,0\n",
                                  "0.288230376151711744,1\n0,0\n", "0,0\n0,0\n"])
def test_files_the_decoder_leaves_to_the_text_path(tmp_path, body):
    raw = ("score,label\n" + body).encode()
    assert from_csv_bytes(raw) is None
    _assert_bytes_match_the_row_parser(raw)
    _assert_reads_as_text_mode(tmp_path / "in.csv", raw)


def test_an_out_of_range_score_keeps_the_row_parser_message(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"score,label\n0.25,0\n1.5,1\n0.75,1\n")
    with pytest.raises(ParseError, match=r"^row 2 \(line 3\): score '1.5' is outside \[0, 1\]$"):
        read_csv(str(path))


def _pieces_decoded(raw):
    """The Dataset the byte decoder makes of raw, and the rows of each
    piece it decoded."""
    with mock.patch.object(dataset, "_decode_lines", wraps=dataset._decode_lines) as decode:
        data = from_csv_bytes(raw)
    return data, [call.args[0].tobytes().count(b"\n") for call in decode.call_args_list]


def test_bodies_of_many_pieces_match_the_row_parser():
    rng = np.random.default_rng(5)
    fields = [f"{x:.{k}f}" for x, k in zip(rng.random(60_000), rng.integers(0, 12, 60_000))]
    body = "".join(f"{f},{y}\n" for f, y in zip(fields, rng.integers(0, 2, 60_000)))
    assert len(_pieces_decoded(("score,label\n" + body).encode())[1]) > 4
    for raw in (("score,label\n" + body).encode(), ("score,label\n" + body[:-1]).encode()):
        assert from_csv_bytes(raw) is not None
        _assert_bytes_match_the_row_parser(raw)
    # a late piece of 17-digit scores is refined and stays on the decoded path
    raw = ("score,label\n" + body + "0.12345678901234567,1\n").encode()
    assert from_csv_bytes(raw) is not None
    _assert_bytes_match_the_row_parser(raw)
    # refused late in the body (m >= 2**58 in the first): the text path reads it
    for tail in ("0.1234567890123456789,1\n", "1.5,0\n", "0.5,1,0\n"):
        raw = ("score,label\n" + body + tail).encode()
        assert from_csv_bytes(raw) is None
        _assert_bytes_match_the_row_parser(raw)


class _Pieces(io.BytesIO):
    """A file that may be read only by readline and by readinto of at most
    _PIECE_CAP; it records the size of each readinto."""

    def __init__(self, raw):
        super().__init__(raw)
        self.sizes = []

    def read(self, size=-1):
        raise AssertionError("read the file whole")

    def readinto(self, buffer):
        self.sizes.append(len(buffer))
        assert len(buffer) <= _PIECE_CAP
        return super().readinto(buffer)


@pytest.mark.parametrize("final_newline", [True, False])
def test_the_decoder_reads_the_body_in_pieces_into_arrays_of_its_rows(final_newline):
    data = make_random(9, n=40_000)
    raw = to_csv(data).encode()[:None if final_newline else -1]
    fh = _Pieces(raw)
    got = _from_csv_file(fh, len(raw))
    assert _bits(got) == _bits(data)
    assert len(fh.sizes) > 4 and fh.sizes[0] == _FIRST_PIECE == 1 << 10
    # cut to the rows read: each array owns its memory, no view of a larger one
    for arr in (got.scores, got.labels):
        assert arr.base is None and arr.size == 40_000


@pytest.mark.parametrize("final_newline", [True, False])
def test_a_body_about_as_long_as_the_first_piece_is_decoded(final_newline):
    # the first piece, 1 KB, ends before, inside or after the last line; the
    # rest of the body then fills a piece sized for it with a byte to spare
    for lines in range(120, 132):
        body = "0.125,1\n" * lines + "0.1234567,0" + "\n" * final_newline
        raw = ("score,label\n" + body).encode()
        assert from_csv_bytes(raw) is not None, lines
        _assert_bytes_match_the_row_parser(raw)


def test_a_file_longer_than_its_size_said_goes_to_the_row_parser(tmp_path):
    # the decoder reads no more bytes than `size`; a file that grew after its
    # size was read is refused, and read_csv reads it again from its start
    raw = to_csv(make_random(4, n=2_000)).encode()
    assert _from_csv_file(io.BytesIO(raw), len(raw) // 10) is None
    assert _from_csv_file(io.BytesIO(raw), 1) is None  # shorter than its header
    assert _bits(_from_csv_file(io.BytesIO(raw), len(raw))) == _bits(from_csv_bytes(raw))
    with mock.patch.object(dataset.os, "fstat", return_value=mock.Mock(st_size=len(raw) // 10,
                                                                 st_mode=stat.S_IFREG | 0o644)):
        path = tmp_path / "grown.csv"
        path.write_bytes(raw)
        with mock.patch.object(dataset, "_from_csv_rows", wraps=dataset._from_csv_rows) as rows:
            assert _bits(read_csv(str(path))) == _bits(from_csv_bytes(raw))
    assert rows.call_count == 1


def _outcome(read, path):
    try:
        return _bits(read(path))
    except DatasetError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", ["decoded", "row parser", "not utf-8", "empty"])
def test_a_fifo_is_read_once_as_a_file_of_its_bytes_is_read(tmp_path, case):
    # a pipe has no size to bound the rows and its bytes can be read only
    # once, so read_csv reads it whole and gives both parsers those bytes
    raw = to_csv(make_random(5, n=3_000)).encode()
    raw = {"decoded": raw, "row parser": raw.replace(b"\n", b"\n\n", 1),  # a blank line
           "not utf-8": raw + b"0.5,\xff\n", "empty": b""}[case]
    assert (from_csv_bytes(raw) is not None) == (case == "decoded")
    path = tmp_path / "plain.csv"
    path.write_bytes(raw)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []

    def read():
        try:
            got.append(_outcome(read_csv, str(fifo)))
        except Exception as exc:  # reported below
            got.append(exc)

    with mock.patch.object(dataset, "_from_csv_rows", wraps=dataset._from_csv_rows) as rows:
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        fifo.write_bytes(raw)
        reader.join(timeout=10)
        if reader.is_alive():  # it opened the pipe again: end it with an empty write
            fifo.write_bytes(b"")
            reader.join()
    assert got == [_outcome(read_csv, str(path))]
    assert rows.call_count == (case in ("row parser", "empty"))


def test_a_regular_file_whose_size_reads_0_is_read_whole(tmp_path):
    # as files under /proc report themselves
    raw = to_csv(make_random(6, n=500)).encode()
    path = tmp_path / "sizeless.csv"
    path.write_bytes(raw)
    with mock.patch.object(dataset.os, "fstat",
                           return_value=mock.Mock(st_size=0, st_mode=stat.S_IFREG | 0o644)):
        assert _bits(read_csv(str(path))) == _bits(from_csv_bytes(raw))


@pytest.mark.parametrize("final_newline", [True, False])
def test_a_simulated_file_reads_as_the_row_parser_reads_it(tmp_path, final_newline):
    path = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "70000", "--seed", "11", "--out", str(path)]) == 0
    raw = path.read_bytes()
    assert len(_pieces_decoded(raw)[1]) > 4
    if not final_newline:
        raw = raw[:-1]
        path.write_bytes(raw)
    assert from_csv_bytes(raw) is not None
    assert _bits(read_csv(str(path))) == _bits(_from_csv_rows(text_lines(raw.decode())))


def test_a_file_of_long_scores_is_refused_by_its_first_kilobyte():
    # the exact decimal of the double 0.30000000000000004: 54 bytes
    raw = ("score,label\n0.3000000000000000444089209850062616169452667236328125,0\n"
           + "0.25,0\n0.75,1\n" * 50_000).encode()
    with mock.patch.object(dataset, "_decode_lines", wraps=dataset._decode_lines) as decode:
        assert from_csv_bytes(raw) is None
    assert decode.call_count == 1
    assert decode.call_args.args[0].size <= 1100


def test_a_file_with_an_exponent_is_decoded_and_only_that_field_is_reread():
    # repr writes scores below 1e-4 with one, here in the last line
    raw = ("score,label\n" + "0.30000000000000004,0\n0.75,1\n" * 50_000
           + repr(2.65516383690656e-05) + ",0\n").encode()
    with mock.patch.object(dataset, "_reread", wraps=dataset._reread) as reread:
        assert from_csv_bytes(raw) is not None
    assert reread.call_count == 1
    a, starts, stops = reread.call_args.args
    assert [a[i:j].tobytes() for i, j in zip(starts, stops)] == [b"2.65516383690656e-05"]
    _assert_bytes_match_the_row_parser(raw)


def test_the_csv_field_size_limit_holds_on_the_decoded_path(tmp_path):
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(9)  # takes 0.1234567, refuses 0.12345678
        for body in ("0.25,0\n0.125,1\n", "0.25,0\n0.1234567,1\n", "0.25,0\n0.12345678,1\n"):
            raw = ("score,label\n" + body).encode()
            _assert_bytes_match_the_row_parser(raw)
            _assert_reads_as_text_mode(tmp_path / "in.csv", raw)
    finally:
        csv.field_size_limit(limit)


CRLF_FILES = ("crlf", "crlf-header", "crlf-body", "bom-crlf-no-final-newline", "long-crlf")


@pytest.mark.parametrize("name", CRLF_FILES + ("lone-cr", "cr-in-header", "final-cr"))
def test_crlf_line_ends_are_decoded_and_a_lone_cr_is_not(name):
    raw = TEXT_MODE_FILES[name]
    assert (from_csv_bytes(raw) is not None) == (name in CRLF_FILES)


@pytest.mark.parametrize("body", [b"0.5,1\r\r\n", b"0.5\r,1\r\n", b"\r0.5,1\r\n", b"0.5,1\r",
                                  b"\r\n", b"0.5,\r1\r\n"])
def test_crlf_lines_the_decoder_refuses(body):
    for crlf in (False, True):
        a = np.frombuffer(b"0.25,0\r\n" + body + b"0.75,1\r\n", dtype=np.uint8)
        assert dataset._decode_lines(a, _WIDEST, crlf) is None


def _signed(x):
    return st.sampled_from(["+" + repr(x), "-0.0", "-0", "+0.5", "-0e-5"])


# every float in [0, 1] in the forms repr, "%.18e", "%.6E" and signed write
repr_and_exponent_fields = st.floats(0.0, 1.0).flatmap(lambda x: st.sampled_from(
    [repr(x), f"{x:.18e}", f"{x:.6E}"]) | _signed(x))


@given(st.lists(st.tuples(repr_and_exponent_fields, st.sampled_from("01NPnp")), max_size=12),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
@example([(repr(5e-324), "1"), (f"{2.0 ** -1074:.18e}", "0"), ("1.000000E+00", "1"),
          (repr(2.65516383690656e-05), "0"), ("+" + repr(0.49999999999999994), "1")], "\r\n", False)
def test_files_of_repr_exponent_and_signed_fields_are_decoded(rows, end, final_end):
    lines = ["score,label", "0.25,0", "0.75,1"] + [f"{f},{y}" for f, y in rows]
    raw = (end.join(lines) + end * final_end).encode()
    # every such field has at most 25 bytes, as "%.18e" of a value below 1e-99
    assert from_csv_bytes(raw) is not None
    _assert_bytes_match_the_row_parser(raw)


# The decoder against its Horner loop with np.where selects and its
# exact-division tail on every row, as they were (helpers.decode_lines_oracle):
# the same scores bit for bit and the same labels, or the same refusal, piece
# by piece.

EDGE_DIGITS = st.sampled_from([TWO_53 - 1, TWO_53, TWO_53 + 1, TWO_58 - 1, TWO_58,
                               _M_GUARD - 1, _M_GUARD, _M_GUARD + 1]).map(str)


def _assert_decoded_as_the_oracle(raw):
    """_decode_lines of the bytes raw gives what the oracle gives, or
    refuses what it refuses; the decoded scores, or None."""
    a, crlf = np.frombuffer(raw, dtype=np.uint8), b"\r" in raw
    got, want = dataset._decode_lines(a, _WIDEST, crlf), decode_lines_oracle(a, _WIDEST, crlf)
    if want is None:
        assert got is None, raw
        return None
    assert got is not None, raw
    assert got[0].view(np.int64).tolist() == want[0].view(np.int64).tolist(), raw
    assert got[1].tolist() == want[1].tolist()
    return got[0]


@st.composite
def oracle_fields(draw):
    """Fields of digits and dots: integer digits, leading zeros, no digit
    before the dot, a lone or a second dot, up to 24 digits after it, and
    the digits of m at 2**53, 2**58 and the loop's overflow guard, each
    with a digit or two more; or a field with a sign or an exponent."""
    digits = draw(st.one_of(st.text("0123456789", max_size=24),
                            st.tuples(st.text("0", max_size=3), EDGE_DIGITS,
                                      st.text("0123456789", max_size=2)).map("".join)))
    form = draw(st.sampled_from(["none", "one", "one", "fraction", "two", "lone", "signed"]))
    if form == "fraction":
        return draw(st.sampled_from(["0.", ".", "1.", "00."])) + draw(
            st.text("0123456789", min_size=18, max_size=22))
    if form == "lone":
        return "."
    if form == "signed":
        return draw(repr_and_exponent_fields)
    for _ in range({"none": 0, "one": 1, "two": 2}[form]):
        at = draw(st.integers(0, len(digits)))
        digits = digits[:at] + "." + digits[at:]
    return digits


@given(st.lists(st.tuples(oracle_fields(), st.sampled_from("01NPnp"),
                          st.sampled_from(["\n", "\r\n"])), min_size=1, max_size=8),
       st.booleans())
@example([("12.25", "1", "\n"), ("1.", "0", "\n"), ("1.0", "P", "\n"), ("00.125", "n", "\n"),
          (".5", "1", "\n")], True)
@example([("0." + "1" * 18, "1", "\r\n"), ("1." + "0" * 17, "0", "\r\n"),
          (".0" + "9" * 21, "1", "\r\n"), ("-0.5", "0", "\r\n"), ("1e-3", "1", "\r\n")], False)
@example([(str(TWO_53 + 1), "1", "\n"), ("2" + str(TWO_58 - 1)[:17] + ".", "0", "\n")], True)
@example([(str(_M_GUARD) + "1", "1", "\n")], True)
@example([(str(_M_GUARD + 1) + "0", "1", "\n"), (str(_M_GUARD + 1) + "9", "0", "\n")], True)
@example([("1" + "0" * 18 + ".5", "1", "\n")], True)
@example([("0.5", "1", "\n"), (".", "0", "\n")], True)
@example([("0.5", "1", "\n"), ("1.2.5", "0", "\n")], True)
def test_the_decoder_matches_its_np_where_loop(rows, final_end):
    lines = [f"{f},{y}{end}" for f, y, end in rows]
    # the piece, and each line as a piece of its own, so that a field the
    # decoder refuses does not hide the others
    for body in ["".join(lines)] + lines:
        if not final_end:
            body = body.removesuffix("\r\n").removesuffix("\n")
        _assert_decoded_as_the_oracle(body.encode())


def _float_bits(fields):
    return np.array(list(map(float, fields))).view(np.int64).tolist()


@pytest.mark.parametrize("big", ["none", "one", "every"])
def test_the_exact_tail_runs_on_the_gathered_rows_alone(big):
    # fields of 17 digits after the dot, the first not 0, have m > 10**16 > 2**53
    # (repr(0.1 + 0.2) is one); those of 6 do not
    rng = np.random.default_rng(3)
    fields = [f"{x:.6f}" for x in rng.random(500)]
    many = {"none": 0, "one": 1, "every": len(fields)}[big]
    for i in rng.permutation(len(fields))[:many]:
        fields[i] = f"0.{rng.integers(10**16, 10**17)}"
    raw = "".join(f"{f},{i % 2}\n" for i, f in enumerate(fields)).encode()
    with mock.patch.object(dataset, "times_pow10", wraps=dataset.times_pow10) as product:
        scores = _assert_decoded_as_the_oracle(raw)
    assert scores.view(np.int64).tolist() == _float_bits(fields)
    assert product.call_count == (many > 0)
    if many:
        assert product.call_args.args[0].size == many


@pytest.mark.parametrize("span", range(1, 25))
def test_odd_and_even_spans_decode_as_the_oracle(span):
    # the widest field sets the columns Horner's rule reads, 1 to 24
    rng = np.random.default_rng(span)
    fields = []
    for width in [span] + rng.integers(1, span + 1, 60).tolist():
        digits = "".join(map(str, rng.integers(0, 10, width)))
        at = int(rng.integers(0, width)) if width > 1 and rng.random() < 0.8 else None
        fields.append(digits if at is None else digits[:at] + "." + digits[at + 1:])
    # and the same fields cut to what the decoder takes (m < 2**58, f <= 22),
    # the widest still `span` bytes
    fitted = [f if _decodable(f) else ("0." + f.replace(".", ""))[:17] for f in fields]
    fitted[0] = fitted[0] if _decodable(fields[0]) else ("0." + "0" * span)[:span]
    for chosen in (fields, fitted):
        raw = "".join(f"{f},{i % 2}\n" for i, f in enumerate(chosen)).encode()
        scores = _assert_decoded_as_the_oracle(raw)
        if all(map(_decodable, chosen)):
            assert scores.view(np.int64).tolist() == _float_bits(chosen)
        else:
            assert scores is None


@pytest.mark.parametrize("width", range(4, 26))
def test_lines_of_4_to_25_bytes_are_read_in_pieces_of_rows(width):
    # the first piece is 1 KB; each later one holds _PIECE_ROWS lines as wide
    # as the first piece's, or _PIECE_BYTES of lines narrower than 8 bytes,
    # the last what is left
    rng = np.random.default_rng(width)
    k = width - 3  # the field's bytes
    n = 2 * _PIECE_ROWS + 777
    if k == 1:
        fields = rng.integers(0, 2, n).astype(str).tolist()
    else:  # at most 17 significant digits after the dot, so m < 2**58
        zeros = "0." + "0" * max(0, k - 2 - 17)
        fields = [zeros + "".join(map(str, d)) for d in rng.integers(0, 10, (n, k - len(zeros)))]
    labels = rng.integers(0, 2, n)
    raw = ("score,label\n" + "".join(f"{f},{y}\n" for f, y in zip(fields, labels))).encode()
    assert len(raw) - len(b"score,label\n") == width * n
    data, pieces = _pieces_decoded(raw)
    first, per = _FIRST_PIECE // width, max(_PIECE_BYTES, width * _PIECE_ROWS) // width
    full, last = divmod(n - first, per)
    assert pieces == [first] + [per] * full + [last] * (last > 0)
    assert per == (_PIECE_ROWS if width >= 8 else _PIECE_BYTES // width)
    assert data.scores.view(np.int64).tolist() == _float_bits(fields)
    assert data.labels.tolist() == labels.tolist()


@pytest.mark.parametrize("case", ["narrower", "wider"])
def test_the_arrays_grow_or_are_cut_to_the_rows_read(case):
    # the arrays are sized by the first piece's bytes per line: later lines
    # of 4 bytes outnumber that room, which grows for them; later lines of 25
    # leave rows unused, which are cut at the end
    wide = [repr(0.1 + i / 7e4) for i in range(60)]  # 19 and 20 bytes
    short = [str(i % 2) for i in range(50_000)]
    fields = wide + short if case == "narrower" else short[:60] + ["0.000" + "1" * 17] * 20_000
    raw = ("score,label\n" + "".join(f"{f},{i % 2}\n" for i, f in enumerate(fields))).encode()
    data = from_csv_bytes(raw)
    assert data.scores.view(np.int64).tolist() == _float_bits(fields)
    for arr in (data.scores, data.labels):
        assert arr.base is None and arr.size == len(fields)


def test_a_savetxt_file_with_scores_below_1e_99_is_decoded(tmp_path):
    # np.savetxt's default "%.18e" writes 1e-120 and 5e-324 in 25 bytes
    rng = np.random.default_rng(5)
    scores, labels = rng.random(2_000), (rng.random(2_000) < 0.3).astype(int)
    scores[[3, 1_500]] = 1e-120, 5e-324
    path = tmp_path / "savetxt.csv"
    np.savetxt(path, np.column_stack([scores, labels]), fmt=["%.18e", "%d"],
               delimiter=",", header="score,label", comments="")
    raw = path.read_bytes()
    assert b"\n9.999999999999999786e-121," in raw and b"\n4.940656458412465442e-324," in raw
    data = from_csv_bytes(raw)
    assert data is not None
    assert (_bits(data) == _bits(_from_csv_rows(text_lines(raw.decode())))
            == _bits(read_csv(str(path))))
    # a field of 26 bytes goes to the row parser
    wide = raw.replace(b"\n9.9", b"\n+9.9")
    assert from_csv_bytes(wide) is None
    _assert_reads_as_text_mode(path, wide)


# The one-pass row parser against the two-pass oracle it replaced: the same
# Dataset, bit for bit, or the same error, on texts of no bad row or one;
# on texts of two, the error of the earlier one.

ROW_SCORES = st.one_of(st.floats(0.0, 1.0).map(repr),
                       st.sampled_from(["0", "1", ".5", " 0.25 ", '"0.75"', "1e-3", "+0.5",
                                        "-0.0", "\u0660.5", '"0.5\n"']))
ROW_LABELS = st.sampled_from(["0", "1", "n", "P", " p ", '"N"', "1 "])
GOOD_ROWS = (st.tuples(ROW_SCORES, ROW_LABELS).map(",".join)
             | st.sampled_from(["", "   ", ",", '"",""']))
BAD_ROWS = st.sampled_from(["x,0", "1.5,1", "nan,0", "-0.1,1", ",1", "0.5,maybe", "0.5,2",
                            "0.5,", "0.5", "0.5,1,1", '"0.5,1"', "0.5\r,1", "1e,0"])
HEADER_ROWS = st.sampled_from(["score,label", " Score , LABEL ", "\ufeffscore,label",
                               '"score",label'])


def _outcome(parse, text):
    try:
        return _bits(parse(text))
    except DatasetError as exc:
        return type(exc), str(exc)


@given(HEADER_ROWS, st.lists(GOOD_ROWS, max_size=8),
       st.lists(st.tuples(BAD_ROWS, st.integers(0, 10)), max_size=2),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
@example("score,label", [], [("0.5,maybe", 0), ("0.5,1,1", 2)], "\n", True)
@example("score,label", ["0.1,0"], [("x,0", 0), ("0.5\r,1", 3)], "\n", True)
def test_the_row_parser_matches_the_two_pass_oracle(tmp_path_factory, header, good, bad,
                                                    end, final_end):
    rows = [(line, None) for line in ["0.25,0", "0.75,1", *good]]
    for k, (line, at) in enumerate(bad):
        rows.insert(at % (len(rows) + 1), (line, k))
    later = [k for _, k in rows if k is not None][1:]  # the second bad row in file order

    def text(skip):
        return end.join([header] + [line for line, k in rows if k not in skip]) + end * final_end

    full, want_text = text(()), text(later)
    assert (_outcome(lambda t: _from_csv_rows(text_lines(t)), full)
            == _outcome(two_pass_rows_oracle, want_text))
    # read_csv of the file against the oracle of its text-mode read
    folder = tmp_path_factory.mktemp("rows")
    path, want_path = folder / "in.csv", folder / "want.csv"
    path.write_bytes(full.encode())
    want_path.write_bytes(want_text.encode())
    with open(want_path, encoding="utf-8") as fh:
        want = _outcome(two_pass_rows_oracle, fh.read())
    assert _outcome(read_csv, str(path)) == want


def test_the_row_path_holds_no_copy_of_the_file(tmp_path):
    # the byte decoder refuses a blank line in its first piece, before it
    # makes arrays for the rows, so its peak is its piece buffer and that
    # piece's temporaries. The row parser then
    # reads the file's lines through the same handle as it goes, into an
    # array of doubles and one of bytes that the Dataset takes, so its own
    # peak is those arrays and the Dataset's sorted class copies, under the
    # file's size
    text = to_csv(make_random(3, n=50_000)).replace(",0\n", ",N\n").replace(",1\n", ",P\n")
    text = text.replace("\n", "\n\n", 1)
    path = tmp_path / "np.csv"
    path.write_text(text, encoding="utf-8")
    size = path.stat().st_size
    assert from_csv_bytes(path.read_bytes()) is None
    decode, decoder_peak = dataset._from_csv_file, []

    def decode_then_reset_the_peak(fh, n):
        got = decode(fh, n)
        decoder_peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return got

    tracemalloc.start()
    try:
        with mock.patch.object(dataset, "_from_csv_file", side_effect=decode_then_reset_the_peak):
            data = read_csv(str(path))
        rows_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _bits(data) == _bits(two_pass_rows_oracle(text))
    assert decoder_peak[0] < 0.5 * size, decoder_peak[0] / size
    assert rows_peak < 1.5 * size, rows_peak / size


def test_an_accepted_file_holds_arrays_of_its_rows(tmp_path):
    # the byte decoder sizes its arrays by the rows the first piece's width
    # gives, not by the most rows the file's size allows (9 bytes for each 4
    # of the file), so read_csv's peak is 17 bytes a row (the scores, the
    # labels and the Dataset's sorted class copies) and one piece's
    # temporaries
    n = 100_000
    path = tmp_path / "in.csv"
    path.write_text(to_csv(make_random(3, n=n)), encoding="utf-8")
    tracemalloc.start()
    try:
        with mock.patch.object(dataset, "_from_csv_rows") as rows:
            data = read_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.call_count == 0 and data.n == n
    assert peak < 17 * n + 4 * _PIECE_CAP, (peak, path.stat().st_size)


@pytest.mark.parametrize("case", ["row parser", "not utf-8"])
def test_the_row_parser_reads_the_file_the_decoder_refused(tmp_path, case):
    # read_csv seeks back in the handle it opened, so a file moved into the
    # path's place in between is not read
    text = to_csv(make_random(7, n=2_000)).replace("\n", "\n\n", 1)  # a blank line
    raw = {"row parser": text.encode(), "not utf-8": text.encode() + b"0.5,\xff\n"}[case]
    path, other = tmp_path / "in.csv", tmp_path / "other.csv"
    path.write_bytes(raw)
    other.write_bytes(to_csv(make_random(8, n=500)).replace("\n", "\n\n", 1).encode())
    decode = dataset._from_csv_file

    def decode_then_replace(fh, size):
        got = decode(fh, size)
        os.replace(other, path)
        return got

    with mock.patch.object(dataset, "_from_csv_file", side_effect=decode_then_replace):
        got = _outcome(read_csv, str(path))
    assert not other.exists()
    if case == "row parser":
        assert got == _bits(two_pass_rows_oracle(text))
    else:
        assert got == (ParseError, "line 2003: not UTF-8 text (byte 0xff)")


@pytest.mark.parametrize("case", ["decoded", "row parser", "not utf-8", "empty"])
def test_read_csv_opens_its_input_once(tmp_path, case):
    raw = to_csv(make_random(9, n=2_000)).encode()
    raw = {"decoded": raw, "row parser": raw.replace(b"\n", b"\n\n", 1),
           "not utf-8": raw + b"0.5,\xff\n", "empty": b""}[case]
    path = tmp_path / "in.csv"
    path.write_bytes(raw)
    with mock.patch.object(dataset, "open", wraps=open, create=True) as opened:
        _outcome(read_csv, str(path))
    assert opened.call_args_list == [mock.call(str(path), "rb")]

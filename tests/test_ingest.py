"""Bytes-first ingest: read_csv reads a file's bytes once and decodes plain
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
import re
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from opcurves import DatasetError, ParseError, from_csv, read_csv
from opcurves import dataset
from opcurves.cli import main
from opcurves.dataset import _PIECE_BYTES, _WIDEST, _from_csv_bytes, _from_csv_rows

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
            _from_csv_rows(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("line", [b"0.5,2", b"0.5,01", b"0.5,", b"0.5", b"0.5,1,1",
                                  b",1", b"0.5;1", b"0.5,p", b"0.5,\xff", b"\n"])
def test_lines_the_decoder_refuses(line):
    for body in (line + b"\n", b"0.25,0\n" + line + b"\n0.75,1\n", b"0.25,0\n" + line):
        assert dataset._decode_lines(np.frombuffer(body, dtype=np.uint8), _WIDEST) is None


def test_every_six_digit_decimal_is_float_bit_for_bit():
    fields = [f"0.{i:06d}" for i in range(10**6)]
    want = np.array(list(map(float, fields)))
    raw = ("score,label\n" + "".join(f"{f},{i & 1}\n" for i, f in enumerate(fields))).encode()
    data = _from_csv_bytes(raw)
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
    data = _from_csv_bytes(raw)
    text = raw.decode("utf-8")
    try:
        want = _from_csv_rows(text)
    except DatasetError:
        assert data is None
        return
    if data is not None:
        assert _bits(data) == _bits(want)
        assert not data.scores.flags.writeable and not data.labels.flags.writeable
    assert _bits(from_csv(text)) == _bits(want)


@given(st.lists(st.tuples(st.one_of(decimal_fields(), st.sampled_from(["0.5", "1", "0"])),
                          st.sampled_from("01")), min_size=1, max_size=8),
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
    assert _from_csv_bytes(raw) is not None
    _assert_bytes_match_the_row_parser(raw)


@pytest.mark.parametrize("body", [".,1\n0,0\n", ",1\n0,0\n", "1.5,1\n0,0\n",
                                  "0.288230376151711744,1\n0,0\n", "0,0\n0,0\n"])
def test_files_the_decoder_leaves_to_the_text_path(tmp_path, body):
    raw = ("score,label\n" + body).encode()
    assert _from_csv_bytes(raw) is None
    _assert_bytes_match_the_row_parser(raw)
    _assert_reads_as_text_mode(tmp_path / "in.csv", raw)


def test_an_out_of_range_score_keeps_the_row_parser_message(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"score,label\n0.25,0\n1.5,1\n0.75,1\n")
    with pytest.raises(ParseError, match=r"^row 2 \(line 3\): score '1.5' is outside \[0, 1\]$"):
        read_csv(str(path))


def test_bodies_of_many_pieces_match_the_row_parser():
    rng = np.random.default_rng(5)
    fields = [f"{x:.{k}f}" for x, k in zip(rng.random(60_000), rng.integers(0, 12, 60_000))]
    body = "".join(f"{f},{y}\n" for f, y in zip(fields, rng.integers(0, 2, 60_000)))
    assert len(body) > 4 * _PIECE_BYTES
    for raw in (("score,label\n" + body).encode(), ("score,label\n" + body[:-1]).encode()):
        assert _from_csv_bytes(raw) is not None
        _assert_bytes_match_the_row_parser(raw)
    # a late piece of 17-digit scores is refined and stays on the decoded path
    raw = ("score,label\n" + body + "0.12345678901234567,1\n").encode()
    assert _from_csv_bytes(raw) is not None
    _assert_bytes_match_the_row_parser(raw)
    # refused late in the body (m >= 2**58 in the first): the text path reads it
    for tail in ("0.1234567890123456789,1\n", "1.5,0\n", "0.5,1,0\n"):
        raw = ("score,label\n" + body + tail).encode()
        assert _from_csv_bytes(raw) is None
        _assert_bytes_match_the_row_parser(raw)


@pytest.mark.parametrize("final_newline", [True, False])
def test_a_simulated_file_reads_as_the_row_parser_reads_it(tmp_path, final_newline):
    path = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "30000", "--seed", "11", "--out", str(path)]) == 0
    raw = path.read_bytes()
    assert len(raw) > 4 * _PIECE_BYTES
    if not final_newline:
        raw = raw[:-1]
        path.write_bytes(raw)
    assert _from_csv_bytes(raw) is not None
    assert _bits(read_csv(str(path))) == _bits(_from_csv_rows(raw.decode()))


def test_a_file_of_long_scores_is_refused_by_its_first_kilobyte():
    # the exact decimal of the double 0.30000000000000004: 54 bytes
    raw = ("score,label\n0.3000000000000000444089209850062616169452667236328125,0\n"
           + "0.25,0\n0.75,1\n" * 50_000).encode()
    with mock.patch.object(dataset, "_decode_lines", wraps=dataset._decode_lines) as decode:
        assert _from_csv_bytes(raw) is None
    assert decode.call_count == 1
    assert decode.call_args.args[0].size <= 1100


def test_a_file_with_an_exponent_is_decoded_and_only_that_field_is_reread():
    # repr writes scores below 1e-4 with one, here in the last line
    raw = ("score,label\n" + "0.30000000000000004,0\n0.75,1\n" * 50_000
           + repr(2.65516383690656e-05) + ",0\n").encode()
    with mock.patch.object(dataset, "_reread", wraps=dataset._reread) as reread:
        assert _from_csv_bytes(raw) is not None
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
    assert (_from_csv_bytes(raw) is not None) == (name in CRLF_FILES)


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


@given(st.lists(st.tuples(repr_and_exponent_fields, st.sampled_from("01")), max_size=12),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
@example([(repr(5e-324), "1"), (f"{2.0 ** -1074:.18e}", "0"), ("1.000000E+00", "1"),
          (repr(2.65516383690656e-05), "0"), ("+" + repr(0.49999999999999994), "1")], "\r\n", False)
def test_files_of_repr_exponent_and_signed_fields_are_decoded(rows, end, final_end):
    lines = ["score,label", "0.25,0", "0.75,1"] + [f"{f},{y}" for f, y in rows]
    raw = (end.join(lines) + end * final_end).encode()
    # every such field has at most 25 bytes, as "%.18e" of a value below 1e-99
    assert _from_csv_bytes(raw) is not None
    _assert_bytes_match_the_row_parser(raw)


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
    data = _from_csv_bytes(raw)
    assert data is not None
    assert _bits(data) == _bits(_from_csv_rows(raw.decode())) == _bits(read_csv(str(path)))
    # a field of 26 bytes goes to the row parser
    wide = raw.replace(b"\n9.9", b"\n+9.9")
    assert _from_csv_bytes(wide) is None
    _assert_reads_as_text_mode(path, wide)

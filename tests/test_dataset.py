import csv
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opcurves import (Dataset, DatasetError, DegenerateClassError, EmptyInputError, ParseError,
                      Priors, SimulationSpecError, operating_points, read_csv,
                      simulate_gaussian, write_csv)
from opcurves import dataset
from opcurves.dataset import MAX_SIMULATED_ROWS, _from_csv_rows
from helpers import (THOUSANDTHS, UNIT_FLOATS, assert_count_table, datasets, from_csv,
                     from_csv_bytes, make_random, text_lines, to_csv)


def test_basic_properties(toy):
    assert toy.n == 9
    assert toy.n_p == 3
    assert toy.n_n == 6
    assert toy.pi_p == pytest.approx(1 / 3, abs=0)
    assert toy.pi_p + toy.pi_n == pytest.approx(1.0, abs=1e-15)
    assert len(toy) == 9
    assert toy.scores[toy.labels == 1].tolist() == [0.20, 0.90, 0.95]


def test_arrays_are_frozen(toy):
    with pytest.raises(ValueError):
        toy.scores[0] = 0.5
    with pytest.raises(ValueError):
        toy.labels[0] = 1


def test_equality_and_hash(toy):
    twin = Dataset(np.array(toy.scores), np.array(toy.labels))
    assert toy == twin
    assert hash(toy) == hash(twin)
    other = Dataset(np.array([0.1, 0.9]), np.array([0, 1]))
    assert toy != other


def test_a_negative_zero_score_hashes_as_zero(tmp_path):
    # -0.0 is a valid score and == 0.0, so the datasets are equal and one set member
    minus, plus = tmp_path / "minus.csv", tmp_path / "plus.csv"
    minus.write_text("score,label\n-0.0,0\n0.5,1\n", encoding="utf-8")
    plus.write_text("score,label\n0.0,0\n0.5,1\n", encoding="utf-8")
    a, b = read_csv(str(minus)), read_csv(str(plus))
    assert np.signbit(a.scores[0]) and not np.signbit(b.scores[0])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_rejects_empty():
    with pytest.raises(EmptyInputError):
        Dataset(np.array([]), np.array([]))


def test_rejects_single_class():
    with pytest.raises(DegenerateClassError):
        Dataset(np.array([0.2, 0.4]), np.array([1, 1]))


def test_rejects_out_of_range_scores():
    with pytest.raises(ValueError):
        Dataset(np.array([0.2, 1.4]), np.array([1, 0]))
    with pytest.raises(ValueError):
        Dataset(np.array([0.2, np.nan]), np.array([1, 0]))


def test_rejects_bad_labels():
    with pytest.raises(ValueError):
        Dataset(np.array([0.2, 0.4]), np.array([1, 2]))


@pytest.mark.parametrize("labels", [
    [0.5, 1.0], np.array([0.7, 1.2]), [0.0, 1.5], np.array([0.0, np.nan]),
    # as int8 these would wrap to 1, 0 and 1
    np.array([0, 2**32 + 1]), np.array([1, 256]), np.array([0, 257], dtype=np.uint16),
    [-1, 1], np.array([0, 255], dtype=np.uint8), np.array([0, -1], dtype=np.int8),
    np.array(["0", "1"])])
def test_labels_are_checked_as_given(labels):
    with pytest.raises(DatasetError, match="^labels must be 0 or 1$"):
        Dataset([0.2, 0.8], labels)


@pytest.mark.parametrize("labels", [
    [0, 1], [False, True], np.array([False, True]), [0.0, 1.0], np.array([-0.0, 1.0]),
    np.array([0, 1], dtype=np.uint8), np.array([0, 1], dtype=np.int8),
    np.array([0, 1], dtype=np.uint64), np.array([0, True], dtype=object)])
def test_labels_of_any_binary_kind_are_held_as_int8(labels):
    data = Dataset([0.2, 0.8], labels)
    assert data.labels.dtype == np.int8
    assert data.labels.tolist() == [0, 1]
    assert (data.n_p, data.n_n) == (1, 1)


def test_a_dataset_keeps_no_array_of_the_callers():
    scores, labels = np.array([0.2, 0.8]), np.array([0, 1], dtype=np.int8)
    data = Dataset(scores, labels)
    assert scores.flags.writeable and labels.flags.writeable
    scores[0], labels[:] = 0.9, (1, 0)
    assert data.scores.tolist() == [0.2, 0.8] and data.labels.tolist() == [0, 1]


# as the row parser and the byte decoder (which reads 1e999 by float()) see them
NOT_FINITE = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-1e999", "NaN"])
EDGE_SCORES = st.sampled_from([-0.0, 0.0, 1.0])


@given(st.lists(st.one_of(THOUSANDTHS, UNIT_FLOATS, EDGE_SCORES), min_size=1, max_size=20),
       NOT_FINITE, st.data())
def test_a_score_that_is_not_finite_is_refused(scores, bad, data):
    at = data.draw(st.integers(0, len(scores)))
    fields = [repr(s) for s in scores[:at]] + [bad] + [repr(s) for s in scores[at:]]
    labels = [i % 2 for i in range(len(fields))]
    with pytest.raises(DatasetError, match=r"^scores must be finite and within \[0, 1\]$"):
        Dataset(list(map(float, fields)), labels)
    text = "score,label\n" + "".join(f"{f},{k}\n" for f, k in zip(fields, labels))
    with pytest.raises(ParseError, match=rf"^row {at + 1} \(line {at + 2}\): score '{bad}' is "
                                         r"outside \[0, 1\]$"):
        from_csv(text)


@given(st.lists(EDGE_SCORES, min_size=2, max_size=20), st.data())
def test_negative_zero_zero_and_one_are_scores(scores, data):
    labels = data.draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    labels[:2] = [0, 1]
    want = np.array(scores).view(np.int64).tolist()
    text = "score,label\n" + "".join(f"{s!r},{k}\n" for s, k in zip(scores, labels))
    for got in (Dataset(scores, labels), from_csv(text), _from_csv_rows(text_lines(text))):
        assert got.scores.view(np.int64).tolist() == want
        assert got.labels.tolist() == labels
        assert_count_table(got)


# the count table against the one built from np.sort of each class
@given(datasets())
def test_the_sorted_classes_are_np_sort_of_each_class(data):
    assert_count_table(data)
    assert_count_table(from_csv(to_csv(data)))


@given(st.one_of(THOUSANDTHS, UNIT_FLOATS, EDGE_SCORES), st.integers(1, 50), st.integers(1, 50))
def test_one_distinct_score_sorts_as_np_sort(score, n_p, n_n):
    data = Dataset([score] * (n_p + n_n), [1] * n_p + [0] * n_n)
    assert_count_table(data)
    assert data.n_p == n_p and data.n_n == n_n
    assert operating_points(data).tp.size == 2


@given(st.one_of(THOUSANDTHS, UNIT_FLOATS, EDGE_SCORES),
       st.one_of(THOUSANDTHS, UNIT_FLOATS, EDGE_SCORES))
def test_two_samples_sort_as_np_sort(pos, neg):
    data = Dataset([neg, pos], [0, 1])
    assert_count_table(data)
    assert data.n == 2 and data.labels.tolist() == [0, 1]


@pytest.mark.parametrize("tied", [False, True])
def test_one_positive_in_a_hundred_thousand_sorts_as_np_sort(tied, tmp_path):
    rng = np.random.default_rng(5)
    scores = rng.random(10**5)
    if tied:
        scores = np.round(scores, 3)
    labels = np.zeros(10**5, dtype=np.int64)
    labels[rng.integers(10**5)] = 1
    path = tmp_path / "one.csv"
    write_csv(Dataset(scores, labels), str(path))
    for data in (Dataset(scores, labels), read_csv(str(path))):
        assert data.n_p == 1
        assert_count_table(data)


@given(datasets(st.one_of(THOUSANDTHS, EDGE_SCORES)))
def test_a_class_swap_swaps_the_sorted_classes(data):
    swapped = Dataset(data.scores, 1 - data.labels)
    assert_count_table(swapped)
    points, swapped_points = operating_points(data), operating_points(swapped)
    assert (swapped_points.thresholds.view(np.int64).tolist()
            == points.thresholds.view(np.int64).tolist())
    assert swapped_points.tp.tolist() == points.fp.tolist()
    assert swapped_points.fp.tolist() == points.tp.tolist()


def test_parse_accepts_letter_labels():
    data = from_csv("score,label\n0.2,p\n0.4,N\n0.6,1\n0.8,0\n")
    assert data.labels.tolist() == [1, 0, 1, 0]


def test_parse_reports_row_numbers():
    with pytest.raises(ParseError, match="row 2"):
        from_csv("score,label\n0.2,1\nx,0\n")
    with pytest.raises(ParseError, match="row 1"):
        from_csv("score,label\n0.2,maybe\n0.3,0\n")


def test_csv_round_trip(toy):
    text = to_csv(toy)
    assert text.splitlines()[0] == "score,label"
    assert from_csv(text) == toy


def test_csv_requires_header():
    with pytest.raises(ParseError, match="header"):
        from_csv("0.5,1\n0.2,0\n")


def test_csv_rejects_ragged_rows():
    # data rows are numbered from 1, excluding the header
    with pytest.raises(ParseError, match="row 1"):
        from_csv("score,label\n0.5,1,9\n")
    with pytest.raises(ParseError, match="row 2"):
        from_csv("score,label\n0.5,1\n0.2,0,7\n")


def test_parse_errors_name_the_file_line():
    # blank lines are skipped when data rows are counted, not when lines are
    with pytest.raises(ParseError, match=r"^row 2 \(line 5\): score 'x' is not a decimal number$"):
        from_csv("score,label\n\n\n0.5,1\nx,0\n")
    with pytest.raises(ParseError, match=r"^row 2 \(line 4\): expected 2 fields, got 3$"):
        from_csv("score,label\n0.5,1\n  \n0.2,0,7\n")
    with pytest.raises(ParseError, match=r"^row 1 \(line 3\): unknown label 'maybe'"):
        from_csv("\nscore,label\n0.5,maybe\n0.2,0\n")
    with pytest.raises(ParseError, match=r"^row 2 \(line 4\): score '1.5' is outside"):
        from_csv("score,label\r\n0.5,1\r\n\r\n1.5,0\r\n")


def test_csv_reader_errors_are_parse_errors():
    with pytest.raises(ParseError, match="^line 2: new-line character"):
        from_csv("score,label\n0.5,1\r0.2,0\n")


def test_score_cell_longer_than_the_csv_field_limit():
    # csv.reader takes a cell of csv.field_size_limit() characters and
    # refuses one longer; the byte decoder takes neither, as it takes no
    # field wider than 25 bytes, and leaves both to the row parser
    limit = csv.field_size_limit()
    lead = "score,label\n" + "0.2,0\n0.8,1\n" * 20_000  # past the first piece
    for size in (limit, limit + 1):
        cell = "0." + "1" * (size - 2)
        first = f"score,label\n{cell},1\n0.2,0\n"
        assert from_csv_bytes(first.encode()) is None
        assert from_csv_bytes(f"{lead}{cell},0\n".encode()) is None
        for text in (first, f"{lead}{cell},0\n",
                     f"score{' ' * (size - 5)},label\n0.2,0\n0.8,1\n"):
            _assert_matches_row_parser(text)
    with pytest.raises(ParseError, match="^line 2: field larger than field limit"):
        from_csv(first)


def test_letter_labels_parse_through_the_row_parser():
    text = "score,label\n0.2,n\n0.8, P \n0.6,1\n"
    assert from_csv_bytes(text.encode()) is None
    assert from_csv(text).labels.tolist() == [0, 1, 1]


def test_plain_files_take_the_vectorized_path(toy):
    for text in (to_csv(toy), to_csv(toy).rstrip("\n"), "\ufeff" + to_csv(toy),
                 " Score , LABEL \n0.25,0\n1e-1,1\n", to_csv(toy).replace("\n", "\r\n")):
        assert from_csv_bytes(text.encode()) is not None
    assert from_csv_bytes(to_csv(toy).encode()) == toy


# Differential ingest test: from_csv, and its byte decoder alone, must
# agree with the row-by-row parser on every text, bit for bit, or raise
# what it raises.

SCORE_CELLS = ["0.5", "1.0", "0", "1", " 1", "+1", "1e0", ".5", "5.", "-0.0", "0.",
               "1e-400", "0.2_5", "0x1p-1", "nan", "inf", "-inf", "1.5", "-0.1", "",
               " ", "\u0660.\u0665", "\u0661", "\xa00.25\xa0", "\t0.75\t", "0.3\x85",
               "\u20280.3", "0.3\x1c", "\x1f0.3", "\x1d0.3\x1e", "0.5#", "#0.5",
               "0.3\x00", "\ufeff0.3", "0.30000000000000004", "5e-324", "P"]
LABEL_CELLS = ["0", "1", "1.0", " 1", "+1", "1e0", "P", "n", " p ", "N", "0 ", "2", "",
               "true", "\xa01", "\u0661"]
JUNK_LINES = ["", "   ", "\t", "# comment", "0.5,1,1", "0.5", '"0.5",1', '0.5,"1"',
              '"0.5,1"', ",", "0.5;1"]
HEADERS = ["score,label", " Score , LABEL ", '"score",label', "score,label,x", "label,score",
           "score", "\ufeffscore,label", "score\x1c,label"]


def _assert_matches_row_parser(text):
    try:
        want = _from_csv_rows(text_lines(text))
    except Exception as exc:
        assert from_csv_bytes(text.encode()) is None
        with pytest.raises(type(exc)) as got:
            from_csv(text)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    fast = from_csv_bytes(text.encode())
    for got in (from_csv(text),) if fast is None else (from_csv(text), fast):
        assert got == want
        assert got.scores.tobytes() == want.scores.tobytes()


def _fuzzed_csv(rng):
    body = ["0.2,0", "0.8,1"] if rng.random() < 0.5 else []  # both classes: often valid
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.15:
            body.append(rng.choice(JUNK_LINES))
        else:
            label = rng.choice(LABEL_CELLS) if rng.random() < 0.4 else rng.choice("01")
            body.append(f"{rng.choice(SCORE_CELLS)},{label}")
    rng.shuffle(body)
    header = rng.choice(HEADERS) if rng.random() < 0.3 else "score,label"
    text = rng.choice(["\n", "\n", "\r\n"]).join([header] + body)
    return text + ("\n" if rng.random() < 0.8 else "")


@pytest.mark.parametrize("cell", SCORE_CELLS)
def test_each_score_cell_matches_row_parser(cell):
    for label in ("0", "1"):
        _assert_matches_row_parser(f"score,label\n0.2,0\n0.8,1\n{cell},{label}\n")


@pytest.mark.parametrize("cell", LABEL_CELLS)
def test_each_label_cell_matches_row_parser(cell):
    _assert_matches_row_parser(f"score,label\n0.2,0\n0.8,1\n0.5,{cell}\n")


@pytest.mark.parametrize("text", [
    "score,label\n0.2,0\n0.8,1",  # no final newline
    "score,label\r\n0.2,0\r\n0.8,1\r\n",
    "\ufeffscore,label\n0.2,0\n0.8,1\n",
    "\n\nscore,label\n0.2,0\n\n0.8,1\n\n",
    "score,label\n0.2,0\n   \n0.8,1\n",
    "score,label\n# note\n0.2,0\n0.8,1\n",
    'score,label\n"0.2",0\n0.8,"1"\n',
    'score,label\n"0.2\n",0\n0.8,1\n',
    "score,label\n0.2,0,0\n0.8,1\n",
    "score,label\n",
    "score,label",
    "",
    "score,label\n0.2,0\n0.8,0\n",
])
def test_csv_structure_matches_row_parser(text):
    _assert_matches_row_parser(text)


def test_fuzzed_csv_matches_row_parser():
    rng = random.Random(20251018)
    for _ in range(2000):
        _assert_matches_row_parser(_fuzzed_csv(rng))


def test_bodies_longer_than_one_piece_match_the_row_parser():
    # the byte decoder reads the body in pieces of about _PIECE_ROWS lines
    rng = random.Random(7)
    cells = ["0.5", "1", ".75", "1e-1", "+0.25", "-0.0", "2.65516383690656e-05",
             "0.30000000000000004"]
    body = [f"{rng.choice(cells)},{rng.choice('01')}" for _ in range(60_000)]
    text = "score,label\n" + "\n".join(["0.2,0", "0.8,1"] + body) + "\n"
    with mock.patch.object(dataset, "_decode_lines", wraps=dataset._decode_lines) as decode:
        assert from_csv_bytes(text.encode()) is not None
    assert decode.call_count > 4
    _assert_matches_row_parser(text)
    # padded cells, which float() reads, are the row parser's alone
    padded = text + "\xa00.25,0\n0.3\u2003,1\n 1e-1,0\n"
    assert from_csv_bytes(padded.encode()) is None
    _assert_matches_row_parser(padded)
    for cell in ("\u0661", "é", "0.5#", "1e"):  # refused by the decoder late in the body
        _assert_matches_row_parser(text + f"{cell},1\n")


def test_to_csv_matches_elementwise_formatting(toy, tmp_path):
    # 2 * 2^14 + 5 rows: chunk boundaries in the streamed text
    for data in (toy, make_random(3, n=500), Dataset(np.array([-0.0, 1.0]), np.array([0, 1])),
                 make_random(5, n=2 * (1 << 14) + 5)):
        # repr of each numpy scalar, the reference for to_csv's tolist() pass
        rows = [f"{float(s)!r},{int(l)}" for s, l in zip(data.scores, data.labels)]
        assert to_csv(data) == "\n".join(["score,label"] + rows) + "\n"
        write_csv(data, str(tmp_path / "d.csv"))
        assert (tmp_path / "d.csv").read_text(encoding="utf-8") == to_csv(data)


def test_priors_validation():
    with pytest.raises(ValueError):
        Priors(pi_p=0.0, pi_n=1.0)
    with pytest.raises(ValueError):
        Priors(pi_p=0.6, pi_n=0.6)
    p = Priors.from_counts(3, 6)
    assert p.pi_p == 3 / 9
    assert p.pi_n == 6 / 9


SIMULATION = dict(n=500, pi_p=0.2, mu_n=0.4, sigma_n=0.12, mu_p=0.6, sigma_p=0.12, seed=11)


def test_simulation_is_deterministic():
    a = simulate_gaussian(**SIMULATION)
    b = simulate_gaussian(**SIMULATION)
    assert a == b
    assert a.n == 500
    assert a.n_p == 100
    assert float(a.scores.min()) >= 0.0
    assert float(a.scores.max()) <= 1.0
    # positives score higher on average by construction
    assert a.scores[a.labels == 1].mean() > a.scores[a.labels == 0].mean()


def test_simulation_seed_changes_data():
    a = simulate_gaussian(**{**SIMULATION, "seed": 1})
    b = simulate_gaussian(**{**SIMULATION, "seed": 2})
    assert a != b


REFUSALS = [
    ({"n": 1}, "n must be at least 2"),
    ({"n": -5}, "n must be at least 2"),
    ({"n": MAX_SIMULATED_ROWS + 1}, "n must be at most 100000000"),
    ({"n": 10**15}, "n must be at most 100000000"),
    ({"pi_p": 0.0}, "pi_p must lie strictly inside (0, 1)"),
    ({"pi_p": 1.0}, "pi_p must lie strictly inside (0, 1)"),
    ({"pi_p": float("nan")}, "pi_p must lie strictly inside (0, 1)"),
    ({"mu_n": float("nan")}, "mu_n must be finite, got nan"),
    ({"sigma_n": float("inf")}, "sigma_n must be finite, got inf"),
    ({"mu_p": float("-inf")}, "mu_p must be finite, got -inf"),
    ({"sigma_p": float("nan")}, "sigma_p must be finite, got nan"),
    ({"sigma_n": 0.0}, "class standard deviations must be positive"),
    ({"sigma_p": -0.1}, "class standard deviations must be positive"),
]


@pytest.mark.parametrize("changes, message", REFUSALS,
                         ids=["-".join(f"{k}={v}" for k, v in c.items()) for c, _ in REFUSALS])
def test_simulation_spec_validation(changes, message):
    with pytest.raises(SimulationSpecError, match=f"^{re.escape(message)}$"):
        simulate_gaussian(**{**SIMULATION, **changes})


def test_simulation_checks_pass_at_the_largest_n():
    # and run before anything is drawn
    with mock.patch.object(np.random, "default_rng", side_effect=RuntimeError("drawn")):
        with pytest.raises(RuntimeError, match="^drawn$"):
            simulate_gaussian(**{**SIMULATION, "n": MAX_SIMULATED_ROWS})


def test_simulation_rejects_empty_class():
    for pi_p in (0.01, 0.99):
        with pytest.raises(SimulationSpecError,
                           match="^requested prevalence rounds one class to zero samples$"):
            simulate_gaussian(**{**SIMULATION, "n": 10, "pi_p": pi_p})

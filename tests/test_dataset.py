import csv
import random

import numpy as np
import pytest

from opcurves import (Dataset, DegenerateClassError, EmptyInputError, ParseError,
                      Priors, SimulationSpec, SimulationSpecError, from_csv,
                      parse_dataset, simulate_gaussian, to_csv, write_csv)
from opcurves.dataset import MAX_SIMULATED_ROWS, _PIECE_BYTES, _from_csv_bytes, _from_csv_rows
from helpers import make_random


def test_basic_properties(toy):
    assert toy.n == 9
    assert toy.n_p == 3
    assert toy.n_n == 6
    assert toy.pi_p == pytest.approx(1 / 3, abs=0)
    assert toy.pi_p + toy.pi_n == pytest.approx(1.0, abs=1e-15)
    assert len(toy) == 9
    assert toy.positive_scores.tolist() == [0.20, 0.90, 0.95]


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


def test_parse_accepts_letter_labels():
    data = parse_dataset([("0.2", "p"), ("0.4", "N"), ("0.6", "1"), ("0.8", "0")])
    assert data.labels.tolist() == [1, 0, 1, 0]


def test_parse_reports_row_numbers():
    with pytest.raises(ParseError, match="row 2"):
        parse_dataset([("0.2", "1"), ("x", "0")])
    with pytest.raises(ParseError, match="row 1"):
        parse_dataset([("0.2", "maybe"), ("0.3", "0")])


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
        assert _from_csv_bytes(first.encode()) is None
        assert _from_csv_bytes(f"{lead}{cell},0\n".encode()) is None
        for text in (first, f"{lead}{cell},0\n",
                     f"score{' ' * (size - 5)},label\n0.2,0\n0.8,1\n"):
            _assert_matches_row_parser(text)
    with pytest.raises(ParseError, match="^line 2: field larger than field limit"):
        from_csv(first)


def test_letter_labels_parse_through_the_row_parser():
    text = "score,label\n0.2,n\n0.8, P \n0.6,1\n"
    assert _from_csv_bytes(text.encode()) is None
    assert from_csv(text).labels.tolist() == [0, 1, 1]


def test_plain_files_take_the_vectorized_path(toy):
    for text in (to_csv(toy), to_csv(toy).rstrip("\n"), "\ufeff" + to_csv(toy),
                 " Score , LABEL \n0.25,0\n1e-1,1\n", to_csv(toy).replace("\n", "\r\n")):
        assert _from_csv_bytes(text.encode()) is not None
    assert _from_csv_bytes(to_csv(toy).encode()) == toy


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
        want = _from_csv_rows(text)
    except Exception as exc:
        assert _from_csv_bytes(text.encode()) is None
        with pytest.raises(type(exc)) as got:
            from_csv(text)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    fast = _from_csv_bytes(text.encode())
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
    # the byte decoder reads the body in pieces of _PIECE_BYTES
    rng = random.Random(7)
    cells = ["0.5", "1", ".75", "1e-1", "+0.25", "-0.0", "2.65516383690656e-05",
             "0.30000000000000004"]
    body = [f"{rng.choice(cells)},{rng.choice('01')}" for _ in range(60_000)]
    text = "score,label\n" + "\n".join(["0.2,0", "0.8,1"] + body) + "\n"
    assert len(text) > 4 * _PIECE_BYTES
    assert _from_csv_bytes(text.encode()) is not None
    _assert_matches_row_parser(text)
    # padded cells, which float() reads, are the row parser's alone
    padded = text + "\xa00.25,0\n0.3\u2003,1\n 1e-1,0\n"
    assert _from_csv_bytes(padded.encode()) is None
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


def test_simulation_is_deterministic():
    spec = SimulationSpec(n=500, pi_p=0.2, mu_n=0.4, sigma_n=0.12,
                          mu_p=0.6, sigma_p=0.12, seed=11)
    a = simulate_gaussian(spec)
    b = simulate_gaussian(spec)
    assert a == b
    assert a.n == 500
    assert a.n_p == 100
    assert float(a.scores.min()) >= 0.0
    assert float(a.scores.max()) <= 1.0
    # positives score higher on average by construction
    assert a.positive_scores.mean() > a.negative_scores.mean()


def test_simulation_seed_changes_data():
    base = dict(n=500, pi_p=0.2, mu_n=0.4, sigma_n=0.12, mu_p=0.6, sigma_p=0.12)
    a = simulate_gaussian(SimulationSpec(seed=1, **base))
    b = simulate_gaussian(SimulationSpec(seed=2, **base))
    assert a != b


def test_simulation_spec_validation():
    with pytest.raises(SimulationSpecError):
        SimulationSpec(n=1, pi_p=0.2, mu_n=0.4, sigma_n=0.12,
                       mu_p=0.6, sigma_p=0.12, seed=0)
    with pytest.raises(SimulationSpecError):
        SimulationSpec(n=100, pi_p=0.0, mu_n=0.4, sigma_n=0.12,
                       mu_p=0.6, sigma_p=0.12, seed=0)
    with pytest.raises(SimulationSpecError):
        SimulationSpec(n=100, pi_p=0.2, mu_n=0.4, sigma_n=0.0,
                       mu_p=0.6, sigma_p=0.12, seed=0)
    # checked on construction, before anything is drawn
    base = dict(pi_p=0.2, mu_n=0.4, sigma_n=0.12, mu_p=0.6, sigma_p=0.12, seed=0)
    assert SimulationSpec(n=MAX_SIMULATED_ROWS, **base).n == 10**8
    for n in (MAX_SIMULATED_ROWS + 1, 10**15):
        with pytest.raises(SimulationSpecError, match="^n must be at most 100000000$"):
            SimulationSpec(n=n, **base)


def test_simulation_rejects_empty_class():
    spec = SimulationSpec(n=10, pi_p=0.01, mu_n=0.4, sigma_n=0.12,
                          mu_p=0.6, sigma_p=0.12, seed=0)
    with pytest.raises(SimulationSpecError):
        simulate_gaussian(spec)

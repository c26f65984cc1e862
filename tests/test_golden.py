"""Every CLI command with every output, pinned by SHA-256.

The output writers build their text from whole arrays; the CSV and JSON
hashes were taken from the element-at-a-time writers they replace, so any
changed byte in those files fails here. The SVG hashes were taken when the
renderer began to leave out the path vertices the 0.01 px grid cannot show;
tests/test_render.py checks such paths against the full ones.
"""

import hashlib

import pytest

from opcurves import to_csv
from opcurves.cli import main
from helpers import make_toy

COMMANDS = {
    "dca": ["dca", "--input", "a.csv", "--upper-envelope", "--csv", "dca.csv",
            "--json", "dca.json", "--svg", "dca.svg"],
    "dca_brier_scaled": ["dca", "--input", "a.csv", "--scheme", "brier_scaled",
                         "--grid", "0.01:0.9:0.01", "--csv", "dca.csv", "--svg", "dca.svg"],
    "cost": ["cost", "--input", "a.csv", "--csv", "cost.csv", "--svg", "cost.svg"],
    "brier": ["brier", "--input", "a.csv", "--csv", "brier.csv", "--json", "brier.json",
              "--svg", "brier.svg"],
    "roc": ["roc", "--input", "a.csv", "--csv", "roc.csv", "--svg", "roc.svg"],
    "score": ["score", "--input", "a.csv", "--json", "score.json"],
    "compare": ["compare", "--input-a", "a.csv", "--input-b", "b.csv", "--json", "compare.json"],
    "isometrics": ["isometrics", "--input", "a.csv", "--metric", "net_benefit", "--t", "0.3",
                   "--levels=-0.1,0,0.05,0.1", "--csv", "isometrics.csv"],
    "isometrics_range": ["isometrics", "--input", "a.csv", "--metric", "accuracy",
                         "--levels", "0:1:0.05", "--csv", "isometrics.csv"],
}

GOLDEN = {
    ('toy', 'brier'): {
        'brier.csv':
            '7067515e9cfab16431d8fbaf9070de4737f9c1fed3256a19ed3ef8e7c17be83b',
        'brier.json':
            'fb25c315104e0dd0dae338edfcd816073036872842265c8c0f8093e8de17bc41',
        'brier.svg':
            '667504bcc87eb0484be70f007dfe470cf217b8016fdd0e4d7976c3840666aa99',
    },
    ('toy', 'compare'): {
        'compare.json':
            'a898d9b39bb41fef4fa12e06f0077b474a464212b2313ea9cef6082861e3621e',
    },
    ('toy', 'cost'): {
        'cost.csv':
            '608c5866fd92d2110d953f24fb076a706b912bea63cf27048c9249bbf8390b32',
        'cost.svg':
            'aa49bc386c3cc9f6f22d3ae6f242335c8deca7bbde9eaf509d91a59593efebe9',
    },
    ('toy', 'dca'): {
        'dca.csv':
            '8f37f97cad9c65018418528510a2e75d5819563e51078bd71ad9b22f31cfd0f8',
        'dca.json':
            'fda0df04bcbb9cb24db83799f8f3a18b681f736c533a6e6d68ba1754c8309fc5',
        'dca.svg':
            'bf97bf78e838aa90d47a731016aa54da292e921694ecd13539b48035d01295f2',
    },
    ('toy', 'dca_brier_scaled'): {
        'dca.csv':
            '6f0c0b4a10600efb0d2f55217e8444e7aef288cb79f1da2fde586b96848ab0e5',
        'dca.svg':
            'a5cdad53bc4a20859ad87a18cd7deb9cd9ea4043969fef42d09f580634220937',
    },
    ('toy', 'isometrics'): {
        'isometrics.csv':
            '77933fb00326e960426c7dcedd546782ae64add14d82174121d2f04a6413a382',
    },
    ('toy', 'isometrics_range'): {
        'isometrics.csv':
            '7e1f97217fe8bee3b25efbc8cfa95c7309b205d6edbc7354236c4295fd6ebb48',
    },
    ('toy', 'roc'): {
        'roc.csv':
            'd48efbcf51cea1a03e68e19a2cf703a419a8766df1b2dcaccd50d45b91ec8330',
        'roc.svg':
            '7d2e44f9abe18238193042f51bc02f508e32693eb73dafe5ed6038ef723c50ca',
    },
    ('toy', 'score'): {
        'score.json':
            '0ffab91ef29682f2950fc3e77a6bcf00bf0f585d9a84d20887503b9923bffd80',
    },
    ('sim', 'brier'): {
        'brier.csv':
            'fce97c465dc285ff55aededfafbca21be42d85fb8598a546a2956b1c93a358f2',
        'brier.json':
            '2520c9b186460107aae231c177e935dfaea66a597ca42f3265312f19b1a0879f',
        'brier.svg':
            '38e9fd3d2bf8d0bbd4e3a101cffcecbc8ad3066d4d1c178e7f108dcf2d4cbc78',
    },
    ('sim', 'compare'): {
        'compare.json':
            '6dc50aa7a1165b0929b76c5b3d0893491d0034aa67062832ffe19beebf9071a4',
    },
    ('sim', 'cost'): {
        'cost.csv':
            '568f63a0a7717fa58fc8118688d195b118d35a129a413255740bc66b0784b1e3',
        'cost.svg':
            '192c2b47d6e3b43feabd62338165e0fb4c563e3433a4213b0fee09a599cde909',
    },
    ('sim', 'dca'): {
        'dca.csv':
            'c7983353449ff4f5a159b9133857bc236249c11dc4340799e9f58b20cce6128d',
        'dca.json':
            '9da7205b477e2f9b6b288949079e90cc18b45f48748e9bb6c02a4a826a247403',
        'dca.svg':
            '69915c744ec8868176521808577fb7d800279a32cd20164ce977273afa931b3a',
        'a.csv':
            '61d3fb2bf22de8b8db1fb8e1233473a575bbce25436dd2406ad0bc1e61d2bcef',
    },
    ('sim', 'dca_brier_scaled'): {
        'dca.csv':
            '94c75dfd7f00bc3cdd4ee5c4bfe8e1ff9fcbbd5e9919fd8ba5edc20af9625201',
        'dca.svg':
            '3bd2160f37b3f9cb9a662497114c8a59d62a5e4ba07788bd392bc72e4ae63220',
    },
    ('sim', 'isometrics'): {
        'isometrics.csv':
            '81c3e105af337d8a2bca432a96c7d5b38ee05db80b9456d013726db54460cbc2',
    },
    ('sim', 'isometrics_range'): {
        'isometrics.csv':
            '04a4161fd202c19b42bd6c3fd5df7c7ef1362e7403a02f33e8ee46f6bc42e94b',
    },
    ('sim', 'roc'): {
        'roc.csv':
            '99e5ba2925ef634a6f023f65395469b1ac8167a186a17d954f3de59453e15c2f',
        'roc.svg':
            '486e08eade9df609bf7d42f21d2b6a845ceb6656f67f440c0afa846dde7d2c78',
    },
    ('sim', 'score'): {
        'score.json':
            'ad4d9d99cff1cab37eb0cfa53cd9001d1d87231fea9e002660687c7ac5053d25',
    },
}


def _inputs(kind, tmp_path):
    if kind == "toy":
        text = to_csv(make_toy())
        (tmp_path / "a.csv").write_text(text, encoding="utf-8")
        (tmp_path / "b.csv").write_text(text, encoding="utf-8")
    else:
        for name, seed in (("a.csv", "3"), ("b.csv", "4")):
            assert main(["simulate", "--n", "2000", "--seed", seed,
                         "--out", str(tmp_path / name)]) == 0


def _run(kind, command, tmp_path, monkeypatch):
    _inputs(kind, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(COMMANDS[command]) == 0
    argv = COMMANDS[command]
    names = [argv[i + 1] for i, a in enumerate(argv) if a in ("--csv", "--json", "--svg")]
    out = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}
    if kind == "sim" and command == "dca":
        out["a.csv"] = hashlib.sha256((tmp_path / "a.csv").read_bytes()).hexdigest()
    return out


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("kind", ["toy", "sim"])
def test_output_bytes_are_pinned(kind, command, tmp_path, monkeypatch):
    assert _run(kind, command, tmp_path, monkeypatch) == GOLDEN[kind, command]

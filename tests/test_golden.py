"""Every CLI command with every output, pinned by SHA-256.

The output writers build their text from whole arrays; these hashes were
taken from the element-at-a-time writers they replace, so any changed byte
in a CSV, JSON or SVG file fails here.
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
            '85bcbd8737ed0f8ade2abb2f95fc1e195f1efabb219c50866726f05a836c014c',
    },
    ('toy', 'compare'): {
        'compare.json':
            'a898d9b39bb41fef4fa12e06f0077b474a464212b2313ea9cef6082861e3621e',
    },
    ('toy', 'cost'): {
        'cost.csv':
            '608c5866fd92d2110d953f24fb076a706b912bea63cf27048c9249bbf8390b32',
        'cost.svg':
            '214f2730497a13f3158e27c1e2a7c0a10feb7e647a6d115a787020a25dddc596',
    },
    ('toy', 'dca'): {
        'dca.csv':
            '8f37f97cad9c65018418528510a2e75d5819563e51078bd71ad9b22f31cfd0f8',
        'dca.json':
            'fda0df04bcbb9cb24db83799f8f3a18b681f736c533a6e6d68ba1754c8309fc5',
        'dca.svg':
            '8600c6a8c77bc705897f88cc9df1ad96cdb7d71a2bb185f1c3a16849b0339112',
    },
    ('toy', 'dca_brier_scaled'): {
        'dca.csv':
            '6f0c0b4a10600efb0d2f55217e8444e7aef288cb79f1da2fde586b96848ab0e5',
        'dca.svg':
            '140ea1bcdeb00a90f32e68ed79cab331263de51a4bf774d819006a083aa7964d',
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
            '8b0c7c5dac755c891933957b177407fea4e27c9e9c8eff7851fd452c2a360202',
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
            'd8d124387120cdc8535fea1f2f007250442f5b355c44b1c2f885ac600652da55',
    },
    ('sim', 'compare'): {
        'compare.json':
            '6dc50aa7a1165b0929b76c5b3d0893491d0034aa67062832ffe19beebf9071a4',
    },
    ('sim', 'cost'): {
        'cost.csv':
            '568f63a0a7717fa58fc8118688d195b118d35a129a413255740bc66b0784b1e3',
        'cost.svg':
            'b41e155105cf164b71170bf5d4b47a3fc0b215d5ec348176de146b30f7477bc9',
    },
    ('sim', 'dca'): {
        'dca.csv':
            'c7983353449ff4f5a159b9133857bc236249c11dc4340799e9f58b20cce6128d',
        'dca.json':
            '9da7205b477e2f9b6b288949079e90cc18b45f48748e9bb6c02a4a826a247403',
        'dca.svg':
            'edb69e184f6a31747a40192626b93ce6bb328266bc80270c1a0411a4835e946e',
        'a.csv':
            '61d3fb2bf22de8b8db1fb8e1233473a575bbce25436dd2406ad0bc1e61d2bcef',
    },
    ('sim', 'dca_brier_scaled'): {
        'dca.csv':
            '94c75dfd7f00bc3cdd4ee5c4bfe8e1ff9fcbbd5e9919fd8ba5edc20af9625201',
        'dca.svg':
            'cfcd50d9bf71dfe1577a8df118d769117079a218ebe38a7dba681eef4c8f8c26',
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
            'b4c0f3373730a60d2ce2846ca0778c884297713536fa5566fe522e45ee3bab07',
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

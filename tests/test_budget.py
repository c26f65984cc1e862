"""The address space each command may use, held as a gate.

Each command runs in a child that limits its own address space with
resource.setrlimit(RLIMIT_AS), once numpy and every opcurves module are
loaded, to what it then holds plus K[command] times the bytes of the input
files it names. Each K is the need (VmPeak after the run minus VmSize
after the imports) measured on these 10^5-row inputs, over the input
bytes, with about a quarter to spare, rounded up to a half. Lower a K only
with a CHANGES.md entry that says why.

The child allocates Python's small objects with malloc (PYTHONMALLOC),
so what it holds after the imports is the same from run to run. With
pymalloc's 1 MiB arenas it read 1 MiB lower in about one run in four:
whether an emptied arena was still kept at the reading turned on the
hash seed and the address layout, and a fixed PYTHONHASHSEED or an
allocation before the reading moved the flip but did not remove it.

Under its budget a command reads the byte decoder's file and the row
parser's (the same rows, every score quoted) to the same output bytes as
an unlimited run, and a file refused at row 2 exits 2 with one error line
and leaves no output file.
"""

import os
import shutil
import subprocess
import sys

import pytest

from opcurves import cli
from opcurves.cli import main

ROWS = 10**5

# the child's limit is set after the imports, so only the command's own
# allocations count against it; 99 says the limit was not enforced
CHILD = """\
import resource, sys
import numpy
from opcurves import cli, cost, dataset, decision, isometrics, output, relations, render, roc
held = [int(l.split()[1]) << 10 for l in open('/proc/self/status') if l.startswith('VmSize:')][0]
budget = int(sys.argv[1])
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (held + budget, hard))
try:
    bytearray(budget + (16 << 20))
except MemoryError:
    del sys.argv[1]
    cli.entry()
sys.exit(99)
"""

# argv, with in.csv for each input, and K; measured need over the input
# bytes at the parent of the count-table rewrite, decoder file first:
# score 4.8, brier 4.8, dca 4.8, cost 4.3, roc 6.4, compare 1.9 (two
# inputs), isometrics 2.6; the row parser's file and the refused file need less
COMMANDS = {
    "score": (["score", "--input", "in.csv", "--json", "s.json"], 6.0),
    "brier": (["brier", "--input", "in.csv", "--csv", "b.csv", "--json", "b.json",
               "--svg", "b.svg"], 6.0),
    "dca": (["dca", "--input", "in.csv", "--upper-envelope", "--csv", "d.csv",
             "--json", "d.json", "--svg", "d.svg"], 6.0),
    "cost": (["cost", "--input", "in.csv", "--csv", "c.csv", "--svg", "c.svg"], 5.5),
    "roc": (["roc", "--input", "in.csv", "--csv", "r.csv", "--svg", "r.svg"], 8.0),
    "compare": (["compare", "--input-a", "in.csv", "--input-b", "in.csv",
                 "--json", "cmp.json"], 2.5),
    "isometrics": (["isometrics", "--input", "in.csv", "--metric", "accuracy",
                    "--levels", "0:1:0.1", "--csv", "i.csv"], 3.5),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The decoder's file, the row parser's and the refused one, by name."""
    root = tmp_path_factory.mktemp("budget")
    decoder = root / "decoder.csv"
    assert main(["simulate", "--n", str(ROWS), "--seed", "7", "--out", str(decoder)]) == 0
    header, *body = decoder.read_text(encoding="utf-8").splitlines(keepends=True)
    (root / "rows.csv").write_text(header + "".join('"{}",{}'.format(*line.split(","))
                                                    for line in body), encoding="utf-8")
    refused = [body[0], "x" + body[1][body[1].index(","):], *body[2:]]
    (root / "refused.csv").write_text(header + "".join(refused), encoding="utf-8")
    return {name: root / f"{name}.csv" for name in ("decoder", "rows", "refused")}


def _run_under_budget(argv, k, source, cwd):
    shutil.copyfile(source, cwd / "in.csv")
    budget = round(k * os.path.getsize(source) * argv.count("in.csv"))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__)),
           "PYTHONMALLOC": "malloc"}
    return subprocess.run([sys.executable, "-c", CHILD, str(budget), *argv], env=env, cwd=cwd,
                          capture_output=True, timeout=120)


def _written(cwd):
    return {name: (cwd / name).read_bytes() for name in sorted(os.listdir(cwd))
            if name != "in.csv"}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmSize")
@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_runs_within_its_address_space_budget(command, inputs, tmp_path,
                                                        monkeypatch, capsys):
    argv, k = COMMANDS[command]
    unlimited = tmp_path / "unlimited"
    unlimited.mkdir()
    shutil.copyfile(inputs["decoder"], unlimited / "in.csv")
    monkeypatch.chdir(unlimited)
    capsys.readouterr()
    assert main(argv) == 0
    want_stdout, want = capsys.readouterr().out.encode(), _written(unlimited)
    for name in ("decoder", "rows"):
        cwd = tmp_path / name
        cwd.mkdir()
        done = _run_under_budget(argv, k, inputs[name], cwd)
        if done.returncode == 99:
            pytest.skip("RLIMIT_AS is not enforced here")
        assert done.returncode == 0, (name, done.stderr.decode())
        assert done.stdout == want_stdout, name
        assert _written(cwd) == want, name
    cwd = tmp_path / "refused"
    cwd.mkdir()
    done = _run_under_budget(argv, k, inputs["refused"], cwd)
    assert done.returncode == cli.EXIT_DATA == 2
    assert done.stderr.decode().startswith("error: ")
    assert len(done.stderr.splitlines()) == 1
    assert os.listdir(cwd) == ["in.csv"]

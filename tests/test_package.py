"""The public surface: __all__, the names that were removed from it, and the
README's library quickstart."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import opcurves

ROOT = Path(__file__).resolve().parent.parent


def test_every_name_in_all_resolves():
    assert len(set(opcurves.__all__)) == len(opcurves.__all__)
    for name in opcurves.__all__:
        assert getattr(opcurves, name) is not None, name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from opcurves import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(opcurves.__all__)


@pytest.mark.parametrize("name", ["ConfusionCounts", "CostParams", "expected_loss",
                                  "lower_envelope_support", "upper_envelope_support",
                                  "serialize_dataset", "UtilityScheme", "Polyline"])
def test_removed_names_are_not_in_the_package(name):
    assert not hasattr(opcurves, name)
    assert name not in opcurves.__all__


@pytest.mark.parametrize("owner, attr", [
    ("OperatingPoint", "counts"), ("OperatingPoint", "from_counts"),
    ("RocCurve", "_of_counts"), ("UtilityScheme", "explicit"),
    ("ComparisonReport", "to_dict"), ("ComparisonReport", "records"),
    ("CostLine", "__call__"), ("Curve", "priors"), ("PlotSpec", "width"),
    ("PlotSpec", "height")])
def test_removed_members_are_gone(owner, attr):
    # dir() of a class leaves out its metaclass's members, such as type.__call__;
    # the members of a removed class (UtilityScheme) went with it
    cls = getattr(opcurves, owner, None)
    assert cls is None or attr not in dir(cls)


def test_curve_and_plot_spec_fields():
    assert [f.name for f in dataclasses.fields(opcurves.Curve)] == ["xs", "ys", "series"]
    assert [f.name for f in dataclasses.fields(opcurves.PlotSpec)] == [
        "title", "x_label", "y_label", "series", "x_range", "y_range"]


def _python_blocks(markdown: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", markdown, flags=re.M | re.S)


def test_readme_quickstart_runs():
    blocks = _python_blocks((ROOT / "README.md").read_text(encoding="utf-8"))
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for code in blocks:
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip()

"""Each demo's printed text and the SHA-256 of each SVG it writes.

A demo is copied into a temporary folder, so its out/ folder lands there,
and run with every RuntimeWarning an error. Its stdout is compared with
the temporary folder written as <tmp>.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "01_roc_and_hull": ("""\
9 samples, prevalence 0.333
8 operating points (one per distinct score, plus the predict-nothing anchor):
  t >=     -   fpr=0.000  tpr=0.000
  t >= 0.95   fpr=0.000  tpr=0.333
  t >= 0.90   fpr=0.167  tpr=0.667
  t >= 0.70   fpr=0.500  tpr=0.667
  t >= 0.20   fpr=0.500  tpr=1.000
  t >= 0.10   fpr=0.667  tpr=1.000
  t >= 0.05   fpr=0.833  tpr=1.000
  t >= 0.03   fpr=1.000  tpr=1.000

hull keeps 5 of them; area under the points 0.8056, under the hull 0.8611
model vs rival: neither

wrote <tmp>/out/roc_hull.svg
""", {"roc_hull.svg": "57f8d9e3527dab3fb0665905d82e29a05e4cb1136a9dd0cd13a34bdea71cd6c8"}),
    "02_decision_curves": ("""\
prevalence 0.20; model beats both baselines at 140 of 199 thresholds
largest advantage over the baselines at t=0.615: net benefit 0.0496 vs 0.0000
largest recalibration headroom 0.1834 at t=0.335
standardized net benefit at t=0.615: 0.248 (1.0 would be a perfect classifier)
wrote <tmp>/out/decision_curves.svg
""", {"decision_curves.svg":
      "dc5dad2e160f58d31190684a9004d61323d28e73b8391761a458307e68c290c8"}),
    "03_cost_and_brier": ("""\
hull has 50 operating points, so the envelope has at most 50 linear pieces
envelope peaks at c=0.400 with loss 0.1393
trivial baselines cross at c=0.20 with loss 0.3200
Brier curve sits 0.2471 above the envelope at worst (c=0.310)
wrote <tmp>/out/cost_brier.svg
""", {"cost_brier.svg": "a8e9f5064f91bdf07ac278c83782ff3919188fe47c97942d877eae3f729e5b2f"}),
    "04_loss_decomposition": ("""\
calibrated: brier=0.1750  refinement=0.1750  calibration=0.0000
squashed  : brier=0.2113  refinement=0.1750  calibration=0.0363

same refinement loss (same ranking), calibration loss only for the distorted scores
at c=0.5 the squashed model's loss is 0.2500, of which 0.1667 comes from false alarms
wrote <tmp>/out/decomposition.svg
""", {"decomposition.svg": "9b9664a9a1fc9c533d76dafce0e1fd921e08e9b31d5c6c16f4e6c03cd2a1fb69"}),
    "05_isometrics": ("""\
priors: 0.25 positive
accuracy isometric slope: 3.00 (steep: false alarms are plentiful, so accuracy punishes them)
net-benefit/Brier slope at t=0.1: 0.333
net-benefit/Brier slope at t=0.25: 1.000
net-benefit/Brier slope at t=0.5: 3.000
the slope is 1 exactly at t = prevalence, where both error types trade off evenly
wrote <tmp>/out/isometrics.svg

brier_loss=0.2 isometric at t=0.25 passes through (fpr=0.3, tpr=0.767)
""", {"isometrics.svg": "f373cfee7a78cbfba2c572306b6f32e562f23145b49b31ee566a435db45d84cc"}),
    "06_cross_space_identities": ("""\
pointwise identity: max gap 8.33e-17
envelope duality:   max gap 1.05e-15
ranking agreement at every threshold: True

 t    dNB      dBC      dNB(rescaled)
0.1  0.1000   0.1800   0.1800
0.9  0.9000   0.1800   0.1800
same Brier delta at both thresholds; net benefit only agrees after rescaling by 2(1 - t)
""", {}),
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (ROOT / "demos").glob("0*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_output(name, tmp_path):
    stdout, svgs = EXPECTED[name]
    script = tmp_path / f"{name}.py"
    shutil.copy(ROOT / "demos" / script.name, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.replace(str(tmp_path), "<tmp>") == stdout
    out = tmp_path / "out"
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert written == sorted(svgs)
    for svg, digest in svgs.items():
        assert hashlib.sha256((out / svg).read_bytes()).hexdigest() == digest, svg

"""A fixed job with the make-up of an opcurves command, and no opcurves code.

    python3 bench/calibrate.py

It starts an interpreter, imports numpy, splits and parses 20000 CSV rows,
sorts them, loops over them and sorts a numpy array. bench/run.py runs it
between the commands it times and divides each command's time by the
calibrations on either side, to take out the host's speed drift.
"""

import numpy as np

TEXT = "\n".join(f"{(i * 7919 % 10007) / 10007!r},{int(i % 5 == 0)}" for i in range(20000))

rows = [line.split(",") for line in TEXT.splitlines()]
pairs = sorted((float(s), int(y)) for s, y in rows)
acc = 0.0
counts: dict[float, int] = {}
for s, y in pairs:
    acc += (s - y) ** 2
    counts[s] = counts.get(s, 0) + 1
np.sort(np.random.default_rng(0).random(100_000))

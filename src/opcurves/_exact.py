"""Error-free double arithmetic shared by the decimal decoder (dataset) and
the decimal encoder (output): exact powers of ten, Dekker's product, and
the rule for a value in doubt, which both leave to float() or repr()."""

from __future__ import annotations

import numpy as np

POW10 = np.array([float(10**f) for f in range(23)])  # exact doubles, as 10**f is up to f = 22


def split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into halves of at most 26 bits, x = hi + lo."""
    t = x * 134217729.0  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


POW10_HI, POW10_LO = split(POW10)


def times_pow10(x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's (1971) product x * 10**f = ph + pl exactly, for 0 <= f <= 22
    and no overflow or underflow: ph is the rounded product, pl its error."""
    (xh, xl), sh, sl = split(x), POW10_HI.take(f), POW10_LO.take(f)
    ph = x * POW10.take(f)
    return ph, ((xh * sh - ph) + xh * sl + xl * sh) + xl * sl


# a value within this many units of a rounding tie or a bound is in doubt
DOUBT = 2.0 ** -20


def near_power_of_two(mantissa: np.ndarray) -> np.ndarray:
    """Whether the doubles of these np.frexp mantissas lie within one ulp of
    a power of two, where the spacing of doubles changes: they are in doubt."""
    return (mantissa <= 0.5 + 2.0 ** -53) | (mantissa >= 1.0 - 2.0 ** -53)

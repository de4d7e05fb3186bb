"""The benchmark's own arithmetic: tail percentile, self time, digits, failure share."""

from __future__ import annotations

import math
from typing import Sequence

DIGITS_CAP = 12
TAIL_BEYOND = 10


def tail(times: Sequence[float]) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` values beyond it: (value, percentile).

    That is the (TAIL_BEYOND + 1)-th largest value, at percentile
    100 * (n - TAIL_BEYOND) / n by nearest rank.
    """
    n = len(times)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} values, got {n}")
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def self_time(start: float, end: float, children: Sequence[tuple[float, float]]) -> float:
    """``end - start`` minus the part of [start, end] covered by the child intervals."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def digits(got: complex, exact: complex) -> int:
    """Correct decimal digits: floor(-log10 relative error), within [0, DIGITS_CAP]."""
    if exact == 0:
        raise ValueError("relative error needs a nonzero exact value")
    err = abs(complex(got) - complex(exact)) / abs(complex(exact))
    if not math.isfinite(err):
        return 0
    if err == 0.0:
        return DIGITS_CAP
    return max(0, min(DIGITS_CAP, math.floor(-math.log10(err))))


def fail_frac(failed: int, attempted: int) -> float:
    """Jobs that failed over jobs attempted."""
    if attempted < 1:
        raise ValueError("no job was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted

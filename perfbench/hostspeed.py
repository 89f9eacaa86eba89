"""Host speed: a fixed unit of work, timed between queries, that wall times
are scaled by.

On a shared host the speed one process gets drifts by up to a factor of two,
in periods of seconds to minutes, and a run cannot average that away. So the
benchmark times ``calibrate`` between queries (and between set-ups) and
scales the wall time of the work between two calibrations by

    REFERENCE_S / mean(calibration before, calibration after)

The scaled times read as if the host ran at the speed it had when
REFERENCE_S was taken. One calibration takes about REFERENCE_S; after a long
stretch of work the benchmark repeats it and takes the median, so that one
stray slow calibration does not rescale a whole long query.

The calibration calls only Python, never the program, so a change to the
program moves scaled times as it moves raw ones. It is a plain bytecode
loop because the program's time is mostly interpreter time. On the host the
baseline comes from, this loop's time followed the queries' times closely;
numpy calls on small arrays and dictionary updates, tried as well, swung
about twice as far as the queries did and over-corrected them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# a round figure for calibrate() on a 2-vCPU Intel Xeon VM with Python 3.11,
# where its median per run ranged over 18-28 ms (22.9 ms overall)
REFERENCE_S = 0.020


def _bytecode() -> int:
    x = 0
    for i in range(250_000):
        x += i * i % 7
    return x


def calibrate(repeats: int = 1) -> float:
    """Median seconds the fixed unit of work takes now, over ``repeats``."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _bytecode()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds measured between two calibrations into
    seconds at the reference speed."""
    return REFERENCE_S * 2 / (before + after)

"""Machine-speed calibration for the end-to-end times.

The benchmark's host is shared: the same simulation can take a quarter more
or less from one minute to the next, in CPU time as much as in wall time.
`calibration()` is a fixed piece of pure-Python and small-array work in the
engine's style (object sorts with key functions, attribute and dict updates,
float arithmetic, short numpy vectors).  Timed between the simulations of a
run, its mean says how fast the machine ran during that run, and
`speed_factor` scales the run's times to the speed at which the calibration
takes `REFERENCE_S`.  The calibration does not import mfpsim, so a change to
the engine cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# mean calibration time on the 2-vCPU x86 VM where the benchmark was
# defined; it only sets the scale, so times read close to wall seconds there
REFERENCE_S = 0.045


class _Item:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: int):
        self.x = x
        self.y = y


def calibration() -> float:
    items = [_Item(i * 0.1, (i * 7919) % 101) for i in range(300)]
    acc = 0.0
    for i in range(240):
        items.sort(key=lambda p: (p.y, -p.x))
        acc += sum(p.x for p in items[:20])
        for p in items[::37]:
            p.y = (p.y * 31 + i) % 101
    table: dict[int, float] = {}
    for i in range(60000):
        k = i % 977
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += (i * 1.0001) ** 0.5
    a = np.linspace(0.1, 1.0, 12)
    b = a[::-1].copy()
    for i in range(2000):
        c = np.minimum(a * (i % 7 + 1), b) + a
        acc += float(c.sum()) + float(np.dot(a, c))
    return acc


def timed_calibration() -> float:
    t0 = time.perf_counter()
    calibration()
    return time.perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    """Multiplier that turns times measured alongside these calibration
    samples into times at the reference speed.  The mean, not the median:
    the machine switches between fast and slow spells, a run's time is the
    sum over its spells, and a median of samples drawn from two spells jumps
    from one to the other instead of weighing them."""
    return REFERENCE_S / statistics.fmean(samples)

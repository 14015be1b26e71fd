"""Machine-speed calibration of the end-to-end timings.

On the shared 2-core machine the benchmark was built on, the speed of
the same pure-Python code changes by up to 2x between runs minutes
apart (a fixed loop took 0.33 s in one stretch and 0.47-0.70 s in
another), far beyond any usable regression bound.  So each run also
times a fixed pure-Python kernel -- before the set-ups, around the
timed phase and around the restarts -- and reports every timing in
reference seconds: the measured time scaled by
``REFERENCE_KERNEL_S / kernel time``.  Inside the timed phase the
kernel also runs between operations every ``TICK_S``, so a change of
speed in mid-run is weighed in.  A change to the program moves
the metrics; a change of machine speed moves the kernel by the same
factor and cancels out.  The raw timings are printed next to them.
"""

from __future__ import annotations

import gc
import statistics

from tracer import clock

REFERENCE_KERNEL_S = 0.0035
"""Median kernel time on the reference machine (2-core KVM guest,
Intel Xeon at 2.1 GHz, Python 3.11) in its faster stretches."""

SAMPLES_PER_CALL = 10
TICK_S = 0.2


def kernel() -> int:
    """Dictionary, tuple and sorting work, like the program's own."""
    counts: dict[int, int] = {}
    for i in range(20000):
        key = (i * 7919) % 5003
        counts[key] = counts.get(key, 0) + i
    return len(sorted(counts.items()))


class Calibration:
    """Kernel timings pooled over one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last_tick = 0.0

    def _time_kernel(self) -> None:
        started = clock()
        kernel()
        self.samples.append(clock() - started)

    def sample(self) -> None:
        """Time the kernel ``SAMPLES_PER_CALL`` times, collector off."""
        gc.collect()
        gc.disable()
        try:
            for _ in range(SAMPLES_PER_CALL):
                self._time_kernel()
        finally:
            gc.enable()

    def tick(self) -> None:
        """Between operations of a timed phase: time the kernel once if
        ``TICK_S`` has passed since the last tick."""
        if clock() - self._last_tick >= TICK_S:
            self._time_kernel()
            self._last_tick = clock()

    @property
    def factor(self) -> float:
        """Reference seconds per measured second."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)

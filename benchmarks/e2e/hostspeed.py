"""Take the host out of the timings: one CPU, and a reference kernel.

On the 2-core microVM this benchmark was written on, the same iteration
of the messaging workload took anything from 1.4 s to 4.0 s within an
hour.  Two causes were measured (README, "Noise"):

* *Where a woken rank thread lands.*  The cooperative engine runs one
  rank at a time and hands over through ``threading.Event``; when the
  next rank wakes on the other vCPU the hand-off costs an inter-processor
  interrupt and a VM exit — 15-200 µs depending on host load — and the
  8-rank workloads spend half their wall-clock there.  Pinned to one CPU
  a hand-off is a local context switch and the workloads run 1.7-2x
  faster, with wall-clock equal to CPU time.
* *How fast the CPU is right now.*  What remains drifts by 10-40 % over
  minutes (a busy sibling hyperthread, presumably), for every
  instruction mix alike once pinned: a fixed kernel timed beside each
  iteration correlates 0.90-0.96 with the workload's wall-clock, and
  dividing by it cuts the spread between 18-second windows from 11 % to
  1.5-4 %.  (Unpinned the correlation is 0.2-0.4 and dividing makes
  things worse.)

So the runner pins itself to one CPU, and reports end-to-end timings in
*reference-host seconds*: measured seconds divided by the host factor —
the kernel's time now over its time on the reference host.  The kernel
is half interpreter-bound and half numpy-bound, like the program, and
shares no code with ``src/``, so no change to the program can move it.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Seconds each half of the kernel takes on the reference host (the
#: microVM above in a quiet phase).  These constants only fix the unit;
#: changing them rescales every end-to-end timing ever recorded.
REFERENCE_S = {"interpreter": 2.0e-3, "numpy": 6.2e-3}
#: Timings per half in one reading (their median is used).
REPEATS = 3


def pin_to_one_cpu() -> int | None:
    """Confine this process (and its children) to one CPU — the last one
    it may use, CPU 0 being where interrupts tend to land."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # a sandbox that forbids it: run unpinned, noisier
        return None
    return cpu


class HostSpeed:
    """Readings of the host factor (1.0 = the reference host; 1.3 = this
    host is 30 % slower right now)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(1)
        self._values = np.arange(120_000, dtype=np.uint64)
        self._gather = rng.integers(0, self._values.size, 60_000)
        self._keys = rng.integers(0, 1 << 40, 40_000).astype(np.uint64)
        self.readings: list[float] = []

    @staticmethod
    def _interpreter() -> None:
        total = 0
        low = []
        for i in range(24_000):
            total += i * i
            low.append(total & 255)
        counts: dict[int, int] = {}
        for value in low[:8_000]:
            counts[value] = counts.get(value, 0) + 1

    def _numpy(self) -> None:
        mixed = (self._values * np.uint64(2654435761)) >> np.uint64(7)
        mixed[self._gather].sum()
        np.unique(self._keys)
        (mixed & np.uint64(1023)).sum()

    def read(self) -> float:
        """Time the kernel now; returns (and keeps) the host factor."""
        factor = 0.0
        for name, half in (("interpreter", self._interpreter),
                           ("numpy", self._numpy)):
            timings = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                half()
                timings.append(time.perf_counter() - start)
            factor += statistics.median(timings) / REFERENCE_S[name] / 2
        self.readings.append(factor)
        return factor

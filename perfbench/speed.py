"""Host-speed probe: a fixed interpreter-bound loop timed between cells.

The hosts this benchmark runs on change speed by a third or more from
one few-second stretch to the next, so the same sweep pass can take
1.6 s or 2.6 s.  Each pass therefore times a fixed probe every
:data:`PROBE_EVERY_S` seconds and scales every cell's host time by
``REFERENCE_PROBE_S / local probe time``, where the local probe time is
the median of the :data:`NEIGHBOURS` probes nearest to the cell.  The
result is host time at the speed where the probe takes
:data:`REFERENCE_PROBE_S`: *reference seconds*.  Raw host times are
reported beside them.
"""

from __future__ import annotations

import bisect
import time

PROBE_LOOPS = 60_000
#: The probe's duration on a reference-speed host (this constant only
#: sets the unit: it cancels in any comparison made on one host).
REFERENCE_PROBE_S = 0.005
PROBE_EVERY_S = 0.1
NEIGHBOURS = 7


def probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedTrack:
    """Probe samples of one pass and the per-moment speed they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self.last = float("-inf")

    def sample(self) -> float:
        duration = probe()
        self.times.append(time.perf_counter())
        self.durations.append(duration)
        self.last = self.times[-1]
        return duration

    def due(self, now: float) -> bool:
        return now - self.last >= PROBE_EVERY_S

    def scale_at(self, moment: float) -> float:
        """``REFERENCE_PROBE_S / median of the probes nearest moment``."""
        index = bisect.bisect_left(self.times, moment)
        lo = max(0, index - NEIGHBOURS // 2 - 1)
        hi = min(len(self.times), lo + NEIGHBOURS)
        lo = max(0, hi - NEIGHBOURS)
        window = sorted(self.durations[lo:hi])
        return REFERENCE_PROBE_S / window[len(window) // 2]

    @property
    def total_s(self) -> float:
        return sum(self.durations)

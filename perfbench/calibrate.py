"""Seconds of program work scaled to a nominal host speed.

On a shared host the CPU runs up to twice as slow for stretches of a second
to several minutes, and process CPU time slows with it (there is no steal
time to subtract).  So a timed pass is sampled: a real-time interval timer
interrupts the program every ``TICK_S`` seconds and runs a fixed reference
kernel of about a millisecond in the same thread.  Each stretch of program
work between two probes is scaled by how much slower than nominal the
probes on either side of it ran, and the probes' own time is left out.

The kernel is pure-Python integer elimination like the program's own and
uses no torgrad code, so a change to the program never changes it.  The
scaling removes the host's slow stretches, not the program's own cost:
work that the program adds or saves shows in full.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# Seconds one probe of the kernel takes when the host runs at full speed;
# scaled times are seconds at this speed.  It is the fast end (5th
# percentile) of probe times on a 2-core x86-64 Xeon sandbox.
NOMINAL_S = 0.00065
TICK_S = 0.03

_RNG = random.Random(20250801)
_MATRIX = [[_RNG.randrange(-9, 10) for _ in range(20)] for _ in range(20)]
_clock = time.perf_counter


def _bareiss_rank(rows: list) -> int:
    m = [row[:] for row in rows]
    rank, prev = 0, 1
    ncols = len(m[0])
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            row, top = m[r], m[rank]
            m[r] = [(p * row[c] - f * top[c]) // prev for c in range(ncols)]
        prev = p
        rank += 1
    return rank


def probe() -> tuple:
    """(start, end) of one run of the reference kernel."""
    start = _clock()
    _bareiss_rank(_MATRIX)
    return start, _clock()


def speed_probe(samples: int = 5) -> float:
    """Median seconds of a few back-to-back probes."""
    return statistics.median(end - start
                             for start, end in (probe()
                                                for _ in range(samples)))


class Meter:
    """Samples the host's speed while the program runs.  One per process:
    it owns SIGALRM.

        with meter:
            work()
        meter.work_s, meter.nominal_s
    """

    def __init__(self, tick: float = TICK_S):
        self.tick = tick
        self.active = False
        self.work_s = self.nominal_s = 0.0
        self._last_end = self._last_probe = 0.0
        signal.signal(signal.SIGALRM, self._on_tick)

    def _on_tick(self, signum, frame) -> None:
        if self.active:  # never nested, when a tick comes during a probe
            self.active = False
            self._sample()
            self.active = True

    def _sample(self) -> None:
        start, end = probe()
        work = start - self._last_end
        taken = end - start
        # the stretch ran at a speed between those of the probes around it
        self.work_s += work
        self.nominal_s += work * NOMINAL_S * 2 / (self._last_probe + taken)
        self._last_end, self._last_probe = end, taken

    def __enter__(self) -> "Meter":
        self.work_s = self.nominal_s = 0.0
        start, self._last_end = probe()
        self._last_probe = self._last_end - start
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.active = False
        self._sample()

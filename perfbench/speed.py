"""The machine's speed, sampled all through a run.

A shared virtual machine runs the same code at different speeds from one
second to the next, and for spells of about a minute, at no regular
interval, up to 60% slower, in CPU time as well as wall time.  A spell
covers whole runs, so no statistic within a run removes it.  The benchmark
therefore samples the speed all through a run: every `EVERY_S` a timer
signal interrupts the program, and its handler times a fixed pure-Python
loop.  A timed interval's own time is its duration less the samples taken
inside it.  Its scaled time is its own time multiplied by `REFERENCE_S` over
the median sample within `WINDOW_S` of it: its time at the reference speed,
the speed at which one sample takes `REFERENCE_S`.  A change to plcroute
moves a scaled time exactly as it moves the raw time; a slow spell of the
machine moves it far less.
"""
from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from statistics import median

EVERY_S = 0.05  # one sample per EVERY_S of wall time
LOOPS = 10_000  # steps of the loop in one sample, under 1 ms
WINDOW_S = 0.5  # an interval is scaled by the samples this close to it
REFERENCE_S = 0.00065  # a typical sample on a 2.1 GHz Xeon VM core


def _loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i
    return time.perf_counter() - start


class SpeedProbe:
    """The samples of a run, and the scaled times they give."""

    def __init__(self):
        # (start, end, the loop's time), appended in one step so that a
        # handler interrupting another one cannot interleave its fields
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        seconds = _loop()
        self.samples.append((start, time.perf_counter(), seconds))

    @contextmanager
    def sampling(self):
        """Take a sample every EVERY_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _near(self, start: float, end: float, margin: float) -> list:
        """The samples that overlap [start - margin, end + margin]."""
        first = bisect_left(self.samples, start - margin, key=lambda s: s[1])
        last = bisect_right(self.samples, end + margin, key=lambda s: s[0])
        return self.samples[first:last]

    def own_time(self, start: float, end: float) -> float:
        """The interval's duration less the samples taken inside it."""
        return end - start - sum(min(e, end) - max(s, start)
                                 for s, e, _ in self._near(start, end, 0.0))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median sample within WINDOW_S of the
        interval [start, end]."""
        near = [seconds for _, _, seconds in self._near(start, end, WINDOW_S)]
        if not near:
            raise RuntimeError("no speed sample near a timed interval")
        return REFERENCE_S / median(near)

    def scaled(self, start: float, end: float) -> float:
        """The interval's own time at the reference speed."""
        return self.own_time(start, end) * self.scale(start, end)

    def median_sample(self) -> float:
        return median(seconds for _, _, seconds in self.samples)

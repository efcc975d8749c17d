"""Scale measured intervals to a nominal host speed.

On a shared host the CPU speed a process gets swings by up to ~1.8x
over phases of seconds (other tenants' load; CPU time tracks wall time
through them, so it is the speed that changes, not the share).  A run
that lands in a slow phase would then read ~40% slower for reasons
that have nothing to do with the program.

:class:`Meter` therefore interleaves a short fixed probe — interpreter
work over a ~2 MB dict, written here and sharing no code with the
program — between measured intervals, about every
:data:`EVERY_S` seconds of measured time, and multiplies each interval by
``probe rate / NOMINAL_RATE`` (the mean of the probes before and after
it).  A reported time is the time the interval would have taken at the
nominal speed.  Probe time is never part of a measured interval.  The
raw (unscaled) values are kept alongside.

The probe shares the CPU caches with the program.  On the baseline
host, a probe right after 50 ms of campaign work read 0.964 (burst),
0.968 (steady) and 0.977 (churn) of the rate of a probe right after
another probe, so the program's own footprint moves the factor by ~3%,
nearly alike across workloads.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Probe units per second: the median probe rate over 43 benchmark runs
#: on the shared 2-core x86_64 host the baseline was recorded on, so a
#: reported time reads as a wall time at that host's typical speed (the
#: same host's probe rate ranged over 50-99k).  Only sets the scale of
#: reported times; every run must use the same constant.
NOMINAL_RATE = 54_000.0

#: Seconds one probe runs, and measured seconds between probes.  Per
#: repeated steady campaign, the IQR of scaled times was 6% with a probe
#: every 50 ms and 14% with one every 250 ms (raw: ~20%).
PROBE_S = 0.003
EVERY_S = 0.05

_KEYS = [(i * 7919) % 40_009 for i in range(0, 20_000, 7)]
_TABLE = {k: float(k) for k in range(40_009)}


def _probe_unit() -> float:
    acc = 0.0
    table = _TABLE
    for key in _KEYS[:200]:
        acc += table[key] * 1.0001
    return acc


class HostSpeed:
    """Runs the probe for :data:`PROBE_S` seconds and reports its rate."""

    def rate(self) -> float:
        start = time.perf_counter()
        end = start + PROBE_S
        units = 0
        while True:
            _probe_unit()
            units += 1
            now = time.perf_counter()
            if now >= end:
                return units / (now - start)


class Meter:
    """Collects timed intervals by key and scales them to nominal speed.

    ``add`` records an interval; ``tick`` probes once at least
    :data:`EVERY_S` seconds of wall time have passed since the last probe
    and scales everything recorded since.  Wall time between probes is
    recorded under ``"wall"`` (probe time excluded), so a client whose
    measured quantity is wall time (the HTTP fleet) reads it there.
    """

    def __init__(self, speed: HostSpeed | None = None) -> None:
        self.speed = speed or HostSpeed()
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.factors: list[float] = []
        self._pending: list[tuple[str, float]] = []
        self._rate = self.speed.rate()
        self._segment_start = time.perf_counter()

    def add(self, key: str, seconds: float) -> None:
        self._pending.append((key, seconds))

    def tick(self) -> None:
        if time.perf_counter() - self._segment_start >= EVERY_S:
            self.flush()

    def flush(self) -> None:
        self.add("wall", time.perf_counter() - self._segment_start)
        rate = self.speed.rate()
        factor = (self._rate + rate) / 2.0 / NOMINAL_RATE
        self.factors.append(factor)
        for key, seconds in self._pending:
            self.raw[key].append(seconds)
            self.scaled[key].append(seconds * factor)
        self._pending.clear()
        self._rate = rate
        self._segment_start = time.perf_counter()

    def total(self, key: str) -> float:
        return sum(self.scaled.get(key, ()))

    def raw_total(self, key: str) -> float:
        return sum(self.raw.get(key, ()))

"""A reference clock: time as a host of one fixed speed would count it.

The sandbox this benchmark runs on shares its cores.  Timing a fixed loop for
seven minutes showed two speeds about 1.5x apart (later a third, 1.7x), the
host switching between them every 1 to 15 s and at times staying slow for
minutes: per-second medians of 36-38 ms and 56-58 ms for the same work, the
fast speed itself steady within 5 %.  Process CPU time stretches with wall
time, so neither clock repeats, and a window of 8 s often sits wholly in one
speed or the other: the same ``tcp_closed`` read 459 and 696 ops/s minutes
apart.

So whatever is timed carries a probe.  Every ``PROBE_PERIOD_S`` the clock
times one fixed piece of pure-Python work (about a millisecond); the host's
*slowness* at that moment is the probe's duration over ``REFERENCE_PROBE_S``.
The timed stretch is thereby cut into intervals, each with its wall seconds,
CPU seconds, operations completed and slowness, and two corrections follow:

* **reference seconds** — an interval's seconds divided by its slowness.  For
  CPU-bound work of a fixed size this removes the host: six ``sim_steady``
  runs read 1 830-2 188 ops/s plain and 2 292-2 382 per reference second.
* **fast intervals** — a live cluster at saturation falls further behind than
  the host slows down (``tcp_closed`` completed 1.96x fewer operations while
  the probe ran 1.49x slower), so dividing by the slowness leaves part of a
  slow episode in.  Its rates are therefore taken over the intervals whose
  slowness is within ``FAST_CUT`` of the run's tenth-percentile slowness: six
  runs on a bad quarter of an hour read 459-696 ops/s plain, 629-799 per
  reference second, 698-815 over the fast intervals.  Work of a fixed size
  and open loops do not need it, and where the work changes through the run
  (``sim_steady``'s first eighth is a fifth faster than the rest;
  ``tcp_crash`` has an outage) choosing intervals adds more than it removes,
  so they use every interval.

The probe's own time falls between intervals and is counted nowhere.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

#: Seconds the probe takes at a slowness of 1: the fast speed of the host the
#: benchmark was written on.  A constant, so that readings from different
#: runs, days and hosts are on one scale.
REFERENCE_PROBE_S = 0.00095
PROBE_PERIOD_S = 0.03
#: Probes whose median is one slowness reading: a lone preempted probe is
#: ignored, an episode of a second is followed.
SMOOTH = 7
FAST_CUT = 1.15

#: Scattered float objects for the probe to walk, more of them than the
#: nearer caches hold; each probe walks the next stretch.
_HEAP = [float(i) for i in range(300_000)]
random.Random(0).shuffle(_HEAP)
_WALK = 6000


def _probe(walk_from: int) -> float:
    """The fixed work: what the interpreter spends its time on under every
    workload (dict stores, int arithmetic, building and sorting tuples and
    strings, varints into a bytearray, SHA-256 of a ``repr``, a walk over
    scattered objects), none of it code of the program under test.  Half
    arithmetic, half the rest: over forty pairs of 8 s windows, the host's
    speed ranging over 2x, dividing by this probe left a spread
    (interquartile range over median) of 0.055 on ``tcp_closed`` and 0.035 on
    ``sim_steady``; the arithmetic alone left 0.060 and 0.043."""
    table, acc = {}, 0
    for i in range(3000):
        table[i & 255] = acc
        acc = (acc + (i * 7 ^ (acc >> 3))) & 0xFFFFFFFF
    for _ in range(2):
        items = [(i * 7919 % 1009, str(i)) for i in range(150)]
        items.sort()
        index = {}
        for key, name in items:
            index[name] = key
        buffer = bytearray()
        for key, _name in items:
            key *= 131
            while key > 0x7F:
                buffer.append(key & 0x7F | 0x80)
                key >>= 7
            buffer.append(key)
        hashlib.sha256(repr(items).encode()).digest()
    return acc + sum(_HEAP[walk_from : walk_from + _WALK])


@dataclass
class Rates:
    """Reference seconds and the operations completed in them."""

    wall_s: float
    cpu_s: float
    ops: int


@dataclass
class Reading:
    """What a clock measured between its ticks."""

    #: Plain seconds: from the first tick to the last with the probes
    #: included, and the intervals alone.
    elapsed_s: float
    wall_s: float
    cpu_s: float
    #: Every interval, and the fast ones, in reference seconds.
    whole: Rates
    fast: Rates
    #: Share of the plain wall seconds that lie in fast intervals.
    fast_share: float

    @property
    def slowness(self) -> float:
        """Mean slowness of the host over the reading (1 = the reference)."""
        return self.wall_s / self.whole.wall_s


#: Probe start (wall, cpu), probe end (wall, cpu), operations completed,
#: ``ru_maxrss`` in KiB, and whether a pause ended here (the time since the
#: tick before is then not part of the reading).
_Sample = Tuple[float, float, float, float, int, int, bool]
#: Slowness, wall seconds, CPU seconds and operations from the end of one
#: probe to the start of the next.
_Interval = Tuple[float, float, float, int]


def _rates(intervals: List[_Interval]) -> Rates:
    return Rates(
        wall_s=sum(wall / slowness for slowness, wall, _cpu, _ops in intervals),
        cpu_s=sum(cpu / slowness for slowness, _wall, cpu, _ops in intervals),
        ops=sum(ops for _slowness, _wall, _cpu, ops in intervals),
    )


class RefClock:
    """Collects probes; *progress* returns the operations completed so far."""

    def __init__(self, progress: Optional[Callable[[], int]] = None) -> None:
        self._progress = progress or (lambda: 0)
        self._samples: List[_Sample] = []
        self._walk_from = 0

    def tick(self, resume: bool = False) -> None:
        done = self._progress()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wall, cpu = time.perf_counter(), time.process_time()
        _probe(self._walk_from)
        self._samples.append(
            (wall, cpu, time.perf_counter(), time.process_time(), done, rss, resume)
        )
        self._walk_from = (self._walk_from + _WALK) % (len(_HEAP) - _WALK)

    async def keep_ticking(self) -> None:
        """Task body for event-loop workloads; cancel it to stop."""
        while True:
            await asyncio.sleep(PROBE_PERIOD_S)
            self.tick()

    def peak_rss_mb(self, mark: Optional[int] = None) -> float:
        """``ru_maxrss`` at the first tick with *mark* operations completed
        (at the last tick if none, or when there is no mark)."""
        for sample in self._samples:
            if mark is not None and sample[4] >= mark:
                return sample[5] / 1024
        return self._samples[-1][5] / 1024

    def reading(self) -> Reading:
        samples = self._samples
        raw = [(s[2] - s[0]) / REFERENCE_PROBE_S for s in samples]
        half = SMOOTH // 2
        smooth = [
            statistics.median(raw[max(0, i - half) : i + half + 1]) for i in range(len(raw))
        ]
        counted = [i for i in range(1, len(samples)) if not samples[i][6]]
        intervals: List[_Interval] = [
            (
                (smooth[i - 1] + smooth[i]) / 2,
                samples[i][0] - samples[i - 1][2],
                samples[i][1] - samples[i - 1][3],
                samples[i][4] - samples[i - 1][4],
            )
            for i in counted
        ]
        fastest = sorted(slowness for slowness, *_ in intervals)[len(intervals) // 10]
        fast = [interval for interval in intervals if interval[0] <= FAST_CUT * fastest]
        if not sum(ops for *_, ops in fast):
            fast = intervals  # a stretch too short to choose from
        wall_s = sum(wall for _slowness, wall, _cpu, _ops in intervals)
        return Reading(
            elapsed_s=sum(samples[i][0] - samples[i - 1][0] for i in counted),
            wall_s=wall_s,
            cpu_s=sum(cpu for _slowness, _wall, cpu, _ops in intervals),
            whole=_rates(intervals),
            fast=_rates(fast),
            fast_share=sum(wall for _slowness, wall, _cpu, _ops in fast) / wall_s,
        )

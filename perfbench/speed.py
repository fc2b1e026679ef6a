"""Clocks for the plain passes: wall time, or wall time at a reference speed.

On a shared 2-vCPU Xeon virtual machine at 2.1 GHz, CPU speed swung by up
to 1.7x within seconds. A fixed pure-Python loop ran between 1.0x and 1.7x
its fastest time over 90 s, in stretches of 1 to 40 s. That moved the wall
time of a 20 s run by 10-20% from one run to the next.

SpeedClock measures that speed while a pass runs: a SIGALRM handler times a
fixed probe every `interval_s`. `seconds(a, b)` then rescales the wall time
between a and b, less the probe's own time, to the reference speed at which
the probe takes `reference_s`. No probe touches graphquery, so a change to
graphquery moves the rescaled time and not the reference. A probe must
slow down as the workload does, so there are two:

- INTERPRETER mixes the operations graphquery's Python code is made of:
  calls, object creation, dict and set updates and big-integer bit
  operations. Over two minutes of repeated passes it cut the pass-to-pass
  spread (standard deviation over mean) from 0.111 to 0.023 on
  minimax-games, and from 0.099 to 0.020 on query-throughput.
- NUMPY_GATHER gathers int64 rows through a fixed index table, the way the
  canonical-code kernel does. Across eight processes that each ran
  `verify_unique_colorable_edge_bound(7, 3)` once, it cut the spread from
  0.055 to 0.024. The interpreter probe raised it to 0.073 there.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MASK = (1 << 200) - 1


class _Item:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


def _bump(x: int) -> int:
    return x + 1


def _interpreter_loop() -> None:
    table: dict[int, int] = {}
    seen: set[int] = set()
    items: list[_Item] = []
    bits = 0
    for i in range(1500):
        table[i & 255] = _bump(i)
        seen.add(i * 7 % 97)
        bits = ((bits << 3) | (i & 7)) & _MASK
        items.append(_Item(i))
        if len(items) > 64:
            items.clear()


_rng = np.random.default_rng(0)
_ROWS = _rng.integers(0, 2, size=(8, 49)).astype(np.int64)
_INDEX = _rng.integers(0, 49, size=(5040, 21))


def _numpy_gather() -> None:
    _ROWS[:, _INDEX].sum()


@dataclass(frozen=True)
class Probe:
    name: str
    run: Callable[[], None]
    reference_s: float  # about the probe's median time on that machine
    interval_s: float


INTERPRETER = Probe("interpreter", _interpreter_loop, reference_s=1.5e-3, interval_s=0.05)
NUMPY_GATHER = Probe("numpy-gather", _numpy_gather, reference_s=2.5e-3, interval_s=0.1)


class WallClock:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def seconds(self, a: float, b: float) -> float:
        return b - a


class SpeedClock:
    """Reference seconds between perf_counter() readings taken while it is entered."""

    def __init__(self, probe: Probe):
        self._probe = probe
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._factors: list[float] = []
        self._sampling = False
        self._previous = None

    def _sample(self, *_) -> None:
        if self._sampling:  # a handler that was itself interrupted
            return
        self._sampling = True
        start = time.perf_counter()
        self._probe.run()
        self._starts.append(start)
        self._ends.append(time.perf_counter())
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self._probe.interval_s, self._probe.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        d = [end - start for start, end in zip(self._starts, self._ends)]
        # the speed after each sample comes from the median of it and its
        # neighbours, so that one sample slowed by an interruption counts less
        reference = self._probe.reference_s
        self._factors = [reference / statistics.median(d[max(i - 1, 0): i + 2]) for i in range(len(d))]

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of work between a and b, the samples' own time left out."""
        starts, ends = self._starts, self._ends
        i = max(bisect.bisect_right(starts, a) - 1, 0)
        total = 0.0
        # the work between sample i's end and sample i+1's start ran at factors[i]
        while i < len(starts) and starts[i] < b:
            lo = max(a, ends[i])
            hi = min(b, starts[i + 1]) if i + 1 < len(starts) else b
            if hi > lo:
                total += (hi - lo) * self._factors[i]
            i += 1
        return total

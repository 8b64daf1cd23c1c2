"""Speed reference that rescales wall times to one nominal machine speed.

Small shared machines change speed while a run is under way.  On the
2-core machine used to build this benchmark, a fixed piece of Python
took anywhere from 1x to 1.8x its fastest time, in states lasting 10 to
30 seconds, because other tenants share the physical cores.  Raw wall
times from two runs are then not comparable.

So a fixed reference slice runs between queries, about every tenth of a
second.  It does the kinds of work the program does: exact rational
arithmetic on large numerators, dictionary lookups, small frozen
objects, sorting and JSON.  Each query's wall time is multiplied by

    NOMINAL_SLICE_MS / (median time of the slices within WINDOW_S of the query)

so times read as if the reference slice had taken NOMINAL_SLICE_MS.  The
reference uses only the standard library and fixed data, so no change to
the program can move it.  Raw wall times stay in the per-query records.
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

NOMINAL_SLICE_MS = 4.0
PROBE_EVERY_S = 0.1
SLICES_PER_PROBE = 2
WINDOW_S = 0.3
MIN_SLICES = 9
# Entries in the reference tables.  A slice touches at most 600 of them;
# the tables stay small so that peak RSS remains the program's figure.
TABLE_SIZE = 2000


@dataclass(frozen=True)
class _Item:
    key: Fraction
    index: int


class SpeedReference:
    def __init__(self):
        rng = random.Random(0)
        self._fractions = [Fraction(rng.randint(1, 10**30), rng.randint(1, 10**30))
                           for _ in range(TABLE_SIZE)]
        self._keys = [(rng.randint(0, 10**6), str(rng.random())) for _ in range(TABLE_SIZE)]
        self._table = {k: i for i, k in enumerate(self._keys)}
        self._rng = random.Random(1)
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def _slice(self):
        i = self._rng.randrange(0, TABLE_SIZE - 600)
        total = Fraction(0)
        for x in self._fractions[i:i + 150]:
            total += x
        found = 0
        for key in self._keys[i:i + 600]:
            found += self._table[key]
        items = [_Item(self._fractions[j], j) for j in range(i, i + 300)]
        items.sort(key=lambda item: item.key)
        return json.dumps([str(item.key) for item in items[:50]]), total, found

    def probe(self):
        for _ in range(SLICES_PER_PROBE):
            start = time.perf_counter()
            self._slice()
            end = time.perf_counter()
            self.ends.append(end)
            self.durations.append(end - start)
        self._last = time.perf_counter()

    def maybe_probe(self):
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_SLICE_MS over the median slice time around [start, end]."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        while hi - lo < MIN_SLICES and (lo > 0 or hi < len(self.ends)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.ends))
        local_ms = statistics.median(self.durations[lo:hi]) * 1000
        return NOMINAL_SLICE_MS / local_ms

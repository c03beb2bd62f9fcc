"""Machine-speed probe that puts the end-to-end times on one scale.

On a small shared host the same code runs up to twice as fast or slow from
one minute to the next, and the cause is outside the process: its CPU time
drifts as much as its wall time.  A run therefore samples a fixed piece of
work that does not touch qcloak every `EVERY_S` seconds between jobs: float
arithmetic and math calls like the pure-Python kernel's, dict, list, JSON
and small-object work like the command line's and serializer's, and small
numpy array operations like the observables'.  End-to-end times are
reported at the reference speed: each raw time is multiplied by
``REF_S / median(probe times)`` of its run.  A change to qcloak moves the
jobs and not the probe, so it shows in full; the raw times and the factor
are printed and saved beside the metrics.

The correction is partial: over ten-second windows a job's time moves by
0.6 to 0.9 of the probe's move, so the factor takes out most, not all, of
a drift.
"""

from __future__ import annotations

import json
import math
import statistics
import time

#: seconds one probe takes at the reference speed (about the median on a
#: 2-core x86-64 cloud VM running CPython 3.11); it only fixes the unit
REF_S = 0.008
#: least time between two probes of a run
EVERY_S = 0.5
#: probes taken right after each set-up
SETUP_PROBES = 9


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _combine(p, q):
    return _Pair(p.a + q.b, p.b * 0.5 + q.a)


def probe() -> float:
    """Seconds taken by the fixed piece of work."""
    import numpy as np  # here, so that importing this module stays cheap

    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 12000):
        x = i * 1e-3
        s += math.sqrt(x) * math.cos(x) - s * 1e-9
    rows = [{"r": i * 0.01, "k": [i, i + 1.5, f"x{i}"]} for i in range(800)]
    back = json.loads(json.dumps(rows))
    back.sort(key=lambda d: -d["r"])
    acc = _Pair(0.0, 1.0)
    for d in back:
        acc = _combine(acc, _Pair(d["r"], d["k"][1]))
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(60):
        a = np.sin(a) + 0.5 * np.cos(a)
        a[a > 0.3].sum()
    return time.perf_counter() - t0


class Speed:
    """Probe times of one run, and the time spent taking them."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        """Take a probe unless one was taken in the last `EVERY_S` seconds."""
        start = time.perf_counter()
        if not force and start - self._last < EVERY_S:
            return
        self.samples.append(probe())
        self._last = time.perf_counter()
        self.spent += self._last - start

    def factor(self) -> float:
        """Reference speed over this run's speed: raw seconds times this
        are seconds at the reference speed."""
        return REF_S / statistics.median(self.samples)

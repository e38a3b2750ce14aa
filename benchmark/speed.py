"""The machine's speed, sampled between requests, to put times on one scale.

The host this benchmark was sized on changes speed by 20 % or more from
one second to the next, and by up to a half within an hour (README.md,
Noise): a fixed loop runs slower or faster, and heartproof's requests with
it. A `Gauge` times a fixed probe, which calls nothing of heartproof's,
between requests at least every INTERVAL seconds. A time measured over
[start, end] is then multiplied by the probe's reference time over the
median of the probes taken within WINDOW seconds of that interval, so it
reads as it would on a machine where the probe takes its reference time.
A change to the program moves the scaled times exactly as it moves the
raw ones; a slow phase of the host moves the probe and the request alike
and cancels out. Each workload uses the probe whose work is most like its
own: pure Python for the subgroup search and the Galois probe, numpy row
reduction for the MeatAxe and the commutant.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

INTERVAL = 0.1
WINDOW = 0.5
MIN_PROBES = 5

_P = 10007
_PERM = tuple((7 * i + 3) % 64 for i in range(64))
_MATRIX = np.arange(120 * 120, dtype=np.int64).reshape(120, 120) * 7919 % _P


def python_probe() -> int:
    """Integer arithmetic mod p and permutation composition in pure Python."""
    acc = 0
    for i in range(12000):
        acc = (acc * 31 + i) % _P
    perm = _PERM
    for _ in range(250):
        perm = tuple(_PERM[j] for j in perm)
    return acc + perm[1]


def numpy_probe() -> int:
    """Row reduction mod p of a 120 x 120 matrix with numpy, as linalg.rref does."""
    m = _MATRIX.copy()
    for r in range(20):
        m = (m - np.outer(m[:, r], m[r])) % _P
    return int(m[0, 0])


# probe name -> (probe, its reference time: about its median on the 2-vCPU
# VM the reference figures in README.md come from)
PROBES = {"python": (python_probe, 0.0020), "numpy": (numpy_probe, 0.0018)}


class Gauge:
    def __init__(self, probe: str):
        self.probe, self.reference_s = PROBES[probe]
        self.times: list[float] = []  # probe midpoints, ascending
        self.probes: list[float] = []  # probe durations
        self.last = float("-inf")

    def sample(self):
        """Time the probe once, with the cyclic collector off, so that the
        size of heartproof's heap does not change the probe's time."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.probe()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.times.append((start + end) / 2)
        self.probes.append(end - start)
        self.last = end

    def tick(self):
        """Take a probe if none was taken in the last INTERVAL seconds."""
        if time.perf_counter() - self.last >= INTERVAL:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """The reference time over the median probe within WINDOW seconds of
        [start, end], or over the MIN_PROBES nearest if the window holds fewer."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        if hi - lo >= MIN_PROBES:
            near = self.probes[lo:hi]
        else:
            mid = (start + end) / 2
            order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            near = [self.probes[i] for i in order[:MIN_PROBES]]
        return self.reference_s / statistics.median(near)

    def scaled(self, seconds: float, start: float, end: float) -> float:
        return seconds * self.factor(start, end)

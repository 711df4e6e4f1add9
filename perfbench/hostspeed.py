"""Host-speed calibration for the timed run.

The benchmark runs on shared hosts whose speed drifts by up to 60% in
phases of seconds to minutes (other tenants), so much that one run's
passes can all fall in a slow or a fast phase.  The timed run therefore
interleaves a fixed calibration loop, which does not use the program,
with its passes (and with the cells of a pass, where a pass is long),
and scales every host-time metric to the speed at which that loop takes
``REFERENCE_S`` seconds:

    speed  = REFERENCE_S / mean(calibration seconds)
    scaled = raw seconds * speed

A change to the program does not change the loop, so the scaled times
move exactly as the raw ones do between two commits measured on the
same host; only the host's drift cancels.  The raw values and the
samples are kept in the run's provenance record.

One sample runs two halves of about equal length, because the
simulator's time is partly interpreter work and partly memory traffic
over its dict-based caches and directory, and a host phase slows the
two by different amounts: a compute loop of integer arithmetic and
dict stores, and a dependent walk through a shuffled ~20 MB table of
Python ints and a dict, which misses the CPU's private caches.
"""

from __future__ import annotations

import os
import random
import time

#: Iterations of the compute half (about 50 ms on a 2-CPU Xeon VM).
COMPUTE_ITERATIONS = 250_000

#: Entries of the walk table and steps of the memory half (about
#: 50 ms on the same host).
WALK_ENTRIES = 1 << 17
WALK_STEPS = 40_000

#: Seconds one sample takes at the reference host speed.
REFERENCE_S = 0.100

_HASH = 2654435761


def _resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def compute_loop(iterations: int = COMPUTE_ITERATIONS) -> int:
    acc = 0
    table = {}
    for i in range(iterations):
        acc += i * i % 7
        table[i & 1023] = acc
    return acc


class WalkTable:
    """A fixed random cycle through ``WALK_ENTRIES`` slots, each step a
    list load and a dict lookup at scattered addresses.  ``resident_mb``
    is the resident memory building it added: built before the program
    is imported, it is what the run's peak RSS holds beyond the
    program's own."""

    def __init__(self, entries: int = WALK_ENTRIES):
        before = _resident_mb()
        order = list(range(entries))
        random.Random(0).shuffle(order)
        self.next = [0] * entries
        for here, there in zip(order, order[1:] + order[:1]):
            self.next[here] = there
        self.keys = [(i * _HASH) & 0xFFFFFFFF for i in range(entries)]
        self.values = {key: i for i, key in enumerate(self.keys)}
        del order
        self.resident_mb = _resident_mb() - before

    def walk(self, steps: int = WALK_STEPS) -> int:
        following, keys, values = self.next, self.keys, self.values
        i = acc = 0
        for _ in range(steps):
            i = following[i]
            acc += values[keys[i]]
        return acc


class HostClock:
    """Calibration samples taken during one phase of a run."""

    def __init__(self, table: WalkTable):
        self.table = table
        self.samples: list = []

    def sample(self) -> None:
        start = time.perf_counter()
        compute_loop()
        self.table.walk()
        self.samples.append(time.perf_counter() - start)

    def speed(self) -> float:
        """Host speed relative to the reference (> 1: faster host)."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)

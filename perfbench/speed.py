"""CPU speed sampling, so that times taken on a host whose speed drifts can be
compared.

On a shared virtual machine the same work can take a third longer from one
minute to the next, because of load the guest cannot see.  While the measured
processes run, a thread of the benchmark pinned to each CPU they run on times
a fixed piece of pure-Python work every ``INTERVAL_S``, in the thread's own
CPU time.  The work does not touch kingmesh, but it is of the same kind as
kingmesh's hot loops.  A time taken at speed ``s`` (the median snippet time)
is reported as ``seconds * (REFERENCE_S / s) ** ELASTICITY``: about the time
the same run would take on a machine where the snippet takes ``REFERENCE_S``.

The workloads do not slow down exactly as much as the snippet: over two sets
of ten runs of each workload on the machine the benchmark was tuned on, their
times moved with about three quarters of the snippet's relative change, with
some workloads more and some less.  An exponent of 0.75 gave the smallest
worst-case spread over the four workloads (under 10 %, against 16 % with 1 and
up to 40 % unscaled).
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from itertools import permutations

INTERVAL_S = 0.05
REFERENCE_S = 0.001  # about the snippet's time on the machine the benchmark was tuned on
ELASTICITY = 0.75


def snippet_seconds() -> float:
    # small tuples and lists made and indexed per permutation
    t = time.thread_time()
    total = 0
    for perm in permutations(range(6)):
        row = [0] * 7
        for x in perm:
            row[x] += 1
            total += row[x] + (x > 2)
    return time.thread_time() - t


class Sampler:
    """Samples the snippet on each of ``cpus`` for the life of the ``with``."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # pins this thread only
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(snippet_seconds())

    def __enter__(self) -> "Sampler":
        self._threads = [threading.Thread(target=self._loop, args=(c,), daemon=True) for c in self.cpus]
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()

    def scale(self) -> float:
        """Factor that turns seconds taken at the sampled speed into reference
        seconds.  Without samples the speed is measured now."""
        samples = self.samples or [snippet_seconds() for _ in range(25)]
        return (REFERENCE_S / statistics.median(samples)) ** ELASTICITY

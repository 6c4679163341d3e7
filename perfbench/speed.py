"""Machine-speed reference that normalises measured times.

The hosts this benchmark runs on change speed by up to 2x over spans of
seconds to minutes (other tenants share the physical cores; process CPU
time slows down exactly as wall time does), which moves every timing of
a 20-second run by 10-26 %.  A fixed reference kernel, made of the two
kinds of work the speclab layers do (a scalar Python recurrence like the
Sturm pivot loop, and numpy arithmetic on 4096-element arrays), is timed
between queries, on as many cores as the queries use: one for queries
answered in this process, one per worker for sweep queries, whose grid
points run in a ``Pool`` of worker processes (the kernel then runs in
this process and in helper processes at the same time, and their times
are averaged).  A query's normalised latency is its measured latency
divided by the mean of the reference times measured just before and just
after it; the unit, ``ref``, is one reference-kernel time (about 2.5 ms on
a 2-vCPU x86 host).  The kernel shares no code with ``speclab``, so a
change to the program moves normalised times exactly as it moves
measured ones.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import numpy as np

REFERENCE_EVERY_S = 0.5   # time between reference measurements


def _kernel() -> float:
    q, below = 1.0, 0
    for _ in range(20000):
        q = 2.5 - 0.9 / q
        if q < 0.0:
            below += 1
    a = np.linspace(1.0, 2.0, 4096)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.5
    return float(a[0]) + below


def reference_s() -> float:
    """Median of three timings of the reference kernel, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _helper(conn) -> None:
    """Time the reference kernel on request until told to stop."""
    while conn.recv():
        conn.send(reference_s())


class SpeedReference:
    """Reference time around each query, for normalising its latency.

    ``cores`` is the number of processes a query computes in; with more
    than one, helper processes run the kernel alongside this one.  Call
    ``close`` to stop them.
    """

    def __init__(self, cores: int = 1) -> None:
        self.refs: list[float] = []
        self._helpers = []
        for _ in range(cores - 1):
            ours, theirs = multiprocessing.Pipe()
            proc = multiprocessing.get_context("fork").Process(
                target=_helper, args=(theirs,), daemon=True
            )
            proc.start()
            self._helpers.append((proc, ours))
        self._prev = self._measure()
        self._since = time.perf_counter()
        self._pending = 0

    def _measure(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        times = [reference_s()] + [conn.recv() for _, conn in self._helpers]
        return statistics.fmean(times)

    def close(self) -> None:
        for proc, conn in self._helpers:
            conn.send(False)
            proc.join()
        self._helpers = []

    def tick(self) -> None:
        """Call after each query."""
        self._pending += 1
        if time.perf_counter() - self._since >= REFERENCE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Close the queries since the last reference; call before reading."""
        if not self._pending:
            return
        now = self._measure()
        self.refs.extend([0.5 * (self._prev + now)] * self._pending)
        self._pending = 0
        self._prev = now
        self._since = time.perf_counter()

    def normalised(self, latencies: list[float]) -> list[float]:
        """Latencies in reference-kernel times (unit ``ref``)."""
        self.flush()
        return [t / r for t, r in zip(latencies, self.refs, strict=True)]

"""The host's speed, sampled while the workload's commands run.

On a shared host the same command can take twice as long from one minute to
the next, because other tenants slow the CPU it runs on. A thread in the
benchmark's own process therefore runs a fixed pure-Python kernel every
``PERIOD_S`` while the commands run, and records the CPU time each run of the
kernel took. A command's timings are scaled by ``REFERENCE_S`` over the mean
kernel time during the command, to the power ``SENSITIVITY``, i.e. to a host
on which the kernel takes ``REFERENCE_S``. The kernel is the benchmark's own
code, so a change to the engine moves the scaled timings as it moves the raw
ones.

The host slows each CPU on its own, so while sampling, the calling thread,
the sampler and every process the calling thread starts are pinned to one
CPU. The kernel's CPU time, not its wall time, is what counts: a slower CPU
makes it larger, while the kernel's thread waiting for the CPU or for the
benchmark's own lock does not. The kernel takes about 3 % of that CPU, from
the commands too, alike on every run.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

KERNEL_ITEMS = 2_000
PERIOD_S = 0.02
# About the kernel's fastest CPU time on the 2-vCPU host the benchmark was
# built on, so scaled timings read close to that host at its quietest.
REFERENCE_S = 4.4e-4
# The engine's commands slow more than the kernel does: on the build host,
# log command time over log kernel time had slopes of 1.2-1.5 across
# commands and kernels; 1.4 halved the spread between runs.
SENSITIVITY = 1.4
MIN_SAMPLES = 3


def kernel() -> int:
    """Builds, sorts and drops small objects, as interpreted code does; its
    time follows the engine's commands more closely than a bare arithmetic
    loop's does."""
    table = {}
    for i in range(KERNEL_ITEMS):
        table[i] = (i, str(i))
    return len(sorted(table.values(), key=lambda t: -t[0]))


class HostSpeed:
    """Use as a context manager around the commands; then ``scale(t0, t1)``
    gives the factor for an interval of ``time.perf_counter()`` (the
    monotonic clock, shared with the child processes on Linux)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.cpu_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)
        self._cpus: set[int] = set()

    def __enter__(self) -> "HostSpeed":
        # threads and child processes inherit the affinity of the thread
        # that starts them
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)

    def _sample(self) -> None:
        while not self._stop.is_set():
            t, c = time.perf_counter(), time.thread_time()
            kernel()
            self.cpu_s.append(time.thread_time() - c)
            self.starts.append(t)
            self._stop.wait(PERIOD_S)

    def scale(self, t0: float, t1: float) -> float:
        """(REFERENCE_S over the mean kernel time of the samples started in
        [t0, t1], or of the MIN_SAMPLES nearest its middle if it holds
        fewer) to the power SENSITIVITY."""
        n = min(len(self.starts), len(self.cpu_s))
        if n == 0:
            raise RuntimeError("no host-speed samples were taken")
        lo = bisect.bisect_left(self.starts, t0, 0, n)
        hi = bisect.bisect_right(self.starts, t1, 0, n)
        if hi - lo < MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            near = sorted(range(n), key=lambda i: abs(self.starts[i] - mid))[:MIN_SAMPLES]
            picked = [self.cpu_s[i] for i in near]
        else:
            picked = self.cpu_s[lo:hi]
        return (REFERENCE_S * len(picked) / sum(picked)) ** SENSITIVITY

"""Machine-speed calibration for the end-to-end timings.

Benchmark hosts are often shared virtual machines: neighbours slow them
for seconds at a time.  On a 2-vCPU shared VM a fixed workload's
2-second throughput swung between 6.6 and 12.7 specs/s within one
minute, and a vCPU ran at about half speed while its hyperthread
sibling was busy.  The slowdown is real CPU time (the process's CPU time
grows with its wall time; steal stays 0), so no clock hides it.  What does cancel it is a ratio: a small fixed kernel that
stresses the machine the way the verifier does (tuple keys hashed into a
growing dict, list appends) slows by the same factor.  Interleaving the
kernel with ``verify`` on that VM, the raw per-sample spread was 39%
and the ratio's 9%; one-minute chunk medians of the ratio agreed within
2% while the raw ones moved 15%.

A :class:`Sampler` times the kernel in thread CPU time -- inline between
timed work in process, or every ``INTERVAL_S`` on a thread while the
daemon process works -- and :meth:`Sampler.factor` turns the samples
around an interval into a slowdown factor against ``REFERENCE_S``.
End-to-end timings are divided by it -- they read as on a machine where
the kernel takes ``REFERENCE_S`` -- and throughputs multiplied.  The kernel is the benchmark's own code, so no change to the
program can move it.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from typing import List, Optional

#: Kernel CPU time, in seconds, on the speed every figure is scaled to.
REFERENCE_S = 0.002
KERNEL_STEPS = 4000
#: Kernel runs per inline sample.
BURST = 3
#: Background sampling period.
INTERVAL_S = 0.1
#: Inline samples taken this close to an interval count for it.
SLACK_S = 0.05


def cpus():
    """``(work, other)``: the CPU timed work is pinned to, and another
    one for a client process (the same one on a single-CPU machine)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def pin(cpu: int, thread: bool = False) -> None:
    """Pin this process (or, with ``thread``, the calling thread) to
    ``cpu``.  The slowdown is per CPU, so the kernel must run on the CPU
    whose speed it stands for."""
    os.sched_setaffinity(threading.get_native_id() if thread else 0, {cpu})


def kernel_seconds() -> float:
    """Thread CPU time of one fixed kernel run."""
    start = time.thread_time()
    table = {}
    nodes = []
    x = 12345
    for _ in range(KERNEL_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 63, (x >> 6) & 1023, (x >> 16) & 1023)
        if table.get(key) is None:
            table[key] = len(nodes)
            nodes.append(key)
    return time.thread_time() - start


class Sampler:
    """Kernel timings, taken inline between timed work or by a background
    thread (:meth:`background`) while another process does the work."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._seconds: List[float] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self, runs: int = BURST) -> None:
        """Time the kernel ``runs`` times now (outside any timed span:
        in process, a kernel run would delay the work it measures)."""
        for _ in range(runs):
            seconds = kernel_seconds()
            self._times.append(time.perf_counter())
            self._seconds.append(seconds)

    def _run(self, cpu: int) -> None:
        pin(cpu, thread=True)
        while not self._stop.wait(INTERVAL_S):
            self.sample(1)

    def background(self, cpu: int) -> "Sampler":
        """Start sampling every ``INTERVAL_S`` on a thread pinned to
        ``cpu``; use as a context manager.  For work another process
        does on that CPU."""
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, args=(cpu,),
                                        daemon=True)
        self._thread.start()
        return self

    def __enter__(self) -> "Sampler":
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def factor(self, start: float, end: float) -> float:
        """Slowdown over ``[start, end]`` (``perf_counter`` instants): the
        median kernel time within ``SLACK_S`` of the interval over
        ``REFERENCE_S``; the nearest earlier sample if there is none."""
        low = bisect.bisect_left(self._times, start - SLACK_S)
        high = bisect.bisect_right(self._times, end + SLACK_S)
        chosen = self._seconds[low:high] or [self._seconds[max(0, low - 1)]]
        return statistics.median(chosen) / REFERENCE_S
